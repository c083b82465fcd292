import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from treetail import (
    Constant,
    DeterministicWeight,
    Exponential,
    IndependentIID,
    InverseN,
    KIND_R_PARTIAL,
    KIND_R_STAR,
    KIND_W,
    PageRankLike,
    Pareto,
    Shifted,
    StreamTree,
    Uniform,
    ZetaTail,
    constant_pool,
    evolve_pool_r,
    evolve_pool_w,
    init_pool,
    iterate_fixed_point,
    ks_critical_value,
    ks_distance,
    sample_r_exact,
    sample_w_exact,
    sample_weighted_sum,
)
from treetail import simulate
from treetail.branching import rho_beta_mc
from treetail.errors import BudgetExceeded, DomainError, FingerprintMismatch
from treetail.streams import BLOCK, TAG_POOL_INIT, TAG_POOL_R, TAG_POOL_RSTAR, TAG_POOL_W

pytestmark = pytest.mark.filterwarnings("ignore:pool of size")


def chain_law(c=0.5):
    """Single-child law: the tree is one path, so everything is closed form."""
    return DeterministicWeight(Constant(1.0), Constant(1.0), c)


def smooth_law():
    return IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.5))


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def test_exact_sampler_on_a_deterministic_chain():
    rng = np.random.default_rng(0)
    r = sample_r_exact(chain_law(), 5, rng, size=64)
    expected = sum(0.5 ** k for k in range(6))
    np.testing.assert_allclose(r, expected, rtol=0, atol=0)
    w = sample_w_exact(chain_law(), 5, np.random.default_rng(0), size=16)
    np.testing.assert_allclose(w, 0.5 ** 5, rtol=0, atol=0)


def test_exact_sampler_one_tree():
    value = sample_r_exact(chain_law(), 3, np.random.default_rng(0), size=1)
    assert value.shape == (1,)
    assert value[0] == sum(0.5 ** k for k in range(4))


def test_exact_sampler_depth_zero_is_q():
    law = smooth_law()
    a = sample_r_exact(law, 0, np.random.default_rng(5), size=1000)
    b = law.q_dist.sample_many(np.random.default_rng(5), 1000)
    np.testing.assert_array_equal(a, b)


def test_exact_sampler_mean_identity():
    law = smooth_law()  # rho = 0.5
    samples = sample_r_exact(law, 8, np.random.default_rng(11), size=40_000)
    predicted = (1.0 - 0.5 ** 9) / 0.5  # E[Q] (1 - rho^(n+1)) / (1 - rho)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - predicted) < 4.5 * se


def test_exact_sampler_budget():
    law = IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.4))
    with pytest.raises(BudgetExceeded):
        sample_r_exact(law, 40, np.random.default_rng(0), size=10)


class _Reached(Exception):
    """Raised by a patched root draw to show that the budget checks let the trees through."""


def test_exact_trees_past_physical_memory_are_refused_before_any_draw(physical_memory):
    # 2^20 nodes per tree pass the per-tree budget of 10^7, but 10^6 such
    # trees would hold 32 bytes times 2^20 times 10^6, about 31 TiB, at once
    law = IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.4))
    with mock.patch.object(IndependentIID, "draw_roots", side_effect=AssertionError("drew roots")):
        with pytest.raises(BudgetExceeded, match="physical memory"):
            sample_r_exact(law, 20, np.random.default_rng(0), size=10 ** 6)
        # ten trees of depth 5 project 32 bytes times 2^5 times 10
        with physical_memory(32 * 2 ** 5 * 10 - 1), pytest.raises(BudgetExceeded, match="physical memory"):
            sample_w_exact(law, 5, np.random.default_rng(0), size=10)
    with physical_memory(32 * 2 ** 5 * 10), \
            mock.patch.object(IndependentIID, "draw_roots", side_effect=_Reached):
        with pytest.raises(_Reached):
            sample_w_exact(law, 5, np.random.default_rng(0), size=10)


def test_a_realized_generation_past_physical_memory_is_refused_before_it_is_allocated(physical_memory):
    # with E[N] patched to 1 the ten trees project 32 bytes times 10 nodes,
    # but N = 2 makes generation 1 hold 20 nodes, 640 bytes
    law = IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.4))
    with mock.patch.object(IndependentIID, "mean_n", return_value=1.0), \
            mock.patch.object(np, "repeat", side_effect=AssertionError("repeated")):
        with physical_memory(32 * 20 - 1), pytest.raises(BudgetExceeded, match="physical memory"):
            sample_r_exact(law, 3, np.random.default_rng(0), size=10)
    # the deepest generation, 80 nodes, is the largest each tree reaches
    with mock.patch.object(IndependentIID, "mean_n", return_value=1.0):
        with physical_memory(32 * 80 - 1), pytest.raises(BudgetExceeded, match="generation 3 of 10"):
            sample_w_exact(law, 3, np.random.default_rng(0), size=10)
        with physical_memory(32 * 80):
            assert sample_w_exact(law, 3, np.random.default_rng(0), size=10).shape == (10,)


def test_weighted_sum_oracle():
    law = DeterministicWeight(Constant(1.0), Constant(2.0), 0.5)
    out = sample_weighted_sum(law, Constant(3.0), np.random.default_rng(0), size=50)
    np.testing.assert_allclose(out, 1.0 + 0.5 * 6.0, rtol=0, atol=0)
    one = sample_weighted_sum(law, Constant(3.0), np.random.default_rng(0), size=1)
    assert one.shape == (1,)
    assert one[0] == 4.0


def test_a_weighted_sum_with_no_children_is_float64():
    # N = ZetaTail(2) - 1 is 0 for most nodes; the one node drawn here has
    # no child, and np.bincount of no weights gives int64 zeros
    law = DeterministicWeight(Pareto(2, 1), Shifted(ZetaTail(2), -1), 0.3)
    q, n, _ = law.draw_roots(1, np.random.default_rng(0))
    assert n.sum() == 0
    out = sample_weighted_sum(law, Pareto(2, 1), np.random.default_rng(0), size=1)
    assert out.dtype == np.float64
    assert out.tobytes() == q.astype(np.float64).tobytes()


def test_weighted_sum_mean():
    law = smooth_law()
    x = Pareto(2.0, 1.0)  # E[X] = 2
    out = sample_weighted_sum(law, x, np.random.default_rng(3), size=60_000)
    predicted = 1.0 + 0.5 * 2.0  # E[Q] + rho E[X]
    se = out.std(ddof=1) / math.sqrt(out.size)
    assert abs(out.mean() - predicted) < 4.5 * se


# ---------------------------------------------------------------------------
# population pools
# ---------------------------------------------------------------------------

def test_init_pool_kinds_and_metadata():
    law = smooth_law()
    streams = StreamTree(123)
    w0 = init_pool(law, 10_000, streams, kind=KIND_W)
    r0 = init_pool(law, 10_000, streams, kind=KIND_R_PARTIAL)
    assert w0.kind == KIND_W and w0.generation == 0
    assert r0.kind == KIND_R_PARTIAL
    # both start from the same Q stream: generation zero is identical
    np.testing.assert_array_equal(w0.values, r0.values)
    assert w0.law_fingerprint == law.fingerprint()
    with pytest.raises(DomainError):
        init_pool(law, 10_000, streams, kind=KIND_R_STAR)


def test_constant_pool():
    law = smooth_law()
    pool = constant_pool(law, 5_000, 100.0)
    assert pool.kind == KIND_R_STAR
    assert pool.generation == 0
    assert np.all(pool.values == 100.0)


def test_evolve_guards():
    law = smooth_law()
    streams = StreamTree(9)
    w = init_pool(law, 10_000, streams, kind=KIND_W)
    r = init_pool(law, 10_000, streams, kind=KIND_R_PARTIAL)
    with pytest.raises(DomainError):
        evolve_pool_w(law, r, streams)
    with pytest.raises(DomainError):
        evolve_pool_r(law, w, streams)
    other = IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.4))
    with pytest.raises(FingerprintMismatch):
        evolve_pool_r(other, r, streams)


def test_evolution_of_the_deterministic_chain():
    law = chain_law()
    streams = StreamTree(77)
    w = init_pool(law, 10_000, streams, kind=KIND_W)
    for n in range(1, 4):
        w = evolve_pool_w(law, w, streams)
        assert w.generation == n
        np.testing.assert_allclose(w.values, 0.5 ** n, rtol=0, atol=0)
    r = init_pool(law, 10_000, streams, kind=KIND_R_PARTIAL)
    for n in range(1, 4):
        r = evolve_pool_r(law, r, streams)
        expected = sum(0.5 ** k for k in range(n + 1))
        np.testing.assert_allclose(r.values, expected, rtol=0, atol=0)


def test_pool_mean_tracks_the_geometric_identity():
    law = smooth_law()  # rho = 0.5, E[Q] = 1
    streams = StreamTree(2024)
    size = 50_000
    pool = init_pool(law, size, streams, kind=KIND_W)
    var_mean = pool.values.var(ddof=1) / size
    for n in range(1, 7):
        pool = evolve_pool_w(law, pool, streams)
        # pool members share the parent pool, so the mean's variance
        # carries rho^2 times the parent's in addition to the fresh term
        var_mean = pool.values.var(ddof=1) / size + 0.25 * var_mean
        dev = abs(pool.values.mean() - 0.5 ** n)
        assert dev < 5.0 * math.sqrt(var_mean)


def test_threading_does_not_change_results():
    # four blocks, so a thread pool would have had work to split; sampling is
    # serial, so no thread starts and threads=4 draws the bytes of threads=1
    law = smooth_law()
    pool = init_pool(law, 200_000, StreamTree(5), kind=KIND_R_PARTIAL)
    with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("a thread started")) as start:
        threaded = evolve_pool_r(law, pool, StreamTree(5), threads=4)
    assert start.call_count == 0
    np.testing.assert_array_equal(threaded.values, evolve_pool_r(law, pool, StreamTree(5), threads=1).values)


def test_pool_sizes_above_one_block_are_block_invariant():
    # 70000 > the 65536 scheduling block, so this exercises the seam
    law = smooth_law()
    a = init_pool(law, 70_000, StreamTree(5), kind=KIND_W)
    # a shorter pool is a prefix: block streams do not depend on total size
    short = init_pool(law, 65_536, StreamTree(5), kind=KIND_W)
    np.testing.assert_array_equal(a.values[:65_536], short.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_scheduler_stops_at_the_first_block_with_a_non_finite_value(bad):
    filled = []

    def fill(rng, out):
        out[:] = 1.0
        if len(filled) == 1:
            out[-1] = bad
        filled.append(out.size)

    with pytest.raises(DomainError, match="finite"):
        simulate._run_blocks(fill, StreamTree(1), TAG_POOL_W, 1, 3 * BLOCK)
    assert filled == [BLOCK, BLOCK]


def test_the_scheduler_keeps_finite_blocks_whose_sum_overflows():
    # each block sums to inf, so its values are checked one by one, with no warning
    values = simulate._run_blocks(lambda rng, out: out.fill(1e308), StreamTree(1), TAG_POOL_W, 1,
                                  BLOCK + 2)
    assert np.all(values == 1e308)


# N - 1 for N ~ ZetaTail(2): 75% of nodes have no children
CHILDLESS = Shifted(ZetaTail(2.0), -1.0)

# one law per model; Q ~ ZetaTail(2) - 2 takes the integers from -1 up, so
# sums cancel to exact zeros, whose sign the byte comparison reads
BIT_LAWS = {
    "independent_iid": IndependentIID(Shifted(Exponential(1.0), -1.0), CHILDLESS, Uniform(0.0, 0.5)),
    "deterministic_weight": DeterministicWeight(Shifted(ZetaTail(2.0), -2.0), CHILDLESS, 0.5),
    "pagerank_like": PageRankLike(0.85, ZetaTail(2.0), ZetaTail(2.0)),
    "inverse_n": InverseN(Pareto(2.5, 1.0), CHILDLESS, 0.9, 0.5),
}
# and every node with the same k children, which the node step sums by
# columns (k >= 1); 75% of the weights ZetaTail(2) - 1 are 0, which times
# a negative parent is -0.0, so child sums are exact zeros of either sign
# unless they start from 0.0 as bincount's do
BIT_LAWS.update({
    f"constant_n{k}": IndependentIID(Shifted(Exponential(1.0), -1.0), Constant(float(k)), CHILDLESS)
    for k in (0, 1, 3)
})


# X of the one-shot sums, the integers from -1 up, so they cancel to exact zeros too
BIT_X = Shifted(ZetaTail(2.0), -2.0)


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5_000])
@pytest.mark.parametrize("model", sorted(BIT_LAWS))
def test_pools_drawn_in_place_are_the_concatenated_blocks_bit_for_bit(model, size, block_reference):
    run_blocks, evolve_block, weighted_sum, rho_sums = block_reference
    law, streams = BIT_LAWS[model], StreamTree(11)

    def assert_bits(got, want):
        # a pool holds float64, whatever the reference's blocks hold
        assert got.dtype == np.float64
        assert got.tobytes() == want.astype(np.float64).tobytes()

    start = init_pool(law, size, streams, kind=KIND_W)
    assert_bits(start.values,
                run_blocks(lambda rng, m: law.sample_q_many(m, rng), streams, TAG_POOL_INIT, 0, size))
    steps = {
        KIND_W: (start, lambda pool: evolve_pool_w(law, pool, streams), TAG_POOL_W),
        KIND_R_PARTIAL: (init_pool(law, size, streams),
                         lambda pool: evolve_pool_r(law, pool, streams), TAG_POOL_R),
        KIND_R_STAR: (constant_pool(law, size, 0.0),
                      lambda pool: iterate_fixed_point(law, pool, 1, streams), TAG_POOL_RSTAR),
    }
    for kind, (pool, step, tag) in steps.items():
        for gen in (1, 2):
            new = step(pool)
            assert new.generation == gen
            want = run_blocks(evolve_block(law, pool.values, add_q=kind != KIND_W), streams, tag, gen, size)
            assert_bits(new.values, want)
            pool = new

    # the one-shot sums and rho_beta_mc take the same node step on one generator
    assert_bits(sample_weighted_sum(law, BIT_X, np.random.default_rng(size), size),
                weighted_sum(law, BIT_X, np.random.default_rng(size), size))
    draws = max(size, 2)
    for beta in (0.5, 2.0, 2.5):
        sums = rho_sums(law, beta, draws, np.random.default_rng(size))
        assert rho_beta_mc(law, beta, draws, np.random.default_rng(size)) == (
            float(sums.mean()), float(sums.std(ddof=1) / math.sqrt(draws)))


def _traced_peak_above(pool, step) -> float:
    """The traced peak of ``step(pool)`` above what was live before it, in sizes of ``pool``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step(pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / pool.values.nbytes


@pytest.mark.parametrize("kind", [KIND_W, KIND_R_PARTIAL, KIND_R_STAR])
def test_one_generation_holds_its_output_and_one_block_beyond_its_input(kind):
    # each block is written straight into the new pool, so a generation
    # holds its output and one block's temporaries: traced at 2^20 on the
    # zn-baseline law, 1.38 pool sizes above the input (1.44 on the
    # q-baseline law; 2.00 while the blocks were kept and concatenated)
    law = DeterministicWeight(Constant(1.0), ZetaTail(2.0), 0.24317084074161066)
    streams = StreamTree(20260815)
    size = 1 << 20
    step = {KIND_W: lambda p: evolve_pool_w(law, p, streams),
            KIND_R_PARTIAL: lambda p: evolve_pool_r(law, p, streams),
            KIND_R_STAR: lambda p: iterate_fixed_point(law, p, 1, streams)}[kind]
    pool = constant_pool(law, size, 0.0) if kind == KIND_R_STAR else init_pool(law, size, streams, kind=kind)
    assert _traced_peak_above(pool, step) < 1.5


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

def test_iterate_fixed_point_structure():
    law = smooth_law()
    streams = StreamTree(31)
    start = constant_pool(law, 20_000, 0.0)
    last = iterate_fixed_point(law, start, 4, streams)
    assert last.kind == KIND_R_STAR
    assert last.generation == 4
    # one call of k steps is k calls of one step
    step = start
    for _ in range(4):
        step = iterate_fixed_point(law, step, 1, streams)
    np.testing.assert_array_equal(last.values, step.values)
    assert iterate_fixed_point(law, start, 0, streams) is start
    r0 = init_pool(law, 20_000, streams, kind=KIND_R_PARTIAL)
    with pytest.raises(DomainError):
        iterate_fixed_point(law, r0, 2, streams)


def test_iterate_from_zero_matches_partial_sums():
    """Starting at zero, iterate k lands on the horizon-(k-1) distribution."""
    law = smooth_law()
    streams = StreamTree(404)
    size = 100_000
    step4 = iterate_fixed_point(law, constant_pool(law, size, 0.0), 4, streams)
    r = init_pool(law, size, streams, kind=KIND_R_PARTIAL)
    for _ in range(3):
        r = evolve_pool_r(law, r, streams)
    d = ks_distance(step4.values, r.values)
    assert d < ks_critical_value(size, size, level=0.01)


def test_iterated_chains_from_far_inits_contract():
    law = smooth_law()
    streams = StreamTree(8)
    size = 50_000
    lo2 = iterate_fixed_point(law, constant_pool(law, size, 0.0), 2, streams)
    hi2 = iterate_fixed_point(law, constant_pool(law, size, 100.0), 2, streams)
    # the initial gap of 100 shrinks like rho^k = 2^-k
    d2 = ks_distance(lo2.values, hi2.values)
    d12 = ks_distance(iterate_fixed_point(law, lo2, 10, streams).values,
                      iterate_fixed_point(law, hi2, 10, streams).values)
    assert d12 < d2
    assert d12 < 0.05
