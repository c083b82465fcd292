import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treetail import (
    Pareto,
    TailReport,
    Uniform,
    geometric_decay_fit,
    hill,
    hill_curve,
    ks_critical_value,
    ks_distance,
    tail_ratio,
    tail_ratio_analytic,
)
from treetail import tailstats
from treetail.errors import BudgetExceeded, DegenerateTail, DomainError, EmptyGrid, NonPositive, TreetailError
from treetail.streams import BLOCK
from treetail.tailstats import TailSketch, TailSketchBuilder

RNG = lambda seed=0: np.random.default_rng(seed)


def pareto_samples(alpha, n, seed=0):
    return Pareto(alpha, 1.0).sample_many(RNG(seed), n)


# ---------------------------------------------------------------------------
# hill estimator
# ---------------------------------------------------------------------------

def test_hill_by_hand():
    samples = np.array([8.0, 4.0, 2.0, 1.0])
    # k = 2: mean of log(8/2), log(4/2) is 1.5 log 2
    assert hill(samples, 2) == pytest.approx(1.0 / (1.5 * math.log(2.0)), rel=1e-12)


def test_hill_recovers_pareto_index():
    samples = pareto_samples(2.0, 100_000, seed=4)
    est = hill(samples, 1000)
    assert abs(est - 2.0) < 0.25  # sd is alpha / sqrt(k) ~ 0.063


def test_hill_validation():
    samples = pareto_samples(2.0, 100)
    with pytest.raises(DomainError):
        hill(samples, 1)
    with pytest.raises(DomainError):
        hill(samples, 100)
    with pytest.raises(DegenerateTail):
        hill(np.full(50, 7.0), 5)
    # negative values are ignored; only the positive part counts
    mixed = np.concatenate([samples, -np.ones(1000)])
    assert hill(mixed, 10) == hill(samples, 10)


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=30)
def test_hill_is_scale_invariant(scale):
    samples = pareto_samples(1.5, 500, seed=9)
    assert hill(samples * scale, 30) == pytest.approx(hill(samples, 30), rel=1e-9)


def test_hill_curve_shape():
    samples = pareto_samples(2.0, 20_000, seed=2)
    curve = hill_curve(samples)
    ks = list(curve)
    assert ks == sorted(ks)
    assert len(ks) <= 9
    assert all(2 <= k < samples.size for k in ks)
    assert all(est > 0 for est in curve.values())


def test_hill_curve_equals_hill_at_each_k():
    # negatives, zeros and ties near the top order statistics
    samples = np.concatenate([pareto_samples(2.0, 5_000, seed=3).round(2),
                              -pareto_samples(2.0, 1_000, seed=4), np.zeros(500)])
    RNG(5).shuffle(samples)
    curve = hill_curve(samples)
    assert curve == {k: hill(samples, k) for k in curve}


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TreetailError as exc:
        return type(exc), str(exc)


_HILL_VALUES = st.one_of(
    st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 1.0, 3.0, math.nan, math.inf]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


# subnormal values overflow the ratio to the reference statistic in both
# estimators alike; the warning says nothing about the comparison
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_HILL_VALUES, min_size=1, max_size=120),
    k=st.integers(min_value=0, max_value=130),
    order=st.sampled_from(["as drawn", "sorted", "reversed"]),
)
def test_hill_equals_the_partition_reference(hill_reference, values, k, order):
    ref_hill, ref_curve = hill_reference
    arr = _arrange(values, order)
    kept = arr.copy()
    assert _outcome(hill, arr, k) == _outcome(ref_hill, arr, k)
    assert _outcome(hill_curve, arr) == _outcome(ref_curve, arr)
    assert np.array_equal(arr, kept, equal_nan=True)


@pytest.mark.parametrize("order", ["as drawn", "sorted", "reversed"])
def test_hill_equals_the_reference_on_strided_subsamples(hill_reference, order):
    """Samples of several 2^16-value slices, gathered one slice at a time."""
    ref_hill, ref_curve = hill_reference
    rng = RNG(12)
    values = np.concatenate([pareto_samples(2.0, 300_000, seed=13).round(1),
                             -np.ones(20_000), np.zeros(20_000), [np.nan] * 10])
    rng.shuffle(values)
    arr = _arrange(values, order)
    for k in (2, 10, 1000, 30_000):
        assert hill(arr, k) == ref_hill(arr, k)
    assert hill_curve(arr) == ref_curve(arr)


def test_hill_falls_back_when_the_subsample_misleads(hill_reference):
    # the 1000 large values sit on every fourth index of the first 2^16-value
    # slice; at k = 2000 the rest of the top k + 1 are ties at 0.5, which
    # the sketch counts at its cutoff and does not store
    ref_hill, _ = hill_reference
    arr = np.full(1 << 18, 0.5)
    arr[: 4 * 1000: 4] = 1000.0 + np.arange(1000.0)
    assert hill(arr, 2000) == ref_hill(arr, 2000)
    assert hill(arr, 500) == ref_hill(arr, 500)


def _peak_bytes(fn, *args, **kwargs) -> int:
    """The traced peak of ``fn`` above what was allocated when it was called."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hill_reads_the_sample_without_copying_it():
    x = pareto_samples(2.0, 2_000_000, seed=14)
    # copying and partitioning the positives peaked at 1.13x and 1.17x the input's bytes
    assert _peak_bytes(hill, x, 1000) <= 0.15 * x.nbytes
    assert _peak_bytes(hill_curve, x) <= 0.5 * x.nbytes


def test_ks_distance_peak_memory():
    a = RNG(15).random(1_000_000)
    b = RNG(16).random(1_000_000)
    # the two sorted copies are 15.3 MiB; the cuts with their bounds and one
    # merge add about 1.4 MiB (16.7 MiB in all, 19.4 when every chunk was merged)
    assert _peak_bytes(ks_distance, a, b) <= 18 * 2 ** 20


def test_ks_distance_peak_memory_on_heavy_ties():
    a = np.ones(1_000_000)
    b = RNG(17).random(1_000_000)
    # the run of 1.0 holds cuts, so it is read once and never merged
    # (15.4 MiB; 16.8 MiB when every chunk was merged)
    assert _peak_bytes(ks_distance, a, b) <= 16.5 * 2 ** 20


def test_ks_distance_sorts_no_sample_already_in_order():
    a = np.sort(RNG(15).random(1_000_000))
    b = RNG(16).random(1_000_000)
    ks_distance(a[:10], b[:10])  # the first call in a process imports numpy.ma, about 1.1 MiB
    # one sorted copy, 7.6 MiB, and the cuts and one merge: 7.99 MiB in all,
    # against 16.7 MiB when both samples are sorted
    assert _peak_bytes(ks_distance, a, b) <= 9 * 2 ** 20
    assert _peak_bytes(ks_distance, b, a) <= 9 * 2 ** 20


# ---------------------------------------------------------------------------
# two-sample KS
# ---------------------------------------------------------------------------

def test_ks_distance_by_hand():
    assert ks_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert ks_distance(np.zeros(4), np.ones(4)) == 1.0
    assert ks_distance(np.array([0.0, 1.0]), np.array([0.5])) == pytest.approx(0.5)


def test_ks_distance_matches_scipy():
    a = RNG(1).normal(size=1357)
    b = RNG(2).normal(size=911) * 1.1 + 0.05
    expected = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert ks_distance(a, b) == pytest.approx(expected, abs=1e-12)
    assert ks_distance(b, a) == pytest.approx(expected, abs=1e-12)


def test_ks_distance_with_heavy_ties():
    a = np.repeat([1.0, 2.0, 3.0], 5)
    b = np.repeat([1.0, 2.0, 3.0], 7)
    assert ks_distance(a, b) == pytest.approx(0.0, abs=1e-15)
    c = np.repeat([1.0, 3.0], 5)
    expected = scipy.stats.ks_2samp(a, c, method="asymp").statistic
    assert ks_distance(a, c) == pytest.approx(expected, abs=1e-12)


_TIED = st.sampled_from([-3.0, -0.5, -0.0, 0.0, 1.0, 2.0, 2.0 + 2.0 ** -50])
_ANY = st.floats(min_value=-1e300, max_value=1e300)
_ORDERS = st.sampled_from(["as drawn", "sorted", "reversed"])


def _arrange(values, order):
    arr = np.asarray(values, dtype=float)
    if order == "sorted":
        return np.sort(arr)
    if order == "reversed":
        return np.sort(arr)[::-1]
    return arr


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.one_of(_TIED, _ANY), min_size=1, max_size=80),
    b=st.lists(st.one_of(_TIED, _ANY), min_size=1, max_size=80),
    order_a=_ORDERS,
    order_b=_ORDERS,
)
def test_ks_distance_equals_the_searchsorted_reference(ks_reference, a, b, order_a, order_b):
    a, b = _arrange(a, order_a), _arrange(b, order_b)
    _assert_ks_is_exact(ks_reference, a, b)


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(_TIED, min_size=1, max_size=200),
    b=st.lists(_TIED, min_size=1, max_size=3),
    order=_ORDERS,
)
def test_ks_distance_equals_the_reference_on_heavy_ties(ks_reference, a, b, order):
    # few distinct values, sample sizes down to one and far apart
    a, b = _arrange(a, order), np.asarray(b, dtype=float)
    _assert_ks_is_exact(ks_reference, a, b)


def _assert_ks_is_exact(ks_reference, a, b, chunks=None):
    """ks_distance both ways equals the reference at each chunk size (default: the module's).

    At a chunk size other than the module's, merges of adjacent chunks are
    capped both at one chunk and at four, so some merges take one chunk
    and others several, with the cuts between them.
    """
    if chunks is None:
        sizes = [(tailstats._KS_CHUNK, tailstats._KS_MERGE)]
    else:
        sizes = [(chunk, chunk * cap) for chunk in chunks for cap in (1, 4)]
    for chunk, merge in sizes:
        with mock.patch.multiple(tailstats, _KS_CHUNK=chunk, _KS_MERGE=merge):
            assert ks_distance(a, b) == ks_reference(a, b)
            assert ks_distance(b, a) == ks_reference(b, a)


# chunks of one to three values put cuts inside and between runs of ties
_SMALL_CHUNKS = (1, 2, 3)


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.one_of(_TIED, _ANY), min_size=1, max_size=80),
    b=st.lists(st.one_of(_TIED, _ANY), min_size=1, max_size=80),
    order_a=_ORDERS,
    order_b=_ORDERS,
)
def test_ks_distance_equals_the_searchsorted_reference_at_small_chunks(
        ks_reference, a, b, order_a, order_b):
    a, b = _arrange(a, order_a), _arrange(b, order_b)
    _assert_ks_is_exact(ks_reference, a, b, _SMALL_CHUNKS)


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(_TIED, min_size=1, max_size=200),
    b=st.lists(_TIED, min_size=1, max_size=3),
    order=_ORDERS,
)
def test_ks_distance_equals_the_reference_on_heavy_ties_at_small_chunks(ks_reference, a, b, order):
    a, b = _arrange(a, order), np.asarray(b, dtype=float)
    _assert_ks_is_exact(ks_reference, a, b, _SMALL_CHUNKS)


def test_ks_distance_equals_the_reference_across_chunks(ks_reference):
    rng = RNG(18)
    # about 2000 ties per value, so cuts fall inside long runs
    rounded = np.round(rng.random(200_000), 2)
    continuous = rng.random(150_000)
    assert 200_000 // tailstats._KS_CHUNK >= 4
    _assert_ks_is_exact(ks_reference, rounded, continuous)
    # NaN and +inf fill the last chunk, -inf sits in the first
    continuous[rng.choice(continuous.size, 60, replace=False)] = np.repeat([np.nan, np.inf, -np.inf], 20)
    rounded[:7] = np.nan
    _assert_ks_is_exact(ks_reference, rounded, continuous)
    # a chain pool at its first step: one value a million times
    _assert_ks_is_exact(ks_reference, np.full(1_000_000, 1.0), rng.random(1_000_000) * 2.0)


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.one_of(_TIED, _ANY, _SPECIAL), min_size=1, max_size=80),
    b=st.lists(st.one_of(_TIED, _SPECIAL), min_size=1, max_size=80),
    check=st.sampled_from([1, 2, 3, tailstats._SORTED_CHECK]),
)
def test_ks_distance_reads_sorted_read_only_samples_exactly(ks_reference, a, b, check):
    # each sample is passed sorted (NaNs last, which fails the order check)
    # and as drawn, both read-only, at order-check blocks of 1 to 3 values
    # and the module's; neither is written to
    samples = [np.asarray(a, dtype=float), np.asarray(b, dtype=float)]
    samples += [np.sort(x) for x in samples]
    for x in samples:
        x.setflags(write=False)
    before = [x.tobytes() for x in samples]
    with mock.patch.object(tailstats, "_SORTED_CHECK", check):
        for x in samples:
            for y in samples:
                assert ks_distance(x, y) == ks_reference(x, y)
    assert [x.tobytes() for x in samples] == before


def test_ks_distance_takes_interleaved_signed_zeros_as_sorted(ks_reference):
    # -0.0 == 0.0, so this order passes the check; np.sort may order them otherwise
    a = np.array([-1.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 2.0, np.inf])
    b = np.array([-np.inf, 0.0, -0.0, 1.0])
    assert tailstats._sorted(a) is a
    for x, y in ((a, b), (b, a), (a, a[::-1]), (a, a[:4])):
        assert ks_distance(x, y) == ks_reference(x, y)


def test_the_order_check_sorts_only_samples_out_of_order():
    x = np.arange(10.0)
    with mock.patch.object(tailstats, "_SORTED_CHECK", 3):
        assert tailstats._sorted(x) is x
        # out of order only across a block boundary, or only at the last value
        for i in (2, 3, 8):
            y = x.copy()
            y[i], y[i + 1] = y[i + 1], y[i]
            assert np.array_equal(tailstats._sorted(y), x)
        y = np.append(x, np.nan)
        assert tailstats._sorted(y) is not y
        assert np.array_equal(tailstats._sorted(y), y, equal_nan=True)
    # a single value is in order, even a NaN
    one = np.array([np.nan])
    assert tailstats._sorted(one) is one


def _merged_values(a, b) -> tuple[float, int, int]:
    """(ks_distance(a, b), the merges it makes, the values of both samples they read)."""
    with mock.patch.object(tailstats, "_ks_chunk", wraps=tailstats._ks_chunk) as spy:
        d = ks_distance(a, b)
    return d, spy.call_count, sum(c.args[0].size + c.args[1].size for c in spy.call_args_list)


def test_ks_distance_merges_a_handful_of_chunks_of_far_apart_samples(ks_reference):
    rng = RNG(19)
    a, b = rng.normal(size=1_000_000), rng.normal(6.0, size=1_000_000)
    d, merges, values = _merged_values(a, b)
    assert d == ks_reference(a, b)
    # every other chunk's bound is at most the distance at the cuts; merging
    # every chunk took 63 merges that read all but 64 of the 2M values
    assert merges <= 4
    assert values <= 4 * 2 * tailstats._KS_CHUNK


def test_ks_distance_merges_a_small_share_of_overlapping_samples(ks_reference):
    rng = RNG(20)
    a, b = rng.normal(size=1_000_000), rng.normal(0.5, size=1_000_000)
    d, _, values = _merged_values(a, b)
    assert d == ks_reference(a, b)
    # only chunks near the largest gap can hold it
    assert values <= 0.1 * (a.size + b.size)


def test_ks_distance_of_equal_samples_merges_long_runs_of_chunks(ks_reference):
    a = RNG(21).random(1_000_000)
    b = a[::-1].copy()
    d, merges, values = _merged_values(a, b)
    # nothing can be pruned at D = 0, so all values but the cuts are merged,
    # and adjacent chunks go into one merge of up to _KS_MERGE values of
    # each sample: the fewest merges that cap allows, as many as when every
    # chunk of 2^15 values was merged
    assert d == ks_reference(a, b) == 0.0
    assert values >= 0.99 * (a.size + b.size)
    assert merges <= math.ceil(a.size / tailstats._KS_MERGE)


def test_ks_distance_equals_the_reference_with_nans_and_infinities(ks_reference):
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0])
    rng = RNG(9)
    for _ in range(200):
        a = rng.choice(values, rng.integers(1, 8))
        b = rng.choice(values, rng.integers(1, 8))
        assert ks_distance(a, b) == ks_reference(a, b)


def test_ks_critical_value():
    # sqrt(-log(level/2)/2) * sqrt((n+m)/(n m))
    got = ks_critical_value(100, 100, level=0.01)
    assert got == pytest.approx(math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(0.02), rel=1e-12)
    assert ks_critical_value(10_000, 10_000) < ks_critical_value(100, 100)


# ---------------------------------------------------------------------------
# tail ratio reports
# ---------------------------------------------------------------------------

def test_tail_ratio_of_identical_samples_is_one():
    samples = pareto_samples(2.0, 50_000, seed=3)
    rep = tail_ratio(samples, samples, (0.05, 0.01), bootstrap_b=300, rng=RNG(8))
    assert rep.quantile_grid == (0.05, 0.01)
    np.testing.assert_allclose(rep.ratio, 1.0, rtol=1e-12)
    for lo, hi in zip(rep.ratio_ci_low, rep.ratio_ci_high):
        assert lo <= 1.0 <= hi
    assert rep.n_samples == (50_000, 50_000)


def test_tail_ratio_detects_a_known_scaling():
    """num = 2 X has P(num > x) = 4 P(X > x) for Pareto(2) tails."""
    den = pareto_samples(2.0, 200_000, seed=5)
    num = 2.0 * den
    rep = tail_ratio(num, den, (0.01, 0.001), bootstrap_b=400, rng=RNG(8))
    for r, lo, hi in zip(rep.ratio, rep.ratio_ci_low, rep.ratio_ci_high):
        assert 3.3 < r < 4.7
        assert lo <= r <= hi
    assert rep.hill_curve  # attached by default on the numerator


def test_tail_ratio_counts_strict_exceedances():
    # x = 3 sits on a tie: only the values strictly above it count
    num = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0])
    den = Uniform(0.0, 4.0)
    rep = tail_ratio_analytic(num, den, [0.25],
                              min_exceedances=1, bootstrap_b=200, with_hill=False)
    assert rep.x_grid == (3.0,)
    assert rep.ccdf_num == (0.5,)
    assert rep.ratio == (2.0,)


def test_tail_ratio_respects_exceedance_floor():
    den = pareto_samples(2.0, 2_000, seed=6)
    num = pareto_samples(2.0, 2_000, seed=7)
    rep = tail_ratio(num, den, (0.25, 0.01), min_exceedances=100,
                     bootstrap_b=300, rng=RNG(9))
    # the 1% point has only ~20 exceedances and must be dropped
    assert rep.quantile_grid == (0.25,)
    with pytest.raises(EmptyGrid):
        tail_ratio(num, den, (0.001,), min_exceedances=100, bootstrap_b=300, rng=RNG(9))


def test_tail_ratio_grid_validation():
    samples = pareto_samples(2.0, 1_000, seed=1)
    with pytest.raises(DomainError):
        tail_ratio(samples, samples, (0.6,), bootstrap_b=300)
    with pytest.raises(DomainError):
        tail_ratio(samples, samples, (), bootstrap_b=300)
    rep = tail_ratio(samples, samples, (0.05, 0.05, 0.02), min_exceedances=10,
                     bootstrap_b=300, rng=RNG(2))
    assert rep.quantile_grid == (0.05, 0.02)  # duplicates collapse


def test_tail_ratio_analytic_denominator():
    dist = Pareto(2.0, 1.0)
    num = dist.sample_many(RNG(12), 100_000)
    rep = tail_ratio_analytic(num, dist, (0.01, 0.001),
                              bootstrap_b=400, rng=RNG(13))
    assert rep.n_samples[1] == 0
    for r, lo, hi in zip(rep.ratio, rep.ratio_ci_low, rep.ratio_ci_high):
        assert 0.8 < r < 1.2
        assert lo <= r <= hi
    # analytic ccdf values are exact on the grid
    np.testing.assert_allclose(rep.ccdf_den, rep.quantile_grid, rtol=1e-12)


@pytest.mark.parametrize("analytic,rungs", [(False, 3), (True, 4)])
def test_trend_is_a_half_decade_ladder_down_to_the_floor(analytic, rungs):
    dist = Pareto(2.0, 1.0)
    den = dist.sample_many(RNG(5), 200_000)
    num = 2.0 * den

    def run(**kwargs):
        if analytic:
            return tail_ratio_analytic(num, dist, (0.01, 0.003),
                                       bootstrap_b=300, rng=RNG(8), **kwargs)
        return tail_ratio(num, den, (0.01, 0.003), bootstrap_b=300, rng=RNG(8), **kwargs)

    plain, rep = run(), run(trend_rng=RNG(9))
    assert plain.trend is None
    assert replace(rep, trend=None) == plain  # the trend draws on its own stream
    trend = rep.trend
    expected = 0.01 * 10.0 ** (-np.arange(rungs) / 2.0)
    np.testing.assert_allclose(trend.quantile_grid, expected, rtol=1e-12)
    assert trend.ratio[0] == rep.ratio[0]
    assert trend.hill_curve == {} and trend.trend is None
    # the next rung down has under 100 exceedances: in the empirical
    # denominator (~63 of 200k at p = 10^-3.5), or in the numerator
    # against the exact one (~80 at p = 10^-4)
    assert len(trend.quantile_grid) == rungs


def test_tail_report_csv_and_json():
    rep = TailReport(
        quantile_grid=(0.01, 0.001),
        x_grid=(2.0, 5.0),
        ccdf_num=(0.02, 0.003),
        ccdf_den=(0.01, 0.001),
        ratio=(2.0, 3.0),
        ratio_ci_low=(1.5, 2.5),
        ratio_ci_high=(2.5, 3.5),
        n_samples=(10_000, 10_000),
        min_exceedances=10,
    )
    lines = rep.to_csv_text().splitlines()
    assert lines[0] == "p,x,ccdf_num,ccdf_den,ratio,ci_low,ci_high"
    assert lines[1] == "0.01,2.0,0.02,0.01,2.0,1.5,2.5"
    doc = rep.to_json_dict()
    assert doc["ratio"] == [2.0, 3.0]
    assert doc["n_samples"] == [10_000, 10_000]


def test_tail_report_invariants():
    good = dict(
        quantile_grid=(0.01,), x_grid=(2.0,), ccdf_num=(0.02,), ccdf_den=(0.01,),
        ratio=(2.0,), ratio_ci_low=(1.5,), ratio_ci_high=(2.5,),
        n_samples=(10_000, 10_000), min_exceedances=10,
    )
    TailReport(**good)
    with pytest.raises(DomainError):
        TailReport(**{**good, "x_grid": ()})
    with pytest.raises(DomainError):
        TailReport(**{**good, "ratio_ci_low": (2.1,)})
    two = {**good, "quantile_grid": (0.01, 0.001), "x_grid": (5.0, 2.0),
           "ccdf_num": (0.02, 0.02), "ccdf_den": (0.01, 0.01), "ratio": (2.0, 2.0),
           "ratio_ci_low": (1.5, 1.5), "ratio_ci_high": (2.5, 2.5)}
    with pytest.raises(DomainError):
        TailReport(**two)  # x grid must increase
    with pytest.raises(DomainError):
        TailReport(**{**good, "ccdf_num": (0.0005,)})  # below the floor


# 2.0 is the analytic denominator's x at p = 0.25, so ties fall on a threshold
_TAIL_VALUES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 8.0, math.inf, -math.inf]),
    st.floats(min_value=-10.0, max_value=100.0, allow_nan=False),
)
# grids whose points fall near the exceedance floor of samples of a few dozen
_TAIL_GRIDS = st.lists(st.sampled_from([0.4, 0.25, 0.2, 0.1, 0.05, 0.01]), min_size=1, max_size=3)
# positions set to NaN; any NaN in an empirical denominator makes every x NaN
_NAN_AT = st.lists(st.integers(min_value=0, max_value=79), max_size=3)


def _with_nans(values, nan_at, order):
    arr = np.asarray(values, dtype=float)
    arr[np.asarray(nan_at, dtype=int) % arr.size] = np.nan
    return _arrange(arr, order)


def _tail_kwargs(min_exceedances, trend, with_hill):
    return dict(min_exceedances=min_exceedances, bootstrap_b=200, rng=RNG(3),
                trend_rng=RNG(4) if trend else None, with_hill=with_hill)


# subnormal values overflow the Hill ratio in both versions alike
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    num=st.lists(_TAIL_VALUES, min_size=10, max_size=80),
    den=st.lists(_TAIL_VALUES, min_size=20, max_size=80),
    num_nan_at=_NAN_AT,
    den_nan_at=st.sampled_from([()] * 6 + [(0,), (31,)]),
    order_num=_ORDERS,
    order_den=_ORDERS,
    grid=_TAIL_GRIDS,
    min_exceedances=st.integers(min_value=1, max_value=12),
    trend=st.booleans(),
    with_hill=st.booleans(),
)
def test_tail_ratio_equals_the_sort_first_reference(
        tail_ratio_reference, num, den, num_nan_at, den_nan_at, order_num, order_den, grid,
        min_exceedances, trend, with_hill):
    ref_ratio, _ = tail_ratio_reference
    num, den = _with_nans(num, num_nan_at, order_num), _with_nans(den, den_nan_at, order_den)
    kept_num, kept_den = num.copy(), den.copy()
    got = _outcome(tail_ratio, num, den, grid, **_tail_kwargs(min_exceedances, trend, with_hill))
    assert got == _outcome(ref_ratio, num, den, grid,
                           **_tail_kwargs(min_exceedances, trend, with_hill))
    assert np.array_equal(num, kept_num, equal_nan=True)
    assert np.array_equal(den, kept_den, equal_nan=True)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    num=st.lists(_TAIL_VALUES, min_size=10, max_size=80),
    nan_at=_NAN_AT,
    order=_ORDERS,
    grid=_TAIL_GRIDS,
    min_exceedances=st.integers(min_value=1, max_value=12),
    trend=st.booleans(),
    with_hill=st.booleans(),
)
def test_tail_ratio_analytic_equals_the_sort_first_reference(
        tail_ratio_reference, num, nan_at, order, grid, min_exceedances, trend, with_hill):
    _, ref_analytic = tail_ratio_reference
    num = _with_nans(num, nan_at, order)
    kept = num.copy()
    den = Pareto(2.0, 1.0)
    want = _outcome(ref_analytic, num, den, grid, **_tail_kwargs(min_exceedances, trend, with_hill))
    # the one routine reads a law as it reads a sample; the old name is the same call
    for routine in (tail_ratio, tail_ratio_analytic):
        assert _outcome(routine, num, den, grid,
                        **_tail_kwargs(min_exceedances, trend, with_hill)) == want
    assert np.array_equal(num, kept, equal_nan=True)


def test_tail_ratio_counts_nans_as_exceeding_every_x(tail_ratio_reference):
    # a fifth of the numerator is NaN: they exceed both thresholds, as they
    # would sorted last; gathering with ``samples > x`` would drop them
    num = np.concatenate([np.arange(1.0, 9.0), [np.nan, np.nan]])
    RNG(6).shuffle(num)
    den = Uniform(0.0, 10.0)
    rep = tail_ratio_analytic(num, den, (0.4, 0.2), min_exceedances=1,
                              bootstrap_b=200, with_hill=False)
    assert rep.x_grid == (6.0, 8.0)
    assert rep.ccdf_num == (0.4, 0.2)
    _, ref_analytic = tail_ratio_reference
    assert rep == ref_analytic(num, den, (0.4, 0.2), min_exceedances=1,
                               bootstrap_b=200, with_hill=False)
    # a NaN in the empirical denominator makes every x NaN, which nothing exceeds
    with pytest.raises(EmptyGrid):
        tail_ratio(num, num, (0.4,), min_exceedances=1, bootstrap_b=200)


@pytest.mark.parametrize("order", ["as drawn", "sorted", "reversed"])
def test_tail_ratio_equals_the_reference_on_pipeline_sized_samples(tail_ratio_reference, order):
    ref_ratio, ref_analytic = tail_ratio_reference
    dist = Pareto(2.0, 1.0)
    den = np.floor(dist.sample_many(RNG(19), 200_000))  # heavy ties, like Z_N
    num = _arrange(2.0 * dist.sample_many(RNG(20), 300_000), order)

    def kwargs():
        return dict(bootstrap_b=300, rng=RNG(21), trend_rng=RNG(22))

    assert tail_ratio(num, den, (0.01, 0.001), **kwargs()) == ref_ratio(
        num, den, (0.01, 0.001), **kwargs())
    grid = (0.01, 0.003, 0.001)
    assert tail_ratio_analytic(num, dist, grid, **kwargs()) == ref_analytic(
        num, dist, grid, **kwargs())


def test_tail_ratio_analytic_peak_memory():
    dist = Pareto(2.0, 1.0)
    x = dist.sample_many(RNG(23), 2_000_000)
    # sorting a full copy of the 15.3 MiB sample peaked at 21.0 MiB
    peak = _peak_bytes(tail_ratio_analytic, x, dist, (0.01, 0.001),
                             rng=RNG(24), trend_rng=RNG(25))
    assert peak <= 8 * 2 ** 20


def test_tail_ratio_peak_memory():
    num = pareto_samples(2.0, 1_000_000, seed=26)
    den = pareto_samples(2.0, 1_000_000, seed=27)
    # sorted copies of both 7.6 MiB samples peaked at 22.9 MiB; what is left
    # is the one copy of den that np.quantile selects in
    peak = _peak_bytes(tail_ratio, num, den, (0.01, 0.001), rng=RNG(28),
                             trend_rng=RNG(29))
    assert peak <= 10 * 2 ** 20


@pytest.mark.parametrize("den_kind, arrays", [("empirical", 2.6), ("law", 1.7)])
def test_a_band_divides_its_resamples_in_place(tail_ratio_reference, den_kind, arrays):
    # B x k = 600000 resamples, divided in many chunks: the band equals the
    # reference's bit for bit, and holds 2.12 (empirical) and 1.34 (law)
    # float64 arrays of B x k at its peak, against 4.55 and 3.33 when each
    # step wrote a new array and each percentile partitioned a copy
    ref_ratio, ref_analytic = tail_ratio_reference
    dist, grid, b = Pareto(2.0, 1.0), np.array([0.01, 0.003, 0.001]), 200_000
    num = dist.sample_many(RNG(40), 1_000_000)
    den = dist.sample_many(RNG(41), 1_000_000) if den_kind == "empirical" else dist
    ref = ref_ratio if den_kind == "empirical" else ref_analytic
    kwargs = lambda: dict(bootstrap_b=b, rng=RNG(42), with_hill=False)
    assert tail_ratio(num, den, grid, **kwargs()) == ref(num, den, grid, **kwargs())

    sketch = TailSketch.of(num, floor=2.0)
    if den_kind == "empirical":
        den = TailSketch.of(den, *tailstats.den_sketch_bounds(den.size, grid))
    peak = _peak_bytes(tailstats._ratio_at, sketch, den, grid, 100, b, 0.95, RNG(42))
    assert peak < arrays * 8 * b * grid.size


def test_a_band_without_a_trend_counts_no_ladder_rungs(physical_memory):
    # three grid points; the ladder from p = 0.05 down to one sample in
    # 20000 would add 7 rungs, each a band of three arrays of B float64
    dist, grid, b = Pareto(2.0, 1.0), (0.05, 0.02, 0.01), 1000
    num, den = dist.sample_many(RNG(50), 20_000), dist.sample_many(RNG(51), 20_000)
    grid_bands = 8 * 3 * b * len(grid)
    with physical_memory(grid_bands):
        rep = tail_ratio(num, den, grid, bootstrap_b=b, with_hill=False)
        assert rep.trend is None
        with pytest.raises(BudgetExceeded, match="physical memory"):
            tail_ratio(num, den, grid, bootstrap_b=b, with_hill=False, trend_rng=RNG(52))
    with physical_memory(grid_bands - 1):
        with pytest.raises(BudgetExceeded, match="physical memory"):
            tail_ratio(num, den, grid, bootstrap_b=b, with_hill=False)


@pytest.mark.parametrize("with_hill", [True, False])
def test_tail_ratio_reads_a_numerator_with_more_than_a_tenth_above_the_grid(
        tail_ratio_reference, with_hill):
    # all of 3 X lies above the denominator's x at p = 0.4, far more than the
    # top tenth the Hill curve keeps
    ref_ratio, ref_analytic = tail_ratio_reference
    dist = Pareto(2.0, 1.0)
    den = dist.sample_many(RNG(32), 20_000)
    num = 3.0 * dist.sample_many(RNG(33), 20_000)
    kwargs = lambda: dict(bootstrap_b=200, rng=RNG(34), trend_rng=RNG(35), with_hill=with_hill)
    rep = tail_ratio(num, den, (0.4, 0.1), **kwargs())
    assert rep == ref_ratio(num, den, (0.4, 0.1), **kwargs())
    assert rep.ccdf_num[0] == 1.0 and rep.ratio[0] > 1.0
    rep = tail_ratio_analytic(num, dist, (0.4, 0.1), **kwargs())
    assert rep == ref_analytic(num, dist, (0.4, 0.1), **kwargs())
    assert rep.ccdf_num[0] == 1.0 and rep.ratio[0] == pytest.approx(2.5)


def test_a_nan_in_the_denominator_empties_the_grid_as_in_the_reference(tail_ratio_reference):
    ref_ratio, _ = tail_ratio_reference
    num = pareto_samples(2.0, 5_000, seed=36)
    den = pareto_samples(2.0, 5_000, seed=37)
    den[17] = np.nan
    kwargs = lambda: dict(min_exceedances=1, bootstrap_b=200, rng=RNG(38))
    got = _outcome(tail_ratio, num, den, (0.1, 0.01), **kwargs())
    assert got == _outcome(ref_ratio, num, den, (0.1, 0.01), **kwargs())
    assert got[0] is EmptyGrid


# ---------------------------------------------------------------------------
# tail sketches
# ---------------------------------------------------------------------------

def _sketch_by_sorting(values, floor, keep) -> tuple:
    """The fields a sketch must have, from a sort of the whole sample."""
    arr = np.asarray(values, dtype=float)
    valid = np.sort(arr[~np.isnan(arr)])
    bound = valid[valid.size - keep - 1] if valid.size > keep else -math.inf
    cutoff = min(floor, bound)
    return (arr.size, int(np.count_nonzero(arr > 0)), int(np.count_nonzero(np.isnan(arr))),
            cutoff, int(np.count_nonzero(arr == cutoff)), valid[valid > cutoff])


def _assert_sketch_is(sketch, fields):
    *counts, top = fields
    assert (sketch.n, sketch.n_pos, sketch.n_nan, sketch.cutoff, sketch.n_at) == tuple(counts)
    assert np.array_equal(sketch.top, top)


def _fed_in_blocks(values, floor, keep, bounds):
    builder = TailSketchBuilder(floor, keep)
    for lo, hi in zip(bounds, bounds[1:]):
        builder.add(values[lo:hi])
    return builder.build()


_SKETCH_VALUES = st.one_of(
    st.sampled_from([-2.0, -0.0, 0.0, 1.0, 1.0, 3.0, math.nan, math.inf, -math.inf]),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        st.lists(_SKETCH_VALUES, min_size=1, max_size=200),
        st.builds(lambda v, n: [v] * n, _SKETCH_VALUES, st.integers(1, 100)),  # all equal
    ),
    floor=st.sampled_from([-math.inf, -1.0, 0.0, 1.0, 3.0, 50.0, math.inf]),
    keep=st.integers(min_value=0, max_value=60),
    cuts=st.lists(st.integers(min_value=1, max_value=199), max_size=8),
    order=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
# a full buffer raises the cutoff to the value of the block being added
@example(values=[-2.0] * 5, floor=-1.0, keep=2, cuts=[1, 2, 3], order=0)
def test_a_sketch_fed_in_any_blocks_is_the_sketch_of_the_whole(values, floor, keep, cuts, order):
    arr = np.asarray(values, dtype=float)
    want = _sketch_by_sorting(arr, floor, keep)
    _assert_sketch_is(TailSketch.of(arr, floor, keep), want)
    shuffled = arr[RNG(order).permutation(arr.size)]
    bounds = sorted({0, arr.size} | {c for c in cuts if c < arr.size})
    _assert_sketch_is(_fed_in_blocks(shuffled, floor, keep, bounds), want)
    _assert_sketch_is(_fed_in_blocks(arr[::-1], floor, keep, bounds), want)


@pytest.mark.parametrize("floor,keep", [(math.inf, 30_001), (5.0, 30_001), (1.5, 1_000),
                                        (math.inf, 0), (20.0, 0), (-math.inf, 5)])
def test_a_sketch_of_pipeline_sized_blocks_is_the_sketch_of_the_whole(floor, keep):
    """A whole and blocks of several 2^16-value slices, gathered one slice at a time."""
    values = np.concatenate([pareto_samples(2.0, 300_000, seed=39).round(1),
                             -np.ones(20_000), np.zeros(20_000), [np.nan] * 10])
    RNG(40).shuffle(values)
    want = _sketch_by_sorting(values, floor, keep)
    _assert_sketch_is(TailSketch.of(values, floor, keep), want)
    bounds = list(range(0, values.size, BLOCK)) + [values.size]
    _assert_sketch_is(_fed_in_blocks(values, floor, keep, bounds), want)


def test_a_sketch_refuses_every_query_below_its_cutoff():
    x = pareto_samples(2.0, 10_000, seed=41)
    sketch = TailSketch.of(x, floor=3.0)
    assert sketch.cutoff == 3.0 and sketch.top.min() > 3.0
    assert sketch.exceedances([3.0, 5.0]).tolist() == [np.count_nonzero(x > 3.0),
                                                       np.count_nonzero(x > 5.0)]
    with pytest.raises(TreetailError):
        sketch.exceedances([2.9])
    with pytest.raises(TreetailError):
        sketch.quantile_higher([0.5])  # the median, about 1.41
    with pytest.raises(TreetailError):
        sketch.top_positive(sketch.top.size + 1)
    with pytest.raises(TreetailError):
        hill(sketch, sketch.top.size)
    # the grid's smallest x, the Pareto(2) quantile at 0.6, is 1.58
    dist = Pareto(2.0, 1.0)
    with pytest.raises(TreetailError):
        tail_ratio_analytic(sketch, dist, (0.4, 0.1), with_hill=False)
    with pytest.raises(TreetailError):
        tail_ratio(sketch, dist, (0.4, 0.1), with_hill=False)
    with pytest.raises(TreetailError):
        tail_ratio(x, TailSketch.of(x, keep=500), (0.1,), with_hill=False)
    with pytest.raises(TreetailError):
        hill_curve(TailSketch.of(x, keep=100))  # the curve reads the top 1001


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_geometric_decay_fit_exact():
    series = {n: 3.0 * 0.5 ** n for n in range(2, 9)}
    rate, r2 = geometric_decay_fit(series)
    assert rate == pytest.approx(0.5, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_geometric_decay_fit_validation():
    with pytest.raises(DomainError):
        geometric_decay_fit({1: 1.0, 2: 0.5, 3: 0.25})
    with pytest.raises(NonPositive):
        geometric_decay_fit({1: 1.0, 2: 0.5, 3: 0.25, 4: 0.0})
    noisy = {n: 0.5 ** n * (1.0 + 0.1 * (-1) ** n) for n in range(1, 9)}
    rate, r2 = geometric_decay_fit(noisy)
    assert 0.4 < rate < 0.6
    assert r2 < 1.0


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_tail_ratio_report_invariants_hold_on_random_data(seed):
    rng = np.random.default_rng(seed)
    num = Pareto(2.0, 1.0).sample_many(rng, 5_000)
    den = Pareto(2.0, 1.0).sample_many(rng, 5_000)
    try:
        rep = tail_ratio(num, den, (0.2, 0.05, 0.01), min_exceedances=25,
                         bootstrap_b=200, rng=rng, with_hill=False)
    except EmptyGrid:
        return
    assert all(a < b for a, b in zip(rep.x_grid, rep.x_grid[1:]))
    for lo, r, hi in zip(rep.ratio_ci_low, rep.ratio, rep.ratio_ci_high):
        assert lo <= r <= hi
