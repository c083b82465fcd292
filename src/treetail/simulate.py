"""Sampling kernels: exact trees, population pools, one-shot weighted sums.

Two routes to the same laws:

* exact sampling materializes a weighted tree breadth-first (frontier only)
  and is the ground truth at small depth;
* population dynamics evolves a pool of M samples one generation at a time,
  resampling child values with replacement from the previous pool, and
  scales to deep horizons at O(M) memory.

Every block draw, of the pools, Z_N and the one-shot sums, is deterministic
for a fixed seed: ``draw_blocks`` draws the fixed blocks of ``streams.BLOCK``
output indices in turn, each on the stream of its (purpose, generation,
block), so no block depends on another or on the size; it alone forms that
key and refuses a non-finite block. ``_run_blocks`` writes each pool block
straight into its slice of one array, so a generation holds its input pool,
its output pool and one block's temporaries.
"""

from __future__ import annotations

import math

import numpy as np

from .branching import BranchingLaw, node_sums
from .errors import BudgetExceeded, DomainError, FingerprintMismatch
from .pools import KIND_R_PARTIAL, KIND_R_STAR, KIND_W, SamplePool, all_finite, check_memory
from .streams import BLOCK, StreamTree, TAG_POOL_INIT, TAG_POOL_R, TAG_POOL_RSTAR, TAG_POOL_W

__all__ = [
    "draw_blocks",
    "sample_r_exact",
    "sample_w_exact",
    "sample_weighted_sum",
    "init_pool",
    "constant_pool",
    "evolve_pool_w",
    "evolve_pool_r",
    "iterate_fixed_point",
]

# the most nodes an exact tree's expected deepest generation may hold
NODE_BUDGET = 10_000_000
# a node of an exact tree's deepest generation holds its tree index and path
# weight and draws its Q and N: at least four 8-byte values
_NODE_BYTES = 32

_KIND_TAGS = {KIND_W: TAG_POOL_W, KIND_R_PARTIAL: TAG_POOL_R, KIND_R_STAR: TAG_POOL_RSTAR}


# ---------------------------------------------------------------------------
# exact tree sampling
# ---------------------------------------------------------------------------

def _check_budget(law: BranchingLaw, depth: int, size: int):
    """Refuse, before any draw, an expected generation past ``NODE_BUDGET`` or trees past physical memory."""
    if depth < 0:
        raise DomainError("depth must be >= 0")
    e_n = law.n_dist.moment(1)
    if e_n is None:
        raise DomainError("E[N] is not analytically available; cannot project tree size")
    if math.isinf(e_n) or (e_n > 1 and e_n ** depth > NODE_BUDGET):
        raise BudgetExceeded(
            f"expected generation size E[N]^depth = {e_n}^{depth} exceeds budget {NODE_BUDGET}"
        )
    # the deepest generation of all the trees is held at once
    check_memory(int(_NODE_BYTES * size * max(1.0, e_n) ** depth),
                 f"{size} exact trees of depth {depth}")


def _grow(law, depth, rng, size, accumulate_all):
    """Shared breadth-first engine for exact R^(depth) and W_depth draws.

    Returns an array of ``size`` independent trees grown side by side. Each
    realized generation is checked against physical memory before it is
    allocated, since a heavy-tailed N can far outgrow its expected size.
    """
    m = int(size)
    _check_budget(law, depth, m)
    tree = np.arange(m)
    pi = np.ones(m)
    totals = np.zeros(m)
    for gen in range(depth + 1):
        if len(pi) == 0:
            break
        q, n, weights = law.draw_roots(len(pi), rng)
        if accumulate_all or gen == depth:
            totals += np.bincount(tree, weights=q * pi, minlength=m)
        if gen == depth:
            break
        check_memory(_NODE_BYTES * int(n.sum()), f"generation {gen + 1} of {m} exact trees")
        tree = np.repeat(tree, n)
        pi = np.repeat(pi, n) * weights
    return totals


def sample_r_exact(law: BranchingLaw, depth: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` exact draws of the partial fixed-point sum R^(depth)."""
    return _grow(law, depth, rng, size, accumulate_all=True)


def sample_w_exact(law: BranchingLaw, depth: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` exact draws of the generation-``depth`` weighted sum W_depth."""
    return _grow(law, depth, rng, size, accumulate_all=False)


def sample_weighted_sum(law, x_dist, rng, size: int) -> np.ndarray:
    """``size`` draws of the one-shot sum  sum_{i<=N} C_i X_i + Q  with i.i.d. X."""
    def terms(rng, weights):
        x = x_dist.sample_many(rng, weights.size)
        return np.multiply(weights, x, out=x if x.flags.writeable else None)

    return node_sums(law, rng, np.empty(int(size)), terms)


# ---------------------------------------------------------------------------
# population dynamics
# ---------------------------------------------------------------------------

def draw_blocks(draw, streams: StreamTree, tag: int, gen: int, size: int):
    """The one block loop: ``draw(rng, lo, m)`` on each fixed block of ``size`` draws, yielded in turn.

    Block b, draws lo = b * ``BLOCK`` up to lo + m, is drawn on the stream keyed (``tag``, ``gen``, b).
    A non-finite block is refused with ``DomainError`` before the next block's stream is created.
    """
    for block, lo in enumerate(range(0, size, BLOCK)):
        # a draw that overflows is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            values = draw(streams.child(tag, gen, block), lo, min(BLOCK, size - lo))
        if not all_finite(values):
            raise DomainError(f"drawn values must all be finite; block {block} holds one that is not")
        yield values
        del values  # before the next block is drawn


def _run_blocks(fill, streams: StreamTree, tag: int, gen: int, size: int) -> np.ndarray:
    """One array of ``size`` draws: ``fill(rng, out)`` writes each block of ``draw_blocks`` into its slice."""
    values = np.empty(size)

    def draw(rng, lo, m):
        fill(rng, out := values[lo:lo + m])
        return out

    for _ in draw_blocks(draw, streams, tag, gen, size):
        pass
    return values


def init_pool(
    law: BranchingLaw,
    size: int,
    streams: StreamTree,
    kind: str = KIND_R_PARTIAL,
) -> SamplePool:
    """Generation-0 pool: W_0 = R^(0) = Q, drawn fresh from the law."""
    if kind not in (KIND_W, KIND_R_PARTIAL):
        raise DomainError("generation-0 pools are defined for kinds W and R_PARTIAL")
    if size <= 0:
        raise DomainError("pool size must be positive")

    values = _run_blocks(lambda rng, out: np.copyto(out, law.q_dist.sample_many(rng, out.size)),
                         streams, TAG_POOL_INIT, 0, int(size))
    return SamplePool(
        values=values,
        kind=kind,
        generation=0,
        law_fingerprint=law.fingerprint(),
        seed_lineage=(f"{streams.lineage()}/init", f"{kind}/gen=0"),
    )


def constant_pool(law: BranchingLaw, size: int, value: float) -> SamplePool:
    """A degenerate R* pool, e.g. the all-zero initial condition of the iteration."""
    if size <= 0:
        raise DomainError("pool size must be positive")
    return SamplePool(
        values=np.full(int(size), float(value)),
        kind=KIND_R_STAR,
        generation=0,
        law_fingerprint=law.fingerprint(),
        seed_lineage=(f"const={value}", f"{KIND_R_STAR}/gen=0"),
    )


def _evolve(law, pool, streams, kind):
    """The ``kind`` pool one generation on: Q + sum_i C_i Y_i (no Q for W), Y_i resampled from ``pool``."""
    if pool.kind != kind:
        raise DomainError(f"expected a {kind} pool, got {pool.kind}")
    if pool.law_fingerprint != law.fingerprint():
        raise FingerprintMismatch(
            f"pool was built under law {pool.law_fingerprint}, asked to evolve under {law.fingerprint()}"
        )
    prev = pool.values
    gen = pool.generation + 1

    def resampled(rng, weights):
        picks = rng.integers(0, prev.size, size=weights.size)
        # the parents are gathered into the buffer of their indices: every
        # pick lies in range, so mode "clip" changes none, and unlike the
        # default "raise" it does not buffer ``out`` in a copy
        parents = prev.take(picks, out=picks.view(np.float64), mode="clip")
        return np.multiply(weights, parents, out=parents)

    values = _run_blocks(lambda rng, out: node_sums(law, rng, out, resampled, add_q=kind != KIND_W),
                         streams, _KIND_TAGS[kind], gen, prev.size)
    return SamplePool(
        values=values,
        kind=kind,
        generation=gen,
        law_fingerprint=pool.law_fingerprint,
        seed_lineage=pool.seed_lineage[:-1] + (f"{kind}/gen={gen}",),
    )


def evolve_pool_w(law: BranchingLaw, pool: SamplePool, streams: StreamTree) -> SamplePool:
    """One generation of  W_n = sum_k C_k W_{n-1,k}  by population resampling."""
    return _evolve(law, pool, streams, KIND_W)


def evolve_pool_r(law: BranchingLaw, pool: SamplePool, streams: StreamTree, threads: int = 1) -> SamplePool:
    """One horizon step of  R^(n) = Q + sum_k C_k R_k^(n-1)  by population resampling.

    ``threads`` is inert; it stays only because the benchmark's tests pass it.
    """
    return _evolve(law, pool, streams, KIND_R_PARTIAL)


def iterate_fixed_point(
    law: BranchingLaw,
    initial: SamplePool,
    steps: int,
    streams: StreamTree,
) -> SamplePool:
    """Fixed-point iteration R*_{k+1} = Q + sum_i C_i R*_{k,i} from any initial pool.

    Returns the iterate after ``steps`` steps (``initial`` itself at 0),
    holding one iterate at a time; the distributional limit does not
    depend on the initial condition.
    """
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if initial.kind != KIND_R_STAR:
        raise DomainError(f"expected a {KIND_R_STAR} pool, got {initial.kind}")
    pool = initial
    del initial  # so that a start the caller does not keep is freed after step 1
    for _ in range(steps):
        pool = _evolve(law, pool, streams, KIND_R_STAR)
    return pool
