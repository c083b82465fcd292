"""Sampling kernels: exact trees, population pools, one-shot weighted sums.

Two routes to the same laws:

* exact sampling materializes a weighted tree breadth-first (frontier only)
  and is the ground truth at small depth;
* population dynamics evolves a pool of M samples one generation at a time,
  resampling child values with replacement from the previous pool, and
  scales to deep horizons at O(M) memory.

Pool evolution is deterministic for a fixed seed regardless of thread
count: output indices are partitioned into fixed blocks of ``streams.BLOCK``
samples and each (purpose, generation, block) triple gets its own derived
stream, so scheduling cannot change what any block draws.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .branching import BranchingLaw
from .errors import BudgetExceeded, DomainError, FingerprintMismatch
from .pools import KIND_R_PARTIAL, KIND_R_STAR, KIND_W, SamplePool
from .streams import BLOCK, StreamTree, TAG_POOL_INIT, TAG_POOL_R, TAG_POOL_RSTAR, TAG_POOL_W

__all__ = [
    "sample_r_exact",
    "sample_w_exact",
    "sample_weighted_sum",
    "init_pool",
    "constant_pool",
    "evolve_pool_w",
    "evolve_pool_r",
    "iterate_fixed_point",
]

DEFAULT_NODE_BUDGET = 10_000_000
_HARD_CAP_FACTOR = 10

_KIND_TAGS = {KIND_W: TAG_POOL_W, KIND_R_PARTIAL: TAG_POOL_R, KIND_R_STAR: TAG_POOL_RSTAR}


# ---------------------------------------------------------------------------
# exact tree sampling
# ---------------------------------------------------------------------------

def _check_budget(law: BranchingLaw, depth: int, node_budget: int):
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if node_budget <= 0:
        raise DomainError("node budget must be positive")
    e_n = law.mean_n()
    if e_n is None:
        raise DomainError("E[N] is not analytically available; cannot project tree size")
    if math.isinf(e_n) or (e_n > 1 and e_n ** depth > node_budget):
        raise BudgetExceeded(
            f"expected generation size E[N]^depth = {e_n}^{depth} exceeds budget {node_budget}"
        )


def _grow(law, depth, rng, size, node_budget, accumulate_all):
    """Shared breadth-first engine for exact R^(depth) and W_depth draws."""
    tree = np.arange(size)
    pi = np.ones(size)
    totals = np.zeros(size)
    nodes = size
    hard_cap = _HARD_CAP_FACTOR * node_budget * size
    for gen in range(depth + 1):
        if len(pi) == 0:
            break
        q, n, weights = law.draw_roots(len(pi), rng)
        if accumulate_all or gen == depth:
            totals += np.bincount(tree, weights=q * pi, minlength=size)
        if gen == depth:
            break
        tree = np.repeat(tree, n)
        pi = np.repeat(pi, n) * weights
        nodes += len(pi)
        if nodes > hard_cap:
            raise BudgetExceeded(
                f"realized tree hit {nodes} nodes, over the hard cap {hard_cap}"
            )
    return totals


def sample_r_exact(
    law: BranchingLaw,
    depth: int,
    rng: np.random.Generator,
    size: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """Exact draw(s) of the partial fixed-point sum R^(depth).

    With ``size=None`` returns one float; otherwise an array of ``size``
    independent trees grown side by side.
    """
    _check_budget(law, depth, node_budget)
    scalar = size is None
    totals = _grow(law, depth, rng, 1 if scalar else int(size), node_budget, accumulate_all=True)
    return float(totals[0]) if scalar else totals


def sample_w_exact(
    law: BranchingLaw,
    depth: int,
    rng: np.random.Generator,
    size: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """Exact draw(s) of the generation-``depth`` weighted sum W_depth."""
    _check_budget(law, depth, node_budget)
    scalar = size is None
    totals = _grow(law, depth, rng, 1 if scalar else int(size), node_budget, accumulate_all=False)
    return float(totals[0]) if scalar else totals


def sample_weighted_sum(law, x_dist, rng, size: int | None = None):
    """Draw(s) of the one-shot sum  sum_{i<=N} C_i X_i + Q  with i.i.d. X."""
    scalar = size is None
    m = 1 if scalar else int(size)
    q, n, weights = law.draw_roots(m, rng)
    x = x_dist.sample_many(rng, int(n.sum()))
    x *= weights  # x is a fresh draw: the products and the sums reuse arrays
    totals = np.bincount(np.repeat(np.arange(m), n), weights=x, minlength=m)
    totals += q
    return float(totals[0]) if scalar else totals


# ---------------------------------------------------------------------------
# population dynamics
# ---------------------------------------------------------------------------

def _block_ranges(size: int):
    return [(start, min(start + BLOCK, size)) for start in range(0, size, BLOCK)]


def _run_blocks(worker, size: int, threads: int) -> np.ndarray:
    """Concatenate ``worker(block, lo, hi)`` over the fixed blocks of ``size``.

    The one block scheduler of the package: each worker derives its stream
    from its block index, so the thread count never changes a value.
    """
    ranges = _block_ranges(size)
    if threads <= 1 or len(ranges) == 1:
        parts = [worker(b, lo, hi) for b, (lo, hi) in enumerate(ranges)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ib: worker(ib[0], *ib[1]), enumerate(ranges)))
    return np.concatenate(parts)


def init_pool(
    law: BranchingLaw,
    size: int,
    streams: StreamTree,
    kind: str = KIND_R_PARTIAL,
    threads: int = 1,
) -> SamplePool:
    """Generation-0 pool: W_0 = R^(0) = Q, drawn fresh from the law."""
    if kind not in (KIND_W, KIND_R_PARTIAL):
        raise DomainError("generation-0 pools are defined for kinds W and R_PARTIAL")
    if size <= 0:
        raise DomainError("pool size must be positive")

    def worker(block, lo, hi):
        return law.sample_q_many(hi - lo, streams.child(TAG_POOL_INIT, 0, block))

    values = _run_blocks(worker, int(size), threads)
    return SamplePool(
        values=values,
        kind=kind,
        generation=0,
        law_fingerprint=law.fingerprint(),
        seed_lineage=(f"{streams.lineage()}/init", f"{kind}/gen=0"),
    )


def constant_pool(law: BranchingLaw, size: int, value: float, kind: str = KIND_R_STAR) -> SamplePool:
    """A degenerate pool, e.g. the all-zero initial condition of the iteration."""
    if size <= 0:
        raise DomainError("pool size must be positive")
    return SamplePool(
        values=np.full(int(size), float(value)),
        kind=kind,
        generation=0,
        law_fingerprint=law.fingerprint(),
        seed_lineage=(f"const={value}", f"{kind}/gen=0"),
    )


def _evolve(law, pool, streams, add_q, out_kind, threads):
    if pool.law_fingerprint != law.fingerprint():
        raise FingerprintMismatch(
            f"pool was built under law {pool.law_fingerprint}, asked to evolve under {law.fingerprint()}"
        )
    prev = pool.values
    gen = pool.generation + 1
    tag = _KIND_TAGS[out_kind]

    def worker(block, lo, hi):
        rng = streams.child(tag, gen, block)
        m = hi - lo
        q, n, weights = law.draw_roots(m, rng)
        total = int(n.sum())
        picks = rng.integers(0, prev.size, size=total)
        idx = np.repeat(np.arange(m), n)
        sums = np.bincount(idx, weights=weights * prev[picks], minlength=m)
        return sums + q if add_q else sums

    values = _run_blocks(worker, prev.size, threads)
    return SamplePool(
        values=values,
        kind=out_kind,
        generation=gen,
        law_fingerprint=pool.law_fingerprint,
        seed_lineage=pool.seed_lineage[:-1] + (f"{out_kind}/gen={gen}",),
    )


def evolve_pool_w(law: BranchingLaw, pool: SamplePool, streams: StreamTree, threads: int = 1) -> SamplePool:
    """One generation of  W_n = sum_k C_k W_{n-1,k}  by population resampling."""
    if pool.kind != KIND_W:
        raise DomainError(f"expected a {KIND_W} pool, got {pool.kind}")
    return _evolve(law, pool, streams, add_q=False, out_kind=KIND_W, threads=threads)


def evolve_pool_r(law: BranchingLaw, pool: SamplePool, streams: StreamTree, threads: int = 1) -> SamplePool:
    """One horizon step of  R^(n) = Q + sum_k C_k R_k^(n-1)  by population resampling."""
    if pool.kind != KIND_R_PARTIAL:
        raise DomainError(f"expected a {KIND_R_PARTIAL} pool, got {pool.kind}")
    return _evolve(law, pool, streams, add_q=True, out_kind=KIND_R_PARTIAL, threads=threads)


def iterate_fixed_point(
    law: BranchingLaw,
    initial: SamplePool,
    steps: int,
    streams: StreamTree,
    threads: int = 1,
) -> list[SamplePool]:
    """Fixed-point iteration R*_{k+1} = Q + sum_i C_i R*_{k,i} from any initial pool.

    Returns the trajectory [initial, step 1, ..., step ``steps``]; the
    distributional limit does not depend on the initial condition.
    """
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if initial.kind != KIND_R_STAR:
        raise DomainError(f"expected a {KIND_R_STAR} pool, got {initial.kind}")
    out = [initial]
    for _ in range(steps):
        out.append(_evolve(law, out[-1], streams, add_q=True, out_kind=KIND_R_STAR, threads=threads))
    return out
