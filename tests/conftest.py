from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from treetail import pools, simulate, tailstats
from treetail.errors import DegenerateTail, DomainError, EmptyGrid


def _ks_by_searchsorted(a, b) -> float:
    """Two-sample KS distance read off both CDFs at every pooled sample value."""
    sa = np.sort(np.asarray(a, dtype=float).ravel())
    sb = np.sort(np.asarray(b, dtype=float).ravel())
    grid = np.concatenate([sa, sb])
    cdf_a = np.searchsorted(sa, grid, side="right") / sa.size
    cdf_b = np.searchsorted(sb, grid, side="right") / sb.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.fixture(scope="session")
def physical_memory():
    """Patch os.sysconf so that the machine has ``nbytes`` of physical memory, in pages of one byte."""
    def patch(nbytes: int):
        sysconf = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        return mock.patch.object(pools.os, "sysconf", side_effect=sysconf.__getitem__)
    return patch


def _run_blocks_concatenated(draw, streams, tag, gen, size):
    """The concatenating block scheduler: ``draw(rng, m)`` on each block, in turn, concatenated."""
    return np.concatenate([draw(rng, m) for rng, m in simulate._blocks(streams, tag, gen, size)])


def _evolve_block(law, prev, add_q):
    """The out-of-place evolve block function: one block of the generation after ``prev``."""
    def draw(rng, m):
        q, n, weights = law.draw_roots(m, rng)
        total = int(n.sum())
        picks = rng.integers(0, prev.size, size=total)
        idx = np.repeat(np.arange(m), n)
        sums = np.bincount(idx, weights=weights * prev[picks], minlength=m)
        return sums + q if add_q else sums
    return draw


@pytest.fixture(scope="session")
def block_reference():
    """The (scheduler, evolve block) that pools drawn in place must match bit for bit."""
    return _run_blocks_concatenated, _evolve_block


@pytest.fixture(scope="session")
def ks_reference():
    """The concatenate-and-searchsorted KS that ``ks_distance`` must match exactly."""
    return _ks_by_searchsorted


def _hill_by_partition(samples, k: int) -> float:
    """Hill estimate from a copy of every positive sample, partitioned."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("samples must be nonempty")
    pos = arr[arr > 0]
    if not 2 <= k < pos.size:
        raise DomainError(f"need 2 <= k < number of positive samples ({pos.size}), got k={k}")
    pos.partition(pos.size - (k + 1))
    top = np.sort(pos[-(k + 1):])[::-1]
    ref = top[k]
    if top[0] == ref:
        raise DegenerateTail("top k+1 order statistics are tied; Hill denominator is zero")
    return float(1.0 / np.mean(np.log(top[:k] / ref)))


def _hill_curve_by_partition(samples, points: int = 9) -> dict[int, float]:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("samples must be nonempty")
    n_pos = int(np.count_nonzero(arr > 0))
    if n_pos < 3:
        raise DomainError("need at least 3 positive samples for a Hill curve")
    lo = max(2, n_pos // 200)
    hi = max(lo, min(n_pos - 1, n_pos // 10))
    ks = np.unique(np.rint(np.geomspace(lo, hi, points)).astype(int))
    return {int(k): _hill_by_partition(arr, int(k)) for k in ks}


@pytest.fixture(scope="session")
def hill_reference():
    """The copy-and-partition (hill, hill_curve) that ``hill`` and ``hill_curve`` must match exactly."""
    return _hill_by_partition, _hill_curve_by_partition


def _sorted_exceedances(sorted_samples, x):
    return sorted_samples.size - np.searchsorted(sorted_samples, x, side="right")


def _ratio_at_sorted(num, den, grid, min_exceedances, bootstrap_b, level, rng):
    """The tail ratio of the sorted ``num`` against sorted samples or a (ccdf, quantile) pair."""
    analytic = isinstance(den, tuple)
    if analytic:
        den_ccdf, den_quantile = den
        x = np.asarray([float(den_quantile(1.0 - p)) for p in grid])
    else:
        x = np.quantile(den, 1.0 - grid, method="higher")
    keep = tailstats._dedupe_increasing(x)
    grid, x = grid[keep], x[keep]

    c_num = _sorted_exceedances(num, x)
    if analytic:
        p_den = np.asarray([float(den_ccdf(v)) for v in x])
        keep = (c_num >= min_exceedances) & (p_den > 0.0)
        if not np.any(keep):
            raise EmptyGrid("no grid point retains the minimum exceedance count in the numerator")
        p_den = p_den[keep]
    else:
        c_den = _sorted_exceedances(den, x)
        keep = (c_num >= min_exceedances) & (c_den >= min_exceedances)
        if not np.any(keep):
            raise EmptyGrid("no grid point retains the minimum exceedance count in both samples")
        p_den = c_den[keep] / den.size
    grid, x = grid[keep], x[keep]

    p_num = c_num[keep] / num.size
    ratio = p_num / p_den

    lo_q, hi_q = tailstats._band_levels(level)
    boot_num = rng.binomial(num.size, p_num, size=(bootstrap_b, x.size)) / num.size
    if analytic:
        boot = boot_num / p_den
    else:
        boot_den = rng.binomial(den.size, p_den, size=(bootstrap_b, x.size)) / den.size
        boot_den = np.maximum(boot_den, 1.0 / den.size)
        boot = boot_num / boot_den
    ci_low = np.minimum(np.percentile(boot, lo_q, axis=0), ratio)
    ci_high = np.maximum(np.percentile(boot, hi_q, axis=0), ratio)

    return tailstats.TailReport(
        quantile_grid=tuple(grid),
        x_grid=tuple(float(v) for v in x),
        ccdf_num=tuple(p_num),
        ccdf_den=tuple(p_den),
        ratio=tuple(ratio),
        ratio_ci_low=tuple(ci_low),
        ratio_ci_high=tuple(ci_high),
        n_samples=(num.size, 0 if analytic else den.size),
        min_exceedances=min_exceedances,
    )


def _tail_report_sorted(num, den, quantile_grid, min_exceedances=100, bootstrap_b=1000,
                        level=0.95, rng=None, with_hill=True, trend_rng=None):
    if min_exceedances < 1:
        raise DomainError("min_exceedances must be >= 1")
    if bootstrap_b < 200:
        raise DomainError("bootstrap B must be >= 200")
    rng = rng if rng is not None else np.random.default_rng(0)
    report = _ratio_at_sorted(num, den, tailstats._clean_grid(quantile_grid), min_exceedances,
                              bootstrap_b, level, rng)
    trend = None
    if trend_rng is not None:
        n = num.size if isinstance(den, tuple) else min(num.size, den.size)
        ladder = tailstats._half_decades(report.quantile_grid[0], n)
        trend = _ratio_at_sorted(num, den, ladder, min_exceedances, bootstrap_b, level, trend_rng)
    curve = _hill_curve_by_partition(num) if with_hill else {}
    return replace(report, hill_curve=curve, trend=trend)


def _tail_ratio_sorted(num_samples, den_samples, quantile_grid, **kwargs):
    num = np.sort(tailstats._as_samples(num_samples, "num_samples"))
    den = np.sort(tailstats._as_samples(den_samples, "den_samples"))
    return _tail_report_sorted(num, den, quantile_grid, **kwargs)


def _tail_ratio_analytic_sorted(num_samples, den, quantile_grid, **kwargs):
    num = np.sort(tailstats._as_samples(num_samples, "num_samples"))
    return _tail_report_sorted(num, (den.ccdf, den.quantile), quantile_grid, **kwargs)


@pytest.fixture(scope="session")
def tail_ratio_reference():
    """The sort-first (tail_ratio, tail_ratio_analytic) that the tail-only ones must match exactly."""
    return _tail_ratio_sorted, _tail_ratio_analytic_sorted
