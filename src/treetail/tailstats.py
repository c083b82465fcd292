"""Empirical tail machinery.

Everything here is estimator-side: the Hill index, ratios of empirical
CCDFs anchored at denominator quantiles with percentile bootstrap bands,
two-sample Kolmogorov-Smirnov distance, and a least-squares geometric decay
fit. All functions are pure; randomness only enters through an explicit
generator passed to the bootstrap.

The x-grid convention: ratios are evaluated at empirical (or analytic)
quantiles of the *denominator* tail, so two curves with the same tail index
are compared at matched exceedance probabilities instead of arbitrary
absolute thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import DegenerateTail, DomainError, EmptyGrid, NonPositive

__all__ = [
    "TailReport",
    "hill",
    "hill_curve",
    "tail_ratio",
    "tail_ratio_analytic",
    "ks_distance",
    "ks_critical_value",
    "geometric_decay_fit",
]


def _as_samples(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError(f"{name} must be nonempty")
    return arr


# ---------------------------------------------------------------------------
# Hill estimator
# ---------------------------------------------------------------------------

# the strided subsample that sets the candidate threshold of ``_top_positive``
_TOP_SUBSAMPLE = 1 << 16


def _top_positive(arr: np.ndarray, m: int) -> np.ndarray:
    """The m largest positive entries of ``arr`` in no order, or all of them if fewer.

    A threshold read off a strided subsample of about 2^16 values keeps a
    few more than m candidates, so neither a copy of the positives nor a
    partition of the full sample is made; if fewer than m values clear the
    threshold, every positive value is returned instead. Either way the
    result holds exactly the top m positive values, ties included.
    """
    sub = arr[::max(1, arr.size // _TOP_SUBSAMPLE)]
    expected = m * sub.size / arr.size  # of the top m, expected in the subsample
    rank = math.ceil(expected + 4.0 * math.sqrt(expected) + 8.0)
    sub = sub[sub > 0]
    if rank <= sub.size:
        sub.partition(sub.size - rank)
        threshold = sub[sub.size - rank]
        del sub  # freed before the full-size mask below
        top = arr[arr >= threshold]
        if top.size >= m:
            return top
    return arr[arr > 0]


def hill(samples, k: int) -> float:
    """Hill tail-index estimate from the top k+1 positive order statistics.

    alpha_hat = [ (1/k) sum_{i<=k} log(X_(i) / X_(k+1)) ]^{-1}  with the
    X_(i) in descending order. ``samples`` is left unchanged, and a
    contiguous float array is not copied: besides a one-byte mask per sample,
    only a few more than k + 1 candidates are gathered from it.
    """
    arr = _as_samples(samples, "samples")
    top = _top_positive(arr, k + 1) if k >= 2 else arr[arr > 0]
    if not 2 <= k < top.size:
        raise DomainError(f"need 2 <= k < number of positive samples ({top.size}), got k={k}")
    top.partition(top.size - (k + 1))
    top = np.sort(top[-(k + 1):])[::-1]
    ref = top[k]
    if top[0] == ref:
        raise DegenerateTail("top k+1 order statistics are tied; Hill denominator is zero")
    logs = top[:k] / ref
    return float(1.0 / np.mean(np.log(logs, out=logs)))


def hill_curve(samples, points: int = 9) -> dict[int, float]:
    """Hill estimates over a geometric sweep of k in [n/200, n/10].

    ``samples`` is left unchanged, and a contiguous float array is not
    copied: every k reads only the top n/10 + 1 positive values, which are
    gathered once, and ``hill`` is called once per k on them.
    """
    arr = _as_samples(samples, "samples")
    n_pos = int(np.count_nonzero(arr > 0))
    if n_pos < 3:
        raise DomainError("need at least 3 positive samples for a Hill curve")
    lo = max(2, n_pos // 200)
    hi = max(lo, min(n_pos - 1, n_pos // 10))
    ks = np.unique(np.rint(np.geomspace(lo, hi, points)).astype(int))
    top = _top_positive(arr, hi + 1)
    return {int(k): hill(top, int(k)) for k in ks}


# ---------------------------------------------------------------------------
# tail-ratio curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailReport:
    """Tail-ratio curve at matched denominator quantiles, with bootstrap band.

    ``n_samples`` is (numerator size, denominator size); a denominator size
    of zero marks an analytic denominator, which is exempt from the
    exceedance floor. ``trend``, when requested, is the same ratio on a
    half-decade quantile ladder; it is not part of this report's CSV or JSON.
    """

    quantile_grid: tuple[float, ...]
    x_grid: tuple[float, ...]
    ccdf_num: tuple[float, ...]
    ccdf_den: tuple[float, ...]
    ratio: tuple[float, ...]
    ratio_ci_low: tuple[float, ...]
    ratio_ci_high: tuple[float, ...]
    n_samples: tuple[int, int]
    min_exceedances: int = 100
    hill_curve: dict[int, float] = field(default_factory=dict)
    trend: "TailReport | None" = None

    def __post_init__(self):
        m = len(self.quantile_grid)
        cols = (self.x_grid, self.ccdf_num, self.ccdf_den, self.ratio,
                self.ratio_ci_low, self.ratio_ci_high)
        if m == 0 or any(len(c) != m for c in cols):
            raise DomainError("report columns must be nonempty and equal-length")
        if any(b <= a for a, b in zip(self.x_grid, self.x_grid[1:])):
            raise DomainError("x_grid must be strictly increasing")
        for lo, r, hi in zip(self.ratio_ci_low, self.ratio, self.ratio_ci_high):
            if not lo <= r <= hi:
                raise DomainError("band must bracket the point estimate")
        for n, ccdf in zip(self.n_samples, (self.ccdf_num, self.ccdf_den)):
            if n > 0 and any(c * n < self.min_exceedances - 1e-9 for c in ccdf):
                raise DomainError("a grid point fell below the exceedance floor")

    def to_csv_text(self) -> str:
        lines = ["p,x,ccdf_num,ccdf_den,ratio,ci_low,ci_high"]
        for row in zip(self.quantile_grid, self.x_grid, self.ccdf_num, self.ccdf_den,
                       self.ratio, self.ratio_ci_low, self.ratio_ci_high):
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "quantile_grid": list(self.quantile_grid),
            "x_grid": list(self.x_grid),
            "ccdf_num": list(self.ccdf_num),
            "ccdf_den": list(self.ccdf_den),
            "ratio": list(self.ratio),
            "ratio_ci_low": list(self.ratio_ci_low),
            "ratio_ci_high": list(self.ratio_ci_high),
            "n_samples": list(self.n_samples),
            "min_exceedances": self.min_exceedances,
            "hill_curve": {str(k): v for k, v in self.hill_curve.items()},
        }


def _clean_grid(quantile_grid) -> np.ndarray:
    grid = np.asarray(sorted(set(float(p) for p in quantile_grid)), dtype=float)[::-1]
    if grid.size == 0:
        raise DomainError("quantile grid is empty")
    if not np.all((grid > 0.0) & (grid < 0.5)):  # NaN fails too
        raise DomainError("grid probabilities must lie in (0, 0.5)")
    return grid


def _exceedances(sorted_samples: np.ndarray, x: np.ndarray) -> np.ndarray:
    return sorted_samples.size - np.searchsorted(sorted_samples, x, side="right")


def _dedupe_increasing(x: np.ndarray) -> np.ndarray:
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] > np.maximum.accumulate(x)[:-1]
    return keep


def _band_levels(level: float) -> tuple[float, float]:
    if not 0.0 < level < 1.0:
        raise DomainError("band level must be in (0, 1)")
    return 100.0 * (1.0 - level) / 2.0, 100.0 * (1.0 + level) / 2.0


def _half_decades(p_max: float, n: int) -> np.ndarray:
    """The ladder p_max * 10^(-j/2), j = 0, 1, ..., down to one expected sample in n."""
    rungs = max(0, int(np.floor(2.0 * np.log10(p_max * n)))) + 1
    return p_max * 10.0 ** (-np.arange(rungs) / 2.0)


def _ratio_at(num: np.ndarray, den, grid: np.ndarray, min_exceedances: int,
              bootstrap_b: int, level: float, rng: np.random.Generator) -> TailReport:
    """Ratio of the sorted ``num`` at the denominator's ``grid`` quantiles.

    ``den`` is either sorted samples or a (ccdf, quantile) pair for an exact
    denominator, which is exempt from the exceedance floor and the bootstrap.
    """
    analytic = isinstance(den, tuple)
    if analytic:
        den_ccdf, den_quantile = den
        x = np.asarray([float(den_quantile(1.0 - p)) for p in grid])
    else:
        x = np.quantile(den, 1.0 - grid, method="higher")
    keep = _dedupe_increasing(x)
    grid, x = grid[keep], x[keep]

    c_num = _exceedances(num, x)
    if analytic:
        p_den = np.asarray([float(den_ccdf(v)) for v in x])
        keep = (c_num >= min_exceedances) & (p_den > 0.0)
        if not np.any(keep):
            raise EmptyGrid("no grid point retains the minimum exceedance count in the numerator")
        p_den = p_den[keep]
    else:
        c_den = _exceedances(den, x)
        keep = (c_num >= min_exceedances) & (c_den >= min_exceedances)
        if not np.any(keep):
            raise EmptyGrid("no grid point retains the minimum exceedance count in both samples")
        p_den = c_den[keep] / den.size
    grid, x = grid[keep], x[keep]

    p_num = c_num[keep] / num.size
    ratio = p_num / p_den

    lo_q, hi_q = _band_levels(level)
    boot_num = rng.binomial(num.size, p_num, size=(bootstrap_b, x.size)) / num.size
    if analytic:
        boot = boot_num / p_den
    else:
        boot_den = rng.binomial(den.size, p_den, size=(bootstrap_b, x.size)) / den.size
        # a resample can lose every denominator exceedance; floor the count at one
        boot_den = np.maximum(boot_den, 1.0 / den.size)
        boot = boot_num / boot_den
    ci_low = np.minimum(np.percentile(boot, lo_q, axis=0), ratio)
    ci_high = np.maximum(np.percentile(boot, hi_q, axis=0), ratio)

    return TailReport(
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


def _tail_report(num, den, quantile_grid, min_exceedances, bootstrap_b, level, rng,
                 with_hill, trend_rng) -> TailReport:
    if min_exceedances < 1:
        raise DomainError("min_exceedances must be >= 1")
    if bootstrap_b < 200:
        raise DomainError("bootstrap B must be >= 200")
    rng = rng if rng is not None else np.random.default_rng(0)
    report = _ratio_at(num, den, _clean_grid(quantile_grid), min_exceedances,
                       bootstrap_b, level, rng)
    trend = None
    if trend_rng is not None:
        n = num.size if isinstance(den, tuple) else min(num.size, den.size)
        ladder = _half_decades(report.quantile_grid[0], n)
        trend = _ratio_at(num, den, ladder, min_exceedances, bootstrap_b, level, trend_rng)
    return replace(report, hill_curve=hill_curve(num) if with_hill else {}, trend=trend)


def tail_ratio(
    num_samples,
    den_samples,
    quantile_grid,
    min_exceedances: int = 100,
    bootstrap_b: int = 1000,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
    with_hill: bool = True,
    trend_rng: np.random.Generator | None = None,
) -> TailReport:
    """Empirical CCDF ratio at denominator quantiles, with bootstrap band.

    Grid points with fewer than ``min_exceedances`` exceedances in either
    sample are dropped; if none survive, raises EmptyGrid. The band is a
    percentile bootstrap over independent with-replacement resamples of the
    two sample sets, evaluated at the fixed x-grid: resampled exceedance
    counts at a fixed threshold are exactly binomial, so they are drawn
    directly rather than by materializing each resample.

    With ``trend_rng`` the report also carries ``trend``: the same ratio and
    band on the half-decade ladder p_max * 10^(-j/2) below the largest grid
    probability, down to the last rung that keeps the exceedance floor,
    bootstrapped from ``trend_rng`` so the grid's band is unchanged.
    """
    num = np.sort(_as_samples(num_samples, "num_samples"))
    den = np.sort(_as_samples(den_samples, "den_samples"))
    return _tail_report(num, den, quantile_grid, min_exceedances, bootstrap_b, level, rng,
                        with_hill, trend_rng)


def tail_ratio_analytic(
    num_samples,
    den_ccdf: Callable[[np.ndarray], np.ndarray],
    den_quantile: Callable[[np.ndarray], np.ndarray],
    quantile_grid,
    min_exceedances: int = 100,
    bootstrap_b: int = 1000,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
    with_hill: bool = True,
    trend_rng: np.random.Generator | None = None,
) -> TailReport:
    """Tail ratio against a closed-form denominator CCDF.

    Same contract as ``tail_ratio`` but the denominator is exact, so the
    exceedance floor and the bootstrap apply to the numerator side only.
    """
    num = np.sort(_as_samples(num_samples, "num_samples"))
    return _tail_report(num, (den_ccdf, den_quantile), quantile_grid, min_exceedances,
                        bootstrap_b, level, rng, with_hill, trend_rng)


# ---------------------------------------------------------------------------
# distribution comparison and decay fitting
# ---------------------------------------------------------------------------

# every _KS_CHUNK-th value of each sorted sample is a cut of ``ks_distance``
_KS_CHUNK = 1 << 15


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance by a chunked merge of sorted samples.

    Both samples are sorted. Every ``_KS_CHUNK``-th value of each, and the
    largest of each, is a cut, and the cuts split the merge into chunks
    [t_k, t_k+1). At each cut, ``searchsorted(side="right")`` gives the two
    counts of values <= t_k, so a run of equal values that holds a cut
    costs one entry however long it is, and any run of ``_KS_CHUNK`` or more
    values holds one. The values strictly between two cuts, fewer than
    ``_KS_CHUNK`` from each sample, are merged by a stable argsort of their
    concatenation (timsort merges the two sorted runs), and the running
    counts are read at the last member of each run of equal values. The
    counts at every pooled value are thus the two empirical CDFs there
    (the ``side="right"`` convention), and ties never split a step. NaNs
    sort last, form the run of the last cut, and count as one value.

    ``a`` and ``b`` are left unchanged. Beyond one sorted copy of each
    sample, the memory used is O(``_KS_CHUNK``): the cuts and one chunk's
    merge, about 3 MB.
    """
    a = np.sort(_as_samples(a, "a"))
    b = np.sort(_as_samples(b, "b"))
    cuts = np.unique(np.concatenate([a[::_KS_CHUNK], a[-1:], b[::_KS_CHUNK], b[-1:]]))
    start_a, end_a = np.searchsorted(a, cuts, "left"), np.searchsorted(a, cuts, "right")
    start_b, end_b = np.searchsorted(b, cuts, "left"), np.searchsorted(b, cuts, "right")
    gap = end_a / a.size
    gap -= end_b / b.size
    d = float(np.max(np.abs(gap, out=gap)))
    for k in range(cuts.size - 1):
        in_a = a[end_a[k]:start_a[k + 1]]
        in_b = b[end_b[k]:start_b[k + 1]]
        if in_a.size or in_b.size:
            d = max(d, _ks_chunk(in_a, in_b, end_a[k], end_b[k], a.size, b.size))
    return d


def _ks_chunk(in_a, in_b, below_a: int, below_b: int, n_a: int, n_b: int) -> float:
    """max |F_a - F_b| over the values of two sorted slices of the samples.

    ``below_a`` and ``below_b`` count the members of each sample below the
    slices; ``n_a`` and ``n_b`` are the sample sizes.
    """
    values = np.concatenate([in_a, in_b])
    order = np.argsort(values, kind="stable")
    values = values[order]
    last = np.append(np.flatnonzero(values[1:] != values[:-1]), values.size - 1)
    del values
    # order becomes the running count of in_a's members, in place
    np.less(order, in_a.size, out=order)
    np.cumsum(order, out=order)
    count_a = order[last]
    count_b = last + 1 - count_a
    count_a += below_a
    count_b += below_b
    gap = count_a / n_a
    gap -= count_b / n_b
    return float(np.max(np.abs(gap, out=gap)))


def ks_critical_value(n: int, m: int, level: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at the given significance level."""
    if n <= 0 or m <= 0:
        raise DomainError("sample sizes must be positive")
    if not 0.0 < level < 1.0:
        raise DomainError("significance level must be in (0, 1)")
    c = np.sqrt(-np.log(level / 2.0) / 2.0)
    return float(c * np.sqrt((n + m) / (n * m)))


def geometric_decay_fit(series: Mapping[int, float]) -> tuple[float, float]:
    """Least-squares fit of log(series_n) = log K + n log eta.

    Returns (eta, r_squared). Needs at least four points, all positive.
    """
    items = sorted((int(n), float(v)) for n, v in series.items())
    if len(items) < 4:
        raise DomainError("geometric fit needs at least 4 points")
    if any(v <= 0.0 for _, v in items):
        raise NonPositive("geometric fit requires strictly positive series values")
    ns = np.asarray([n for n, _ in items], dtype=float)
    logs = np.log([v for _, v in items])
    slope, intercept = np.polyfit(ns, logs, 1)
    fitted = slope * ns + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), r2
