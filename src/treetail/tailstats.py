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

The tail estimators read only the top of a sample, so they read it through
a ``TailSketch``: the sample's counts and its values above a cutoff,
sorted. The tail ratio, the Hill estimator and the Hill curve take either
a sample, which they sketch in one gather, or a sketch, which a
``TailSketchBuilder`` can build from blocks without ever holding the whole
sample. A question about values below a sketch's cutoff raises instead of
miscounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import records
from .errors import DegenerateTail, DomainError, EmptyGrid, NonPositive
from .pools import check_memory

__all__ = [
    "TailSketch",
    "TailSketchBuilder",
    "TailReport",
    "hill",
    "hill_curve",
    "hill_curve_keep",
    "tail_ratio",
    "tail_ratio_analytic",
    "den_sketch_bounds",
    "num_sketch_bounds",
    "band_bytes",
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
# tail sketches
# ---------------------------------------------------------------------------

# the strided subsample that sets the candidate threshold of ``_candidates``
_TOP_SUBSAMPLE = 1 << 16


def _split(values: np.ndarray, cutoff: float) -> tuple[np.ndarray, int]:
    """The entries of ``values`` above ``cutoff``, and the count of those equal to it."""
    return values[values > cutoff], int(np.count_nonzero(values == cutoff))


def _candidates(arr: np.ndarray, m: int) -> tuple[float, np.ndarray, int]:
    """(t, the entries of ``arr`` above t, the count equal to t), with m or more non-NaN entries >= t.

    A threshold t read off a strided subsample of about 2^16 values leaves a
    few more than m values at or above it, so the full sample is neither
    copied nor partitioned, and a run of values tied at t is counted, not
    gathered. If fewer than m values reach the threshold, t is -inf instead.
    ``arr`` must hold at least m non-NaN values.
    """
    sub = arr[::max(1, arr.size // _TOP_SUBSAMPLE)]
    expected = m * sub.size / arr.size  # of the top m, expected in the subsample
    rank = math.ceil(expected + 4.0 * math.sqrt(expected) + 8.0)
    sub = sub[~np.isnan(sub)]
    if rank <= sub.size:
        sub.partition(sub.size - rank)
        threshold = float(sub[sub.size - rank])
        del sub  # freed before the full-size masks below
        above, ties = _split(arr, threshold)
        if above.size + ties >= m:
            return threshold, above, ties
    return (-math.inf, *_split(arr, -math.inf))


def _kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest of the NaN-free ``values``, which are partitioned in place."""
    values.partition(values.size - k)
    return float(values[values.size - k])


# the stretch of a sketch buffer that ``_keep_in_place`` filters at a time
_COMPACT_CHUNK = 1 << 16


def _keep_in_place(values: np.ndarray, cutoff: float) -> int:
    """Move the entries of ``values`` above ``cutoff`` to its front; returns their count.

    The buffer is filtered one chunk at a time, so no full-size mask or copy
    is made; a chunk is copied out before anything is written over it.
    """
    size = 0
    for lo in range(0, values.size, _COMPACT_CHUNK):
        chunk = values[lo:lo + _COMPACT_CHUNK]
        chunk = chunk[chunk > cutoff]
        values[size:size + chunk.size] = chunk
        size += chunk.size
    return size


def _higher_index(n: int, q: np.ndarray) -> np.ndarray:
    """The index of ``np.quantile``'s ``method="higher"`` in a sorted sample of n."""
    return np.ceil((n - 1) * q).astype(np.intp)


@dataclass(frozen=True, eq=False)
class TailSketch:
    """The counts of a whole sample and its values above a cutoff, sorted.

    ``n``, ``n_pos`` and ``n_nan`` count the sample, its positive values and
    its NaNs, and ``n_at`` the values equal to ``cutoff``. ``top`` holds, in
    ascending order, every value above the cutoff; nothing below it is kept.
    A run of values tied at the cutoff, such as an atom of the law, is thus
    counted and never stored. A sketch answers the three questions the tail
    estimators ask, and raises a ``DomainError`` for any question whose
    answer would need a value below the cutoff:

    * ``exceedances``: how many values are not <= each threshold;
    * ``quantile_higher``: numpy's ``method="higher"`` quantiles;
    * ``top_positive``: the largest positive values, for the Hill estimator.

    Sketches are built by ``TailSketch.of`` from an array in one gather, or
    by a ``TailSketchBuilder`` from blocks; see the builder for the cutoff.
    """

    n: int
    n_pos: int
    n_nan: int
    cutoff: float
    n_at: int
    top: np.ndarray

    @classmethod
    def of(cls, samples, floor: float = math.inf, keep: int = 0) -> "TailSketch":
        """The sketch of one array; ``floor`` and ``keep`` as in ``TailSketchBuilder``."""
        builder = TailSketchBuilder(floor, keep)
        builder.add(samples)
        return builder.build()

    def exceedances(self, x: np.ndarray) -> np.ndarray:
        """The count of values that are not <= each threshold of ``x``.

        NaNs are never <= a threshold, so they count as exceeding every x;
        a NaN threshold is exceeded by nothing.
        """
        x = np.asarray(x, dtype=float)
        known = ~np.isnan(x)
        if np.any(x[known] < self.cutoff):
            raise DomainError(f"a threshold of {float(np.min(x[known]))!r} lies below the "
                              f"sketch cutoff {self.cutoff!r}")
        counts = self.n_nan + self.top.size - np.searchsorted(self.top, x, side="right")
        counts[~known] = 0
        return counts

    def quantile_higher(self, q: np.ndarray) -> np.ndarray:
        """``np.quantile(sample, q, method="higher")``, read off the sorted top.

        That is the order statistic at index ceil((n - 1) q), computed as
        numpy computes it; any NaN in the sample makes every quantile NaN.
        """
        q = np.asarray(q, dtype=float)
        if self.n_nan:
            return np.full(q.shape, np.nan)
        index = _higher_index(self.n, q)
        first = self.n - self.top.size  # the index of top[0] in the sorted sample
        if np.any(index < first - self.n_at):
            raise DomainError(f"a quantile at index {int(np.min(index))} of {self.n} lies below "
                              f"the sketch cutoff {self.cutoff!r}")
        x = np.full(index.shape, self.cutoff)  # ties at the cutoff fill the indices below top
        held = index >= first
        x[held] = self.top[index[held] - first]
        return x

    def top_positive(self, m: int) -> np.ndarray:
        """The m largest positive values, in ascending order."""
        above = self.top.size - int(np.searchsorted(self.top, 0.0, side="right"))
        if m <= above:
            return self.top[self.top.size - m:]
        tied = self.n_at if self.cutoff > 0 else 0
        if m > above + tied:
            raise DomainError(f"the sketch holds {above + tied} of the {m} largest positive "
                              f"values (cutoff {self.cutoff!r})")
        return np.concatenate([np.full(m - above, self.cutoff), self.top[self.top.size - above:]])


class TailSketchBuilder:
    """Builds a ``TailSketch`` from blocks of a sample, without holding the sample.

    The sketch's cutoff is min(``floor``, v), where v is the (``keep`` + 1)-th
    largest non-NaN value of the whole sample (-inf if there are fewer). It
    can thus answer every question about thresholds at or above ``floor``
    and about the ``keep`` largest values, which it stores unless some are
    tied at the cutoff. The cutoff is a function of the whole sample, so the
    sketch does not depend on how the sample was split into blocks or in
    what order they came.

    Each block is counted, and only its values above the running cutoff are
    gathered, through a one-byte mask; those at the cutoff are counted.
    Once a block holds ``keep`` + 1 values, its own (``keep`` + 1)-th
    largest raises that bound, and only a few more than ``keep`` candidates
    are gathered from it. The gathered values go into one buffer; when it is
    full, its (``keep`` + 1)-th largest raises the running cutoff and the
    values below it are dropped in place. The buffer is sized to hold twice
    what the sketch keeps, so it is compacted only every so often and never
    holds more than twice the sketch plus one block. ``build`` sorts the
    buffer in place and shrinks it into the sketch.
    """

    def __init__(self, floor: float = math.inf, keep: int = 0):
        if math.isnan(floor):
            raise DomainError("a sketch floor must not be NaN")
        if keep < 0:
            raise DomainError(f"a sketch must keep a non-negative count, got {keep}")
        self._floor = float(floor)
        self._keep = int(keep)
        self._cutoff = -math.inf
        self._n = self._n_pos = self._n_nan = self._n_at = 0
        self._buf = np.empty(0)  # its first _size entries: the values above the cutoff
        self._size = 0

    def add(self, block) -> None:
        """Count ``block`` and gather its values above the running cutoff."""
        self._check_unspent()
        block = _as_samples(block, "block")
        n_nan = int(np.count_nonzero(np.isnan(block)))
        self._n += block.size
        self._n_pos += int(np.count_nonzero(block > 0))
        self._n_nan += n_nan
        lower, candidates = self._cutoff, None
        if block.size - n_nan > self._keep:
            t, above, ties = _candidates(block, self._keep + 1)
            kth = _kth_largest(above, self._keep + 1) if above.size > self._keep else t
            lower = max(lower, min(self._floor, kth))
            if lower >= t:  # the candidates hold every value >= lower
                candidates = (t, above, ties)
        if lower > self._cutoff:
            self._raise(lower)
        if candidates is None:
            gathered, at = _split(block, lower)
        elif lower == candidates[0]:
            gathered, at = candidates[1:]
        else:
            gathered, at = _split(candidates[1], lower)
        self._append(gathered, at)

    def build(self) -> TailSketch:
        """The sketch of every block added so far; the builder is then spent."""
        self._check_unspent()
        if self._n == 0:
            raise DomainError("a sketch needs at least one sample")
        self._compact()
        top, size = self._buf, self._size
        self._buf = None
        # the buffer is owned here and no view of it is alive: it shrinks in place
        top.resize(size, refcheck=False)
        top.sort()
        top.flags.writeable = False
        return TailSketch(self._n, self._n_pos, self._n_nan, self._cutoff, self._n_at, top)

    def _check_unspent(self) -> None:
        if self._buf is None:
            raise DomainError("this builder has already built its sketch")

    def _compact(self) -> None:
        """Raise the running cutoff to the sample's bound so far, if that is higher.

        The buffer and the tie count hold every value of the sample so far
        that is >= its bound, so the bound is read off them; it only rises.
        """
        held, j = self._buf[:self._size], self._keep + 1
        if held.size >= j:
            kth = _kth_largest(held, j)
        else:
            kth = self._cutoff if held.size + self._n_at >= j else -math.inf
        bound = min(self._floor, kth)
        if bound > self._cutoff:
            self._raise(bound)

    def _raise(self, cutoff: float) -> None:
        """Move the running cutoff up to ``cutoff``: count the buffer's ties there, drop the rest."""
        held = self._buf[:self._size]
        self._n_at = int(np.count_nonzero(held == cutoff))
        self._size = _keep_in_place(held, cutoff)
        self._cutoff = cutoff

    def _append(self, values: np.ndarray, at: int) -> None:
        """Add a fresh gather of the values above the running cutoff, and ``at`` tied at it."""
        if self._size and self._size + values.size > self._buf.size:
            cutoff = self._cutoff
            self._compact()
            if self._cutoff > cutoff:  # ``values`` and ``at`` were split at the old cutoff
                values, at = _split(values, self._cutoff)
        self._n_at += at
        need = self._size + values.size
        if need > self._buf.size:
            if self._size == 0:
                self._buf, self._size = values, values.size  # the gather becomes the buffer
                return
            grown = np.empty(2 * max(need, self._keep))
            grown[:self._size] = self._buf[:self._size]
            self._buf = grown
        self._buf[self._size:need] = values
        self._size = need


# ---------------------------------------------------------------------------
# Hill estimator
# ---------------------------------------------------------------------------

def hill_curve_keep(n: int) -> int:
    """How many of the largest values ``hill_curve`` reads from a sample of n.

    The curve's largest k is at most max(2, n_pos // 10), and it reads the
    top k + 1 positive values; n_pos <= n, so this bounds it for any sample
    of n values.
    """
    return max(2, n // 10) + 1


def hill(samples, k: int) -> float:
    """Hill tail-index estimate from the top k+1 positive order statistics.

    alpha_hat = [ (1/k) sum_{i<=k} log(X_(i) / X_(k+1)) ]^{-1}  with the
    X_(i) in descending order. ``samples`` is an array, left unchanged, or a
    ``TailSketch`` that holds the top k + 1 positive values. From an array,
    besides a one-byte mask per sample, only a few more than k + 1
    candidates are gathered.
    """
    if not isinstance(samples, TailSketch):
        samples = TailSketch.of(_as_samples(samples, "samples"), keep=k + 1 if k >= 2 else 0)
    if not 2 <= k < samples.n_pos:
        raise DomainError(f"need 2 <= k < number of positive samples ({samples.n_pos}), got k={k}")
    top = samples.top_positive(k + 1)[::-1]
    ref = top[k]
    if top[0] == ref:
        raise DegenerateTail("top k+1 order statistics are tied; Hill denominator is zero")
    logs = top[:k] / ref
    return float(1.0 / np.mean(np.log(logs, out=logs)))


def hill_curve(samples) -> dict[int, float]:
    """Hill estimates at nine geometrically spaced k in [n/200, n/10], equal k merged.

    ``samples`` is an array, left unchanged, or a ``TailSketch`` that holds
    the top ``hill_curve_keep(n)`` values. From an array those values are
    gathered once, and ``hill`` is called once per k on their sketch.
    """
    if not isinstance(samples, TailSketch):
        arr = _as_samples(samples, "samples")
        samples = TailSketch.of(arr, keep=hill_curve_keep(arr.size))
    n_pos = samples.n_pos
    if n_pos < 3:
        raise DomainError("need at least 3 positive samples for a Hill curve")
    lo = max(2, n_pos // 200)
    hi = max(lo, min(n_pos - 1, n_pos // 10))
    ks = np.unique(np.rint(np.geomspace(lo, hi, 9)).astype(int))
    return {int(k): hill(samples, int(k)) for k in ks}


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
        doc = records.fields_json(self)
        del doc["trend"]  # a verification report writes it as its own block, tail_trend
        return doc


def _clean_grid(quantile_grid) -> np.ndarray:
    grid = np.asarray(sorted(set(float(p) for p in quantile_grid)), dtype=float)[::-1]
    if grid.size == 0:
        raise DomainError("quantile grid is empty")
    if not np.all((grid > 0.0) & (grid < 0.5)):  # NaN fails too
        raise DomainError("grid probabilities must lie in (0, 0.5)")
    return grid


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


def _x_grid(den, grid: np.ndarray) -> np.ndarray:
    """The denominator's quantiles at 1 - ``grid``: numpy's ``"higher"`` rule on a sketch, else exact."""
    if isinstance(den, TailSketch):
        return den.quantile_higher(1.0 - grid)
    return np.asarray([float(den.quantile(1.0 - p)) for p in grid])


def _ratio_at(num: TailSketch, den, grid: np.ndarray, min_exceedances: int,
              bootstrap_b: int, level: float, rng: np.random.Generator) -> TailReport:
    """Ratio of ``num`` at the denominator's ``grid`` quantiles.

    ``den`` is either a sketch or a law with ``ccdf`` and ``quantile``, an
    exact denominator, which is exempt from the exceedance floor and the
    bootstrap. Both sketches must have their cutoff at or below the smallest x.
    """
    analytic = not isinstance(den, TailSketch)
    x = _x_grid(den, grid)
    keep = _dedupe_increasing(x)
    grid, x = grid[keep], x[keep]

    c_num = num.exceedances(x)
    if analytic:
        p_den = np.asarray([float(den.ccdf(v)) for v in x])
        keep = (c_num >= min_exceedances) & (p_den > 0.0)
        if not np.any(keep):
            raise EmptyGrid("no grid point retains the minimum exceedance count in the numerator")
        p_den = p_den[keep]
    else:
        c_den = den.exceedances(x)
        keep = (c_num >= min_exceedances) & (c_den >= min_exceedances)
        if not np.any(keep):
            raise EmptyGrid("no grid point retains the minimum exceedance count in both samples")
        p_den = c_den[keep] / den.n
    grid, x = grid[keep], x[keep]

    p_num = c_num[keep] / num.n
    ratio = p_num / p_den

    lo_q, hi_q = _band_levels(level)
    boot_num = rng.binomial(num.n, p_num, size=(bootstrap_b, x.size)) / num.n
    if analytic:
        boot = boot_num / p_den
    else:
        boot_den = rng.binomial(den.n, p_den, size=(bootstrap_b, x.size)) / den.n
        # a resample can lose every denominator exceedance; floor the count at one
        boot_den = np.maximum(boot_den, 1.0 / den.n)
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
        n_samples=(num.n, 0 if analytic else den.n),
        min_exceedances=min_exceedances,
    )


def den_sketch_bounds(n: int, quantile_grid) -> tuple[float, int]:
    """The (floor, keep) of a tail ratio's sketch of an empirical denominator of n values.

    Every x is at or above the order statistic at 1 - max(grid) by numpy's
    ``"higher"`` rule, so the sketch keeps every value down to that one.
    """
    return math.inf, n - int(_higher_index(n, 1.0 - _clean_grid(quantile_grid)[0]))


def num_sketch_bounds(n: int, den, quantile_grid, with_hill: bool = True) -> tuple[float, int]:
    """The (floor, keep) of a tail ratio's sketch of a numerator of n values against ``den``.

    The floor is the grid's smallest x, no floor where it is NaN; with
    ``with_hill`` the sketch also keeps the top ``hill_curve_keep(n)``.
    """
    x_min = float(_x_grid(den, _clean_grid(quantile_grid)[:1])[0])
    return math.inf if math.isnan(x_min) else x_min, hill_curve_keep(n) if with_hill else 0


# the B x k float64 arrays one band can hold at once in ``_ratio_at``: both
# resamples, the floored denominator, their ratio and np.percentile's copy
# (4.55 traced at B = 200000 against an empirical denominator, 3.33 exact)
_BAND_ARRAYS = 5


def band_bytes(n: int, quantile_grid, bootstrap_b: int) -> int:
    """A bound on the bytes of a tail ratio's bands on the grid and the trend ladder, for n samples."""
    grid = _clean_grid(quantile_grid)
    return 8 * _BAND_ARRAYS * bootstrap_b * (grid.size + _half_decades(grid[0], n).size)


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
    """CCDF ratio of a numerator at the denominator's quantiles, with bootstrap band.

    The numerator is a sample or a ``TailSketch``; the denominator is a
    sample, a sketch or a law with an exact ``ccdf`` and ``quantile`` (any
    object with a ``ccdf``), such as a ``Distribution``. The x-grid holds
    the denominator's quantiles: a sample's by numpy's ``method="higher"``
    rule, so any NaN in it makes every x NaN, which nothing exceeds.

    Grid points with fewer than ``min_exceedances`` exceedances in either
    sample are dropped; if none survive, raises EmptyGrid. The band is a
    percentile bootstrap over with-replacement resamples of each sample at
    the fixed x-grid, whose exceedance counts are exactly binomial, so they
    are drawn directly. A law is exempt from the floor and the bootstrap.
    Bands past physical memory raise ``BudgetExceeded`` before any draw.

    A sample is not sorted or changed: it is sketched in one gather by
    ``den_sketch_bounds`` or ``num_sketch_bounds``. A sketch passed in must
    hold what those rules keep.

    With ``trend_rng`` the report also carries ``trend``: the same ratio and
    band on the half-decade ladder p_max * 10^(-j/2) below the largest grid
    probability, down to the last rung that keeps the exceedance floor,
    bootstrapped from ``trend_rng`` so the grid's band is unchanged.
    """
    num = num_samples if isinstance(num_samples, TailSketch) else _as_samples(num_samples, "num_samples")
    den = den_samples if isinstance(den_samples, TailSketch) or hasattr(den_samples, "ccdf") else (
        _as_samples(den_samples, "den_samples"))
    if min_exceedances < 1:
        raise DomainError("min_exceedances must be >= 1")
    if bootstrap_b < 200:
        raise DomainError("bootstrap B must be >= 200")
    rng = rng if rng is not None else np.random.default_rng(0)
    grid = _clean_grid(quantile_grid)
    if isinstance(den, np.ndarray):
        den = TailSketch.of(den, *den_sketch_bounds(den.size, grid))
    if isinstance(num, np.ndarray):
        num = TailSketch.of(num, *num_sketch_bounds(num.size, den, grid, with_hill))
    n = min(num.n, den.n) if isinstance(den, TailSketch) else num.n
    check_memory(band_bytes(n, grid, bootstrap_b), f"a tail-ratio band of B = {bootstrap_b}")
    report = _ratio_at(num, den, grid, min_exceedances, bootstrap_b, level, rng)
    trend = None
    if trend_rng is not None:
        ladder = _half_decades(report.quantile_grid[0], n)
        trend = _ratio_at(num, den, ladder, min_exceedances, bootstrap_b, level, trend_rng)
    return replace(report, hill_curve=hill_curve(num) if with_hill else {}, trend=trend)


def tail_ratio_analytic(
    num_samples,
    den,
    quantile_grid,
    min_exceedances: int = 100,
    bootstrap_b: int = 1000,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
    with_hill: bool = True,
    trend_rng: np.random.Generator | None = None,
) -> TailReport:
    """``tail_ratio`` against a law ``den``; the benchmark's spans wrap this name."""
    return tail_ratio(num_samples, den, quantile_grid, min_exceedances, bootstrap_b, level, rng,
                      with_hill, trend_rng)


# ---------------------------------------------------------------------------
# distribution comparison and decay fitting
# ---------------------------------------------------------------------------

# every _KS_CHUNK-th value of each sorted sample is a cut of ``ks_distance``
_KS_CHUNK = 1 << 9
# the most values of each sample that one merge of adjacent chunks reads
_KS_MERGE = 1 << 15
# the block length of ``_sorted``'s ascending-order check
_SORTED_CHECK = 1 << 16


def _sorted(x: np.ndarray) -> np.ndarray:
    """``x`` itself if it is in ascending order, else a sorted copy.

    The order is checked block by block, so no full-size mask is made, and
    the first block out of order stops the check. A NaN fails it, so a
    sample holding one is sorted, NaNs last.
    """
    for lo in range(0, x.size - 1, _SORTED_CHECK):
        hi = min(lo + _SORTED_CHECK, x.size - 1)
        if not np.all(x[lo:hi] <= x[lo + 1:hi + 1]):
            return np.sort(x)
    return x


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance by a pruned, chunked merge of sorted samples.

    Each sample is sorted, unless it is in ascending order already. Every
    ``_KS_CHUNK``-th (2^9-th) value of each, and the largest of each, is a
    cut, and the cuts split the merge into chunks [t_k, t_k+1). At each
    cut, ``searchsorted`` gives the counts of values <= t_k (``end``) and
    < t_k (``start``), so a run of equal values that holds a cut costs one
    entry however long it is, and any run of ``_KS_CHUNK`` or more values
    holds one. The distance at the cuts starts the running maximum d.

    Inside chunk k the counts of each sample lie between its ``end`` at t_k
    and its ``start`` at t_k+1, so |F_a - F_b| there is at most
    max(start_a[k+1]/n_a - end_b[k]/n_b, start_b[k+1]/n_b - end_a[k]/n_a).
    That bound is the same float expression as the distance it bounds, and
    rounding is monotone, so it is exact: a chunk whose bound is <= d
    cannot raise d. The chunks are visited in decreasing order of bound
    until the first bound <= d. A visited chunk is merged together with the
    adjacent unvisited chunks whose bounds still exceed d, and the cuts
    between them, up to ``_KS_MERGE`` (2^15) values of each sample, so
    samples that prune nothing (two equal samples, say) cost a few dozen
    merges, not thousands. The values of a merge are merged by a stable
    argsort of their concatenation (timsort merges the two sorted runs),
    and the running counts are read at the last member of each run of
    equal values. The counts at every pooled value are thus the two
    empirical CDFs there (the ``side="right"`` convention), and ties never
    split a step. NaNs sort last, form the run of the last cut, and count
    as one value.

    ``a`` and ``b`` are left unchanged, and may be read-only. Beyond a
    sorted copy of each sample that is not in ascending order already, the
    memory used is O(n / 2^9 + 2^15): the cuts with their bounds, about
    0.3 MB for two samples of a million, and one merge, at most about 3 MB.
    So a caller that compares one sample with several others can sort it
    once and pass the sorted copy.
    """
    a = _sorted(_as_samples(a, "a"))
    b = _sorted(_as_samples(b, "b"))
    n_a, n_b = a.size, b.size
    cuts = np.unique(np.concatenate([a[::_KS_CHUNK], a[-1:], b[::_KS_CHUNK], b[-1:]]))
    start_a, end_a = np.searchsorted(a, cuts, "left"), np.searchsorted(a, cuts, "right")
    start_b, end_b = np.searchsorted(b, cuts, "left"), np.searchsorted(b, cuts, "right")
    gap = end_a / n_a
    gap -= end_b / n_b
    d = float(np.max(np.abs(gap, out=gap)))
    bound = start_a[1:] / n_a
    bound -= end_b[:-1] / n_b
    below = start_b[1:] / n_b
    below -= end_a[:-1] / n_a
    np.maximum(bound, below, out=bound)
    # the chunks that can raise d, highest bound first; equal bounds go from
    # the highest index down, so that they join in whole runs of chunks
    live = np.argsort(bound, kind="stable")[::-1][:np.count_nonzero(bound > d)].tolist()
    # the loop reads single entries, which memoryviews serve as plain Python
    # numbers, several times faster than numpy scalars and with no copy
    bound, start_a, end_a, start_b, end_b = (
        memoryview(v) for v in (bound, start_a, end_a, start_b, end_b))
    merged = bytearray(len(bound))

    def joins(j: int) -> bool:  # chunk j is unmerged and may still raise d
        return not merged[j] and bound[j] > d

    def fits(lo: int, hi: int) -> bool:  # chunks lo..hi hold at most _KS_MERGE of each sample
        return (start_a[hi + 1] - end_a[lo] <= _KS_MERGE
                and start_b[hi + 1] - end_b[lo] <= _KS_MERGE)

    for k in live:
        if bound[k] <= d:
            break
        if merged[k]:
            continue
        lo = hi = k
        while hi + 1 < len(bound) and joins(hi + 1) and fits(lo, hi + 1):
            hi += 1
        while lo > 0 and joins(lo - 1) and fits(lo - 1, hi):
            lo -= 1
        merged[lo:hi + 1] = b"\1" * (hi + 1 - lo)
        d = max(d, _ks_chunk(a[end_a[lo]:start_a[hi + 1]], b[end_b[lo]:start_b[hi + 1]],
                             end_a[lo], end_b[lo], n_a, n_b))
    return d


def _ks_chunk(in_a, in_b, below_a: int, below_b: int, n_a: int, n_b: int) -> float:
    """max |F_a - F_b| over the values of two sorted slices of the samples.

    The slices hold every member of their sample in one value range, so
    each run of equal values is whole. ``below_a`` and ``below_b`` count
    the members of each sample below the slices; ``n_a`` and ``n_b`` are
    the sample sizes.
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
