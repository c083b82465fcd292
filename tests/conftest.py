import numpy as np
import pytest

from treetail.errors import DegenerateTail, DomainError


def _ks_by_searchsorted(a, b) -> float:
    """Two-sample KS distance read off both CDFs at every pooled sample value."""
    sa = np.sort(np.asarray(a, dtype=float).ravel())
    sb = np.sort(np.asarray(b, dtype=float).ravel())
    grid = np.concatenate([sa, sb])
    cdf_a = np.searchsorted(sa, grid, side="right") / sa.size
    cdf_b = np.searchsorted(sb, grid, side="right") / sb.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


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
