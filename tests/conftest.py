import numpy as np
import pytest


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
