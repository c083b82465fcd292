"""Splittable, reproducible random streams.

All randomness in the package derives from a single master seed through
``numpy.random.SeedSequence`` spawn keys.  A stream is addressed by a path of
small non-negative integers (purpose tag, generation, block, ...), so any
component can be recomputed on its own, in any order.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Keying streams on these keeps independent parts of a run
# (pool init, pool evolution, denominator draws, bootstrap, ...) from ever
# sharing a stream even when they use the same generation/block indices.
TAG_POOL_INIT = 0
TAG_POOL_W = 1
TAG_POOL_R = 2
TAG_POOL_RSTAR = 3
TAG_ZN = 4
TAG_EXACT = 5
TAG_SUM = 6
TAG_BOOTSTRAP = 7
TAG_MC = 8

# Pool evolution runs over fixed blocks of output indices. The block size
# is a format-level constant: changing it would change which sub-stream
# each output index consumes, hence the sampled values.
BLOCK = 1 << 16


class StreamTree:
    """The root of the seed-derivation tree.

    ``child(*key)`` returns a fresh ``numpy.random.Generator`` whose
    SeedSequence spawn key is ``key``.  Distinct keys give statistically
    independent streams; the same key always gives the same stream.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)

    def child(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=key)
        return np.random.default_rng(ss)

    def lineage(self) -> str:
        return f"seed={self.seed}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"StreamTree({self.lineage()})"
