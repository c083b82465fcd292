"""Sample pools and their on-disk format.

A pool is an immutable array of i.i.d.-ish samples of one tree functional
(a fixed generation's weighted sum, a partial fixed-point sum, or a
fixed-point iterate), tagged with enough provenance to refuse mixing laws.

Binary layout: a 16-byte header (8-byte magic, u32 version, u32 metadata
length), a UTF-8 JSON metadata block, then ``count`` little-endian float64
values.  CSV export is one ``value`` column.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PoolFormatError

__all__ = ["SamplePool", "KIND_W", "KIND_R_PARTIAL", "KIND_R_STAR", "save_pool", "load_pool", "export_csv"]

KIND_W = "W"
KIND_R_PARTIAL = "R_PARTIAL"
KIND_R_STAR = "R_STAR"
_KINDS = (KIND_W, KIND_R_PARTIAL, KIND_R_STAR)

_MAGIC = b"TTPOOL\r\n"
_VERSION = 1
_HEADER = struct.Struct("<8sII")

# Below this size, tail statistics on a pool are statistically meaningless.
MIN_STATISTICAL_SIZE = 10_000


@dataclass(frozen=True)
class SamplePool:
    """Immutable samples of one tree functional under one branching law."""

    values: np.ndarray
    kind: str
    generation: int
    law_fingerprint: str
    seed_lineage: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("pool values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("pool values must all be finite")
        if self.kind not in _KINDS:
            raise ValueError(f"pool kind must be one of {_KINDS}, got {self.kind!r}")
        if self.generation < 0:
            raise ValueError("generation must be >= 0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seed_lineage", tuple(self.seed_lineage))
        if values.size < MIN_STATISTICAL_SIZE:
            warnings.warn(
                f"pool of size {values.size} is below {MIN_STATISTICAL_SIZE}; "
                "tail statistics on it will be noisy",
                stacklevel=2,
            )

    def __len__(self) -> int:
        return int(self.values.size)


def save_pool(pool: SamplePool, path: str | Path) -> None:
    """Write the pool to ``path``, atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``; a write that fails partway leaves any existing file
    at ``path`` as it was and removes the temporary file.
    """
    path = Path(path)
    meta = {
        "kind": pool.kind,
        "generation": pool.generation,
        "law_fingerprint": pool.law_fingerprint,
        "seed_lineage": list(pool.seed_lineage),
        "count": len(pool),
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, len(blob)))
            fh.write(blob)
            fh.write(pool.values.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_pool(path: str | Path) -> SamplePool:
    """Read a pool file; any malformed header, metadata or payload raises PoolFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise PoolFormatError(f"{path}: truncated header")
        magic, version, meta_len = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise PoolFormatError(f"{path}: not a pool file (bad magic)")
        if version != _VERSION:
            raise PoolFormatError(f"{path}: unsupported pool version {version}")
        try:
            meta = json.loads(fh.read(meta_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise PoolFormatError(f"{path}: corrupt metadata block") from exc
        payload = fh.read()
    if not isinstance(meta, dict):
        raise PoolFormatError(f"{path}: metadata is not a JSON object")
    count = meta.get("count")
    if len(payload) % 8:
        raise PoolFormatError(f"{path}: value payload is truncated")
    values = np.frombuffer(payload, dtype="<f8")
    if not _is_int(count) or values.size != count:
        raise PoolFormatError(f"{path}: expected {count!r} values, found {values.size}")
    generation = meta.get("generation")
    if not _is_int(generation):
        raise PoolFormatError(f"{path}: generation must be an integer, got {generation!r}")
    fingerprint = meta.get("law_fingerprint")
    if not isinstance(fingerprint, str):
        raise PoolFormatError(f"{path}: law_fingerprint must be a string, got {fingerprint!r}")
    lineage = meta.get("seed_lineage", [])
    if not isinstance(lineage, list) or not all(isinstance(part, str) for part in lineage):
        raise PoolFormatError(f"{path}: seed_lineage must be a list of strings")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return SamplePool(
                values=values.copy(),
                kind=meta.get("kind"),
                generation=generation,
                law_fingerprint=fingerprint,
                seed_lineage=tuple(lineage),
            )
        except ValueError as exc:  # unknown kind, negative generation, empty or non-finite values
            raise PoolFormatError(f"{path}: {exc}") from exc


def export_csv(pool: SamplePool, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write("value\n")
        fh.writelines(f"{float(v)!r}\n" for v in pool.values)
