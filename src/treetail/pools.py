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
import stat
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BudgetExceeded, DomainError, PoolFormatError

__all__ = [
    "SamplePool", "KIND_W", "KIND_R_PARTIAL", "KIND_R_STAR",
    "check_memory", "all_finite", "save_pool", "load_pool", "export_csv",
]

KIND_W = "W"
KIND_R_PARTIAL = "R_PARTIAL"
KIND_R_STAR = "R_STAR"
_KINDS = (KIND_W, KIND_R_PARTIAL, KIND_R_STAR)

_MAGIC = b"TTPOOL\r\n"
_VERSION = 1
_HEADER = struct.Struct("<8sII")

# a pipe's payload is read in slices of this many bytes
_PIPE_CHUNK = 1 << 20

# Below this size, tail statistics on a pool are statistically meaningless.
MIN_STATISTICAL_SIZE = 10_000


def check_memory(nbytes: int, what: str) -> None:
    """Raise ``BudgetExceeded``, before anything is allocated, if ``nbytes`` exceed physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise BudgetExceeded(f"{what} would hold {nbytes / 2**30:.3g} GiB at once, "
                             f"more than the {memory / 2**30:.3g} GiB of physical memory")


def all_finite(values: np.ndarray) -> bool:
    """Whether every value is finite, read without a full-size mask when it is.

    A NaN or an infinity among the values makes their sum NaN or infinite,
    so a finite sum proves every value finite. Finite values can also
    overflow the sum; only then is each value checked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(values.sum()):
            return True
    return bool(np.isfinite(values).all())


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
            raise DomainError("pool values must be a non-empty 1-d array")
        if not all_finite(values):
            raise DomainError("pool values must all be finite")
        if self.kind not in _KINDS:
            raise DomainError(f"pool kind must be one of {_KINDS}, got {self.kind!r}")
        if self.generation < 0:
            raise DomainError("generation must be >= 0")
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
            # on a little-endian host this is the values themselves, so they
            # are written from their own buffer, with no copy
            fh.write(pool.values.astype("<f8", copy=False).data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_rest(fh) -> bytearray:
    """The rest of ``fh``, read into one writable buffer grown in place."""
    payload = bytearray()
    while chunk := fh.read(_PIPE_CHUNK):
        payload += chunk
    return payload


def load_pool(path: str | Path) -> SamplePool:
    """Read a pool file; any malformed header, metadata or payload raises PoolFormatError.

    The metadata ``count`` is checked against the payload's size on disk
    before anything is allocated for the values, and a payload larger than
    physical memory raises ``BudgetExceeded``. The values are then read
    straight into one fresh float64 array: the payload is held once, as
    the pool's read-only ``values``. A pipe's payload is read whole first,
    since only reading it tells its size, into one ``bytearray`` grown in
    place, and the values are a view of it. Either way the values' buffer
    is writable underneath, so a caller that owns the pool can reclaim
    write access and sort it in place.
    """
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
        if not isinstance(meta, dict):
            raise PoolFormatError(f"{path}: metadata is not a JSON object")
        count = meta.get("count")
        info = os.fstat(fh.fileno())
        # a pipe's payload is sized only by reading it
        payload = None if stat.S_ISREG(info.st_mode) else _read_rest(fh)
        payload_bytes = info.st_size - fh.tell() if payload is None else len(payload)
        if payload_bytes % 8:
            raise PoolFormatError(f"{path}: value payload is truncated")
        found = payload_bytes // 8
        if not _is_int(count) or found != count:
            raise PoolFormatError(f"{path}: expected {count!r} values, found {found}")
        if payload is not None:
            values = np.frombuffer(payload, dtype="<f8")
        else:
            check_memory(payload_bytes, f"{path}: {count} pool values")
            values = np.empty(count, dtype="<f8")
            if fh.readinto(values) != payload_bytes:
                raise PoolFormatError(f"{path}: value payload is truncated")
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
                values=values,
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
