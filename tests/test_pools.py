import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetail import (
    KIND_R_PARTIAL,
    KIND_R_STAR,
    KIND_W,
    SamplePool,
    export_csv,
    load_pool,
    save_pool,
)
from treetail.errors import PoolFormatError, TreetailError
from treetail.pools import _HEADER, _MAGIC, _VERSION

pytestmark = pytest.mark.filterwarnings("ignore:pool of size")


def make_pool(values=None, **kw):
    if values is None:
        values = np.random.default_rng(0).random(32) + 0.5
    defaults = dict(kind=KIND_W, generation=3, law_fingerprint="ab" * 8,
                    seed_lineage=("seed=1", "0/3"))
    defaults.update(kw)
    return SamplePool(values=np.asarray(values, dtype=float), **defaults)


def test_pool_invariants():
    pool = make_pool()
    assert len(pool) == 32
    assert not pool.values.flags.writeable
    with pytest.raises(ValueError):
        make_pool(values=[])
    with pytest.raises(ValueError):
        make_pool(values=[1.0, np.nan])
    with pytest.raises(ValueError):
        make_pool(values=[1.0, np.inf])
    with pytest.raises(ValueError):
        make_pool(kind="Z")
    with pytest.raises(ValueError):
        make_pool(generation=-1)


def test_small_pools_warn():
    with pytest.warns(UserWarning, match="tail statistics"):
        SamplePool(values=np.ones(5), kind=KIND_R_STAR, generation=0,
                   law_fingerprint="00" * 8)


def test_save_load_roundtrip(tmp_path):
    pool = make_pool()
    path = tmp_path / "pool.bin"
    save_pool(pool, path)
    back = load_pool(path)
    np.testing.assert_array_equal(back.values, pool.values)
    assert back.kind == pool.kind
    assert back.generation == pool.generation
    assert back.law_fingerprint == pool.law_fingerprint
    assert back.seed_lineage == pool.seed_lineage


def test_load_rejects_non_pool_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a pool at all, definitely")
    with pytest.raises(PoolFormatError, match="magic"):
        load_pool(path)
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x00\x01")
    with pytest.raises(PoolFormatError, match="truncated"):
        load_pool(short)


def test_load_rejects_unsupported_version(tmp_path):
    pool = make_pool()
    path = tmp_path / "pool.bin"
    save_pool(pool, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(PoolFormatError, match="version"):
        load_pool(path)


def test_load_rejects_truncated_values(tmp_path):
    pool = make_pool()
    path = tmp_path / "pool.bin"
    save_pool(pool, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(PoolFormatError):
        load_pool(path)


def _pool_bytes(meta_block: bytes, values=(1.0, 2.0, 3.0)) -> bytes:
    header = _HEADER.pack(_MAGIC, _VERSION, len(meta_block))
    return header + meta_block + np.asarray(values, dtype="<f8").tobytes()


_DROP = object()


def _meta(**overrides) -> bytes:
    meta = {"kind": KIND_W, "generation": 3, "law_fingerprint": "ab" * 8,
            "seed_lineage": ["seed=1"], "count": 3}
    meta.update(overrides)
    return json.dumps({k: v for k, v in meta.items() if v is not _DROP}).encode()


@pytest.mark.parametrize("meta_block,match", [
    (_meta(kind=_DROP), "kind"),
    (_meta(kind="Z"), "kind"),
    (_meta(generation=_DROP), "generation"),
    (_meta(generation="three"), "generation"),
    (_meta(generation=2.5), "generation"),
    (_meta(generation=-1), "generation"),
    (_meta(law_fingerprint=_DROP), "law_fingerprint"),
    (_meta(seed_lineage="seed=1"), "seed_lineage"),
    (_meta(count="3"), "expected"),
    (b"[1, 2, 3]", "JSON object"),
], ids=["no-kind", "unknown-kind", "no-generation", "text-generation", "float-generation",
        "negative-generation", "no-fingerprint", "text-lineage", "text-count", "not-an-object"])
def test_load_rejects_malformed_metadata(tmp_path, meta_block, match):
    path = tmp_path / "pool.bin"
    path.write_bytes(_pool_bytes(meta_block))
    with pytest.raises(PoolFormatError, match=match):
        load_pool(path)


def test_load_rejects_non_finite_values(tmp_path):
    path = tmp_path / "pool.bin"
    path.write_bytes(_pool_bytes(_meta(), values=(1.0, np.nan, 3.0)))
    with pytest.raises(PoolFormatError, match="finite"):
        load_pool(path)


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("count", [4, 2, 0, -3, 1_000_000, 10 ** 12],
                         ids=["one-more", "one-fewer", "zero", "negative", "million", "trillion"])
def test_load_checks_the_count_before_allocating_the_values(tmp_path, count):
    path = tmp_path / "pool.bin"
    path.write_bytes(_pool_bytes(_meta(count=count)))  # three values on disk
    with pytest.raises(PoolFormatError, match=f"expected {count} values, found 3"):
        load_pool(path)
    # an array of ``count`` values would be 8 MB at a million
    assert _peak_bytes(_try_load, path) < 2 ** 16


def _try_load(path):
    try:
        load_pool(path)
    except PoolFormatError:
        pass


@pytest.mark.parametrize("extra", [1, 4, 7])
def test_load_rejects_a_payload_that_is_not_whole_values(tmp_path, extra):
    path = tmp_path / "pool.bin"
    path.write_bytes(_pool_bytes(_meta(count=10 ** 12)) + b"\x00" * extra)
    with pytest.raises(PoolFormatError, match="truncated"):
        load_pool(path)
    assert _peak_bytes(_try_load, path) < 2 ** 16


def test_load_reads_the_payload_once(tmp_path):
    values = np.random.default_rng(3).random(1_000_000)
    pool = make_pool(values=values, kind=KIND_R_STAR)
    path = tmp_path / "pool.bin"
    save_pool(pool, path)
    # read() plus frombuffer plus a writable copy peaked at 16.2 MiB, two
    # payloads; one payload is 7.6 MiB, and the finiteness check adds 1 MiB
    assert _peak_bytes(load_pool, path) <= 1.2 * values.nbytes
    back = load_pool(path)
    assert back.values.tobytes() == values.tobytes()
    assert not back.values.flags.writeable
    assert back.values.dtype == np.float64 and back.values.flags.c_contiguous


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_reads_a_pool_from_a_pipe(tmp_path):
    pool = make_pool()
    path, fifo = tmp_path / "pool.bin", tmp_path / "pool.fifo"
    save_pool(pool, path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    back = load_pool(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.values.tobytes() == pool.values.tobytes()
    assert not back.values.flags.writeable


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _pool_files(draw):
    """A pool file whose metadata is valid with fields dropped or replaced, or raw bytes."""
    values = draw(st.lists(st.floats(), max_size=4))
    if draw(st.booleans()):
        return _pool_bytes(draw(st.binary(max_size=64)), values), len(values)
    meta = {
        "kind": draw(st.sampled_from([KIND_W, KIND_R_PARTIAL, KIND_R_STAR])),
        "generation": draw(st.integers(0, 40)),
        "law_fingerprint": draw(st.text(max_size=16)),
        "seed_lineage": draw(st.lists(st.text(max_size=8), max_size=3)),
        "count": len(values),
    }
    for name in draw(st.sets(st.sampled_from(sorted(meta)))):
        if draw(st.booleans()):
            del meta[name]
        else:
            meta[name] = draw(_JSON)
    meta.update(draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=2)))
    return _pool_bytes(json.dumps(meta).encode(), values), len(values)


@settings(max_examples=300, deadline=None)
@given(pool_file=_pool_files())
def test_load_fuzzed_metadata_raises_only_treetail_errors(tmp_path_factory, pool_file):
    raw, count = pool_file
    path = tmp_path_factory.mktemp("fuzz") / "pool.bin"
    path.write_bytes(raw)
    try:
        pool = load_pool(path)
    except TreetailError:
        return
    assert isinstance(pool, SamplePool)
    assert pool.values.size == count


def test_save_replaces_an_existing_file(tmp_path):
    path = tmp_path / "pool.bin"
    save_pool(make_pool(generation=1), path)
    save_pool(make_pool(generation=2), path)
    assert load_pool(path).generation == 2
    assert [p.name for p in tmp_path.iterdir()] == ["pool.bin"]


class _ValuesThatFailMidWrite:
    def astype(self, dtype):
        raise OSError("disk full")


class _PoolThatFailsMidWrite:
    kind, generation, law_fingerprint, seed_lineage = KIND_W, 4, "ab" * 8, ()
    values = _ValuesThatFailMidWrite()

    def __len__(self):
        return 32


def test_save_that_fails_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "pool.bin"
    save_pool(make_pool(), path)
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        save_pool(_PoolThatFailsMidWrite(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pool.bin"]


def test_export_csv(tmp_path):
    pool = make_pool(values=[1.5, 0.25, 3.0], kind=KIND_R_PARTIAL)
    path = tmp_path / "pool.csv"
    export_csv(pool, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "value"
    assert [float(v) for v in lines[1:]] == [1.5, 0.25, 3.0]
