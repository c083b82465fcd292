"""End-to-end exercises of the command line through click's test runner."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

import treetail
from treetail import ks_distance, simulate, tailstats
from treetail.cli import cli
from treetail.harness import load_config
from treetail.pools import (
    KIND_R_PARTIAL,
    KIND_R_STAR,
    KIND_W,
    SamplePool,
    load_pool,
    save_pool,
)
from treetail.streams import TAG_POOL_INIT, StreamTree

from test_acceptance import PINNED_NUMPY

pytestmark = pytest.mark.filterwarnings("ignore:pool of size")

ZN_LAW_DOC = {
    "model": "deterministic_weight",
    "params": {
        "q_dist": {"kind": "constant", "params": {"value": 1.0}},
        "n_dist": {"kind": "zeta_tail", "params": {"alpha": 2.0}},
        "c": 0.24317084074161066,
    },
}


def write_config(path: Path, **overrides) -> str:
    doc = {
        "schema_version": 1,
        "name": "cli-tiny",
        "law": ZN_LAW_DOC,
        "alpha": 2.0,
        "dominant": "ZN",
        "pool_size": 5_000,
        "depth": 3,
        "bootstrap_B": 200,
        "quantile_grid": [0.05, 0.02],
        "seed": 11,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def pareto_pool(seed: int, size: int = 20_000) -> SamplePool:
    rng = np.random.default_rng(seed)
    return SamplePool(
        values=rng.pareto(2.0, size=size) + 1.0,
        kind=KIND_R_PARTIAL,
        generation=0,
        law_fingerprint="cli-test",
    )


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "tiny.json")


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_json_output(runner, config_path):
    result = runner.invoke(cli, ["constants", config_path])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["h_limit"] == pytest.approx(3.077080254814876, rel=1e-9)
    assert doc["regime"] == "ZN_DOMINATES"
    assert doc["rho"] == pytest.approx(0.4)


def test_constants_csv_output(runner, config_path):
    result = runner.invoke(cli, ["--format", "csv", "constants", config_path])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "name,value"
    assert any(line.startswith("h_limit,") for line in lines)
    assert any(line.startswith("h_30,") for line in lines)


def test_constants_prints_the_constants_block_of_the_report(runner, tmp_path):
    # deeper than 30 generations, so that the h_n table follows the depth
    config = write_config(tmp_path / "deep.json", depth=40)
    result = runner.invoke(cli, ["--format", "json", "constants", config])
    assert result.exit_code == 0, result.output
    outdir = tmp_path / "report"
    assert runner.invoke(cli, ["verify", config, "--out", str(outdir)]).exit_code in (0, 2)
    block = json.loads((outdir / "report.json").read_text())["constants"]
    printed = json.loads(result.output)
    assert list(printed["h_n_table"]) == [str(n) for n in range(41)]
    assert printed == block
    assert list(printed) == list(block)


def test_constants_rejects_malformed_config(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    result = runner.invoke(cli, ["constants", str(bad)])
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_constants_refuses_a_config_that_is_not_utf8(runner, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "caf\xe9 \xff"}')
    result = runner.invoke(cli, ["constants", str(bad)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # an error line, not a traceback
    assert "error:" in result.stderr
    assert "UTF-8" in result.stderr


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,expected", [
    ("w", KIND_W),
    ("r", KIND_R_PARTIAL),
    ("rstar", KIND_R_STAR),
])
def test_simulate_writes_a_loadable_pool(runner, config_path, tmp_path, kind, expected):
    out = tmp_path / f"{kind}.pool"
    result = runner.invoke(cli, ["simulate", config_path, "--out", str(out), "--kind", kind])
    assert result.exit_code == 0, result.output
    pool = load_pool(out)
    assert pool.kind == expected
    assert pool.generation == 3
    assert pool.values.size == 5_000


def test_simulate_rstar_is_the_last_iterate(runner, config_path, tmp_path):
    out = tmp_path / "rstar.pool"
    result = runner.invoke(cli, ["simulate", config_path, "--out", str(out), "--kind", "rstar"])
    assert result.exit_code == 0, result.output
    config = load_config(config_path)
    start = simulate.constant_pool(config.law, config.pool_size, 0.0)
    last = simulate.iterate_fixed_point(config.law, start, config.depth, StreamTree(config.seed))
    expected = tmp_path / "expected.pool"
    save_pool(last, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_simulate_rstar_holds_one_iterate_at_a_time(runner, tmp_path):
    # a step holds the last iterate, the new one and one block's
    # temporaries: 3.87 pool sizes traced at 2^18 samples; while each
    # iterate's blocks were concatenated, 4.57, and 5.57 when the all-zero
    # start was kept alive through the iteration
    size = 1 << 18
    config = write_config(tmp_path / "big.json", pool_size=size, depth=4)
    tracemalloc.start()
    try:
        result = runner.invoke(cli, ["simulate", config, "--out", str(tmp_path / "x.pool"),
                                     "--kind", "rstar"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert peak < 5 * 8 * size


# sha256 of the pool file ``simulate`` writes from this module's config, per
# --kind. Sampled values must not move; like the report pins, these depend
# on numpy's generators and are checked against the numpy they were
# recorded with.
POOL_SHA256 = {
    "w": "c96acc4614935abda5df49f583d089ab8caac0a379aaf092c1a9d16558c96d86",
    "r": "0581e61662234d499c2ba8fe7d33e3c2f433a9e5f2d6426c5c52f8f663f4c691",
    "rstar": "b8de93923c1c753f4b9eef4aa4e857c267b134647c1e271f63dd99041ddfcdb1",
}


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"pool bytes were pinned with numpy {PINNED_NUMPY}")
@pytest.mark.parametrize("kind", sorted(POOL_SHA256))
def test_simulate_pool_bytes_are_pinned(runner, config_path, tmp_path, kind):
    out = tmp_path / f"{kind}.pool"
    result = runner.invoke(cli, ["simulate", config_path, "--out", str(out), "--kind", kind])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POOL_SHA256[kind]


@pytest.mark.parametrize("kind", ["w", "r", "rstar"])
def test_simulate_rejects_a_negative_depth(runner, config_path, tmp_path, kind):
    out = tmp_path / "neg.pool"
    result = runner.invoke(cli, ["simulate", config_path, "--out", str(out), "--kind", kind,
                                 "--depth", "-1"])
    assert result.exit_code == 1
    assert "depth must be >= 0" in result.stderr
    assert not out.exists()


def test_simulate_depth_override_and_csv_export(runner, config_path, tmp_path):
    out = tmp_path / "w.pool"
    csv = tmp_path / "w.csv"
    result = runner.invoke(cli, [
        "simulate", config_path, "--out", str(out),
        "--kind", "w", "--depth", "1", "--export-csv", str(csv),
    ])
    assert result.exit_code == 0, result.output
    pool = load_pool(out)
    assert pool.generation == 1
    lines = csv.read_text().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 1 + pool.values.size
    assert float(lines[1]) == pool.values[0]


def test_simulate_seed_override(runner, config_path, tmp_path):
    paths = [tmp_path / name for name in ("a.pool", "b.pool", "c.pool")]
    for path, seed in zip(paths, ("123", "123", "456")):
        result = runner.invoke(
            cli, ["--seed", seed, "simulate", config_path, "--out", str(path)])
        assert result.exit_code == 0, result.output
    a, b, c = (load_pool(p) for p in paths)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# ---------------------------------------------------------------------------
# ks and tail
# ---------------------------------------------------------------------------

def test_ks_of_a_pool_with_itself_is_zero(runner, tmp_path):
    path = tmp_path / "same.pool"
    save_pool(pareto_pool(1), path)
    result = runner.invoke(cli, ["ks", str(path), str(path)])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "0.0"


def test_ks_reports_malformed_pool_metadata_as_an_error(runner, tmp_path):
    good = tmp_path / "good.pool"
    save_pool(pareto_pool(1), good)
    raw = good.read_bytes()
    bad = tmp_path / "bad.pool"
    bad.write_bytes(raw.replace(b'"kind": "R_PARTIAL"', b'"kinb": "R_PARTIAL"'))
    result = runner.invoke(cli, ["ks", str(good), str(bad)])
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert "kind" in result.stderr


def test_ks_sorts_each_pool_as_it_loads_it(runner, tmp_path):
    size = 1 << 18
    paths = [tmp_path / "a.pool", tmp_path / "b.pool"]
    for seed, path in enumerate(paths):
        save_pool(pareto_pool(seed, size), path)
    tracemalloc.start()
    try:
        result = runner.invoke(cli, ["ks", *map(str, paths)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    a, b = (load_pool(path).values for path in paths)
    assert result.output.strip() == repr(ks_distance(a, b))
    # at most the first pool sorted, the second loaded and its sorted copy:
    # 3.02 pool sizes traced; 5.71 when ks_distance sorted both loaded pools
    assert peak < 4 * 8 * size


@pytest.mark.parametrize("command", ["ks", "tail"])
def test_a_pool_past_physical_memory_is_an_error(runner, tmp_path, physical_memory, command):
    path = str(tmp_path / "p.pool")
    save_pool(pareto_pool(1), path)
    args = [path, path] if command == "ks" else ["--num", path, "--den", path]
    with physical_memory(8 * 20_000 - 1):
        result = runner.invoke(cli, [command, *args])
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert "physical memory" in result.stderr


def test_tail_command_writes_curve_files(runner, tmp_path):
    num, den = tmp_path / "num.pool", tmp_path / "den.pool"
    save_pool(pareto_pool(2), num)
    save_pool(pareto_pool(3), den)
    prefix = tmp_path / "curve"
    result = runner.invoke(cli, [
        "tail", "--num", str(num), "--den", str(den),
        "--grid", "0.05,0.02", "--bootstrap-b", "200", "--out", str(prefix),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    # the two pools share a law, so the ratio curve hugs one
    assert all(0.7 < r < 1.3 for r in doc["ratio"])
    on_disk = json.loads((tmp_path / "curve.json").read_text())
    assert on_disk == doc
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "p,x,ccdf_num,ccdf_den,ratio,ci_low,ci_high"
    assert len(lines) == 3


def test_tail_refuses_a_band_past_physical_memory_before_drawing_it(runner, tmp_path):
    path = tmp_path / "p.pool"
    save_pool(pareto_pool(6), path)
    with mock.patch.object(tailstats, "_ratio_at", side_effect=AssertionError("drawn")):
        result = runner.invoke(cli, ["tail", "--num", str(path), "--den", str(path),
                                     "--bootstrap-b", "10000000000"])
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert "physical memory" in result.stderr


def test_tail_csv_format_prints_table(runner, tmp_path):
    num, den = tmp_path / "num.pool", tmp_path / "den.pool"
    save_pool(pareto_pool(4), num)
    save_pool(pareto_pool(5), den)
    result = runner.invoke(cli, [
        "--format", "csv", "tail", "--num", str(num), "--den", str(den),
        "--grid", "0.05", "--bootstrap-b", "200",
    ])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == "p,x,ccdf_num,ccdf_den,ratio,ci_low,ci_high"


def test_tail_rejects_grid_outside_range(runner, tmp_path):
    path = tmp_path / "p.pool"
    save_pool(pareto_pool(6), path)
    result = runner.invoke(cli, [
        "tail", "--num", str(path), "--den", str(path), "--grid", "0.9",
    ])
    assert result.exit_code == 1
    assert "error:" in result.stderr


@pytest.mark.parametrize("grid", ["0.01,,0.001", "0.01,x", "nan"], ids=["empty", "word", "nan"])
def test_tail_rejects_a_malformed_grid(runner, tmp_path, grid):
    path = tmp_path / "p.pool"
    save_pool(pareto_pool(6), path)
    result = runner.invoke(cli, ["tail", "--num", str(path), "--den", str(path), "--grid", grid])
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert not isinstance(result.exception, ValueError)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_reports_verdicts_and_exit_code(runner, tmp_path):
    # at this scale the ratio curve sits far above its limit, so the tail
    # verdict fails and the command signals it with exit code 2
    config = write_config(
        tmp_path / "v.json", pool_size=20_000, depth=8, seed=7)
    outdir = tmp_path / "report"
    result = runner.invoke(cli, ["verify", config, "--out", str(outdir)])
    assert result.exit_code == 2, result.output
    assert "[FAIL] tail_band" in result.output
    assert "[PASS] mean_identities" in result.output
    assert "[PASS] decay_bound" in result.output
    report = json.loads((outdir / "report.json").read_text())
    assert report["passed"] is False
    assert (outdir / "tail.csv").exists()
    assert (outdir / "hill.csv").exists()
    assert (outdir / "decay.csv").exists()


def test_verify_refuses_critical_law(runner, tmp_path):
    law = {
        "model": "deterministic_weight",
        "params": {
            "q_dist": {"kind": "constant", "params": {"value": 1.0}},
            "n_dist": {"kind": "constant", "params": {"value": 2.0}},
            "c": 0.7071067811865476,
        },
    }
    config = write_config(tmp_path / "kesten.json", law=law)
    result = runner.invoke(cli, ["verify", config, "--out", str(tmp_path / "r")])
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert "rho_alpha = 1 excluded" in result.stderr


@pytest.mark.parametrize("overrides", [
    {"quantile_grid": ["a"]},
    {"dominant": []},
    {"law": {"model": [], "params": {}}},
], ids=["grid", "dominant", "model"])
def test_verify_reports_wrongly_typed_config_fields_as_errors(runner, tmp_path, overrides):
    config = write_config(tmp_path / "bad.json", **overrides)
    result = runner.invoke(cli, ["verify", config, "--out", str(tmp_path / "r")])
    assert result.exit_code == 1
    assert "error:" in result.stderr


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("command", ["simulate", "verify", "constants"])
def test_threads_below_one_are_refused(runner, config_path, tmp_path, command, threads):
    # sampling is serial and the flag is gone: any --threads is a usage error
    out = {"simulate": ["--out", str(tmp_path / "x.pool")],
           "verify": ["--out", str(tmp_path / "r")],
           "constants": []}[command]
    result = runner.invoke(cli, ["--threads", threads, command, config_path, *out])
    assert result.exit_code == 2
    assert "No such option '--threads'" in result.stderr
    assert not (tmp_path / "x.pool").exists()
    assert not (tmp_path / "r").exists()


def test_simulate_refuses_a_non_finite_law_parameter_before_any_draw(runner, tmp_path):
    law = json.loads(json.dumps(ZN_LAW_DOC))
    law["params"]["q_dist"]["params"]["value"] = "inf"
    config = write_config(tmp_path / "inf.json", law=law)
    with mock.patch.object(simulate, "_run_blocks", side_effect=AssertionError("drawn")):
        result = runner.invoke(cli, ["simulate", config, "--out", str(tmp_path / "x.pool")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr
    assert "finite number" in result.stderr
    assert not (tmp_path / "x.pool").exists()


@pytest.mark.filterwarnings("error")
def test_simulate_reports_draws_that_overflow_as_an_error(runner, tmp_path):
    # finite parameters, but Q ~ Pareto(0.01, 1) overflows to inf on about
    # one draw in 1200, so the first of the pool's two blocks holds some and
    # the second is never drawn
    law = json.loads(json.dumps(ZN_LAW_DOC))
    law["params"]["q_dist"] = {"kind": "pareto", "params": {"alpha": 0.01, "x_min": 1.0}}
    config = write_config(tmp_path / "overflow.json", law=law, pool_size=70_000)
    with mock.patch.object(StreamTree, "child", autospec=True, side_effect=StreamTree.child) as child:
        result = runner.invoke(cli, ["simulate", config, "--out", str(tmp_path / "x.pool")])
    assert [c.args[1:] for c in child.call_args_list] == [(TAG_POOL_INIT, 0, 0)]
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr
    assert "finite" in result.stderr
    assert not (tmp_path / "x.pool").exists()


@pytest.mark.parametrize("kind", ["r", "rstar", "w"])
def test_simulate_refuses_a_pool_past_physical_memory(runner, tmp_path, kind):
    config = write_config(tmp_path / "huge.json", pool_size=2 ** 62)
    with mock.patch.object(simulate, "_run_blocks", side_effect=AssertionError("allocated")), \
            mock.patch.object(simulate, "constant_pool", side_effect=AssertionError("allocated")):
        result = runner.invoke(cli, ["simulate", config, "--out", str(tmp_path / "x.pool"), "--kind", kind])
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert "physical memory" in result.stderr
    assert not (tmp_path / "x.pool").exists()


@pytest.mark.parametrize("command", ["constants", "simulate", "verify", "tail", "ks"])
def test_a_negative_seed_is_refused(runner, config_path, tmp_path, command):
    pool = tmp_path / "p.pool"
    save_pool(pareto_pool(1, size=1_000), pool)
    args = {"constants": [config_path],
            "simulate": [config_path, "--out", str(tmp_path / "x.pool")],
            "verify": [config_path, "--out", str(tmp_path / "r")],
            "tail": ["--num", str(pool), "--den", str(pool)],
            "ks": [str(pool), str(pool)]}[command]
    result = runner.invoke(cli, ["--seed", "-1", command, *args])
    assert result.exit_code == 1
    assert not isinstance(result.exception, ValueError)
    assert "error:" in result.stderr
    assert "--seed" in result.stderr
    assert not (tmp_path / "x.pool").exists()


def test_missing_config_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(cli, ["constants", str(tmp_path / "nope.json")])
    assert result.exit_code == 2
    assert "does not exist" in result.stderr


IMPORT_GUARD = """
import sys
from pathlib import Path

import treetail.cli
from treetail import asymptotics
from treetail.harness import load_config

for path in sorted(Path(sys.argv[1]).glob("*.json")):
    config = load_config(path)
    asymptotics.compute_constants(config.law, config.alpha)
    print(path.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_and_shipped_constants_do_not_import_scipy():
    # scipy is the package's largest import; only LogNormal and the
    # quadrature for a Q with negative support load it, lazily
    configs = Path(__file__).resolve().parent.parent / "configs"
    src = str(Path(treetail.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(configs)],
                         env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out == ["q-baseline.json", "sum-appendix.json", "zn-baseline.json", "[]"]
