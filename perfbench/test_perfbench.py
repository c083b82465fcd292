"""Tests of the benchmark itself: span arithmetic, tracer removal, a small smoke run.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, covered, layer_metrics, self_times, summarize, tracing

ROOT = Path(__file__).resolve().parent.parent


def _span(id, name, start, end, parent=None, **counts):
    return Span(id, name, start, end, parent, counts)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_overlapping_children_are_covered_once():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(7.0)
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.0, 3.0)]) == pytest.approx(1.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span(0, "harness.run_scenario", 0.0, 10.0),
        _span(1, "tailstats.ks_distance", 1.0, 4.0, parent=0),
        _span(2, "tailstats.ks_distance", 3.0, 6.0, parent=0),  # overlaps span 1
        _span(3, "tailstats.hill", 3.5, 5.0, parent=2),  # grandchild: not subtracted from 0
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(1.5)


def test_self_times_of_a_nested_trace_add_up_to_its_top_level_spans():
    spans = [
        _span(0, "harness.run_scenario", 0.0, 10.0),
        _span(1, "simulate.evolve", 1.0, 5.0, parent=0, generations=2),
        _span(2, "branching.draw_roots", 1.5, 2.5, parent=1, nodes=100, children=150),
        _span(3, "branching.draw_roots", 3.0, 4.0, parent=1, nodes=100, children=50),
        _span(4, "harness.write_report", 10.0, 10.5),
    ]
    metrics = layer_metrics(spans)
    assert metrics["trace.self_sum_s"] == pytest.approx(10.5)
    assert metrics["simulate.evolve.self_s"] == pytest.approx(2.0)
    assert metrics["simulate.evolve.gen_ms"] == pytest.approx(2000.0)
    assert metrics["simulate.evolve.children"] == 200
    assert metrics["branching.draw_roots.nodes"] == 200
    assert metrics["simulate.evolve.bytes_computed"] == 32 * 200 + 24 * 200
    assert metrics["tailstats.ks_distance.calls"] == 0


def test_a_span_nested_in_its_own_name_is_counted_once():
    spans = [
        _span(0, "tailstats.hill", 0.0, 4.0),
        _span(1, "tailstats.hill", 1.0, 2.0, parent=0),
    ]
    row = summarize(spans)["tailstats.hill"]
    assert row["calls"] == 2
    assert row["s"] == pytest.approx(4.0)
    assert row["self_s"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

def _package_state():
    import sys

    import treetail.cli  # noqa: F401  -- so that the CLI commands are wrapped too

    state = {}
    for name, module in sorted(sys.modules.items()):
        if name == "treetail" or name.startswith("treetail."):
            for key, value in vars(module).items():
                state[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        state[(name, key, attr)] = member
    for command in ("simulate", "ks", "tail"):
        state[("cli", command)] = treetail.cli.cli.commands[command].callback
    return state


def test_uninstall_restores_every_wrapped_entry_point():
    from treetail import harness, tailstats
    from treetail.streams import StreamTree

    before = _package_state()
    tracer = Tracer()
    with tracing(tracer):
        assert harness.run_scenario is not before[("treetail.harness", "run_scenario")]
        assert harness.validate_regime is not before[("treetail.harness", "validate_regime")]
        assert StreamTree.child is not before[("treetail.streams", "StreamTree", "child")]
        tailstats.ks_distance([1.0, 2.0], [1.5])
        StreamTree(1).child(0)
    assert [s.name for s in tracer.spans] == ["tailstats.ks_distance", "streams.child"]
    assert _package_state() == before

    tailstats.ks_distance([1.0, 2.0], [1.5])
    assert len(tracer.spans) == 2


def _small_configs(tmp_path: Path) -> Path:
    # the shipped configs shrunk; one coarse grid point keeps 100 exceedances
    sizes = {"zn-baseline.json": 20_000, "q-baseline.json": 20_000, "sum-appendix.json": 100_000}
    for name, size in sizes.items():
        doc = json.loads((ROOT / "configs" / name).read_text())
        doc.update(pool_size=size, bootstrap_B=200, depth=min(doc["depth"], 15), quantile_grid=[0.01])
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


def test_traced_report_bytes_match_untraced(tmp_path):
    from treetail import harness
    from treetail.harness import load_config

    config = load_config(_small_configs(tmp_path) / "zn-baseline.json")
    harness.write_report(harness.run_scenario(config, threads=1), tmp_path / "plain")
    tracer = Tracer()
    with tracing(tracer):
        harness.write_report(harness.run_scenario(config, threads=1), tmp_path / "traced")
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert (tmp_path / "traced" / "report.json").read_bytes() == plain
    metrics = layer_metrics(tracer.spans)
    assert metrics["tailstats.ks_distance.calls"] == 30
    assert metrics["simulate.evolve.generations"] == 15 + 15 + 10 + 15


# ---------------------------------------------------------------------------
# smoke runs of the benchmark command at a small pool size
# ---------------------------------------------------------------------------

def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_untraced_run_reports_every_end_to_end_metric(tmp_path):
    configs = _small_configs(tmp_path)
    result = run.run_benchmark("verify-zn", 5, 0.1, False, work=tmp_path / "work", config_dir=configs)
    assert result["details"]["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_SETUP_SAMPLES  # iterations + set-up probes
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(result["details"]["sha256"]) == 64
    assert list((tmp_path / "work").iterdir()) == []


@pytest.mark.parametrize("workload", ["verify-sum", "cli-pools"])
def test_smoke_traced_run_reports_every_layer_metric(tmp_path, workload):
    configs = _small_configs(tmp_path)
    result = run.run_benchmark(workload, 5, 0.1, True, work=tmp_path / "work", config_dir=configs)
    assert result["details"]["errors"] == []
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert metrics["simulate.evolve.gen_ms_t2"] > 0
    # spans cover the traced run: only benchmark glue between calls is outside them
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], rel=0.02)
    if workload == "verify-sum":
        assert metrics["tailstats.ks_distance.calls"] == 0
        assert metrics["simulate.evolve.calls"] == 0
        assert metrics["tailstats.hill.calls"] == 10
    else:
        assert metrics["pools.save_pool.bytes"] > 2 * 8 * 20_000
        assert metrics["tailstats.ks_distance.calls"] == 1
        assert metrics["cli.process.self_s"] > 0
