import copy
import json
import math
import threading
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetail import (
    DOMINANT_Q,
    DOMINANT_SUM,
    DOMINANT_ZN,
    ScenarioConfig,
    load_config,
    run_scenario,
    write_report,
)
from treetail import dist_from_json, harness, law_from_json, records, simulate, tailstats
from treetail.harness import (
    DECAY_GENERATIONS,
    KS_START,
    KS_STEPS,
    _RunningMoments,
    _gap_check,
    _mean_check,
    _moments,
)
from treetail.pools import KIND_R_PARTIAL
from treetail.streams import BLOCK, StreamTree
from treetail.tailstats import TailSketch
from treetail.errors import BudgetExceeded, ConfigError, EmptyGrid, RegimeMismatch, TreetailError

pytestmark = pytest.mark.filterwarnings("ignore:pool of size")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ZN_LAW_DOC = {
    "model": "deterministic_weight",
    "params": {
        "q_dist": {"kind": "constant", "params": {"value": 1.0}},
        "n_dist": {"kind": "zeta_tail", "params": {"alpha": 2.0}},
        "c": 0.24317084074161066,
    },
}


Q_LAW_DOC = {
    "model": "independent_iid",
    "params": {
        "q_dist": {"kind": "pareto", "params": {"alpha": 2.5, "x_min": 1.0}},
        "n_dist": {"kind": "constant", "params": {"value": 2.0}},
        "c_dist": {"kind": "uniform", "params": {"low": 0.0, "high": 0.6}},
    },
}


def tiny_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "tiny",
        "law": ZN_LAW_DOC,
        "alpha": 2.0,
        "dominant": DOMINANT_ZN,
        "pool_size": 20_000,
        "depth": 8,
        "bootstrap_B": 200,
        "quantile_grid": [0.05, 0.02],
        "seed": 7,
    }
    doc.update(overrides)
    return doc


SUM_DOC = tiny_doc(
    name="tiny-sum",
    dominant=DOMINANT_SUM,
    law={
        "model": "deterministic_weight",
        "params": {
            "q_dist": {"kind": "constant", "params": {"value": 1.0}},
            "n_dist": {"kind": "zeta_tail", "params": {"alpha": 2.0}},
            "c": 0.2,
        },
    },
    x_dist={"kind": "pareto", "params": {"alpha": 2.0, "x_min": 1.0}},
    depth=1,
    quantile_grid=[0.05],
)


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def test_shipped_configs_parse_and_roundtrip():
    for name in ("zn-baseline.json", "q-baseline.json", "sum-appendix.json"):
        path = CONFIG_DIR / name
        cfg = load_config(path)
        original = json.loads(path.read_text())
        assert cfg.to_json_dict() == original
        assert ScenarioConfig.from_json(cfg.to_json_dict()) == cfg


def test_config_roundtrip_with_optional_fields():
    cfg = ScenarioConfig.from_json(SUM_DOC)
    assert cfg.x_dist is not None
    assert cfg.to_json_dict() == SUM_DOC
    assert ScenarioConfig.from_json(cfg.to_json_dict()) == cfg


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.update(surprise=1), "unknown"),
    (lambda d: d.update(replicas=1), "replicas"),
    (lambda d: d.pop("alpha"), "missing"),
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.update(alpha=True), "number"),
    (lambda d: d.update(pool_size=2.5), "integer"),
    (lambda d: d.update(alpha=1.0), "alpha"),
    (lambda d: d.update(quantile_grid=[0.6]), "quantile_grid"),
    (lambda d: d.update(quantile_grid=[]), "quantile_grid"),
    (lambda d: d.update(bootstrap_B=100), "bootstrap_B"),
    (lambda d: d.update(seed=-1), "seed"),
    (lambda d: d.update(dominant="BOTH"), "dominant"),
    (lambda d: d.update(quantile_grid=["a"]), "quantile_grid"),
    (lambda d: d.update(quantile_grid=[None]), "quantile_grid"),
    (lambda d: d.update(quantile_grid=[[0.1]]), "quantile_grid"),
    (lambda d: d.update(dominant=[]), "must be one of"),
])
def test_config_rejects_bad_documents(mutate, msg):
    doc = tiny_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=msg):
        ScenarioConfig.from_json(doc)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

_SEED_DOCS = {
    "config": [tiny_doc(), SUM_DOC],
    "law": [ZN_LAW_DOC, SUM_DOC["law"], Q_LAW_DOC],
    "dist": [SUM_DOC["x_dist"], {"kind": "shifted", "params": {
        "inner": {"kind": "lognormal", "params": {"mu": 0.0, "sigma": 1.0}}, "offset": -1.0}}],
}
_PARSERS = {"config": ScenarioConfig.from_json, "law": law_from_json, "dist": dist_from_json}


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def _mutated(draw, seeds):
    """A valid document with one to three fields replaced by arbitrary JSON or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 3))):
        paths = sorted(_key_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        node = doc
        for key in head:
            node = node[key]
        if draw(st.booleans()):
            del node[last]
        else:
            node[last] = draw(_JSON)
    return doc


@pytest.mark.parametrize("parser", sorted(_PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_treetail_errors(parser, data):
    doc = data.draw(_mutated(_SEED_DOCS[parser]) | _JSON)
    try:
        _PARSERS[parser](doc)
    except TreetailError:
        pass


def test_sum_config_requires_x_dist():
    with pytest.raises(ConfigError, match="x_dist"):
        ScenarioConfig.from_json(tiny_doc(dominant=DOMINANT_SUM))


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


# ---------------------------------------------------------------------------
# regime gating
# ---------------------------------------------------------------------------

def test_dominant_must_match_the_validated_regime():
    # a constant Q is not regularly varying, so Q-dominance cannot hold
    doc = tiny_doc(dominant=DOMINANT_Q)
    cfg = ScenarioConfig.from_json(doc)
    with pytest.raises(RegimeMismatch):
        run_scenario(cfg)


def test_kesten_critical_is_refused_by_name():
    law_doc = {
        "model": "deterministic_weight",
        "params": {
            "q_dist": {"kind": "constant", "params": {"value": 1.0}},
            "n_dist": {"kind": "constant", "params": {"value": 4.0}},
            "c": 0.5,
        },
    }
    cfg = ScenarioConfig.from_json(tiny_doc(law=law_doc))
    with pytest.raises(RegimeMismatch, match="rho_alpha = 1 excluded"):
        run_scenario(cfg)


# ---------------------------------------------------------------------------
# mean checks
# ---------------------------------------------------------------------------

def test_mean_check_naive_case():
    values = np.random.default_rng(0).normal(loc=3.0, size=10_000)
    check = _mean_check("W", 2, 3.0, _moments(values))
    assert check.ok
    assert check.stderr == pytest.approx(values.std(ddof=1) / math.sqrt(values.size), rel=1e-12)
    far = _mean_check("W", 2, 3.5, _moments(values))
    assert not far.ok


def test_mean_check_inherits_parent_variance():
    values = np.random.default_rng(0).normal(size=10_000)
    naive = _mean_check("R", 1, 0.0, _moments(values))
    chained = _mean_check("R", 1, 0.0, _moments(values), prev_var=naive.stderr ** 2, rho=0.5)
    assert chained.stderr > naive.stderr
    expected = math.sqrt(naive.stderr ** 2 + 0.25 * naive.stderr ** 2)
    assert chained.stderr == pytest.approx(expected, rel=1e-12)


def test_running_moments_of_blocks_match_the_whole_sample():
    values = np.random.default_rng(1).normal(loc=3.0, scale=2.0, size=3 * BLOCK + 17)
    running = _RunningMoments()
    for lo in range(0, values.size, BLOCK):
        running.add(values[lo:lo + BLOCK])
    got, want = running.moments(), _moments(values)
    assert got.size == want.size
    # only the summation order differs
    assert got.mean == pytest.approx(want.mean, rel=1e-13)
    assert got.s2 == pytest.approx(want.s2, rel=1e-13)


# ---------------------------------------------------------------------------
# end-to-end scenario runs (small scales)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_report():
    return run_scenario(ScenarioConfig.from_json(tiny_doc()))


def test_report_structure(tiny_report):
    rep = tiny_report
    assert set(rep.verdicts) == {"tail_band", "hill_index", "mean_identities", "decay_bound"}
    assert rep.tail_target == pytest.approx(3.077080254814876, rel=1e-9)
    assert len(rep.mean_checks) == 16  # eight W checks and eight R checks
    assert all(c.ok for c in rep.mean_checks)
    assert rep.ks_series is None  # depth 8 never reaches the iteration probe
    assert rep.decay is not None
    doc = rep.to_json_dict()
    json.dumps(doc)
    assert doc["passed"] == rep.passed
    assert "replicas" not in doc["scenario"]


class _Pair(NamedTuple):
    k: int
    value: float


class _WritesItself:
    def to_json_dict(self):
        return {"z": 1, "a": [2]}


@dataclass(frozen=True)
class _Record:
    by_step: dict
    pair: _Pair
    nested: tuple
    missing: None
    own: _WritesItself


def test_the_json_rule():
    record = _Record({3: 0.5, 1: 0.25}, _Pair(2, 1.5), ((1, 2.0), (3, (4, _Pair(5, 6.0)))),
                     None, _WritesItself())
    expected = {
        "by_step": {"3": 0.5, "1": 0.25},
        "pair": {"k": 2, "value": 1.5},
        "nested": [[1, 2.0], [3, [4, {"k": 5, "value": 6.0}]]],
        "missing": None,
        "own": {"z": 1, "a": [2]},
    }
    # json.dumps keeps key order, so the text compares it too
    assert json.dumps(records.to_json(record)) == json.dumps(expected)


def test_report_is_deterministic(tiny_report):
    again = run_scenario(ScenarioConfig.from_json(tiny_doc()))
    assert again.to_json_dict() == tiny_report.to_json_dict()


@pytest.mark.parametrize("doc", [tiny_doc(), SUM_DOC], ids=["tree", "sum"])
def test_threads_do_not_change_the_report(doc, tmp_path):
    # three blocks, so a thread pool would have had work to split; sampling is
    # serial, so no thread starts and threads=4 writes the bytes of threads=1
    config = ScenarioConfig.from_json(dict(doc, pool_size=2 * BLOCK + 5_000))
    with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("a thread started")) as start:
        threaded = _report_bytes(run_scenario(config, threads=4), tmp_path / "four")
    assert start.call_count == 0
    assert threaded == _report_bytes(run_scenario(config, threads=1), tmp_path / "one")


def _report_bytes(report, outdir) -> dict[str, bytes]:
    out = write_report(report, outdir)
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_tail_trend_starts_at_the_largest_grid_probability(tiny_report):
    trend = tiny_report.tail_trend
    assert trend.quantile_grid[0] == 0.05
    assert trend.ratio[0] == tiny_report.tail.ratio[0]
    assert tiny_report.to_json_dict()["tail_trend"]["ratio"] == list(trend.ratio)


def test_ks_cross_pairs_iterate_step_k_with_horizon_k_minus_1():
    rep = run_scenario(ScenarioConfig.from_json(tiny_doc(depth=15)))
    # step 1 of the chain from 0 and the horizon-0 pool are both Q = 1
    assert rep.ks_cross[1] == 0.0
    assert sorted(rep.ks_cross) == list(range(1, 16))
    # the coupled chains differ by 100 W_k >= 0
    assert [g.step for g in rep.coupled_gap] == list(range(1, 16))
    assert all(g.smallest >= 0.0 for g in rep.coupled_gap)


def test_lockstep_chains_match_full_trajectories(ks_reference):
    config = ScenarioConfig.from_json(tiny_doc(depth=KS_STEPS))
    rep = run_scenario(config, threads=1)
    law, size, streams = config.law, config.pool_size, StreamTree(config.seed)
    steps = range(1, KS_STEPS + 1)

    def chain(start):  # step k of a chain by one k-step call from its start
        return {k: simulate.iterate_fixed_point(law, simulate.constant_pool(law, size, start), k, streams)
                for k in steps}

    low, high = chain(0.0), chain(KS_START)
    horizons = [simulate.init_pool(law, size, streams, kind=KIND_R_PARTIAL)]
    while len(horizons) < KS_STEPS:
        horizons.append(simulate.evolve_pool_r(law, horizons[-1], streams))
    assert rep.ks_series == {k: ks_reference(low[k].values, high[k].values) for k in steps}
    assert rep.ks_cross == {k: ks_reference(low[k].values, horizons[k - 1].values) for k in steps}
    gaps, var_gap = [], 0.0
    for k in steps:
        gaps.append(_gap_check(k, high[k].values - low[k].values, var_gap, rep.regime.rho))
        var_gap = gaps[-1].stderr ** 2
    assert rep.coupled_gap == tuple(gaps)


def test_zn_is_sketched_once_for_every_ratio(tiny_report):
    config = ScenarioConfig.from_json(tiny_doc())
    with mock.patch.object(tailstats, "tail_ratio", wraps=tailstats.tail_ratio) as spy:
        rep = run_scenario(config)
    assert rep.to_json_dict() == tiny_report.to_json_dict()
    # the decay ratios of generations 2..8 and the main ratio read one sketch
    dens = [c.args[1] for c in spy.call_args_list]
    assert len(dens) == len(DECAY_GENERATIONS) + 1
    assert isinstance(dens[0], TailSketch)
    assert all(den is dens[0] for den in dens)
    assert dens[0].n == config.pool_size


@pytest.mark.parametrize("name", ["zn", "q"])
def test_one_denominator_per_tree_scenario(name):
    config = replace(load_config(CONFIG_DIR / f"{name}-baseline.json"), pool_size=50_000)
    den = harness._denominator(config, StreamTree(config.seed))
    if name == "q":
        assert den is config.law.q_dist
        return
    # the sketch the run took of Z_N, kept down to numpy's "higher" order
    # statistic at 1 - p_max, for p_max the largest of both grids
    size = config.pool_size
    p_max = max(*harness.DECAY_GRID, *config.quantile_grid)
    zn = harness._draw_zn(config.law, size, StreamTree(config.seed))
    want = TailSketch.of(zn, keep=size - int(np.ceil((size - 1) * (1.0 - p_max))))
    assert (den.n, den.n_pos, den.n_nan, den.cutoff, den.n_at) == (
        want.n, want.n_pos, want.n_nan, want.cutoff, want.n_at)
    assert den.top.tobytes() == want.top.tobytes()


def _traced_peak(config) -> int:
    tracemalloc.start()
    try:
        run_scenario(config, threads=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, pools", [("zn", 6.95), ("q", 6.55)])
def test_tree_scenario_peak_live_memory(name, pools):
    # every stage at 2^18 samples, with the coupled chains to depth 15.
    # Traced bytes, unlike RSS, do not depend on how the allocator reuses
    # pages. In pool sizes: zn 6.69 (7.29 while each pool's blocks were
    # concatenated, 8.37 while each ratio sketched Z_N and every KS chunk
    # was merged), q 6.31 (6.51)
    config = replace(load_config(CONFIG_DIR / f"{name}-baseline.json"),
                     pool_size=1 << 18, depth=KS_STEPS)
    assert _traced_peak(config) < pools * 8 * config.pool_size


@pytest.mark.parametrize("name", ["zn", "q"])
def test_a_pool_of_one_reaches_the_tail_grid_without_a_variance_warning(name):
    # one sample has no unbiased variance; the mean checks seed theirs at 0,
    # and the tail grid then finds too few exceedances
    config = replace(load_config(CONFIG_DIR / f"{name}-baseline.json"), pool_size=1, depth=KS_STEPS)
    with pytest.raises(EmptyGrid):
        run_scenario(config)


@pytest.mark.parametrize("doc", [
    tiny_doc(pool_size=2 ** 62),
    dict(SUM_DOC, pool_size=2 ** 62),
    # bands of 10^10 resamples would take 224 GiB, drawn after the whole run
    tiny_doc(law=Q_LAW_DOC, alpha=2.5, dominant=DOMINANT_Q, bootstrap_B=10 ** 10),
    dict(SUM_DOC, bootstrap_B=10 ** 10),
], ids=["tree", "sum", "tree-bootstrap", "sum-bootstrap"])
def test_a_pool_size_past_physical_memory_is_refused_before_any_allocation(doc):
    config = ScenarioConfig.from_json(doc)
    with mock.patch.object(simulate, "_run_blocks", side_effect=AssertionError("allocated")), \
            mock.patch.object(simulate, "sample_weighted_sum", side_effect=AssertionError("allocated")):
        with pytest.raises(BudgetExceeded, match="physical memory"):
            run_scenario(config)


@pytest.mark.parametrize("doc, values", [
    # eight live pools, then five arrays of B = 200 resamples at 2 grid
    # points and the 7 rungs of the ladder from p = 0.05 at n = 20000
    (tiny_doc(), 8 * 20_000 + 5 * 200 * (2 + 7)),
    # the sketch buffer and one block, then the bands at 1 grid point
    (SUM_DOC, 2 * (20_000 // 10 + 1) + BLOCK + 5 * 200 * (1 + 7)),
], ids=["tree", "sum"])
def test_the_pool_memory_projection(doc, values, physical_memory):
    config = ScenarioConfig.from_json(doc)
    with physical_memory(8 * values - 1):
        with pytest.raises(BudgetExceeded):
            run_scenario(config)
    with physical_memory(8 * values), mock.patch.object(harness, "validate_regime", side_effect=_Reached):
        with pytest.raises(_Reached):
            run_scenario(config)


class _Reached(Exception):
    """Raised by a patched stage to show that the memory check let the run through."""


def test_write_report_files(tiny_report, tmp_path):
    out = write_report(tiny_report, tmp_path / "out")
    report_doc = json.loads((out / "report.json").read_text())
    assert report_doc["verdicts"] == tiny_report.verdicts
    tail_lines = (out / "tail.csv").read_text().splitlines()
    assert tail_lines[0] == "p,x,ccdf_num,ccdf_den,ratio,ci_low,ci_high"
    assert len(tail_lines) == 1 + len(tiny_report.tail.quantile_grid)
    hill_lines = (out / "hill.csv").read_text().splitlines()
    assert hill_lines[0] == "k,alpha_hat"
    assert len(hill_lines) > 1
    decay_lines = (out / "decay.csv").read_text().splitlines()
    assert decay_lines[0] == "n,ratio"


def test_sum_scenario_runs():
    rep = run_scenario(ScenarioConfig.from_json(SUM_DOC))
    assert set(rep.verdicts) == {"tail_band", "hill_index", "mean_identities"}
    assert rep.tail_target == pytest.approx(0.04 * 1.6449340668482264 + 0.16, rel=1e-9)
    (check,) = rep.mean_checks
    assert check.kind == "SUM"
    assert check.ok
    # E[S] = E[Q] + rho E[X] = 1 + 0.2 zeta(2) * 2
    assert check.predicted == pytest.approx(1.0 + 0.4 * 1.6449340668482264, rel=1e-12)
    assert rep.decay is None


def test_sum_scenario_never_holds_its_sums():
    # sum-appendix shrunk to 2M sums, which would take 16 MB held whole;
    # holding them plus their blocks (or a full-size variance temporary)
    # peaked at 2.04 times that
    config = replace(load_config(CONFIG_DIR / "sum-appendix.json"), pool_size=2_000_000)
    tracemalloc.start()
    try:
        run_scenario(config, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * config.pool_size
