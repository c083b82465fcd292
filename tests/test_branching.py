import hashlib
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.special import zeta

import treetail
from treetail import (
    Constant,
    DeterministicWeight,
    Exponential,
    IndependentIID,
    InverseN,
    PageRankLike,
    Pareto,
    Shifted,
    Uniform,
    ZetaTail,
    law_from_json,
    sample_zn_many,
    validate_regime,
)
from treetail.branching import (
    KESTEN_CRITICAL,
    Q_DOMINATES,
    SUBCRITICAL_LIGHT,
    INVALID,
    ZN_DOMINATES,
    _MODELS,
    rho_beta_mc,
)
from treetail.errors import ConfigError, DomainError, ModelMismatch
from treetail import records

from test_distributions import example_of

RNG = lambda seed=42: np.random.default_rng(seed)


def zn_baseline_law(c=0.24317084074161066):
    return DeterministicWeight(Constant(1.0), ZetaTail(2.0), c)


def q_baseline_law():
    return IndependentIID(Pareto(2.5, 1.0), Constant(2.0), Uniform(0.0, 0.6))


# ---------------------------------------------------------------------------
# analytic branching moments rho_beta
# ---------------------------------------------------------------------------

def test_rho_beta_independent_iid():
    law = q_baseline_law()
    # E[N] E[C^beta] with C ~ U(0, 0.6): E[C^beta] = 0.6^beta / (beta + 1)
    assert law.rho_beta(1.0) == pytest.approx(0.6, rel=1e-15)
    assert law.rho_beta(2.5) == pytest.approx(2.0 * 0.6 ** 2.5 / 3.5, rel=1e-15)


def test_rho_beta_deterministic_weight():
    law = zn_baseline_law()
    # c E[N] with E[N] = zeta(2), c calibrated so rho = 0.4
    assert law.rho_beta(1.0) == pytest.approx(0.4, abs=1e-14)
    assert law.rho_beta(2.0) == pytest.approx(law.c ** 2 * zeta(2, 1), rel=1e-15)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
def test_q_plus_moment_integrates_a_negative_support_q(beta):
    # Q = E - 1/2 with E ~ Exp(1): E[(Q^+)^beta] = int_0^inf beta x^(beta-1)
    # e^-(x + 1/2) dx = e^(-1/2) Gamma(beta + 1), by quadrature of the ccdf
    law = IndependentIID(Shifted(Exponential(1.0), -0.5), Constant(2.0), Uniform(0.0, 0.6))
    expected = math.exp(-0.5) * math.gamma(beta + 1.0)
    assert law.q_plus_moment(beta) == pytest.approx(expected, rel=1e-10)


def test_rho_beta_pagerank_like():
    law = PageRankLike(0.5, Constant(2.0), ZetaTail(2.0))
    # d^beta E[N] E[D^-beta]; E[1/D] = zeta(3) + zeta(2) - 2 by telescoping
    expected = 0.5 * 2.0 * (zeta(3, 1) + zeta(2, 1) - 2.0)
    assert law.rho_beta(1.0) == pytest.approx(expected, rel=1e-12)
    # Q = 1 - d is a constant: every Q-side answer is a closed form
    assert law.q_dist == Constant(0.5)
    assert law.q_dist.mean() == 0.5
    assert law.q_plus_moment(0.7) == pytest.approx(0.5 ** 0.7, rel=1e-15)
    assert law.q_dist.moment_is_finite(50.0)
    assert law.q_dist.tail_index() is None and law.q_dist.tail_scale() is None
    np.testing.assert_array_equal(law.q_dist.sample_many(RNG(), 4), np.full(4, 0.5))
    q, _, _ = law.draw_roots(4, RNG())
    np.testing.assert_array_equal(q, np.full(4, 0.5))
    assert not q.flags.writeable


def test_rho_beta_inverse_n():
    # gamma = 1 collapses Z_N to the constant c: rho_beta = c^beta
    law = InverseN(Uniform(0.0, 2.0), ZetaTail(2.0), 0.5, 1.0)
    assert law.rho_beta(1.0) == pytest.approx(0.5, rel=1e-14)
    # c^2 E[N^-1] with E[1/N] = zeta(3) + zeta(2) - 2
    assert law.rho_beta(2.0) == pytest.approx(0.25 * (zeta(3, 1) + zeta(2, 1) - 2.0), rel=1e-12)
    # for gamma = 0 the weights are plain constants
    flat = InverseN(Uniform(0.0, 2.0), ZetaTail(2.0), 0.3, 0.0)
    assert flat.rho_beta(1.0) == pytest.approx(0.3 * zeta(2, 1), rel=1e-12)


@pytest.mark.parametrize("law,beta", [
    (q_baseline_law(), 1.0),
    (q_baseline_law(), 2.5),
    (zn_baseline_law(), 1.0),
    (PageRankLike(0.5, Constant(2.0), ZetaTail(2.0)), 1.0),
    (InverseN(Uniform(0.0, 2.0), ZetaTail(2.0), 0.5, 1.0), 1.0),
])
def test_rho_beta_matches_monte_carlo(law, beta):
    analytic = law.rho_beta(beta)
    est, se = rho_beta_mc(law, beta, 40_000, RNG())
    assert abs(est - analytic) < 4.0 * se


def test_zn_samples_have_mean_rho():
    law = q_baseline_law()
    samples = sample_zn_many(law, 50_000, RNG())
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 0.6) < 4.0 * se


def test_zn_of_deterministic_weight_sits_on_a_lattice():
    law = zn_baseline_law(0.2)
    samples = sample_zn_many(law, 2_000, RNG())
    ks = samples / 0.2
    np.testing.assert_allclose(ks, np.round(ks), atol=1e-9)
    # the same stream gives the same counts: Z_N is exactly c N
    _, n, _ = law.draw_roots(2_000, RNG())
    np.testing.assert_allclose(samples, 0.2 * n, rtol=1e-12)


def test_deterministic_weights_are_a_read_only_view():
    m, k = 1, 1 << 20
    law = DeterministicWeight(Constant(1.0), Constant(float(k)), 0.25)
    rng, rng2 = RNG(), RNG()
    tracemalloc.start()
    try:
        _, _, weights = law.draw_roots(m, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Q and N draws read the generator's state, about 0.6 KiB each; an
    # array of the m k weights would be 8 MiB
    assert peak < 2048
    assert not weights.flags.writeable
    assert np.array_equal(weights, np.full(m * k, 0.25))
    rng2.random(2 * m)  # one uniform per node for Q and one for N; the weights draw none
    assert rng.bit_generator.state == rng2.bit_generator.state


def test_zn_with_no_children_is_float64():
    # N = ZetaTail(2) - 1 is 0 for most nodes; np.bincount of no weights gives int64 zeros
    law = DeterministicWeight(Pareto(2.0, 1.0), Shifted(ZetaTail(2.0), -1.0), 0.3)
    _, n, _ = law.draw_roots(1, RNG(0))
    assert n.sum() == 0
    samples = sample_zn_many(law, 1, RNG(0))
    assert samples.dtype == np.float64
    assert samples.tolist() == [0.0]


# ---------------------------------------------------------------------------
# the weight-moment facts, pinned bit for bit
# ---------------------------------------------------------------------------

def _shipped_law(name):
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    return law_from_json(json.loads(path.read_text())["law"])


PINNED_BETAS = (0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 3.5)
T, F = True, False

# per law: rho_beta at PINNED_BETAS, mean_c, zn_tail_index, zn_tail_scale,
# zn_moment_finite at PINNED_BETAS, and the regime at alpha = 2 and 2.5;
# floats as float.hex, so a change in the last bit shows
WEIGHT_FACTS = {
    "q-baseline": (
        ["0x1.08654a2d4f6dbp+0", "0x1.3333333333333p-1", "0x1.3e4a4cca1eccap-2", "0x1.eb851eb851eb8p-3",
         "0x1.4656fc784aa1ap-3", "0x1.ba5e353f7ced9p-4", "0x1.3095742c0163bp-4"],
        "0x1.3333333333333p-2", None, None, [T, T, T, T, T, T, T], [INVALID, Q_DOMINATES]),
    "sum-appendix": (
        ["0x1.78a5659ce185dp-1", "0x1.50e1eb50f3976p-2", "0x1.b4c6d405ee29bp-4", "0x1.0d81890d8fac5p-4",
         "0x1.e21b63582ae8dp-6", "0x1.af35a815b2ad6p-7", "0x1.81af82acef20bp-8"],
        "0x1.999999999999ap-3", "0x1.0000000000000p+1", "0x1.47ae147ae147cp-5",
        [T, T, T, F, F, F, F], [ZN_DOMINATES, INVALID]),
    "zn-baseline": (
        ["0x1.9f4fcdf53f931p-1", "0x1.999999999999ap-2", "0x1.30755b18841e5p-3", "0x1.8e693e3549633p-4",
         "0x1.88ee8a8c10266p-5", "0x1.8387216f1c62dp-6", "0x1.7e32bef316960p-7"],
        "0x1.f2038dc29bbc0p-3", "0x1.0000000000000p+1", "0x1.e468e9cae37b8p-5",
        [T, T, T, F, F, F, F], [ZN_DOMINATES, INVALID]),
    "iid-exponential-c": (
        ["0x1.0826cabffc4a9p+1", "0x1.a5f26f959ddc6p+1", "0x1.091308e8ecd72p+3", "0x1.a6cae7db2ccc6p+3",
         "0x1.f1456e77207b5p+4", "0x1.3dbadb630b17ep+6", "0x1.b3fbf9fd38f38p+7"],
        "0x1.008355ace3c89p+1", "0x1.0000000000000p+1", "0x1.0106eeba932e8p+2",
        [T, T, T, F, F, F, F], [INVALID, INVALID]),
    "iid-pareto-c": (
        ["0x1.3f9844b1f8b7ap-1", "0x1.f952e0f96d632p-3", "0x1.363b58c69f6ecp-4", "0x1.94424d9457828p-5",
         "0x1.ff5a0783278c5p-6", "inf", "inf"],
        "0x1.3333333333334p-3", "0x1.0000000000000p+1", "0x1.70a3d70a3d70cp-6",
        [T, T, T, F, F, F, F], [ZN_DOMINATES, INVALID]),
    # every weight 0: Z_N = 0 is not regularly varying, whatever N's tail
    "iid-zero-c": (
        ["0x0.0p+0"] * 7, "0x0.0p+0", None, None, [T, T, T, T, T, T, T], [SUBCRITICAL_LIGHT] * 2),
    "deterministic-zero-c": (
        ["0x0.0p+0"] * 7, "0x0.0p+0", None, None, [T, T, T, T, T, T, T], [SUBCRITICAL_LIGHT] * 2),
    "pagerank-constant-n": (
        ["0x1.46acfb00d1be9p+0", "0x1.b1a8cce861be8p-1", "0x1.fac814b26d296p-2", "0x1.95bcacc439144p-2",
         "0x1.19f09b11fdf32p-2", "0x1.8a12961a71c4cp-3", "0x1.14701934fdc5dp-3"],
        "0x1.b1a8cce861be8p-2", None, None, [T, T, T, T, T, T, T], [SUBCRITICAL_LIGHT] * 2),
    "pagerank-zeta-n": (
        ["0x1.2417443723767p+0", "0x1.cdb13f510fd19p-1", "0x1.6eecb72a85f41p-1", "0x1.5301833c1d0e7p-1",
         "0x1.2d9807d5dd714p-1", "0x1.0fa4e3d5d76e7p-1", "0x1.ed2bf557a7c50p-2"],
        "0x1.18ace0d8d26e7p-1", "0x1.0000000000000p+1", "0x1.33baa09935288p-2",
        [T, T, T, F, F, F, F], [ZN_DOMINATES, INVALID]),
    "inverse-n": (
        ["0x1.af5fdc1e2fa6ap-1", "0x1.0000000000000p-1", "0x1.1449cf1339b1ep-2", "0x1.b1a8cce861be8p-3",
         "0x1.268930c8de7bep-3", "0x1.95bcacc439144p-4", "0x1.19f09b11fdf32p-4"],
        None, None, None, [T, T, T, T, T, T, T], [SUBCRITICAL_LIGHT] * 2),
}

WEIGHT_FACT_LAWS = {
    "q-baseline": _shipped_law("q-baseline"),
    "sum-appendix": _shipped_law("sum-appendix"),
    "zn-baseline": _shipped_law("zn-baseline"),
    "iid-exponential-c": IndependentIID(Constant(1.0), ZetaTail(2.0), Exponential(0.499)),
    "iid-pareto-c": IndependentIID(Constant(1.0), ZetaTail(2.0), Pareto(3.0, 0.1)),
    "iid-zero-c": IndependentIID(Constant(1.0), ZetaTail(2.0), Constant(0.0)),
    "deterministic-zero-c": DeterministicWeight(Constant(1.0), ZetaTail(2.0), 0.0),
    "pagerank-constant-n": PageRankLike(0.5, Constant(2.0), ZetaTail(2.0)),
    "pagerank-zeta-n": PageRankLike(0.85, ZetaTail(2.0), ZetaTail(1.0)),
    "inverse-n": InverseN(Uniform(0.0, 2.0), ZetaTail(2.0), 0.5, 1.0),
}


@pytest.mark.parametrize("name", list(WEIGHT_FACTS))
def test_the_weight_moment_facts_keep_their_bits(name):
    law = WEIGHT_FACT_LAWS[name]
    pin = lambda value: value.hex() if isinstance(value, float) else value
    facts = (
        [pin(law.rho_beta(beta)) for beta in PINNED_BETAS],
        pin(law.mean_c()),
        pin(law.zn_tail_index()),
        pin(law.zn_tail_scale()),
        [law.zn_moment_finite(beta) for beta in PINNED_BETAS],
        [validate_regime(law, alpha).regime for alpha in (2.0, 2.5)],
    )
    assert facts == WEIGHT_FACTS[name]


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_dist, c_dist, index", [
    (Constant(2.0), Uniform(0.0, 0.5), None),
    (ZetaTail(2.0), Uniform(0.0, 0.5), 2.0),
    (Constant(2.0), Pareto(3.0, 0.1), 3.0),
    (ZetaTail(2.0), Pareto(1.5, 0.1), 1.5),
    (ZetaTail(2.0), Pareto(3.0, 0.1), 2.0),
], ids=["neither", "n", "c", "both, c heavier", "both, n heavier"])
def test_independent_iid_zn_tail_index_is_the_heavier_of_n_and_c(n_dist, c_dist, index):
    law = IndependentIID(Exponential(1.0), n_dist, c_dist)
    assert law.zn_tail_index() == index


def test_model_validation():
    with pytest.raises(DomainError):
        IndependentIID(Constant(0.0), Constant(2.0), Uniform(0.0, 0.5))
    with pytest.raises(DomainError):
        IndependentIID(Constant(1.0), Constant(2.0), Uniform(-0.5, 0.5))
    with pytest.raises(DomainError):
        IndependentIID(Constant(1.0), Uniform(0.0, 3.0), Uniform(0.0, 0.5))
    with pytest.raises(DomainError):
        PageRankLike(1.5, Constant(2.0), ZetaTail(2.0))
    with pytest.raises(DomainError):
        PageRankLike(0.5, Constant(2.0), Uniform(0.5, 1.5))
    with pytest.raises(DomainError):
        InverseN(Uniform(0.0, 2.0), ZetaTail(2.0), -0.1, 1.0)
    with pytest.raises(DomainError):
        DeterministicWeight(Constant(0.0), ZetaTail(2.0), 0.2)


def test_draw_roots_shapes():
    law = q_baseline_law()
    q, n, weights = law.draw_roots(500, RNG())
    assert q.shape == (500,)
    assert n.shape == (500,)
    assert n.dtype.kind == "i"
    assert weights.shape == (int(n.sum()),)
    assert np.all(weights >= 0.0)
    assert np.all(n == 2)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def test_regime_zn_dominant():
    report = validate_regime(zn_baseline_law(), 2.0)
    assert report.regime == ZN_DOMINATES
    assert report.violated == ()
    assert report.rho == pytest.approx(0.4, abs=1e-14)


def test_regime_q_dominant():
    report = validate_regime(q_baseline_law(), 2.5)
    assert report.regime == Q_DOMINATES
    assert report.violated == ()


def test_regime_kesten_critical():
    # N = 4 children of weight 1/2 each: rho_2 = 4 * (1/2)^2 = 1 exactly
    law = DeterministicWeight(Constant(1.0), Constant(4.0), 0.5)
    report = validate_regime(law, 2.0)
    assert report.regime == KESTEN_CRITICAL
    assert any("rho_alpha = 1" in v for v in report.violated)


def test_regime_subcritical_light():
    law = IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.5))
    report = validate_regime(law, 2.0)
    assert report.regime == SUBCRITICAL_LIGHT


def test_regime_supercritical_is_invalid():
    law = IndependentIID(Exponential(1.0), Constant(3.0), Uniform(0.0, 0.9))
    report = validate_regime(law, 2.0)
    assert report.regime == INVALID
    assert "rho >= 1" in report.violated


def test_regime_index_mismatch_is_invalid():
    # Z_N regularly varying with index 2, checked at alpha = 3
    report = validate_regime(zn_baseline_law(0.1), 3.0)
    assert report.regime == INVALID
    assert any("tail index" in v for v in report.violated)


def test_regime_report_json_uses_inf_marker():
    law = IndependentIID(Exponential(1.0), ZetaTail(0.5), Uniform(0.0, 0.5))
    report = validate_regime(law, 2.0)
    doc = records.to_json(report)
    json.dumps(doc)
    assert doc["rho"] == "inf"


def test_validate_regime_domain():
    with pytest.raises(DomainError):
        validate_regime(zn_baseline_law(), 1.0)


# ---------------------------------------------------------------------------
# fingerprints and serialization
# ---------------------------------------------------------------------------

def test_fingerprint_is_stable():
    law = zn_baseline_law(0.2)
    assert law.fingerprint() == "12fcb418a2c3d057"
    payload = json.dumps(law.to_json(), sort_keys=True, separators=(",", ":"))
    assert law.fingerprint() == hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_a_law_is_fingerprinted_once():
    # every evolve step checks its pool's fingerprint; the JSON is written once
    law = zn_baseline_law(0.2)
    with mock.patch.object(records, "fields_json", wraps=records.fields_json) as spy:
        assert law.fingerprint() == law.fingerprint() == "12fcb418a2c3d057"
    assert spy.call_count == 3  # the law and its two nested laws


def test_fingerprint_separates_laws():
    assert zn_baseline_law(0.2).fingerprint() != zn_baseline_law(0.21).fingerprint()
    assert zn_baseline_law(0.2).fingerprint() != q_baseline_law().fingerprint()


@pytest.mark.parametrize("law", [example_of(cls) for cls in _MODELS.values()])
def test_law_json_roundtrip(law):
    doc = law.to_json()
    json.dumps(doc)
    back = law_from_json(doc)
    assert back == law
    assert back.fingerprint() == law.fingerprint()
    # the dataclass repr reads back as the same law
    assert eval(repr(law), vars(treetail)) == law


def test_law_from_json_rejects_malformed_documents():
    good = zn_baseline_law().to_json()
    with pytest.raises(ConfigError):
        law_from_json({**good, "model": "galton_watson"})
    with pytest.raises(ConfigError):
        law_from_json({**good, "model": []})
    with pytest.raises(ConfigError):
        law_from_json({**good, "surprise": 1})
    bad_params = dict(good["params"])
    del bad_params["c"]
    with pytest.raises(ConfigError):
        law_from_json({"model": good["model"], "params": bad_params})
    with pytest.raises(ConfigError):
        law_from_json("deterministic_weight")
    # every number is a finite JSON number, in the law and in its nested laws
    for bad in ("0.25", True, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite number"):
            law_from_json({"model": good["model"], "params": {**good["params"], "c": bad}})
        shifted = {"kind": "shifted", "params": {"inner": good["params"]["q_dist"], "offset": bad}}
        with pytest.raises(ConfigError, match="finite number"):
            law_from_json({"model": good["model"], "params": {**good["params"], "q_dist": shifted}})
    pareto = {"kind": "pareto", "params": {"alpha": "2.5", "x_min": True}}
    with pytest.raises(ConfigError, match="finite number"):
        law_from_json({"model": good["model"], "params": {**good["params"], "q_dist": pareto}})
    for text in ("NaN", "Infinity"):
        doc = json.loads(json.dumps(good).replace(str(good["params"]["c"]), text))
        with pytest.raises(ConfigError, match="finite number"):
            law_from_json(doc)
