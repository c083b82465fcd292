import hashlib
import json
import math
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
    assert law.q_mean() == 0.5
    assert law.q_plus_moment(0.7) == pytest.approx(0.5 ** 0.7, rel=1e-15)
    assert law.q_abs_moment_finite(50.0)
    assert law.q_tail_index() is None and law.q_tail_scale() is None
    np.testing.assert_array_equal(law.sample_q_many(4, RNG()), np.full(4, 0.5))
    q, _, _ = law.draw_roots(4, RNG())
    np.testing.assert_array_equal(q, np.full(4, 0.5))


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
