import dataclasses
import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import treetail
from treetail import (
    Constant,
    Exponential,
    LogNormal,
    Pareto,
    Shifted,
    Uniform,
    ZetaTail,
    dist_from_json,
)
from treetail.asymptotics import (h_limit_zn, h_n_zn, mean_r_partial, mean_w,
                                  moment_bound_w, sum_constant_zn)
from treetail.branching import DeterministicWeight, IndependentIID, InverseN
from treetail.distributions import _KINDS
from treetail.errors import ConfigError, DomainError

RNG = lambda: np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def test_constant_moments():
    c = Constant(2.0)
    assert c.moment(3) == 8.0
    assert c.moment(0) == 1.0
    assert c.mean() == 2.0
    assert Constant(0.0).moment(-1) == math.inf
    assert Constant(-1.5).moment(2) == 2.25
    assert Constant(-1.5).moment(0.5) is None


def test_uniform_moments():
    assert Uniform(0.0, 1.0).moment(2) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # (b^3 - a^3) / (3 (b - a)) with a = -1, b = 2
    assert Uniform(-1.0, 2.0).moment(2) == pytest.approx(1.0, rel=1e-15)
    assert Uniform(-1.0, 2.0).moment(0.5) is None
    assert Uniform(1.0, 3.0).moment(-1) == pytest.approx(math.log(3.0) / 2.0, rel=1e-15)
    assert Uniform(0.0, 1.0).moment(-1) == math.inf
    assert Uniform(0.0, 0.6).moment(2.5) == pytest.approx(0.6 ** 2.5 / 3.5, rel=1e-15)


def test_exponential_moments():
    e = Exponential(2.0)
    assert e.mean() == 0.5
    assert e.moment(2) == pytest.approx(math.gamma(3.0) / 4.0, rel=1e-15)
    assert e.moment(-0.5) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
    assert e.moment(-1) == math.inf


def test_pareto_moments():
    p = Pareto(2.5, 1.0)
    assert p.mean() == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert p.moment(2) == pytest.approx(5.0, rel=1e-15)
    assert p.moment(2.5) == math.inf
    assert Pareto(2.0, 3.0).moment(1) == pytest.approx(6.0, rel=1e-15)


def test_zeta_tail_moments_against_zeta_values():
    """E[N] = sum_k P(N >= k) = zeta(2) when the survival is k^-2."""
    z = ZetaTail(2.0)
    assert z.mean() == pytest.approx(zeta(2, 1), abs=1e-12)
    assert z.moment(2) == math.inf
    # E[1/N] = zeta(3) + zeta(2) - 2, by telescoping 1/(n (n+1)^2)
    assert z.moment(-1) == pytest.approx(zeta(3, 1) + zeta(2, 1) - 2.0, abs=1e-12)
    z3 = ZetaTail(3.0)
    # E[N] = zeta(3), E[N^2] = 2 zeta(2) - zeta(3) via sum (2k+1) (k+1)^-3
    assert z3.mean() == pytest.approx(zeta(3, 1), abs=1e-12)
    assert z3.moment(2) == pytest.approx(2.0 * zeta(2, 1) - zeta(3, 1), abs=1e-11)


def _zeta_moment_hurwitz(alpha, beta, head=64, terms=40):
    """E[N^beta] for P(N >= k) = k^-alpha at 30 digits, in the Hurwitz form.

    Summation by parts up to ``head``, then
    sum_j (-1)^(j+1) binom(beta, j) zeta(alpha - beta + j, head); each j is
    about 1/head the size of the one before, so 40 terms are far past 30
    digits. (``mpmath.nsum`` is no reference here: its extrapolation
    returns 10.83 for alpha = 2, beta = 1.9, whose terms decay like k^-1.1.)
    """
    with mpmath.workdps(30):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        value = 1 + mpmath.fsum(
            (mpmath.mpf(k) ** b - mpmath.mpf(k - 1) ** b) * mpmath.mpf(k) ** -a
            for k in range(2, head)
        )
        value += mpmath.fsum(
            (-1) ** (j + 1) * mpmath.binomial(b, j) * mpmath.zeta(a - b + j, head)
            for j in range(1, terms)
        )
        return float(value)


def _moment_raising_on_warnings(dist, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return dist.moment(beta)


def test_zeta_tail_moments_match_closed_forms():
    # E[N] = zeta(1.2), a series that decays like k^-1.2
    assert _moment_raising_on_warnings(ZetaTail(1.2), 1.0) == pytest.approx(5.591582441177752, rel=1e-12)
    # E[1/N] = sum 1/(k^2 (k+1)) = zeta(2) - 1
    assert _moment_raising_on_warnings(ZetaTail(1.0), -1.0) == pytest.approx(
        math.pi ** 2 / 6.0 - 1.0, rel=1e-12)


@pytest.mark.parametrize("alpha,beta", [
    (2.0, 1.9), (2.0, 1.99), (2.0, 2.0 - 1e-6), (2.0, -0.5), (0.3, 0.1), (10.0, 9.5),
])
def test_zeta_tail_moments_match_the_hurwitz_form(alpha, beta):
    """The moment stays exact as beta approaches alpha, where the series
    decays like k^(beta - alpha - 1) and any quadrature of it struggles."""
    value = _moment_raising_on_warnings(ZetaTail(alpha), beta)
    assert value == pytest.approx(_zeta_moment_hurwitz(alpha, beta), rel=1e-12)


@pytest.mark.parametrize("alpha,beta,head", [
    (100.0, 70.0, 64), (80.0, 64.5, 64), (70.0, 69.5, 64), (300.0, 250.0, 64),
    (2.0, -100.0, 64), (0.5, -80.0, 64), (1000.0, 999.5, 8192),
])
def test_zeta_tail_moments_stay_finite_where_powers_overflow(alpha, beta, head):
    """k^beta or k^-alpha leaves the float range inside the exact head
    (k < 2^16) once |beta| or alpha passes 64; the moment must not. The
    reference needs a longer head when beta / head is large, or its binomial
    series converges too slowly for 40 terms."""
    value = _moment_raising_on_warnings(ZetaTail(alpha), beta)
    assert value == pytest.approx(_zeta_moment_hurwitz(alpha, beta, head=head), rel=1e-12)


def test_zeta_moment_reference_values():
    assert _zeta_moment_hurwitz(1.2, 1.0) == pytest.approx(float(mpmath.zeta(1.2)), rel=1e-15)
    assert _zeta_moment_hurwitz(2.0, 1.9) == pytest.approx(18.7255, abs=1e-4)
    assert _zeta_moment_hurwitz(2.0, 1.99) == pytest.approx(198.533, abs=1e-3)


def test_lognormal_moments():
    ln = LogNormal(0.0, 1.0)
    assert ln.mean() == pytest.approx(math.exp(0.5), rel=1e-15)
    assert ln.moment(2) == pytest.approx(math.e ** 2, rel=1e-15)
    assert ln.ccdf(1.0) == pytest.approx(0.5, abs=1e-15)


def test_shifted_moments():
    s = Shifted(Exponential(1.0), -0.5)
    assert s.mean() == 0.5
    # E[(X - 1/2)^2] = E X^2 - E X + 1/4 = 2 - 1 + 0.25
    assert s.moment(2) == pytest.approx(1.25, rel=1e-14)
    assert s.moment(0.5) is None
    assert s.support_min() == -0.5
    heavy = Shifted(Pareto(2.0, 1.0), 1.0)
    assert heavy.moment(2) == math.inf
    assert heavy.tail_index() == 2.0
    assert heavy.tail_scale() == 1.0


_positive = st.floats(min_value=1e-6, max_value=1e6)
_MEANS = {
    # each law with its closed-form mean, which moment(1.0) must give bit for bit
    "constant": (st.builds(Constant, st.floats(-1e6, 1e6)), lambda d: float(d.value)),
    "uniform": (st.tuples(st.floats(-1e6, 1e6), _positive).map(lambda t: Uniform(t[0], t[0] + t[1])),
                lambda d: (d.low + d.high) / 2.0),
    "pareto": (st.builds(Pareto, st.floats(0.05, 50.0), _positive),
               lambda d: math.inf if d.alpha <= 1 else d.alpha * d.x_min / (d.alpha - 1.0)),
}


@pytest.mark.parametrize("kind", sorted(_MEANS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mean_is_the_first_moment(kind, data):
    laws, closed_form = _MEANS[kind]
    dist = data.draw(laws)
    assert dist.mean() == dist.moment(1.0) == closed_form(dist)


# ---------------------------------------------------------------------------
# ccdf / quantile
# ---------------------------------------------------------------------------

def test_pareto_ccdf_quantile_roundtrip():
    p = Pareto(2.0, 1.0)
    assert p.ccdf(2.0) == pytest.approx(0.25, rel=1e-15)
    assert p.ccdf(0.5) == 1.0
    x = p.quantile(1.0 - 1e-3)
    assert p.ccdf(x) == pytest.approx(1e-3, rel=1e-12)


def test_zeta_tail_ccdf_is_a_step_function():
    z = ZetaTail(2.0)
    assert z.ccdf(0.5) == 1.0
    assert z.ccdf(1.0) == 0.25
    assert z.ccdf(3.0) == z.ccdf(3.7) == 1.0 / 16.0
    assert z.ccdf(-2.0) == 1.0


def test_zeta_tail_quantile_hits_atom_boundaries():
    z = ZetaTail(2.0)
    assert z.quantile(0.0) == 1.0
    assert z.quantile(0.75) == 1.0  # P(N = 1) = 1 - 2^-2 exactly
    assert z.quantile(0.7500001) == 2.0
    assert z.quantile(1.0 - 1e-6) == pytest.approx(999.0, abs=1.0)


def test_uniform_ccdf_clipping():
    u = Uniform(1.0, 3.0)
    assert u.ccdf(0.0) == 1.0
    assert u.ccdf(2.0) == 0.5
    assert u.ccdf(5.0) == 0.0


@given(st.floats(min_value=0.0, max_value=0.999999))
def test_continuous_quantile_inverts_ccdf(u):
    for dist in (Pareto(2.0, 1.0), Exponential(1.3), Uniform(0.5, 2.5)):
        x = dist.quantile(u)
        assert dist.ccdf(x) == pytest.approx(1.0 - u, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=1.0 - 1e-9),
       st.floats(min_value=0.0, max_value=1.0 - 1e-9))
@settings(max_examples=50)
def test_quantiles_are_monotone(u1, u2):
    lo, hi = sorted((u1, u2))
    for dist in (Pareto(1.5, 2.0), Exponential(0.7), ZetaTail(2.0), LogNormal(0.1, 0.4)):
        assert dist.quantile(lo) <= dist.quantile(hi)


# ---------------------------------------------------------------------------
# sampling agrees with the analytic law
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", [
    Uniform(0.0, 2.0),
    Exponential(1.5),
    Pareto(2.5, 1.0),
    LogNormal(0.0, 0.5),
])
def test_samples_match_cdf(dist):
    samples = dist.sample_many(RNG(), 20_000)
    stat = scipy.stats.kstest(samples, lambda x: 1.0 - np.asarray(dist.ccdf(x))).statistic
    assert stat < 0.015


def test_zeta_tail_samples_match_pmf():
    z = ZetaTail(2.0)
    samples = z.sample_many(RNG(), 50_000)
    assert samples.min() >= 1.0
    assert np.all(samples == np.floor(samples))
    for k in (1, 2, 3, 10):
        observed = float(np.mean(samples > k))
        expected = z.ccdf(float(k))
        se = math.sqrt(expected * (1 - expected) / samples.size)
        assert abs(observed - expected) < 5 * se + 1e-9


_EVERY_KIND = [
    Constant(2.0),
    Uniform(0.0, 0.6),
    Exponential(1.5),
    Pareto(2.5, 1.0),
    ZetaTail(2.0),
    LogNormal(0.1, 0.7),
    Shifted(Pareto(2.0, 1.0), -0.25),
]


def _pcg64_holding_a_half():
    rng = np.random.default_rng(11)
    rng.integers(0, 10 ** 6, 3)  # three 32-bit draws leave one buffered
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


# Constant advances a PCG64 without drawing, keeping the buffered 32-bit
# half that rng.random never reads; other bit generators draw the uniforms
_GENERATORS = {
    "pcg64": lambda: np.random.default_rng(11),
    "pcg64-half": _pcg64_holding_a_half,
    "mt19937": lambda: np.random.Generator(np.random.MT19937(11)),
}


@pytest.mark.parametrize("generator", sorted(_GENERATORS))
@pytest.mark.parametrize("dist", _EVERY_KIND, ids=lambda d: d.kind)
@pytest.mark.parametrize("size", [0, 1, 65539])
def test_sample_many_is_quantile_of_the_same_uniforms(dist, size, generator):
    """sample_many draws and consumes exactly what quantile(rng.random(n)) does."""
    rng, rng2 = _GENERATORS[generator](), _GENERATORS[generator]()
    got = dist.sample_many(rng, size)
    u = rng2.random(size)
    kept = u.copy()
    expected = dist.quantile(u)
    assert got.dtype == np.float64 and got.shape == (size,)
    assert np.array_equal(got, expected)
    assert np.array_equal(u, kept)  # quantile never writes into its argument
    assert _state(rng) == _state(rng2)


@pytest.mark.parametrize("generator", ["pcg64", "pcg64-half"])
def test_constant_draws_are_a_read_only_view(generator):
    size = 1 << 20
    rng, rng2 = _GENERATORS[generator](), _GENERATORS[generator]()
    tracemalloc.start()
    try:
        values = Constant(2.5).sample_many(rng, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024  # an array of the copies would be 8 MiB
    assert not values.flags.writeable
    assert np.array_equal(values, np.full(size, 2.5))
    rng2.random(size)
    assert _state(rng) == _state(rng2)


def _state(rng) -> str:
    """The bit generator's state as JSON text, its arrays (MT19937's key) as lists."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


@pytest.mark.parametrize("dist", _EVERY_KIND, ids=lambda d: d.kind)
def test_scalar_quantile_is_a_float_and_leaves_its_argument(dist):
    u = np.array([0.3, 0.999])
    values = dist.quantile(u)
    assert np.array_equal(u, [0.3, 0.999])
    for ui, v in zip(u, values):
        scalar = dist.quantile(float(ui))
        assert type(scalar) is float
        assert scalar == pytest.approx(float(v), rel=1e-15)
    zero_d = np.array(0.3)
    dist.quantile(zero_d)
    assert zero_d == 0.3


def test_scalar_pareto_quantile_keeps_numpy_scalar_power():
    # numpy's scalar power and its array loop can differ in the last bit; a
    # scalar quantile keeps the scalar one, which analytic grids were pinned with
    p = Pareto(2.0, 1.0)
    for u in np.random.default_rng(3).random(200):
        assert p.quantile(float(u)) == float(1.0 * np.float64(1.0 - u) ** (-1.0 / 2.0))


def test_sampling_is_reproducible():
    d = Pareto(2.0, 1.0)
    a = d.sample_many(np.random.default_rng(7), 100)
    b = d.sample_many(np.random.default_rng(7), 100)
    np.testing.assert_array_equal(a, b)
    assert d.sample_many(np.random.default_rng(7), 1)[0] == a[0]


# ---------------------------------------------------------------------------
# structure and validation
# ---------------------------------------------------------------------------

def test_tail_metadata():
    assert Pareto(2.0, 1.5).tail_index() == 2.0
    assert Pareto(2.0, 1.5).tail_scale() == pytest.approx(1.5 ** 2)
    assert ZetaTail(2.0).tail_index() == 2.0
    assert ZetaTail(2.0).tail_scale() == 1.0
    assert Exponential(1.0).tail_index() is None
    assert Uniform(0.0, 1.0).tail_scale() is None
    assert LogNormal(0.0, 1.0).tail_index() is None


def test_moment_is_finite_uses_tail_index():
    p = Pareto(2.0, 1.0)
    assert p.moment_is_finite(1.9)
    assert not p.moment_is_finite(2.0)
    assert Exponential(1.0).moment_is_finite(50.0)


def test_integer_valuedness():
    assert ZetaTail(2.0).is_integer_valued()
    assert Constant(3.0).is_integer_valued()
    assert not Constant(2.5).is_integer_valued()
    assert not Uniform(0.0, 1.0).is_integer_valued()


def test_domain_validation():
    with pytest.raises(DomainError):
        Uniform(1.0, 1.0)
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        Pareto(-1.0, 1.0)
    with pytest.raises(DomainError):
        Pareto(2.0, 0.0)
    with pytest.raises(DomainError):
        ZetaTail(0.0)
    with pytest.raises(DomainError):
        LogNormal(0.0, 0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def example_of(cls):
    """An instance of a law or distribution class, built from its fields alone.

    Every law-valued field is ZetaTail(2.0), and the numeric fields take
    0.25, 0.5, 0.75, ... in declaration order.
    """
    numbers = iter((0.25, 0.5, 0.75, 1.0))
    return cls(**{f.name: ZetaTail(2.0) if f.type == "Distribution" else next(numbers)
                  for f in dataclasses.fields(cls)})


@pytest.mark.parametrize("dist", [example_of(cls) for cls in _KINDS.values()])
def test_json_roundtrip(dist):
    doc = dist.to_json()
    json.dumps(doc)  # must be serializable as-is
    back = dist_from_json(doc)
    assert back == dist
    assert back.to_json() == doc
    # the dataclass repr reads back as the same law
    assert eval(repr(dist), vars(treetail)) == dist


def test_from_json_rejects_malformed_documents():
    with pytest.raises(ConfigError):
        dist_from_json({"kind": "gaussian", "params": {}})
    with pytest.raises(ConfigError):
        dist_from_json({"kind": "pareto", "params": {"alpha": 2.0}})
    with pytest.raises(ConfigError):
        dist_from_json({"kind": "pareto", "params": {"alpha": 2.0, "x_min": 1.0, "junk": 0}})
    with pytest.raises(ConfigError):
        dist_from_json({"kind": "pareto", "params": {"alpha": 2.0, "x_min": 1.0}, "extra": 1})
    with pytest.raises(ConfigError):
        dist_from_json(["pareto"])
    with pytest.raises(ConfigError):
        dist_from_json({"kind": [], "params": {}})
    with pytest.raises(ConfigError):
        dist_from_json({"kind": "constant", "params": [1.0]})
    # domain violations surface as DomainError, not ConfigError
    with pytest.raises(DomainError):
        dist_from_json({"kind": "exponential", "params": {"rate": -1.0}})
    # a parameter must be a finite JSON number, at any depth
    inner = Pareto(2.0, 1.0).to_json()
    for bad in ("2.5", True, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite number"):
            dist_from_json({"kind": "pareto", "params": {"alpha": bad, "x_min": 1.0}})
        with pytest.raises(ConfigError, match="finite number"):
            dist_from_json({"kind": "shifted", "params": {"inner": inner, "offset": bad}})
    for text in ("NaN", "Infinity", "-Infinity", "1e400"):
        with pytest.raises(ConfigError, match="finite number"):
            dist_from_json(json.loads(f'{{"kind": "constant", "params": {{"value": {text}}}}}'))


# weights of 1e200 and of mean 5e299, whose squares overflow
HEAVY_WEIGHT = DeterministicWeight(Constant(1.0), ZetaTail(2.0), 1e200)
HEAVY_MEAN_WEIGHT = IndependentIID(Constant(1.0), ZetaTail(2.0), Uniform(0.0, 1e300))
HEAVY_INVERSE_N = InverseN(Constant(1.0), ZetaTail(2.0), 1e200, 0.5)
# rho = 1e100 zeta(2) is finite, but its tenth power is not
HEAVY_RHO = DeterministicWeight(Constant(1.0), ZetaTail(2.0), 1e100)
LIGHT_WEIGHT = DeterministicWeight(Constant(1.0), ZetaTail(2.0), 0.2)


# each closed form, and the call its error shows: a method's on its instance
@pytest.mark.parametrize("closed_form, shown", [
    (lambda: Constant(1e300).moment(2.0), r"Constant\(value=1e\+300\)\.moment\(2\.0\)"),
    (lambda: Constant(-1e300).moment(3.0), r"Constant\(value=-1e\+300\)\.moment\(3\.0\)"),
    (lambda: Uniform(0.0, 1e300).moment(2.5), r"Uniform\(.*\)\.moment\(2\.5\)"),
    (lambda: Uniform(-1.0, 1e300).moment(2.0), r"Uniform\(.*\)\.moment\(2\.0\)"),
    (lambda: Exponential(1e-300).moment(2.0), r"Exponential\(rate=1e-300\)\.moment\(2\.0\)"),
    (lambda: Exponential(1.0).moment(200.0), r"Exponential\(rate=1\.0\)\.moment\(200\.0\)"),
    (lambda: Pareto(3.0, 1e300).moment(2.0), r"Pareto\(.*\)\.moment\(2\.0\)"),
    (lambda: Pareto(2.0, 1e306).tail_scale(), r"Pareto\(alpha=2\.0, x_min=1e\+306\)\.tail_scale\(\)"),
    (lambda: LogNormal(1000.0, 1.0).moment(1.0), r"LogNormal\(.*\)\.moment\(1\.0\)"),
    (lambda: Shifted(Exponential(1.0), 1e300).moment(2.0),
     r"Shifted\(inner=Exponential\(rate=1\.0\), offset=1e\+300\)\.moment\(2\.0\)"),
    (lambda: HEAVY_WEIGHT.rho_beta(2.0), r"DeterministicWeight\(.*\)\.rho_beta\(2\.0\)"),
    (HEAVY_WEIGHT.zn_tail_scale, r"DeterministicWeight\(.*\)\.zn_tail_scale\(\)"),
    (HEAVY_MEAN_WEIGHT.zn_tail_scale, r"IndependentIID\(.*\)\.zn_tail_scale\(\)"),
    (lambda: HEAVY_INVERSE_N.rho_beta(2.0), r"InverseN\(.*\)\.rho_beta\(2\.0\)"),
    (HEAVY_INVERSE_N.zn_tail_scale, r"InverseN\(.*\)\.zn_tail_scale\(\)"),
    (lambda: h_n_zn(1e200, 0.5, 0.5, 2.0, 3), r"^h_n_zn\(1e\+200, 0\.5, 0\.5, 2\.0, 3\)"),
    (lambda: h_limit_zn(1e200, 0.5, 0.5, 2.0), r"^h_limit_zn\(1e\+200, 0\.5, 0\.5, 2\.0\)"),
    (lambda: sum_constant_zn(LIGHT_WEIGHT, 2.0, e_x=1e200, c_ratio=1.0),
     r"^sum_constant_zn\(DeterministicWeight\(.*\), 2\.0, e_x=1e\+200, c_ratio=1\.0\)"),
    (lambda: mean_w(HEAVY_RHO, 10), r"^mean_w\(DeterministicWeight\(.*\), 10\)"),
    (lambda: mean_r_partial(HEAVY_RHO, 10), r"^mean_r_partial\(DeterministicWeight\(.*\), 10\)"),
    (lambda: moment_bound_w(HEAVY_RHO, 1.0, 10), r"^moment_bound_w\(DeterministicWeight\(.*\), 1\.0, 10\)"),
], ids=["constant", "constant-negative", "uniform", "uniform-negative", "exponential-rate",
        "exponential-gamma", "pareto-moment", "pareto-tail-scale", "lognormal", "shifted",
        "deterministic-rho-beta", "deterministic-zn-scale", "iid-zn-scale", "inverse-n-rho-beta",
        "inverse-n-zn-scale", "h-n-zn", "h-limit-zn", "sum-constant-zn",
        "mean-w", "mean-r-partial", "moment-bound-w"])
def test_a_closed_form_past_the_float_range_is_a_domain_error(closed_form, shown):
    with pytest.raises(DomainError, match="overflows a float") as refused:
        closed_form()
    assert refused.match(shown)
