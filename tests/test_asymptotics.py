import math

import pytest
from scipy.special import zeta

from treetail import (
    Constant,
    DeterministicWeight,
    Exponential,
    IndependentIID,
    Pareto,
    TheoryConstants,
    Uniform,
    ZetaTail,
    compute_constants,
    h_limit_q,
    h_limit_zn,
    h_n_q,
    h_n_zn,
    mean_r_partial,
    mean_w,
    moment_bound_w,
    sum_constant_q,
    sum_constant_zn,
)
from treetail import records
from treetail.branching import Q_DOMINATES, ZN_DOMINATES
from treetail.errors import DomainError

# the two scenario parameter sets used throughout
E_Q, RHO, RHO_A, ALPHA = 1.0, 0.4, 0.04 * zeta(2, 1), 2.0
Q_RHO_A = 2.0 * 0.6 ** 2.5 / 3.5


def zn_law():
    return DeterministicWeight(Constant(1.0), ZetaTail(2.0), 0.24317084074161066)


def q_law():
    return IndependentIID(Pareto(2.5, 1.0), Constant(2.0), Uniform(0.0, 0.6))


# ---------------------------------------------------------------------------
# finite-horizon constants
# ---------------------------------------------------------------------------

def test_h_n_zn_small_n_by_hand():
    # horizon 0 is Q alone, which the heavy-Z_N tail strictly dominates
    assert h_n_zn(E_Q, RHO, RHO_A, ALPHA, 0) == 0.0
    # horizon 1: the root's Z_N is the only heavy contribution, children
    # contribute their mean, so the constant is (E Q)^alpha
    assert h_n_zn(E_Q, RHO, RHO_A, ALPHA, 1) == pytest.approx(E_Q ** ALPHA, rel=1e-14)
    expected_2 = (E_Q / (1 - RHO)) ** 2 * ((1 - RHO ** 2) ** 2 + RHO_A * (1 - RHO) ** 2)
    assert h_n_zn(E_Q, RHO, RHO_A, ALPHA, 2) == pytest.approx(expected_2, rel=1e-14)


def test_h_n_zn_satisfies_the_one_step_recursion():
    """h_n = rho_alpha h_{n-1} + (E R^(n-1))^alpha, the inductive step."""
    for n in range(1, 40):
        lhs = h_n_zn(E_Q, RHO, RHO_A, ALPHA, n)
        mean_r = E_Q * (1.0 - RHO ** n) / (1.0 - RHO)
        rhs = RHO_A * h_n_zn(E_Q, RHO, RHO_A, ALPHA, n - 1) + mean_r ** ALPHA
        assert lhs == pytest.approx(rhs, abs=1e-13 * max(1.0, lhs))


def test_h_n_q_is_a_geometric_partial_sum():
    assert h_n_q(0.25, 0) == 1.0
    assert h_n_q(0.25, 3) == pytest.approx(1.0 + 0.25 + 0.0625 + 0.015625, rel=1e-15)
    assert h_n_q(0.0, 7) == 1.0


def test_limits():
    assert h_limit_zn(1.0, 0.4, 0.09726833629664428, 2.0) == pytest.approx(
        3.077080254814876, rel=1e-14)
    assert h_limit_q(Q_RHO_A) == pytest.approx(1.189549475539623, rel=1e-14)
    # limits dominate every finite horizon, and by n = 60 the gap has
    # shrunk below double-precision resolution
    for n in (0, 5, 20):
        assert h_n_zn(E_Q, RHO, RHO_A, ALPHA, n) < h_limit_zn(E_Q, RHO, RHO_A, ALPHA)
    gap = h_limit_zn(E_Q, RHO, RHO_A, ALPHA) - h_n_zn(E_Q, RHO, RHO_A, ALPHA, 60)
    assert 0.0 <= gap < 1e-12


def test_h_domain_errors():
    with pytest.raises(DomainError):
        h_n_zn(E_Q, 1.0, RHO_A, ALPHA, 3)
    with pytest.raises(DomainError):
        h_n_zn(E_Q, RHO, 1.0, ALPHA, 3)
    with pytest.raises(DomainError):
        h_n_zn(E_Q, RHO, RHO_A, 1.0, 3)
    with pytest.raises(DomainError):
        h_n_zn(0.0, RHO, RHO_A, ALPHA, 3)
    with pytest.raises(DomainError):
        h_n_zn(E_Q, RHO, RHO_A, ALPHA, -1)
    with pytest.raises(DomainError):
        h_n_q(1.2, 3)
    with pytest.raises(DomainError):
        h_limit_q(-0.1)


# ---------------------------------------------------------------------------
# one-shot sum constants
# ---------------------------------------------------------------------------

def test_sum_constants():
    law = DeterministicWeight(Constant(1.0), ZetaTail(2.0), 0.2)
    # rho_2 + c_ratio (E X)^2 with rho_2 = 0.04 zeta(2)
    got = sum_constant_zn(law, 2.0, e_x=2.0, c_ratio=0.04)
    assert got == pytest.approx(0.04 * zeta(2, 1) + 0.16, rel=1e-14)
    got_q = sum_constant_q(q_law(), 2.5, c_ratio=1.0)
    assert got_q == pytest.approx(Q_RHO_A + 1.0, rel=1e-14)
    with pytest.raises(DomainError):
        sum_constant_zn(law, 2.0, e_x=0.0, c_ratio=0.04)
    with pytest.raises(DomainError):
        sum_constant_zn(law, 2.0, e_x=2.0, c_ratio=0.0)
    with pytest.raises(DomainError):
        sum_constant_q(q_law(), 1.0, c_ratio=1.0)


def test_jessen_mikosch_constant():
    # P(Z_N > x) ~ (E C)^alpha P(N > x), and ZetaTail(2)'s tail scale is 1
    law = IndependentIID(Exponential(1.0), ZetaTail(2.0), Uniform(0.0, 1.0))
    assert law.zn_tail_scale() == pytest.approx(0.25, rel=1e-14)


# ---------------------------------------------------------------------------
# moment identities and bounds
# ---------------------------------------------------------------------------

def test_mean_w_and_mean_r_partial():
    law = zn_law()
    assert mean_w(law, 0) == pytest.approx(1.0, rel=1e-14)
    assert mean_w(law, 3) == pytest.approx(0.4 ** 3, rel=1e-12)
    assert mean_r_partial(law, 0) == pytest.approx(1.0, rel=1e-14)
    assert mean_r_partial(law, 4) == pytest.approx((1 - 0.4 ** 5) / 0.6, rel=1e-12)
    # rho = 1 degenerates to (n + 1) E[Q]
    critical = DeterministicWeight(Constant(2.0), Constant(2.0), 0.5)
    assert mean_r_partial(critical, 9) == pytest.approx(20.0, rel=1e-14)
    with pytest.raises(DomainError):
        mean_w(law, -1)


def test_moment_bound_w():
    law = zn_law()
    rho_half = law.rho_beta(0.5)
    assert moment_bound_w(law, 0.5, 3) == pytest.approx(rho_half ** 3, rel=1e-12)
    assert moment_bound_w(law, 1.0, 0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        moment_bound_w(law, 1.5, 3)
    with pytest.raises(DomainError):
        moment_bound_w(law, 0.5, -1)


# ---------------------------------------------------------------------------
# compute_constants end to end
# ---------------------------------------------------------------------------

def test_compute_constants_zn():
    tc = compute_constants(zn_law(), 2.0, n_max=12)
    assert isinstance(tc, TheoryConstants)
    assert tc.regime == ZN_DOMINATES
    assert tc.h_limit == pytest.approx(3.077080254814876, rel=1e-12)
    assert tc.eta == pytest.approx(0.7, abs=1e-12)
    assert set(tc.h_n_table) == set(range(13))
    assert tc.h_n_table[0] == 0.0
    doc = records.to_json(tc)
    assert doc["h_n_table"]["12"] == tc.h_n_table[12]
    assert doc["regime"] == ZN_DOMINATES


def test_compute_constants_q():
    tc = compute_constants(q_law(), 2.5, n_max=8)
    assert tc.regime == Q_DOMINATES
    assert tc.h_limit == pytest.approx(1.0 / (1.0 - Q_RHO_A), rel=1e-14)
    assert tc.h_n_table[8] == pytest.approx(h_n_q(Q_RHO_A, 8), rel=1e-14)
    # eta = (1 + max(rho, rho_alpha)) / 2 with rho = 0.6 > rho_alpha
    assert tc.eta == pytest.approx(0.8, rel=1e-14)


def test_compute_constants_refuses_light_regimes():
    light = IndependentIID(Exponential(1.0), Constant(2.0), Uniform(0.0, 0.5))
    with pytest.raises(DomainError):
        compute_constants(light, 2.0)
    # rho = 3 * 0.45 >= 1: no geometric decay rate exists
    supercritical = IndependentIID(Exponential(1.0), Constant(3.0), Uniform(0.0, 0.9))
    with pytest.raises(DomainError, match="rho >= 1"):
        compute_constants(supercritical, 2.0)
