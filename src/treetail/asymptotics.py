"""Closed-form tail-asymptotic constants.

For the fixed-point sum R = sum_n W_n built on a branching law, the tail
P(R > x) is asymptotically a constant multiple of the dominant component's
tail.  This module evaluates those constants exactly:

* heavy total child weight Z_N, lighter Q:
    P(R^(n) > x) ~ h_n * P(Z_N > x)  with
    h_n = (E Q)^alpha (1-rho)^(-alpha) sum_{k=0}^n rho_alpha^k (1-rho^(n-k))^alpha
  and limit (E Q)^alpha / ((1-rho)^alpha (1-rho_alpha));
* heavy Q, lighter Z_N:
    h_n = sum_{k=0}^n rho_alpha^k, limit 1/(1-rho_alpha);
* one-shot weighted sums sum_i C_i X_i + Q against the tail of X.

All functions validate their domain and raise DomainError outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .branching import (
    BranchingLaw,
    RegimeReport,
    Q_DOMINATES,
    ZN_DOMINATES,
    validate_regime,
)
from .errors import DomainError, closed_form

__all__ = [
    "h_n_zn",
    "h_limit_zn",
    "h_n_q",
    "h_limit_q",
    "sum_constant_zn",
    "sum_constant_q",
    "moment_bound_w",
    "mean_w",
    "mean_r_partial",
    "TheoryConstants",
    "compute_constants",
]


def _check_common(rho: float, rho_alpha: float, alpha: float):
    if not 0 <= rho < 1:
        raise DomainError(f"rho must lie in [0, 1), got {rho!r}")
    if not 0 <= rho_alpha < 1:
        raise DomainError(f"rho_alpha must lie in [0, 1), got {rho_alpha!r}")
    if not alpha > 1:
        raise DomainError(f"alpha must exceed 1, got {alpha!r}")


@closed_form
def h_n_zn(e_q: float, rho: float, rho_alpha: float, alpha: float, n: int) -> float:
    """Finite-horizon tail constant of R^(n) against P(Z_N > x)."""
    _check_common(rho, rho_alpha, alpha)
    if e_q <= 0:
        raise DomainError("E[Q] must be positive")
    if n < 0:
        raise DomainError("horizon n must be >= 0")
    terms = (rho_alpha ** k * (1.0 - rho ** (n - k)) ** alpha for k in range(n + 1))
    return e_q ** alpha * math.fsum(terms) / (1.0 - rho) ** alpha


@closed_form
def h_limit_zn(e_q: float, rho: float, rho_alpha: float, alpha: float) -> float:
    """Limit tail constant of R against P(Z_N > x)."""
    _check_common(rho, rho_alpha, alpha)
    if e_q <= 0:
        raise DomainError("E[Q] must be positive")
    return e_q ** alpha / ((1.0 - rho) ** alpha * (1.0 - rho_alpha))


def h_n_q(rho_alpha: float, n: int) -> float:
    """Finite-horizon tail constant of R^(n) against P(Q > x)."""
    if not 0 <= rho_alpha < 1:
        raise DomainError(f"rho_alpha must lie in [0, 1), got {rho_alpha!r}")
    if n < 0:
        raise DomainError("horizon n must be >= 0")
    return math.fsum(rho_alpha ** k for k in range(n + 1))


def h_limit_q(rho_alpha: float) -> float:
    """Limit tail constant of R against P(Q > x)."""
    if not 0 <= rho_alpha < 1:
        raise DomainError(f"rho_alpha must lie in [0, 1), got {rho_alpha!r}")
    return 1.0 / (1.0 - rho_alpha)


def _rho_alpha_or_raise(law: BranchingLaw, alpha: float) -> float:
    rho_alpha = law.rho_beta(alpha)
    if rho_alpha is None:
        raise DomainError("rho_alpha is not analytically available for this law")
    if math.isinf(rho_alpha):
        raise DomainError("rho_alpha is infinite for this law")
    return rho_alpha


@closed_form
def sum_constant_zn(law: BranchingLaw, alpha: float, e_x: float, c_ratio: float) -> float:
    """Tail constant of sum_i C_i X_i + Q against P(X > x), heavy-Z_N case.

    ``c_ratio`` is the tail-equivalence constant with P(Z_N > x) ~ c_ratio * P(X > x).
    """
    if alpha <= 1:
        raise DomainError("alpha must exceed 1")
    if e_x <= 0 or math.isinf(e_x):
        raise DomainError("E[X] must be positive and finite")
    if c_ratio <= 0:
        raise DomainError("tail-equivalence constant must be positive")
    return _rho_alpha_or_raise(law, alpha) + c_ratio * e_x ** alpha


def sum_constant_q(law: BranchingLaw, alpha: float, c_ratio: float) -> float:
    """Tail constant of sum_i C_i X_i + Q against P(X > x), heavy-Q case.

    ``c_ratio`` is the constant with P(Q > x) ~ c_ratio * P(X > x).
    """
    if alpha <= 1:
        raise DomainError("alpha must exceed 1")
    if c_ratio <= 0:
        raise DomainError("tail-equivalence constant must be positive")
    return _rho_alpha_or_raise(law, alpha) + c_ratio


@closed_form
def moment_bound_w(law: BranchingLaw, beta: float, n: int) -> float:
    """Upper bound E[(W_n^+)^beta] <= E[(Q^+)^beta] rho_beta^n for beta in (0, 1]."""
    if not 0 < beta <= 1:
        raise DomainError("the product bound holds for beta in (0, 1]")
    if n < 0:
        raise DomainError("generation n must be >= 0")
    q_plus = law.q_plus_moment(beta)
    if q_plus is None:
        raise DomainError("E[(Q^+)^beta] unavailable for this law")
    if math.isinf(q_plus):
        return math.inf
    rho_beta = law.rho_beta(beta)
    if rho_beta is None:
        raise DomainError("rho_beta unavailable for this law")
    if math.isinf(rho_beta):
        return math.inf
    return q_plus * rho_beta ** n


@closed_form
def mean_w(law: BranchingLaw, n: int) -> float:
    """E[W_n] = E[Q] * rho^n."""
    if n < 0:
        raise DomainError("generation n must be >= 0")
    e_q, rho = _mean_inputs(law)
    return e_q * rho ** n


@closed_form
def mean_r_partial(law: BranchingLaw, n: int) -> float:
    """E[R^(n)] = E[Q] * (1 - rho^(n+1)) / (1 - rho)."""
    if n < 0:
        raise DomainError("horizon n must be >= 0")
    e_q, rho = _mean_inputs(law)
    if rho == 1.0:
        return e_q * (n + 1)
    return e_q * (1.0 - rho ** (n + 1)) / (1.0 - rho)


def _mean_inputs(law: BranchingLaw) -> tuple[float, float]:
    e_q = law.q_dist.mean()
    rho = law.rho_beta(1.0)
    if e_q is None or rho is None:
        raise DomainError("E[Q] or rho not analytically available")
    if math.isinf(e_q) or math.isinf(rho):
        raise DomainError("E[Q] and rho must be finite")
    return e_q, rho


@dataclass(frozen=True)
class TheoryConstants:
    """Everything the verification harness needs from the closed forms."""

    alpha: float
    rho: float
    rho_alpha: float
    e_q: float
    regime: str
    h_n_table: dict[int, float]
    h_limit: float
    eta: float  # admissible geometric decay bound (1 + max(rho, rho_alpha)) / 2


def compute_constants(
    law: BranchingLaw,
    alpha: float,
    n_max: int = 30,
    regime_report: RegimeReport | None = None,
) -> TheoryConstants:
    """Evaluate the regime-appropriate tail constants for a law."""
    report = regime_report if regime_report is not None else validate_regime(law, alpha)
    if report.regime not in (ZN_DOMINATES, Q_DOMINATES):
        raise DomainError(
            f"tail constants are defined for the dominant-tail regimes, got {report.regime}: "
            + "; ".join(report.violated)
        )
    rho, rho_alpha = report.rho, report.rho_alpha
    e_q = law.q_dist.mean()
    if report.regime == ZN_DOMINATES:
        table = {n: h_n_zn(e_q, rho, rho_alpha, alpha, n) for n in range(n_max + 1)}
        limit = h_limit_zn(e_q, rho, rho_alpha, alpha)
    else:
        table = {n: h_n_q(rho_alpha, n) for n in range(n_max + 1)}
        limit = h_limit_q(rho_alpha)
    eta = (1.0 + max(rho, rho_alpha)) / 2.0
    return TheoryConstants(
        alpha=alpha,
        rho=rho,
        rho_alpha=rho_alpha,
        e_q=e_q,
        regime=report.regime,
        h_n_table=table,
        h_limit=limit,
        eta=eta,
    )
