"""Branching laws: the joint distribution of a root vector (Q, N, C_1..C_N).

A branching law describes one node of a weighted tree: an additive input Q,
a child count N, and child weights C_1..C_N.  Four model families are
provided; each draws root vectors in batches and exposes the laws of Q and N
as ``q_dist`` and ``n_dist``.  The weight facts that decide the
tail-asymptotic regime at an index alpha (rho_beta = E[sum_i C_i^beta], E[C],
and the tail of Z_N = sum_i C_i) follow one rule in ``BranchingLaw`` for the
three families whose weights are i.i.d. and independent of N: each gives
only E[C^beta] and the tail index of one weight.  ``InverseN``, whose
weights depend on N, gives the facts itself.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import records
from .distributions import Constant, Distribution, dist_from_json
from .errors import DomainError, closed_form

__all__ = [
    "RootBatch",
    "BranchingLaw",
    "IndependentIID",
    "DeterministicWeight",
    "PageRankLike",
    "InverseN",
    "RegimeReport",
    "law_from_json",
    "node_sums",
    "rho_beta_mc",
    "validate_regime",
    "ZN_DOMINATES",
    "Q_DOMINATES",
    "KESTEN_CRITICAL",
    "SUBCRITICAL_LIGHT",
    "INVALID",
]

ZN_DOMINATES = "ZN_DOMINATES"
Q_DOMINATES = "Q_DOMINATES"
KESTEN_CRITICAL = "KESTEN_CRITICAL"
SUBCRITICAL_LIGHT = "SUBCRITICAL_LIGHT"
INVALID = "INVALID"

_KESTEN_TOL = 1e-9
_INDEX_TOL = 1e-9
# the margin above alpha at which the theorems ask for finite moments
EPSILON = 0.5


class RootBatch(NamedTuple):
    """Root vectors for many nodes, weights flattened in node order.

    Each array may be a read-only view, such as the copies of a constant,
    so a caller that writes into one must check that it is writable.
    """

    q: np.ndarray
    n: np.ndarray
    weights: np.ndarray


def _check_n_dist(n_dist: Distribution):
    if not n_dist.is_integer_valued():
        raise DomainError("child-count law must be integer valued")
    if n_dist.support_min() < 0:
        raise DomainError("child-count law must be non-negative")


def _check_q_dist(q_dist: Distribution, c: float = 0.0):
    """The additive input must not be identically zero; a weight constant ``c`` must be non-negative."""
    if c < 0:
        raise DomainError("weight constant must be non-negative")
    if isinstance(q_dist, Constant) and q_dist.value == 0:
        raise DomainError("additive input must not be identically zero")


class BranchingLaw:
    """Common behavior for the four root-vector model families.

    Every family exposes ``q_dist`` and ``n_dist``, the laws of the additive
    input Q and of the child count N; the Q and N facts are read from them.
    """

    model: str = "base"

    # -- sampling -----------------------------------------------------------
    def draw_roots(self, size: int, rng: np.random.Generator) -> RootBatch:
        raise NotImplementedError

    # -- analytic moments -----------------------------------------------------
    def q_plus_moment(self, beta: float):
        """E[(Q^+)^beta] for the moment bound: closed form when Q >= 0, else quadrature."""
        q_dist = self.q_dist
        if q_dist.support_min() >= 0:
            return q_dist.moment(beta)
        if not q_dist.moment_is_finite(beta):
            return math.inf
        from scipy import integrate

        value, _ = integrate.quad(
            lambda x: beta * x ** (beta - 1.0) * float(q_dist.ccdf(x)), 0.0, np.inf, limit=200
        )
        return value

    # -- the law of one weight ------------------------------------------------
    # A family whose weights are i.i.d. and independent of N gives the law of
    # one weight C through these two hooks; the weight facts below follow
    # from them and from n_dist. A family whose weights depend on N
    # overrides the facts instead.
    def _c_moment(self, beta: float):
        """E[C^beta] of one weight; float, math.inf, or None when unavailable."""
        return None

    def _c_tail_index(self):
        """Regular-variation index of one weight, or None for a lighter tail."""
        return None

    # -- weight facts ---------------------------------------------------------
    @closed_form
    def rho_beta(self, beta: float):
        """E[sum_i C_i^beta] = E[N] E[C^beta]; float, math.inf, or None when unavailable."""
        e_n = self.n_dist.moment(1)
        e_cb = self._c_moment(beta)
        if e_n is None or e_cb is None:
            return None
        if e_cb == 0 or e_n == 0:
            return 0.0
        if math.isinf(e_n) or math.isinf(e_cb):
            return math.inf
        return e_n * e_cb

    def mean_c(self):
        """E[C_1] for models whose weights are i.i.d. and independent of N, else None."""
        return self._c_moment(1.0)

    def zn_tail_index(self):
        """Regular-variation index of Z_N = sum_i C_i, or None.

        The heavier of N and C sets it; when every weight is 0, Z_N = 0 has none.
        """
        if self.mean_c() == 0:
            return None
        indices = (self.n_dist.tail_index(), self._c_tail_index())
        return min((i for i in indices if i is not None), default=None)

    @closed_form
    def zn_tail_scale(self):
        """c with P(Z_N > x) ~ c x^-index, or None when no closed form applies."""
        # Only the count-dominant case (heavy N, lighter C) has the clean
        # weighted-sum constant (E C)^alpha * scale(N).
        n_idx = self.n_dist.tail_index()
        c_idx = self._c_tail_index()
        if n_idx is None or (c_idx is not None and c_idx <= n_idx):
            return None
        e_c = self.mean_c()
        if e_c is None or math.isinf(e_c) or e_c == 0:
            return None
        return e_c ** n_idx * self.n_dist.tail_scale()

    def zn_moment_finite(self, beta: float) -> bool:
        """Whether E[Z_N^beta] < infinity: beta lies below Z_N's index, if it has one."""
        idx = self.zn_tail_index()
        return idx is None or beta < idx

    # -- serialization --------------------------------------------------------
    def to_json(self) -> dict:
        return {"model": self.model, "params": records.fields_json(self)}

    def fingerprint(self) -> str:
        return self._fingerprint

    # computed once per law, though every evolve step checks it: computed
    # per step, its small allocations put verify-zn's peak RSS in its 5 MB
    # higher heap mode at 10 of 11 checkout path lengths on a 2-vCPU box
    @functools.cached_property
    def _fingerprint(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _draw_counts(n_dist: Distribution, size: int, rng: np.random.Generator) -> np.ndarray:
    return np.asarray(n_dist.sample_many(rng, size), dtype=np.int64)


@dataclass(frozen=True)
class IndependentIID(BranchingLaw):
    """Q, N and the C_i all independent; weights i.i.d. from c_dist."""

    q_dist: Distribution
    n_dist: Distribution
    c_dist: Distribution
    model = "independent_iid"

    def __post_init__(self):
        _check_n_dist(self.n_dist)
        if self.c_dist.support_min() < 0:
            raise DomainError("weight law must be non-negative")
        _check_q_dist(self.q_dist)

    def draw_roots(self, size, rng):
        q = self.q_dist.sample_many(rng, size)
        n = _draw_counts(self.n_dist, size, rng)
        weights = self.c_dist.sample_many(rng, int(n.sum()))
        return RootBatch(q, n, weights)

    def _c_moment(self, beta):
        return self.c_dist.moment(beta)

    def _c_tail_index(self):
        return self.c_dist.tail_index()

    def mean_c(self):
        # the law's own mean, whose bits can differ from moment(1.0)'s
        return self.c_dist.mean()


@dataclass(frozen=True)
class DeterministicWeight(BranchingLaw):
    """All child weights equal a fixed constant c."""

    q_dist: Distribution
    n_dist: Distribution
    c: float
    model = "deterministic_weight"

    def __post_init__(self):
        _check_n_dist(self.n_dist)
        _check_q_dist(self.q_dist, self.c)

    def draw_roots(self, size, rng):
        q = self.q_dist.sample_many(rng, size)
        n = _draw_counts(self.n_dist, size, rng)
        weights = np.broadcast_to(float(self.c), int(n.sum()))
        return RootBatch(q, n, weights)

    def _c_moment(self, beta):
        return self.c ** beta


@dataclass(frozen=True)
class PageRankLike(BranchingLaw):
    """Q = 1 - d fixed, weights C_i = d / D_i with i.i.d. out-degrees D_i >= 1."""

    d: float
    n_dist: Distribution
    out_dist: Distribution
    model = "pagerank_like"

    def __post_init__(self):
        if not 0 < self.d < 1:
            raise DomainError("damping factor must lie in (0, 1)")
        _check_n_dist(self.n_dist)
        if not self.out_dist.is_integer_valued() or self.out_dist.support_min() < 1:
            raise DomainError("out-degree law must be integer valued with support >= 1")

    @property
    def q_dist(self) -> Distribution:
        return Constant(1 - self.d)

    def draw_roots(self, size, rng):
        q = np.broadcast_to(1.0 - self.d, size)
        n = _draw_counts(self.n_dist, size, rng)
        degrees = self.out_dist.sample_many(rng, int(n.sum()))
        return RootBatch(q, n, self.d / degrees)

    def _c_moment(self, beta):
        # 1/D_i is bounded in (0, 1], so C has no tail index and Z_N inherits N's
        e_d = self.out_dist.moment(-beta)
        return None if e_d is None else self.d ** beta * e_d


@dataclass(frozen=True)
class InverseN(BranchingLaw):
    """Weights C_i = c / max(N, 1)**gamma, fully determined by the child count."""

    q_dist: Distribution
    n_dist: Distribution
    c: float
    gamma: float
    model = "inverse_n"

    def __post_init__(self):
        _check_n_dist(self.n_dist)
        _check_q_dist(self.q_dist, self.c)
        if self.gamma < 0:
            raise DomainError("exponent gamma must be non-negative")

    def draw_roots(self, size, rng):
        q = self.q_dist.sample_many(rng, size)
        n = _draw_counts(self.n_dist, size, rng)
        per_node = self.c / np.maximum(n, 1).astype(float) ** self.gamma
        return RootBatch(q, n, np.repeat(per_node, n))

    def _n_restricted_moment(self, power: float):
        """E[N^power ; N >= 1], the factor in rho_beta for this model."""
        nd = self.n_dist
        if isinstance(nd, Constant):
            m = int(nd.value)
            return 0.0 if m == 0 else float(m) ** power
        if nd.support_min() >= 1:  # e.g. ZetaTail: no restriction is needed
            return 1.0 if power == 0 else nd.moment(power)
        return None

    @closed_form
    def rho_beta(self, beta):
        if self.c == 0:
            return 0.0
        m = self._n_restricted_moment(1.0 - self.gamma * beta)
        if m is None:
            return None
        if math.isinf(m):
            return math.inf
        return self.c ** beta * m

    def zn_tail_index(self):
        # Z_N = c * N^(1-gamma) on {N >= 1}: a power tail only when gamma < 1.
        n_idx = self.n_dist.tail_index()
        if n_idx is None or self.c == 0 or self.gamma >= 1:
            return None
        return n_idx / (1.0 - self.gamma)

    @closed_form
    def zn_tail_scale(self):
        idx = self.zn_tail_index()
        if idx is None:
            return None
        return self.c ** idx * self.n_dist.tail_scale()

    def zn_moment_finite(self, beta):
        if self.c == 0 or self.gamma >= 1:
            return True
        return self.n_dist.moment_is_finite((1.0 - self.gamma) * beta)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def node_sums(law: BranchingLaw, rng: np.random.Generator, out: np.ndarray,
              terms=None, add_q: bool = True) -> np.ndarray:
    """The node step: ``out.size`` draws of  Q + sum_{i<=N} C_i Y_i (no Q unless ``add_q``) into ``out``.

    After the roots, ``terms(rng, weights)`` turns the flat child weights into
    the child terms, drawing any Y; ``None`` keeps the weights, as for Z_N.
    The roots may be read-only views, so ``terms`` writes into a buffer of
    its own, such as that of its Y, and never into the weights. Each
    temporary is dropped once spent, and IEEE + and * commute, so every
    value keeps the bits of  bincount(idx, terms(weights)) + q.
    Against that out-of-place form (10 alternating perfbench pairs, 2-vCPU
    box) verify-q's peak RSS fell from 92.8 to 81.8 MB (BENCH_21.json), and
    a 2M-sum sum-appendix run's traced peak from 9.03 to 7.26 MB.

    The child terms are summed per node on one of two paths, chosen from
    the drawn counts: when every node has the same k >= 1 children (k * m
    terms and no count below k), as k column adds of the (m, k) terms onto
    0.0; otherwise as ``bincount(repeat(arange(m), n), terms)``. bincount
    adds each term in order onto its node's sum, which starts at 0.0, so
    both paths make the same additions in the same order and give the
    same bits, signed zeros included.
    """
    m = out.size
    q, n, weights = law.draw_roots(m, rng)
    if add_q:
        out[:] = q
    del q
    if terms is not None:
        weights = terms(rng, weights)
    k = int(n[0]) if m else 0
    if k and k * m == weights.size and n.min() == k:
        del n
        cols = weights.reshape(m, k)
        sums = cols[:, 0] + 0.0
        for c in range(1, k):
            sums += cols[:, c]
        del cols
    else:
        idx = np.repeat(np.arange(m), n)
        del n
        # out is float64, so an int64 bincount of empty weights casts into it
        sums = np.bincount(idx, weights=weights, minlength=m)
        del idx
    del weights
    if add_q:
        out += sums
    else:
        out[:] = sums
    return out


def sample_zn_many(law: BranchingLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws of Z_N under the law."""
    return node_sums(law, rng, np.empty(size), add_q=False)


def rho_beta_mc(law: BranchingLaw, beta: float, draws: int, rng: np.random.Generator):
    """Monte Carlo rho_beta estimate; returns (estimate, standard_error)."""
    if beta <= 0:
        raise DomainError("rho_beta is defined for beta > 0")
    if draws < 2:
        raise DomainError("need at least 2 draws")
    sums = node_sums(law, rng, np.empty(draws), lambda rng, w: np.power(w, beta), add_q=False)
    return float(sums.mean()), float(sums.std(ddof=1) / math.sqrt(draws))


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of checking a law against the tail-theorem hypotheses."""

    alpha: float
    rho: float | None
    rho_alpha: float | None
    regime: str
    violated: tuple[str, ...]


def validate_regime(law: BranchingLaw, alpha: float) -> RegimeReport:
    """Classify which tail regime the law falls in at index alpha.

    The classification mirrors the hypotheses of the two dominant-tail
    theorems: ZN_DOMINATES when the total child weight carries the power
    tail and the additive input is lighter, Q_DOMINATES for the mirror
    image, KESTEN_CRITICAL when rho_alpha sits at 1 (where the constant
    would degenerate and an entirely different theory applies), and
    SUBCRITICAL_LIGHT when neither component is regularly varying. The
    moment conditions are checked at alpha + ``EPSILON``.
    """
    if alpha <= 1:
        raise DomainError("tail index alpha must exceed 1")

    rho = law.rho_beta(1.0)
    rho_alpha = law.rho_beta(alpha)
    if rho is None or rho_alpha is None:
        return RegimeReport(alpha, rho, rho_alpha, INVALID,
                            ("rho or rho_alpha not analytically available",))

    if abs(rho_alpha - 1.0) <= _KESTEN_TOL:
        return RegimeReport(alpha, rho, rho_alpha, KESTEN_CRITICAL,
                            ("rho_alpha = 1 excluded (implicit-renewal critical point)",))

    violated: list[str] = []
    if math.isinf(rho) or rho >= 1:
        violated.append("rho >= 1")
    if math.isinf(rho_alpha) or rho_alpha > 1:
        violated.append("rho_alpha > 1")
    if violated:
        return RegimeReport(alpha, rho, rho_alpha, INVALID, tuple(violated))

    zn_idx = law.zn_tail_index()
    q_idx = law.q_dist.tail_index()

    zn_viol: list[str] = []
    if zn_idx is None:
        zn_viol.append("Z_N is not regularly varying")
    elif abs(zn_idx - alpha) > _INDEX_TOL:
        zn_viol.append(f"Z_N tail index {zn_idx:g} != alpha {alpha:g}")
    else:
        if not law.q_dist.moment_is_finite(alpha + EPSILON):
            zn_viol.append("E[|Q|^(alpha+epsilon)] infinite")
        q_mean = law.q_dist.mean()
        if q_mean is None or math.isinf(q_mean) or q_mean <= 0:
            zn_viol.append("E[Q] <= 0 or unavailable")
        rho_eps = law.rho_beta(alpha + EPSILON)
        if rho_eps is None or math.isinf(rho_eps):
            zn_viol.append("rho_(alpha+epsilon) infinite or unavailable")
    if not zn_viol:
        return RegimeReport(alpha, rho, rho_alpha, ZN_DOMINATES, ())

    q_viol: list[str] = []
    if q_idx is None:
        q_viol.append("Q is not regularly varying")
    elif abs(q_idx - alpha) > _INDEX_TOL:
        q_viol.append(f"Q tail index {q_idx:g} != alpha {alpha:g}")
    else:
        if not law.zn_moment_finite(alpha + EPSILON):
            q_viol.append("E[Z_N^(alpha+epsilon)] infinite")
    if not q_viol:
        return RegimeReport(alpha, rho, rho_alpha, Q_DOMINATES, ())

    if zn_idx is None and q_idx is None:
        return RegimeReport(alpha, rho, rho_alpha, SUBCRITICAL_LIGHT, ())

    return RegimeReport(alpha, rho, rho_alpha, INVALID, tuple(zn_viol + q_viol))


_MODELS = {cls.model: cls for cls in (IndependentIID, DeterministicWeight, PageRankLike, InverseN)}


def law_from_json(doc: dict) -> BranchingLaw:
    """Parse a {"model": ..., "params": {...}} document, rejecting unknown fields and non-finite numbers."""
    return records.from_tagged(doc, "model", _MODELS, "law", dist_from_json)
