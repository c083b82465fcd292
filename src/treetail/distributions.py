"""Scalar distribution primitives.

Every law here exposes the same small surface: inverse-CDF sampling from a
single uniform per draw (so runs are reproducible and quantile-coupled across
scenarios), an exact complementary CDF, and analytic power moments
``E[X^beta]``.

Moments follow a three-way convention:

* a finite float when a closed form (or rigorously bounded summation) exists;
  ``ZetaTail`` sums its first 2^16 terms exactly and closes the rest as a
  series of Hurwitz zeta tails (Euler-Maclaurin), in plain ``math``/numpy,
* ``math.inf`` as an explicit infinite marker when ``beta`` reaches the tail
  index of a regularly varying law (never a floating overflow),
* ``None`` when no closed form is available (e.g. fractional moments of a
  shifted law).

Regular variation is modeled with constant slowly varying part only: a law
either has ``tail_index() is None`` (all power moments finite) or satisfies
``P(X > x) ~ tail_scale() * x**(-tail_index())``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import records
from .errors import DomainError, closed_form

__all__ = [
    "Distribution",
    "Constant",
    "Uniform",
    "Exponential",
    "Pareto",
    "ZetaTail",
    "LogNormal",
    "Shifted",
    "dist_from_json",
]

# Exact summation horizon K for ZetaTail moments. Past it the summand is
# expanded in powers of 1/k, and each power sums to a Hurwitz zeta tail
# zeta(s, K) closed by Euler-Maclaurin; the result is within a few ulps.
_ZETA_HEAD_TERMS = 1 << 16


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _power_into(u: np.ndarray, exponent: float) -> np.ndarray:
    """``u ** exponent`` written into ``u``.

    A 0-d ``u`` goes through numpy's scalar power, which can differ from the
    array loop in the last bit, so a scalar quantile keeps the value it had
    when it was computed on a numpy scalar.
    """
    if u.ndim == 0:
        u[()] = u[()] ** exponent
    else:
        u **= exponent
    return u


class Distribution:
    """Common behavior for all scalar laws."""

    kind: str = "base"

    # -- sampling -----------------------------------------------------------
    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """The generalized inverse CDF written into the float array ``u``, which is returned."""
        raise NotImplementedError

    def quantile(self, u):
        """Generalized inverse CDF, vectorized over ``u`` in [0, 1); ``u`` is left unchanged."""
        arr = np.array(u, dtype=float)  # a copy: the inverse CDF writes into it
        return _maybe_scalar(self._inverse_cdf(arr), arr.ndim == 0)

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``quantile(rng.random(size))``, computed in the array of uniforms itself.

        The result and the generator state afterwards are bit for bit those
        of ``quantile(rng.random(size))``; no second array is allocated. The
        result may be a read-only view, so a caller that writes into it
        must check that it is writable.
        """
        return self._inverse_cdf(rng.random(int(size)))

    # -- analytics ----------------------------------------------------------
    def ccdf(self, x):
        """P(X > x), exact, vectorized over ``x``."""
        raise NotImplementedError

    def moment(self, beta: float):
        """E[X^beta]; float, ``math.inf`` marker, or None (no closed form)."""
        raise NotImplementedError

    def mean(self):
        return self.moment(1.0)

    def moment_is_finite(self, beta: float) -> bool:
        """Whether E[|X|^beta] < infinity, decided analytically (beta > 0)."""
        idx = self.tail_index()
        return idx is None or beta < idx

    # -- structure ----------------------------------------------------------
    def support_min(self) -> float:
        raise NotImplementedError

    def tail_index(self):
        """Regular-variation index of P(X > x), or None for lighter tails."""
        return None

    def tail_scale(self):
        """c with P(X > x) ~ c * x**(-tail_index()), or None."""
        return None

    def is_integer_valued(self) -> bool:
        return False

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        return {"kind": self.kind, "params": records.fields_json(self)}


@dataclass(frozen=True)
class Constant(Distribution):
    value: float
    kind = "constant"

    def _inverse_cdf(self, u):
        u.fill(self.value)
        return u

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` copies of the value; ``rng`` ends where ``rng.random(size)`` leaves it.

        The copies are a read-only view of one value, so no array of
        ``size`` values is allocated. A PCG64 stream is advanced ``size``
        steps and draws nothing. That is exact because each double of
        ``rng.random`` takes one whole 64-bit output and never reads the
        buffered 32-bit half, which ``advance`` clears and which is put back
        here. Any other bit generator draws the uniforms and drops them.
        """
        values = np.broadcast_to(float(self.value), int(size))
        bits = rng.bit_generator
        if type(bits) is not np.random.PCG64:
            rng.random(values.size)
            return values
        state = bits.state
        bits.advance(values.size)
        if state["has_uint32"]:
            after = bits.state
            after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
            bits.state = after
        return values

    def ccdf(self, x):
        x, scalar = _prepare(x)
        return _maybe_scalar((x < self.value).astype(float), scalar)

    @closed_form
    def moment(self, beta):
        c = self.value
        if beta == 0:
            return 1.0
        if c > 0:
            return float(c) ** beta
        if c == 0:
            return 0.0 if beta > 0 else math.inf
        if float(beta).is_integer():
            return c ** int(beta)
        return None

    def support_min(self):
        return float(self.value)

    def is_integer_valued(self):
        return float(self.value).is_integer()


@dataclass(frozen=True)
class Uniform(Distribution):
    low: float
    high: float
    kind = "uniform"

    def __post_init__(self):
        if not self.low < self.high:
            raise DomainError("uniform law needs low < high")

    def _inverse_cdf(self, u):
        u *= self.high - self.low
        u += self.low
        return u

    def ccdf(self, x):
        x, scalar = _prepare(x)
        frac = (self.high - x) / (self.high - self.low)
        return _maybe_scalar(np.clip(frac, 0.0, 1.0), scalar)

    @closed_form
    def moment(self, beta):
        a, b = self.low, self.high
        if beta == 1:
            return (a + b) / 2.0
        if a < 0:
            if float(beta).is_integer() and beta > 0:
                k = int(beta)
                return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
            return None
        if a == 0 and beta <= -1:
            return math.inf
        if beta == -1:
            return math.log(b / a) / (b - a)
        return (b ** (beta + 1) - a ** (beta + 1)) / ((beta + 1) * (b - a))

    def support_min(self):
        return float(self.low)


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float
    kind = "exponential"

    def __post_init__(self):
        if not self.rate > 0:
            raise DomainError("exponential rate must be positive")

    def _inverse_cdf(self, u):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u /= self.rate
        return u

    def ccdf(self, x):
        x, scalar = _prepare(x)
        return _maybe_scalar(np.where(x < 0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0))), scalar)

    @closed_form
    def moment(self, beta):
        if beta <= -1:
            return math.inf
        return math.gamma(beta + 1.0) * self.rate ** (-beta)

    # not moment(1.0): gamma(2) * rate**-1 can differ from 1 / rate in the
    # last bit (2.0040080160320644 against 2.004008016032064 at rate 0.499)
    def mean(self):
        return 1.0 / self.rate

    def support_min(self):
        return 0.0


@dataclass(frozen=True)
class Pareto(Distribution):
    """P(X > x) = (x / x_min)**(-alpha) for x >= x_min."""

    alpha: float
    x_min: float
    kind = "pareto"

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("pareto tail index must be positive")
        if not self.x_min > 0:
            raise DomainError("pareto scale must be positive")

    def _inverse_cdf(self, u):
        np.subtract(1.0, u, out=u)
        _power_into(u, -1.0 / self.alpha)
        u *= self.x_min
        return u

    def ccdf(self, x):
        x, scalar = _prepare(x)
        out = np.where(x < self.x_min, 1.0, (np.maximum(x, self.x_min) / self.x_min) ** (-self.alpha))
        return _maybe_scalar(out, scalar)

    @closed_form
    def moment(self, beta):
        if beta >= self.alpha:
            return math.inf
        return self.alpha * self.x_min ** beta / (self.alpha - beta)

    def support_min(self):
        return float(self.x_min)

    def tail_index(self):
        return float(self.alpha)

    @closed_form
    def tail_scale(self):
        return float(self.x_min ** self.alpha)


def _hurwitz_zeta_tail(s: float, start: int) -> float:
    """zeta(s, start) = sum_{k>=start} k^-s for s > 1, by Euler-Maclaurin.

    The integral and the half end term carry the value, followed by the B_2
    and B_4 corrections; the first omitted (B_6) term is smaller than the
    leading one by about s^6 / (30240 start^6), below 1e-18 for s < 300 at
    start = 2^16.
    """
    out = start ** (1.0 - s) / (s - 1.0) + start ** -s / 2.0
    out += s * start ** (-s - 1.0) / 12.0
    out -= s * (s + 1.0) * (s + 2.0) * start ** (-s - 3.0) / 720.0
    return out


@dataclass(frozen=True)
class ZetaTail(Distribution):
    """Discrete power law on {1, 2, ...} with P(X > k) = (1 + k)**(-alpha).

    Note P(X > 0) = 1, so the law never takes the value 0; its probability
    mass is p(k) = k**(-alpha) - (k+1)**(-alpha) for k >= 1.
    """

    alpha: float
    kind = "zeta_tail"

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("zeta tail index must be positive")

    def _inverse_cdf(self, u):
        # Smallest k with (1+k)^-alpha <= 1-u; the max() guards the u == 0.0
        # float artifact (the law itself puts no mass at 0).
        np.subtract(1.0, u, out=u)
        _power_into(u, -1.0 / self.alpha)
        u -= 1.0
        np.ceil(u, out=u)
        np.maximum(u, 1.0, out=u)
        return u

    def ccdf(self, x):
        x, scalar = _prepare(x)
        out = np.where(x < 0, 1.0, (1.0 + np.floor(np.maximum(x, 0.0))) ** (-self.alpha))
        return _maybe_scalar(out, scalar)

    def moment(self, beta):
        if beta == 0:
            return 1.0
        if beta >= self.alpha:
            return math.inf
        # Summation by parts against P(N >= k) = k^-alpha: the k = 1 term is
        # 1^beta = 1 for every beta, and the boundary term n^beta P(N > n)
        # vanishes because beta < alpha.
        a = self.alpha
        k = np.arange(2, _ZETA_HEAD_TERMS, dtype=float)
        if max(abs(beta), a) * math.log2(_ZETA_HEAD_TERMS) < 1000.0:
            head = math.fsum((k ** beta - (k - 1.0) ** beta) * k ** -a)
        else:
            # k^beta or k^-a would leave the float range, so each term is
            # factored into powers no larger than 1:
            # k^beta - (k-1)^beta = -k^beta expm1(beta log1p(-1/k))
            #                     = (k-1)^beta expm1(-beta log1p(-1/k))
            step = np.log1p(-1.0 / k)
            if beta > 0:
                head = math.fsum(-np.expm1(beta * step) * k ** (beta - a))
            else:
                head = math.fsum(np.expm1(-beta * step) * (k - 1.0) ** beta * k ** -a)
        # Past the head, k^beta - (k-1)^beta = sum_j coef_j k^(beta-j) with
        # coef_j = (-1)^(j+1) binom(beta, j), so each j adds one Hurwitz tail
        # about 2^-16 the size of the one before; the loop stops once a term
        # no longer moves the sum. An integer beta ends the series exactly,
        # since coef_j = 0 for j > beta.
        tail = 0.0
        coef = beta
        for j in range(1, 16):
            term = coef * _hurwitz_zeta_tail(a - beta + j, _ZETA_HEAD_TERMS)
            tail += term
            if abs(term) <= 1e-17 * abs(tail):
                break
            coef *= (j - beta) / (j + 1.0)
        return 1.0 + head + tail

    def support_min(self):
        return 1.0

    def is_integer_valued(self):
        return True

    def tail_index(self):
        return float(self.alpha)

    def tail_scale(self):
        # (1 + floor(x))^-alpha ~ x^-alpha with constant 1.
        return 1.0


@dataclass(frozen=True)
class LogNormal(Distribution):
    mu: float
    sigma: float
    kind = "lognormal"

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError("lognormal sigma must be positive")

    # scipy is imported here, not at module level: it is the package's
    # largest import, and no other law needs it.
    def _inverse_cdf(self, u):
        from scipy import special

        np.clip(u, 1e-300, None, out=u)
        special.ndtri(u, out=u)
        u *= self.sigma
        u += self.mu
        np.exp(u, out=u)
        return u

    def ccdf(self, x):
        from scipy import special

        x, scalar = _prepare(x)
        out = np.where(x <= 0, 1.0, special.ndtr((self.mu - np.log(np.maximum(x, 1e-300))) / self.sigma))
        return _maybe_scalar(out, scalar)

    @closed_form
    def moment(self, beta):
        return math.exp(self.mu * beta + 0.5 * self.sigma ** 2 * beta ** 2)

    def support_min(self):
        return 0.0


@dataclass(frozen=True)
class Shifted(Distribution):
    """Law of X + offset for an inner law of X.

    This is the one escape hatch for mass below zero (negative offsets),
    which some additive-input laws need.  Fractional moments of a shifted
    law have no closed form in general and report None.
    """

    inner: Distribution
    offset: float
    kind = "shifted"

    def _inverse_cdf(self, u):
        u = self.inner._inverse_cdf(u)
        u += self.offset
        return u

    def ccdf(self, x):
        x, scalar = _prepare(x)
        return _maybe_scalar(np.asarray(self.inner.ccdf(x - self.offset), dtype=float), scalar)

    @closed_form
    def moment(self, beta):
        if beta == 1:
            return self.mean()
        if self.offset == 0:
            return self.inner.moment(beta)
        if float(beta).is_integer() and beta > 1:
            k = int(beta)
            inner_moments = [1.0] + [self.inner.moment(j) for j in range(1, k + 1)]
            if any(m is None for m in inner_moments):
                return None
            if any(math.isinf(m) for m in inner_moments):
                return math.inf if self.offset >= 0 and self.support_min() >= 0 else None
            return math.fsum(
                math.comb(k, j) * self.offset ** (k - j) * inner_moments[j] for j in range(k + 1)
            )
        return None

    def mean(self):
        m = self.inner.mean()
        if m is None:
            return None
        return m + self.offset if not math.isinf(m) else m

    def moment_is_finite(self, beta):
        return self.inner.moment_is_finite(beta)

    def support_min(self):
        return self.inner.support_min() + self.offset

    def is_integer_valued(self):
        return self.inner.is_integer_valued() and float(self.offset).is_integer()

    def tail_index(self):
        return self.inner.tail_index()

    def tail_scale(self):
        # A shift does not change the leading power-law constant.
        return self.inner.tail_scale()


_KINDS = {cls.kind: cls for cls in (Constant, Uniform, Exponential, Pareto, ZetaTail, LogNormal, Shifted)}


def dist_from_json(doc: dict) -> Distribution:
    """Parse a {"kind": ..., "params": {...}} document, rejecting unknown fields and non-finite numbers."""
    return records.from_tagged(doc, "kind", _KINDS, "distribution", dist_from_json)
