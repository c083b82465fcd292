"""Exception types shared across the package, and the one rule for closed forms that overflow."""

import functools


class TreetailError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TreetailError, ValueError):
    """A parameter or argument is outside its mathematically valid range."""


class ModelMismatch(TreetailError, TypeError):
    """An operation was asked of a branching model it is not defined for."""


class BudgetExceeded(TreetailError, RuntimeError):
    """Exact tree sampling would exceed (or exceeded) the node budget."""


class FingerprintMismatch(TreetailError, ValueError):
    """A pool was produced under a different branching law than the one supplied."""


class DegenerateTail(TreetailError, ValueError):
    """Order statistics needed by a tail estimator are tied or absent."""


class EmptyGrid(TreetailError, ValueError):
    """No grid point satisfies the minimum exceedance requirement."""


class NonPositive(TreetailError, ValueError):
    """A geometric-decay fit was given non-positive values."""


class RegimeMismatch(TreetailError, ValueError):
    """The law's validated tail regime contradicts the scenario's declared one."""


class ConfigError(TreetailError, ValueError):
    """A config document is malformed, has unknown fields, or fails validation."""


class PoolFormatError(TreetailError, ValueError):
    """A pool file is corrupt or has an unsupported magic/version."""


def closed_form(fn):
    """``fn``, with the ``OverflowError`` of Python's float math raised as ``DomainError``."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            method = "." in fn.__qualname__  # a method's call is shown on its instance
            owner = f"{args[0]!r}." if method else ""
            shown = ", ".join([*map(repr, args[method:]), *(f"{k}={v!r}" for k, v in kwargs.items())])
            raise DomainError(f"{owner}{fn.__name__}({shown}) overflows a float") from None
    return checked
