"""Exception taxonomy for the package, the one refusal of a grid that
meets a singular point, and the one refusal of a value out of the float
range.

Argument and domain problems derive from ValueError so they read naturally
at call sites; algorithmic failures derive from RuntimeError.
"""

import math

import numpy as np

__all__ = [
    "ArgumentError",
    "DomainError",
    "PoleError",
    "SingularityError",
    "BranchCutError",
    "ConstructionError",
    "ConsistencyError",
    "ConvergenceError",
    "EvaluationError",
]


class ArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValueError):
    """Evaluation requested outside a function's regular domain."""


class PoleError(DomainError):
    """Evaluation exactly at a pole of a special function."""


class SingularityError(DomainError):
    """Evaluation at, or on a path through, a singular point."""


class BranchCutError(DomainError):
    """A complex-shift convention would cross a branch cut."""


class ConstructionError(RuntimeError):
    """A linear-algebra construction did not produce the expected structure."""


class ConsistencyError(RuntimeError):
    """A cross-check that should hold for valid inputs failed."""


class ConvergenceError(RuntimeError):
    """An iterative scheme exhausted its refinement or iteration budget."""


class EvaluationError(RuntimeError):
    """An integrand or evaluator returned a non-finite value."""


def refuse_where(mask, x, error: type, what: str) -> None:
    """Raise ``error("<what> at x = <x0>")`` if ``mask`` holds anywhere,
    with x0 the real part of the first point of ``x`` where it does;
    ``mask`` has the shape of ``x``."""
    mask = np.atleast_1d(mask)
    if mask.any():
        first = np.atleast_1d(np.real(x))[mask][0]
        raise error(f"{what} at x = {float(first):g}")


def refuse_overflow(compute, error: type, what: str):
    """``compute()``, a float or an array of them, or
    ``error("<what> is out of the float range")`` where it overflows: by
    raising OverflowError, or by returning an inf or a NaN anywhere."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not np.isfinite(value).all():
        raise error(f"{what} is out of the float range")
    return value
