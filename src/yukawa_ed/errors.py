"""Exception types shared across the package.

The CLI maps these onto process exit codes, so new error conditions should
reuse one of the classes below rather than raising bare ValueError.
"""

import math
from decimal import Decimal
from typing import Optional


def size_text(n) -> str:
    """A size in full below 1e15, else in short form such as ``~1.9e+1611``."""
    return str(n) if n < 10**15 else f"~{Decimal(n):.1e}"


class ParameterError(ValueError):
    """Invalid physical or numerical parameter (non-positive mass, bad cap, ...)."""


def as_integer(value, name: str = "", low: Optional[int] = None) -> int:
    """An integral number, or a numeric string of one, as int; anything else, or one below ``low``, raises."""
    if type(value) is not int:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if isinstance(value, bool) or not number.is_integer():
            raise ParameterError(f"{name + ' must be' if name else 'expected'} an integer, got {value!r}")
        value = int(number)
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    return value


def check_seed(seed) -> int:
    """The seed as int; one that ``numpy.random.default_rng`` cannot take raises."""
    return as_integer(seed, "seed", 0)


def check_iteration(tol, max_iter) -> int:
    """``max_iter`` as int; a negative (or NaN) ``tol`` and a ``max_iter`` below 1 raise before an iterative solve."""
    if not tol >= 0:
        raise ParameterError(f"tol must be >= 0, got {tol}")
    return as_integer(max_iter, "max_iter", 1)


class CapacityError(RuntimeError):
    """A requested object would exceed a configured size cap.

    Carries the projected size so callers can report it (``size_text``
    shortens a huge one).
    """

    def __init__(self, message, projected=None, cap=None):
        super().__init__(message)
        self.projected = projected
        self.cap = cap


class EvaluationError(ValueError):
    """A sampled function returned a non-finite value at a lattice point."""


class LatticeMismatchError(ValueError):
    """Coefficients and operator target live on different lattices."""


class AssemblyError(RuntimeError):
    """Assembled operator violates a structural invariant (e.g. hermiticity)."""


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to reach the requested residual.

    ``best_residual`` holds the smallest residual achieved; ``partial``
    optionally carries partial scan results.
    """

    def __init__(self, message, best_residual=None, partial=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.partial = partial


class ConfigError(ValueError):
    """Run configuration failed to parse or validate."""
