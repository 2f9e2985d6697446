"""Exception types shared across the package, and the scalar input checks
that raise them.  The checks are package helpers, imported by name and in
no ``__all__``."""

import math
import numbers

__all__ = [
    "QwalkError",
    "InvalidParameterError",
    "InvalidStateError",
    "DegenerateSpectrumError",
    "PreconditionError",
]


class QwalkError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(QwalkError, ValueError):
    """A numeric parameter is outside its admissible range."""


class InvalidStateError(QwalkError, ValueError):
    """An initial chirality state fails its normalization contract."""


class DegenerateSpectrumError(QwalkError, ArithmeticError):
    """Kernel eigenvalues are too close in phase to separate branches reliably.

    Raised instead of silently perturbing the wavenumber node; the caller
    decides how to move off the degenerate set.
    """


class PreconditionError(QwalkError, ValueError):
    """An operation was called with inputs outside its documented domain."""


def require_int(value, name: str, minimum: int | None = 0) -> int:
    """Return ``value`` as an int if it is an integer ``>= minimum``.

    Bools and non-integral numbers such as 2.7 are rejected rather than
    truncated; numpy integer scalars are accepted.  ``minimum=None`` admits
    any integer.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


# the largest time: a lattice block, 4 (t + 1)^2 complex128 values, is still
# addressable at 2**28 (numpy raises MemoryError) and no longer at 2**29
_MAX_TIME = 2**28


def require_time(value, name: str, minimum: int = 0) -> int:
    """Return ``value`` as an int if it is an integer in ``[minimum, 2**28]``,
    checked by :func:`require_int`; a request below the bound that does not
    fit in memory still raises numpy's ``MemoryError``."""
    t = require_int(value, name, minimum)
    if t > _MAX_TIME:
        raise InvalidParameterError(f"{name} must be <= {_MAX_TIME}, got {t}")
    return t


def require_ladder(ladder, name: str, minimum: int) -> tuple[int, ...]:
    """Return ``ladder`` as a non-empty, strictly increasing tuple of times,
    each checked by :func:`require_time` under ``name`` and ``minimum``; a
    ladder that is not iterable is rejected too."""
    try:
        lad = tuple(require_time(t, name, minimum) for t in ladder)
    except TypeError:
        raise InvalidParameterError(f"need a ladder of {name}s, got {ladder!r}") from None
    if not lad or any(b <= a for a, b in zip(lad, lad[1:])):
        raise InvalidParameterError(
            f"need a non-empty, strictly increasing ladder of {name}s, got {lad}"
        )
    return lad


def require_real(value, name: str) -> float:
    """Return ``value`` as a float if it is a finite real number.

    Any ``numbers.Real`` is accepted (numpy scalars, ``Fraction``); bools,
    strings and complex numbers are not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return v
