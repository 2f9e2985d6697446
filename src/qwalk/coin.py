"""Coin matrices and wavenumber-space evolution kernels.

The one-parameter coin family

    H1(p) = [[sqrt(p),  sqrt(q)],
             [sqrt(q), -sqrt(p)]],        q = 1 - p,  p in (0, 1)

reduces to the Hadamard matrix at p = 1/2.  The two-dimensional coin is its
Kronecker square.  The kernels are the Fourier transforms of the
position-space difference equations used by :mod:`qwalk.walk1d` and
:mod:`qwalk.walk2d`: a diagonal phase matrix (one phase per mover) times the
coin.  Component ordering is fixed throughout the package as

    1D: (1, 2)       = (+x, -x) movers
    2D: (1, 2, 3, 4) = (+x, -x, +y, -y) movers

All constructors return fresh arrays that are unitary to machine precision.
The coins are real for every ``p``, so :func:`coin_1d` and :func:`coin_2d`
return ``float64`` arrays and the stepping engine mixes amplitudes in real
arithmetic; the kernels carry phases and are ``complex128``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, require_real

__all__ = [
    "CoinParameter",
    "coin_1d",
    "coin_2d",
    "kernel_1d",
    "kernel_2d",
]


@dataclass(frozen=True)
class CoinParameter:
    """Bias of the coin family; ``q`` is always derived, never stored.

    Parameters
    ----------
    p : numbers.Real
        Must lie strictly inside (0, 1); stored as a float.

    Raises
    ------
    InvalidParameterError
        If ``p`` is not a real number, or not finite in the open interval
        (0, 1).
    """

    p: float

    def __post_init__(self) -> None:
        p = require_real(self.p, "coin parameter p")
        if not 0.0 < p < 1.0:
            raise InvalidParameterError(
                f"coin parameter p must lie in the open interval (0, 1), got {self.p!r}"
            )
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> float:
        """Complementary weight ``1 - p``."""
        return 1.0 - self.p


def as_coin(p: CoinParameter | float) -> CoinParameter:
    """Coerce a bare float into a validated :class:`CoinParameter`."""
    return p if isinstance(p, CoinParameter) else CoinParameter(p)


def validate_wavenumber(value: float) -> float:
    """Check that a wavenumber is a real number in the half-open interval [-pi, pi).

    Returns the value as a float; raises :class:`InvalidParameterError`
    otherwise, also for bools, strings and complex numbers.
    """
    v = require_real(value, "wavenumber")
    if not -math.pi <= v < math.pi:
        raise InvalidParameterError(
            f"wavenumber must lie in [-pi, pi), got {value!r}"
        )
    return v


def coin_1d(p: CoinParameter | float) -> np.ndarray:
    """Return the 2x2 coin ``[[sqrt(p), sqrt(q)], [sqrt(q), -sqrt(p)]]``.

    The matrix is real symmetric, orthogonal, and has determinant -1, and is
    returned as ``float64``.  At p = 1/2 it is the Hadamard matrix.

    Raises
    ------
    InvalidParameterError
        If ``p`` is outside (0, 1).
    """
    c = as_coin(p)
    sp, sq = math.sqrt(c.p), math.sqrt(c.q)
    return np.array([[sp, sq], [sq, -sp]], dtype=np.float64)


def coin_2d(p: CoinParameter | float) -> np.ndarray:
    """Return the 4x4 ``float64`` coin, the Kronecker square of :func:`coin_1d`.

    Entries are written out explicitly so the printed form is the
    ground truth; equality with ``kron(coin_1d, coin_1d)`` is a tested
    invariant rather than an implementation detail.
    """
    c = as_coin(p)
    pp, qq = c.p, c.q
    r = math.sqrt(pp * qq)
    return np.array(
        [
            [pp, r, r, qq],
            [r, -pp, qq, -r],
            [r, qq, -pp, -r],
            [qq, -r, -r, pp],
        ],
        dtype=np.float64,
    )


def kernel_1d(p: CoinParameter | float, wavenumber: float) -> np.ndarray:
    """Return the one-step wavenumber-space kernel ``S(x')``.

    ``S(x') = diag(exp(-i x'), exp(i x')) @ coin_1d(p)``: the +x mover
    acquires phase ``exp(-i x')`` and the -x mover ``exp(i x')``.  Unitary
    with determinant -1 and trace ``-2i sqrt(p) sin(x')``.  No module calls
    it: it is the independent kernel the spectral tests diagonalize with
    numpy ``eig``, and the reference of a Fourier-space field oracle.

    Raises
    ------
    InvalidParameterError
        If ``p`` is outside (0, 1) or the wavenumber is outside [-pi, pi).
    """
    c = as_coin(p)
    x = validate_wavenumber(wavenumber)
    sp, sq = math.sqrt(c.p), math.sqrt(c.q)
    em, ep = np.exp(-1j * x), np.exp(1j * x)
    return np.array([[sp * em, sq * em], [sq * ep, -sp * ep]], dtype=np.complex128)


def kernel_2d(
    p: CoinParameter | float, wavenumber_x: float, wavenumber_y: float
) -> np.ndarray:
    """Return the one-step 4x4 kernel ``S2(m', n')``.

    ``S2 = diag(exp(-i m'), exp(i m'), exp(-i n'), exp(i n')) @ coin_2d(p)``.
    At ``m' = n' = 0`` it reduces to the coin itself.  Its role is
    :func:`kernel_1d`'s, on the square lattice.

    Raises
    ------
    InvalidParameterError
        If ``p`` or either wavenumber is out of range.
    """
    c = as_coin(p)
    m = validate_wavenumber(wavenumber_x)
    n = validate_wavenumber(wavenumber_y)
    phases = np.array(
        [np.exp(-1j * m), np.exp(1j * m), np.exp(-1j * n), np.exp(1j * n)],
        dtype=np.complex128,
    )
    return phases[:, None] * coin_2d(c)
