"""Exact position-space evolution of the walk on the line.

One step maps the two-component amplitude field ``(phi1, phi2)`` through the
difference equations

    phi1(x, t) = e^{ik} [ sqrt(p) phi1(x-1, t-1) + sqrt(q) phi2(x-1, t-1) ]
    phi2(x, t) = e^{ik} [ sqrt(q) phi1(x+1, t-1) - sqrt(p) phi2(x+1, t-1) ]

so component 1 moves in +x and component 2 in -x.  The walker starts at the
origin; after ``t`` steps the support lies in ``{-t, -t+2, ..., t}``, which is
stored densely as arrays of length ``t + 1`` (index ``i`` holds site
``x = 2 i - t``).  No truncation is ever applied, so evolution is exact up to
floating-point rounding and serves as the ground-truth oracle for the
closed-form, spectral, symmetry, and localization modules.

The global phase ``k`` cancels in every probability; it is kept only for
amplitude-level identity tests.

:func:`trajectory_1d` is the only loop over :func:`step_1d` in the package:
every evolution, ladder and time average iterates it.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Iterator

import numpy as np

from .coin import CoinParameter, as_coin
from .errors import InvalidParameterError, InvalidStateError, require_int, require_real

__all__ = [
    "QubitState",
    "WaveField1D",
    "Distribution1D",
    "init_1d",
    "step_1d",
    "trajectory_1d",
    "evolve_1d",
    "distribution_1d",
    "moment_1d",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """Normalized two-component initial chirality state.

    Raises
    ------
    InvalidStateError
        If ``|d1|^2 + |d2|^2`` differs from 1 by more than 1e-12.
    """

    d1: complex
    d2: complex

    def __post_init__(self) -> None:
        d1, d2 = complex(self.d1), complex(self.d2)
        norm = abs(d1) ** 2 + abs(d2) ** 2
        if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
            raise InvalidStateError(
                f"qubit state must be normalized within {_NORM_TOL}, "
                f"got |d1|^2+|d2|^2 = {norm!r}"
            )
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)

    def as_array(self) -> np.ndarray:
        return np.array([self.d1, self.d2], dtype=np.complex128)

    @staticmethod
    def random(rng: np.random.Generator) -> "QubitState":
        """Draw a Haar-uniform qubit state."""
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        return QubitState(v[0], v[1])


def as_qubit(theta: QubitState | tuple | list | np.ndarray) -> QubitState:
    """Coerce a length-2 sequence into a validated :class:`QubitState`."""
    if isinstance(theta, QubitState):
        return theta
    seq = list(theta)
    if len(seq) != 2:
        raise InvalidStateError(f"qubit state needs 2 components, got {len(seq)}")
    return QubitState(seq[0], seq[1])


def _phase(k: float) -> complex:
    """Per-step phase factor ``e^{ik}``; ``k`` must be a finite real number."""
    return cmath.exp(1j * require_real(k, "phase k"))


class _Support1D:
    """Site bookkeeping shared by fields and distributions at time ``t``."""

    __slots__ = ()

    def site_index(self, x: int) -> int | None:
        """Dense index of site ``x``, or None if outside the support lattice."""
        if (x + self.t) % 2 != 0 or abs(x) > self.t:
            return None
        return (x + self.t) // 2

    def sites(self) -> np.ndarray:
        """All lattice sites of the correct parity, ascending."""
        return 2 * np.arange(self.t + 1) - self.t


class WaveField1D(_Support1D):
    """Amplitude field at a fixed time, stored densely over its support.

    ``phi1[i]`` and ``phi2[i]`` are the two components at site
    ``x = 2 i - t`` for ``i = 0..t``; sites of the opposite parity carry no
    amplitude and are not stored.  Instances are immutable; the backing
    arrays are marked read-only so fields can be shared freely.
    """

    __slots__ = ("t", "phi1", "phi2")

    def __init__(self, t: int, phi1: np.ndarray, phi2: np.ndarray) -> None:
        if phi1.shape != (t + 1,) or phi2.shape != (t + 1,):
            raise InvalidParameterError(
                f"field arrays must have length t+1 = {t + 1}"
            )
        self.t = int(t)
        self.phi1 = np.ascontiguousarray(phi1, dtype=np.complex128)
        self.phi2 = np.ascontiguousarray(phi2, dtype=np.complex128)
        self.phi1.flags.writeable = False
        self.phi2.flags.writeable = False

    def amplitude(self, x: int) -> tuple[complex, complex]:
        """Both components at site ``x`` (zero off the support)."""
        i = self.site_index(x)
        if i is None:
            return 0j, 0j
        return complex(self.phi1[i]), complex(self.phi2[i])

    def items(self) -> Iterator[tuple[int, tuple[complex, complex]]]:
        """Iterate occupied sites only (both components exactly zero -> absent)."""
        for i, x in enumerate(self.sites()):
            a1, a2 = self.phi1[i], self.phi2[i]
            if a1 != 0 or a2 != 0:
                yield int(x), (complex(a1), complex(a2))

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.phi1) ** 2 + np.abs(self.phi2) ** 2))


class Distribution1D(_Support1D):
    """Probability masses over the support of a :class:`WaveField1D`."""

    __slots__ = ("t", "masses")

    def __init__(self, t: int, masses: np.ndarray) -> None:
        self.t = int(t)
        self.masses = np.ascontiguousarray(masses, dtype=np.float64)
        self.masses.flags.writeable = False

    def mass(self, x: int) -> float:
        i = self.site_index(x)
        return 0.0 if i is None else float(self.masses[i])

    def items(self) -> Iterator[tuple[int, float]]:
        for x, m in zip(self.sites(), self.masses):
            if m != 0.0:
                yield int(x), float(m)

    def to_dict(self) -> dict[int, float]:
        return dict(self.items())

    def total(self) -> float:
        return float(np.sum(self.masses))

    def mean_position(self) -> float:
        return float(np.sum(self.sites() * self.masses))


def init_1d(theta: QubitState | tuple | list | np.ndarray) -> WaveField1D:
    """Field at t = 0: the whole state sits at the origin."""
    th = as_qubit(theta)
    return WaveField1D(
        0,
        np.array([th.d1], dtype=np.complex128),
        np.array([th.d2], dtype=np.complex128),
    )


def step_1d(
    field: WaveField1D,
    p: CoinParameter | float,
    k: float = 0.0,
) -> WaveField1D:
    """Advance the field one step; the norm is preserved exactly.

    The support grows by one site on each side and the time index by one.
    """
    c = as_coin(p)
    ph = _phase(k)
    sp, sq = math.sqrt(c.p), math.sqrt(c.q)
    n = field.t + 1
    new1 = np.zeros(n + 1, dtype=np.complex128)
    new2 = np.zeros(n + 1, dtype=np.complex128)
    new1[1:] = ph * (sp * field.phi1 + sq * field.phi2)
    new2[:-1] = ph * (sq * field.phi1 - sp * field.phi2)
    return WaveField1D(field.t + 1, new1, new2)


def trajectory_1d(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    horizon: int,
    k: float = 0.0,
) -> Iterator[WaveField1D]:
    """Fields at ``t = 0, 1, ..., horizon``, one :func:`step_1d` apart.

    Every input is checked here, before the first field is produced: the
    horizon must be an integer ``>= 0`` and ``k`` a finite real number.
    The returned iterator is lazy, so a caller may stop early.
    """
    n, c, field = require_int(horizon, "horizon"), as_coin(p), init_1d(theta)
    _phase(k)
    # step_1d is looked up at every step, so a rebound (traced) step is seen
    return accumulate(repeat(None, n), lambda f, _: step_1d(f, c, k), initial=field)


def evolve_1d(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    t: int,
    k: float = 0.0,
) -> WaveField1D:
    """The last field of :func:`trajectory_1d`: ``t`` steps from :func:`init_1d`."""
    return deque(trajectory_1d(theta, p, t, k), maxlen=1).pop()


def distribution_1d(field: WaveField1D) -> Distribution1D:
    """Per-site probability ``|phi1|^2 + |phi2|^2``; sums to one."""
    masses = np.abs(field.phi1) ** 2 + np.abs(field.phi2) ** 2
    return Distribution1D(field.t, masses)


def moment_1d(dist: Distribution1D, alpha: int) -> float:
    """Pseudo-velocity moment ``sum_x (x/t)^alpha P(x, t)``.

    ``alpha = 0`` always returns 1.  At ``t = 0`` the walker has no velocity,
    so the moment is 1 for ``alpha = 0`` and 0 otherwise.
    """
    alpha = require_int(alpha, "moment order")
    if alpha == 0:
        return 1.0
    if dist.t == 0:
        return 0.0
    v = dist.sites() / dist.t
    return float(np.sum(v**alpha * dist.masses))
