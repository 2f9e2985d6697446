"""Exact position-space evolution of the walk on the square lattice.

The four-component field obeys

    phi1(x, y, t) = e^{ik} row1 . Phi(x-1, y, t-1)      (+x mover)
    phi2(x, y, t) = e^{ik} row2 . Phi(x+1, y, t-1)      (-x mover)
    phi3(x, y, t) = e^{ik} row3 . Phi(x, y-1, t-1)      (+y mover)
    phi4(x, y, t) = e^{ik} row4 . Phi(x, y+1, t-1)      (-y mover)

where ``rowc`` is the c-th row of the 4x4 coin.  Every step changes both
rotated coordinates ``u = x + y`` and ``v = x - y`` by exactly one, so the
support at time t is the grid ``u, v in {-t, -t+2, ..., t}``.  Amplitudes are
stored densely on that grid: component arrays of shape ``(t+1, t+1)`` where
index ``(i, j)`` holds the site with ``u = 2i - t``, ``v = 2j - t``, i.e.
``x = i + j - t``, ``y = i - j``.  This packing wastes no parity zeros and
keeps each step to a handful of contiguous slice operations.

The states, fields, distributions, moments and the step body are the line's
(:mod:`qwalk.walk1d`); only the support bookkeeping (``_Support2D``) and the
coin are the lattice's own.  The line's dtype rule holds here too: a state
with real components steps in ``float64`` at ``k = 0``, in blocks of half
the bytes.

:func:`trajectory_2d` and :func:`evolve_2d` are the only loops over
:func:`step_2d` in the package; the evolution steps in one buffer of the
final field's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Iterator

import numpy as np

from .coin import CoinParameter, as_coin, coin_2d
from .errors import require_time
from .walk1d import (
    _DOWN,
    _UP,
    _Distribution,
    _Field,
    _State,
    _evolve,
    _first_field,
    _frozen_coin,
    _geometry,
    _moment,
    _of_type,
    _step,
    _step_phase,
)

__all__ = [
    "QuditState",
    "WaveField2D",
    "Distribution2D",
    "init_2d",
    "step_2d",
    "trajectory_2d",
    "evolve_2d",
    "distribution_2d",
    "joint_moment_2d",
]


@dataclass(frozen=True)
class QuditState(_State):
    """Normalized four-component initial chirality state."""

    _KIND = "qudit"
    k1: complex
    k2: complex
    k3: complex
    k4: complex


as_qudit = QuditState._coerce


class _Support2D:
    """Rotated-grid site bookkeeping shared by fields and distributions."""

    __slots__ = ()
    _DIM = 2
    # +x: (u, v) -> (u+1, v+1); -x: (u-1, v-1); +y: (u+1, v-1); -y: (u-1, v+1)
    _SHIFTS = ((_UP, _UP), (_DOWN, _DOWN), (_UP, _DOWN), (_DOWN, _UP))
    _MIX_AXES, _CORNERS, _EDGES = _geometry(_SHIFTS)

    def site_index(self, x: int, y: int) -> tuple[int, int] | None:
        """Grid index of site ``(x, y)``, or None if off the support lattice."""
        u, v = x + y, x - y
        if (u + self.t) % 2 != 0 or abs(u) > self.t or abs(v) > self.t:
            return None
        return (u + self.t) // 2, (v + self.t) // 2

    def _coordinates(self) -> np.ndarray:
        """Every value ``x`` or ``y`` takes, ascending: ``-t, ..., t``."""
        return np.arange(-self.t, self.t + 1)

    def _spread(self, d: int, values: np.ndarray) -> np.ndarray:
        """``values``, one per entry of :meth:`_coordinates`, read at each
        cell's coordinate ``d`` (0 for x, 1 for y), as a read-only strided
        ``(t+1, t+1)`` view: cell ``(i, j)`` reads entry ``i + j`` for x and
        ``t + i - j`` for y."""
        step = values.strides[0]
        shape, strides = (self.t + 1,) * 2, (step, -step if d else step)
        view = np.ndarray(shape, values.dtype, values, d * self.t * step, strides)
        view.flags.writeable = False  # its cells share memory
        return view

    def _site(self, idx: tuple[int, ...]) -> tuple[int, int]:
        i, j = idx
        return int(i + j - self.t), int(i - j)


class WaveField2D(_Support2D, _Field):
    """Amplitude field at a fixed time over the rotated-coordinate grid.

    ``amps`` has shape ``(4, t+1, t+1)``; ``amps[c, i, j]`` is component
    ``c+1`` at the site with ``x = i + j - t``, ``y = i - j``; it is
    ``complex128``, or ``float64`` for a real state's field stepped at
    ``k = 0``.  Immutable.
    """

    __slots__ = ()


class Distribution2D(_Support2D, _Distribution):
    """Joint probability masses on the rotated-coordinate grid."""

    __slots__ = ()

    @property
    def grid(self) -> np.ndarray:
        """Read-only masses; cell ``(i, j)`` holds site ``(i + j - t, i - j)``."""
        return self._values


def init_2d(theta: QuditState | tuple | list | np.ndarray) -> WaveField2D:
    """Field at t = 0, where :func:`trajectory_2d` and :func:`evolve_2d`
    start: the whole state sits at the origin."""
    return WaveField2D(0, as_qudit(theta).as_array().reshape(4, 1, 1))


def step_2d(
    field: WaveField2D,
    p: CoinParameter | float,
    k: float = 0.0,
) -> WaveField2D:
    """Advance the field one step; the norm is preserved up to rounding.

    :func:`trajectory_2d` and :func:`evolve_2d` iterate it.  The drift
    accumulates: over the 30 random states of acceptance criterion
    1, the total probability at t = 300 is at most 1.7e-14 from 1
    (measured: 1.643e-14).

    Reads only from the previous field and writes a block that no other
    field reads, so independent evolutions may run concurrently.
    """
    field, coin = _of_type(field, WaveField2D), _frozen_coin(coin_2d, as_coin(p).p)
    return _step(field, coin, _step_phase(k))


def trajectory_2d(
    theta: QuditState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    horizon: int,
    k: float = 0.0,
) -> Iterator[WaveField2D]:
    """Fields at ``t = 0, 1, ..., horizon``, one :func:`step_2d` apart.

    Inputs are checked as in :func:`qwalk.walk1d.trajectory_1d`, before the
    first field is produced; the iterator is lazy.
    """
    n, c, field = require_time(horizon, "horizon"), as_coin(p), _first_field(init_2d, theta, k)
    # step_2d is looked up at every step, so a rebound (traced) step is seen
    return accumulate(repeat(None, n), lambda f, _: step_2d(f, c, k), initial=field)


def evolve_2d(
    theta: QuditState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    t: int,
    k: float = 0.0,
) -> WaveField2D:
    """The last field of :func:`trajectory_2d`: ``t`` steps from :func:`init_2d`,
    in one buffer as in :func:`qwalk.walk1d.evolve_1d`."""
    n, c, field = require_time(t, "horizon"), as_coin(p), _first_field(init_2d, theta, k)
    # step_2d is looked up at every step, so a rebound (traced) step is seen
    return _evolve(field, n, lambda f: step_2d(f, c, k))


def distribution_2d(field: WaveField2D) -> Distribution2D:
    """Per-site sum of the four squared moduli."""
    return Distribution2D._of(_of_type(field, WaveField2D))


def joint_moment_2d(dist: Distribution2D, alpha: int, beta: int) -> float:
    """Joint pseudo-velocity moment ``sum (x/t)^alpha (y/t)^beta P(x, y, t)``."""
    return _moment(_of_type(dist, Distribution2D), (alpha, beta))
