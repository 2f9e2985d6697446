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
coin are the lattice's own.

:func:`trajectory_2d` is the only loop over :func:`step_2d` in the package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Iterator

import numpy as np

from .coin import CoinParameter, as_coin, coin_2d
from .errors import require_int
from .walk1d import (
    _DOWN,
    _UP,
    _Distribution,
    _Field,
    _State,
    _frozen_coin,
    _geometry,
    _moment,
    _of_type,
    _phase,
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

    def _grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays X, Y of shape (t+1, t+1) giving the site of each grid cell."""
        i = np.arange(self.t + 1)
        x = i[:, None] + i[None, :] - self.t
        y = i[:, None] - i[None, :]
        return x, y

    def _site(self, idx: tuple[int, ...]) -> tuple[int, int]:
        i, j = idx
        return int(i + j - self.t), int(i - j)


class WaveField2D(_Support2D, _Field):
    """Amplitude field at a fixed time over the rotated-coordinate grid.

    ``amps`` has shape ``(4, t+1, t+1)``; ``amps[c, i, j]`` is component
    ``c+1`` at the site with ``x = i + j - t``, ``y = i - j``.  Immutable.
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
    """Field at t = 0: the whole state sits at the origin."""
    return WaveField2D(0, as_qudit(theta).as_array().reshape(4, 1, 1))


def step_2d(
    field: WaveField2D,
    p: CoinParameter | float,
    k: float = 0.0,
) -> WaveField2D:
    """Advance the field one step; norm preserved exactly.

    Reads only from the previous field and writes a fresh block, so
    independent evolutions may run concurrently.
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
    n, c, field = require_int(horizon, "horizon"), as_coin(p), init_2d(theta)
    _phase(k)
    # step_2d is looked up at every step, so a rebound (traced) step is seen
    return accumulate(repeat(None, n), lambda f, _: step_2d(f, c, k), initial=field)


def evolve_2d(
    theta: QuditState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    t: int,
    k: float = 0.0,
) -> WaveField2D:
    """The last field of :func:`trajectory_2d`: ``t`` steps from :func:`init_2d`."""
    return deque(trajectory_2d(theta, p, t, k), maxlen=1).pop()


def distribution_2d(field: WaveField2D) -> Distribution2D:
    """Per-site sum of the four squared moduli."""
    return Distribution2D._of(_of_type(field, WaveField2D))


def joint_moment_2d(dist: Distribution2D, alpha: int, beta: int) -> float:
    """Joint pseudo-velocity moment ``sum (x/t)^alpha (y/t)^beta P(x, y, t)``."""
    return _moment(_of_type(dist, Distribution2D), (alpha, beta))
