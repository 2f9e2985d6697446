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

:func:`trajectory_2d` is the only loop over :func:`step_2d` in the package.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Iterator

import numpy as np

from .coin import CoinParameter, as_coin, coin_2d
from .errors import InvalidParameterError, InvalidStateError, require_int
from .walk1d import _phase

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

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class QuditState:
    """Normalized four-component initial chirality state."""

    k1: complex
    k2: complex
    k3: complex
    k4: complex

    def __post_init__(self) -> None:
        comps = [complex(getattr(self, f"k{i}")) for i in (1, 2, 3, 4)]
        norm = sum(abs(c) ** 2 for c in comps)
        if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
            raise InvalidStateError(
                f"qudit state must be normalized within {_NORM_TOL}, "
                f"got sum |k_i|^2 = {norm!r}"
            )
        for name, c in zip(("k1", "k2", "k3", "k4"), comps):
            object.__setattr__(self, name, c)

    def as_array(self) -> np.ndarray:
        return np.array([self.k1, self.k2, self.k3, self.k4], dtype=np.complex128)

    @staticmethod
    def random(rng: np.random.Generator) -> "QuditState":
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        return QuditState(*v)


def as_qudit(theta: QuditState | tuple | list | np.ndarray) -> QuditState:
    """Coerce a length-4 sequence into a validated :class:`QuditState`."""
    if isinstance(theta, QuditState):
        return theta
    seq = list(theta)
    if len(seq) != 4:
        raise InvalidStateError(f"qudit state needs 4 components, got {len(seq)}")
    return QuditState(*seq)


class _Support2D:
    """Rotated-grid site bookkeeping shared by fields and distributions."""

    __slots__ = ()

    def site_index(self, x: int, y: int) -> tuple[int, int] | None:
        """Grid index of site ``(x, y)``, or None if off the support lattice."""
        u, v = x + y, x - y
        if (u + self.t) % 2 != 0 or abs(u) > self.t or abs(v) > self.t:
            return None
        return (u + self.t) // 2, (v + self.t) // 2

    def site_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays X, Y of shape (t+1, t+1) giving the site of each grid cell."""
        i = np.arange(self.t + 1)
        x = i[:, None] + i[None, :] - self.t
        y = i[:, None] - i[None, :]
        return x, y


class WaveField2D(_Support2D):
    """Amplitude field at a fixed time over the rotated-coordinate grid.

    ``amps`` has shape ``(4, t+1, t+1)``; ``amps[c, i, j]`` is component
    ``c+1`` at the site with ``x = i + j - t``, ``y = i - j``.  Immutable.
    """

    __slots__ = ("t", "amps")

    def __init__(self, t: int, amps: np.ndarray) -> None:
        if amps.shape != (4, t + 1, t + 1):
            raise InvalidParameterError(
                f"amplitude block must have shape (4, {t + 1}, {t + 1})"
            )
        self.t = int(t)
        self.amps = np.ascontiguousarray(amps, dtype=np.complex128)
        self.amps.flags.writeable = False

    def amplitude(self, x: int, y: int) -> tuple[complex, complex, complex, complex]:
        idx = self.site_index(x, y)
        if idx is None:
            return 0j, 0j, 0j, 0j
        i, j = idx
        return tuple(complex(self.amps[c, i, j]) for c in range(4))

    def items(self) -> Iterator[tuple[tuple[int, int], tuple[complex, ...]]]:
        """Iterate occupied sites (any nonzero component), row-major in (i, j)."""
        occupied = np.any(self.amps != 0, axis=0)
        xs, ys = self.site_grids()
        for i, j in zip(*np.nonzero(occupied)):
            yield (int(xs[i, j]), int(ys[i, j])), tuple(
                complex(self.amps[c, i, j]) for c in range(4)
            )

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


class Distribution2D(_Support2D):
    """Joint probability masses on the rotated-coordinate grid."""

    __slots__ = ("t", "grid")

    def __init__(self, t: int, grid: np.ndarray) -> None:
        self.t = int(t)
        self.grid = np.ascontiguousarray(grid, dtype=np.float64)
        self.grid.flags.writeable = False

    def mass(self, x: int, y: int) -> float:
        idx = self.site_index(x, y)
        return 0.0 if idx is None else float(self.grid[idx])

    def items(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Iterate nonzero masses in ascending (x, y) lexicographic order."""
        xs, ys = self.site_grids()
        triples = sorted(
            (int(xs[i, j]), int(ys[i, j]), float(self.grid[i, j]))
            for i, j in zip(*np.nonzero(self.grid))
        )
        for x, y, m in triples:
            yield (x, y), m

    def to_dict(self) -> dict[tuple[int, int], float]:
        return {site: m for site, m in self.items()}

    def total(self) -> float:
        return float(np.sum(self.grid))


def init_2d(theta: QuditState | tuple | list | np.ndarray) -> WaveField2D:
    """Field at t = 0: the whole state sits at the origin."""
    th = as_qudit(theta)
    amps = th.as_array().reshape(4, 1, 1)
    return WaveField2D(0, amps)


def step_2d(
    field: WaveField2D,
    p: CoinParameter | float,
    k: float = 0.0,
) -> WaveField2D:
    """Advance the field one step; norm preserved exactly.

    Reads only from the previous field and writes a fresh block
    (double-buffered), so independent evolutions may run concurrently.
    """
    c = as_coin(p)
    coin = coin_2d(c).real  # coin entries are real
    ph = _phase(k)
    t = field.t
    a = field.amps
    mixed = np.tensordot(coin, a, axes=(1, 0))
    if ph != 1.0:
        mixed = ph * mixed
    new = np.zeros((4, t + 2, t + 2), dtype=np.complex128)
    new[0, 1:, 1:] = mixed[0]   # +x: (u, v) -> (u+1, v+1)
    new[1, :-1, :-1] = mixed[1]  # -x
    new[2, 1:, :-1] = mixed[2]   # +y: (u+1, v-1)
    new[3, :-1, 1:] = mixed[3]   # -y
    return WaveField2D(t + 1, new)


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
    grid = np.sum(np.abs(field.amps) ** 2, axis=0)
    return Distribution2D(field.t, grid)


def joint_moment_2d(dist: Distribution2D, alpha: int, beta: int) -> float:
    """Joint pseudo-velocity moment ``sum (x/t)^alpha (y/t)^beta P(x, y, t)``."""
    alpha, beta = require_int(alpha, "moment order"), require_int(beta, "moment order")
    if alpha == 0 and beta == 0:
        return 1.0
    if dist.t == 0:
        return 0.0
    x, y = dist.site_grids()
    vx = x / dist.t
    vy = y / dist.t
    return float(np.sum(vx**alpha * vy**beta * dist.grid))
