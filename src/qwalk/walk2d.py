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

The lattice's propagator, :func:`basis_fields_2d`, steps one real field per
time, that of ``e_1``, and reads the other three basis fields as its
inversion and diagonal mirror images (``EXCHANGE_2D`` and ``EXCHANGE_XY``,
defined with the coin in :mod:`qwalk.coin`).  A reader that judges the
inversion symmetry steps ``e_2``'s field too and reads only the mirror.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement, repeat
from typing import Iterator

import numpy as np

from .coin import EXCHANGE_2D, EXCHANGE_XY, CoinParameter, as_coin, coin_2d
from .errors import InvalidParameterError, require_time
from .walk1d import (
    _DOWN,
    _UP,
    QubitState,
    _Basis,
    _Distribution,
    _Field,
    _State,
    _basis_fields,
    _evolve,
    _first_field,
    _frozen_coin,
    _geometry,
    _moment,
    _of_type,
    _rows,
    _step,
    _step_phase,
    basis_fields_1d,
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
    "basis_fields_2d",
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


def _sources(exchange: np.ndarray) -> tuple[tuple[int, float], ...]:
    """Each row ``c`` of a signed permutation matrix as its one nonzero
    entry, ``(src, X[c, src])``."""
    return tuple((int(np.flatnonzero(row)[0]), float(row[row != 0][0])) for row in exchange)


# the two lattice symmetries the basis is read through (:mod:`qwalk.symmetry`),
# each as the rows of its exchange matrix (:func:`_sources`) and the reversed
# grid axes of its site map: the inversion ``(x, y) -> (-x, -y)`` takes cell
# ``(i, j)`` of the packed grid to ``(t - i, t - j)``, the mirror ``(x, y) ->
# (y, x)`` takes it to ``(i, t - j)``
_INVERSION = (_sources(EXCHANGE_2D), (slice(None, None, -1),) * 2)
_MIRROR = (_sources(EXCHANGE_XY), (slice(None), slice(None, None, -1)))


def _image(field: list, t: int, symmetry: tuple) -> list:
    """The components of the lattice field of ``X theta`` from those of
    ``theta``'s, each a ``(sign, view)`` pair, with ``(X, G)`` the
    ``symmetry``: by ``U^t (X theta) = (-1)^t X G U^t theta``, component
    ``c`` is ``(-1)^t X[c, src]`` times component ``src``, the one nonzero
    entry of row ``c``, read through ``G``'s reversed axes without a copy."""
    rows, flip = symmetry
    return [((-1) ** t * x * field[src][0], field[src][1][flip]) for src, x in rows]


def _inner(f: list, h: list):
    """``<f, h> = sum_c sum_cells conj(f_c) h_c`` of two basis fields given
    as ``(sign, view)`` pairs."""
    return sum(
        sf * sh * np.einsum("ij,ij->", x.conj(), y) for (sf, x), (sh, y) in zip(f, h)
    )


class _LatticeBasis(_Support2D, _Basis):
    """The lattice's basis at time ``t``, read from the field of the real
    ``e_1``, and from that of ``e_2`` when it is stepped too.  ``_basis``
    holds ``U^t e_1, ..., U^t e_4``, each as its four components' ``(sign,
    view)`` pairs: ``e_2 = EXCHANGE_2D e_1`` is its stepped field or else
    the inversion image of ``e_1``'s (:func:`_image`), and ``e_3 =
    EXCHANGE_XY e_1`` and ``e_4 = EXCHANGE_XY e_2`` are the mirror images of
    those two.  The views read the blocks as they are, ``float64`` when
    stepped or ``complex128`` when built by the field constructor."""

    __slots__ = ("_basis",)
    _STATE, _FIELD = QuditState, WaveField2D

    def __init__(self, field: WaveField2D, field2: WaveField2D | None = None) -> None:
        super().__init__(field)
        e1 = [(1.0, comp) for comp in field.amps]
        if field2 is None:
            e2 = _image(e1, field.t, _INVERSION)
        else:
            e2 = [(1.0, comp) for comp in field2.amps]
        self._basis = [e1, e2, _image(e1, field.t, _MIRROR), _image(e2, field.t, _MIRROR)]

    def _components(self, theta: np.ndarray) -> Iterator[np.ndarray]:
        """Each component of the fields of the states whose components are
        the rows of ``theta``, batch axis first, lazily, one at a time: ``sum_b
        theta_b`` times that component of basis field ``b``, so that no block
        of all four is held."""
        for comps in zip(*self._basis):
            terms = ((th * sign)[:, None, None] * view for th, (sign, view) in zip(theta.T, comps))
            comp = next(terms)
            for term in terms:
                comp += term
            yield comp

    def _matrix(self, idx: tuple[int, int]) -> np.ndarray:
        return np.array([[sign * view[idx] for sign, view in comps] for comps in self._basis])

    def gram(self) -> np.ndarray:
        """The Gram matrix ``G_ij = <U^t e_i, U^t e_j>``, so that a state
        ``theta`` has total probability ``theta^H G theta``: the inner
        products of the four basis fields, each pair's once, real for the
        stepped ``float64`` block and Hermitian for a complex one.  For a real
        block read through both images it holds two numbers, ``|U^t e_1|^2``
        and ``<U^t e_1, U^t e_4>``: each image only permutes and negates the
        cells of ``e_1``'s field."""
        g = np.empty((4, 4), self._field.amps.dtype)
        for i, j in combinations_with_replacement(range(4), 2):
            g[i, j] = _inner(self._basis[i], self._basis[j])
            g[j, i] = np.conj(g[i, j])
        return g


def basis_fields_2d(
    p: CoinParameter | float, times, *, step_e2: bool = False
) -> Iterator[_LatticeBasis]:
    """The lattice's evolved chirality basis at each of the increasing
    ``times``, lazily, from one real field per time, as
    :func:`qwalk.walk1d.basis_fields_1d` gives the line's.

    The field is that of ``e_1 = (1, 0, 0, 0)``, stepped in ``float64`` by
    :func:`evolve_2d` or :func:`trajectory_2d`.  The other three basis
    fields are its images under the exchange identities of
    :mod:`qwalk.symmetry`, which hold for every state: the inversion, for
    ``e_2``, and the diagonal mirror, for ``e_3`` and ``e_4``; they are read
    as signed views, without a copy.  With ``step_e2``, the field of ``e_2 =
    (0, 1, 0, 0)`` is stepped beside ``e_1``'s instead of read as its
    inversion image, so that a reader that judges the inversion symmetry
    (:func:`qwalk.symmetry.symmetric_states`) does not assume it; only the
    mirror is then assumed.  A basis field offers ``masses(states)`` and
    ``amplitudes(states)`` for a batch of :class:`QuditState`,
    ``amplitude(x, y)``, ``field(theta)`` and ``gram()``.
    """
    if not isinstance(step_e2, bool):
        raise InvalidParameterError(f"step_e2 must be True or False, got {step_e2!r}")
    states = ((1, 0, 0, 0), (0, 1, 0, 0)) if step_e2 else ((1, 0, 0, 0),)
    return _basis_fields(_LatticeBasis, evolve_2d, trajectory_2d, states, p, times)


def _propagator(states) -> tuple:
    """``(dim, basis_fields, theta)``: the dimension and the propagator
    (:func:`basis_fields_1d` or :func:`basis_fields_2d`) of the lattice that
    ``states`` live on, and their components, one row per state.
    ``states`` must be a non-empty sequence of :class:`QubitState` or of
    :class:`QuditState` instances, else :class:`InvalidParameterError`."""
    try:
        states = tuple(states)
    except TypeError:
        raise InvalidParameterError(f"need a sequence of states, got {states!r}") from None
    for dim, cls, basis_fields in (
        (1, QubitState, basis_fields_1d),
        (2, QuditState, basis_fields_2d),
    ):
        if states and all(isinstance(s, cls) for s in states):
            return dim, basis_fields, _rows(states, cls)
    kinds = sorted({type(s).__name__ for s in states})
    raise InvalidParameterError(
        f"need a non-empty batch of states of one lattice, all QubitState or all QuditState, "
        f"got {kinds}"
    )
