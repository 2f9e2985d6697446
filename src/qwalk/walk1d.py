"""Exact position-space evolution of the walk on the line.

One step maps the two-component amplitude field ``(phi1, phi2)`` through the
difference equations

    phi1(x, t) = e^{ik} [ sqrt(p) phi1(x-1, t-1) + sqrt(q) phi2(x-1, t-1) ]
    phi2(x, t) = e^{ik} [ sqrt(q) phi1(x+1, t-1) - sqrt(p) phi2(x+1, t-1) ]

so component 1 moves in +x and component 2 in -x.  The walker starts at the
origin; after ``t`` steps the support lies in ``{-t, -t+2, ..., t}``, which is
stored densely as one block of shape ``(2, t + 1)`` (column ``i`` holds site
``x = 2 i - t``).  A step allocates one new block and writes each pair of
components straight into its shifted place in it: one real matrix product
of the pair's two coin rows with the previous block, whose output is a
strided view of the new block with the pair's two destinations as rows.
No mixed block is built and copied.

The only truncation is a flush to zero at the edge of the light cone.  The
step keeps a live box, the range of columns (on the lattice, of rows and of
columns) that it still mixes; every cell outside it is exactly 0.  Every 16
steps the box sheds the outermost column at either end, set to
exactly 0, while every real and imaginary part in that column is below the
smallest normal ``float64``, ``np.finfo(np.float64).tiny``.  Such a column
carries no probability, since its squared moduli underflow to 0, but
stepping it costs subnormal arithmetic, which otherwise dominates long
horizons.  Against unflushed stepping to t = 3000 the masses and moments are
bitwise equal and the amplitudes differ by less than 1e-280, so evolution is
exact up to floating-point rounding and serves as the ground-truth oracle for
the closed-form, spectral, symmetry, and localization modules.

The global phase ``k`` cancels in every probability; it is kept only for
amplitude-level identity tests.

This module also holds the core that :mod:`qwalk.walk2d` shares: the state,
field and distribution bases and the one step body, :func:`_step`.  The two
lattices differ only in their support bookkeeping (``_Support1D`` here,
``_Support2D`` there) and their coin.

:func:`trajectory_1d` is the only loop over :func:`step_1d` in the package:
every evolution, ladder and time average iterates it.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections import deque
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Iterator

import numpy as np

from .coin import CoinParameter, as_coin, coin_1d
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


class _State:
    """Normalized initial chirality state, as a frozen dataclass of components.

    Subclasses name their ``_KIND`` for messages.

    Raises
    ------
    InvalidStateError
        If a component is not a number (``numbers.Complex``, bools and
        strings excluded; numpy scalars pass) or the squared moduli sum
        differs from 1 by more than 1e-12.
    """

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        comps = [getattr(self, n) for n in names]
        for c in comps:
            if isinstance(c, bool) or not isinstance(c, numbers.Complex):
                raise InvalidStateError(
                    f"{self._KIND} state components must be numbers, got {c!r}"
                )
        comps = [complex(c) for c in comps]
        norm = sum(abs(c) ** 2 for c in comps)
        if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
            raise InvalidStateError(
                f"{self._KIND} state must be normalized within {_NORM_TOL}, "
                f"got sum |c|^2 = {norm!r}"
            )
        for n, c in zip(names, comps):
            object.__setattr__(self, n, c)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=np.complex128)

    @classmethod
    def random(cls, rng: np.random.Generator):
        """Draw a Haar-uniform state."""
        n = len(fields(cls))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        return cls(*v)

    @classmethod
    def _coerce(cls, theta):
        """Coerce a sequence of the right length into a validated state."""
        if isinstance(theta, cls):
            return theta
        n = len(fields(cls))
        seq = list(theta) if np.iterable(theta) else [theta]
        if len(seq) != n:
            raise InvalidStateError(f"{cls._KIND} state needs {n} components, got {len(seq)}")
        return cls(*seq)


@dataclass(frozen=True)
class QubitState(_State):
    """Normalized two-component initial chirality state.

    Raises
    ------
    InvalidStateError
        If ``|d1|^2 + |d2|^2`` differs from 1 by more than 1e-12.
    """

    _KIND = "qubit"
    d1: complex
    d2: complex


as_qubit = QubitState._coerce


def _phase(k: float) -> complex:
    """Per-step phase factor ``e^{ik}``; ``k`` must be a finite real number."""
    return cmath.exp(1j * require_real(k, "phase k"))


_float_phase = lru_cache(maxsize=64)(_phase)


@lru_cache(maxsize=64)
def _frozen_coin(coin, p: float) -> np.ndarray:
    """``coin(p)`` (:func:`coin_1d` or :func:`coin_2d`), built once per
    ``p`` and read-only: a trajectory steps by the same coin at every step."""
    matrix = coin(p)
    matrix.setflags(write=False)
    return matrix


def _step_phase(k: float) -> complex:
    """:func:`_phase`, cached for a float ``k``: a trajectory asks for the
    same phase at every step.  ``-0.0`` may get the phase of ``0.0``; the
    step only compares the phase with 1, so it cannot tell them apart."""
    return (_float_phase if type(k) is float else _phase)(k)


def _of_type(obj, cls: type):
    """``obj`` if it is a ``cls``, else :class:`InvalidParameterError`; so a
    field or distribution of the other lattice is rejected, not misread."""
    if not isinstance(obj, cls):
        raise InvalidParameterError(f"need a {cls.__name__}, got {type(obj).__name__}")
    return obj


def _site_coordinates(site, dim: int) -> tuple[int, ...]:
    """``site`` as ``dim`` coordinates, each checked by ``require_int``; a bare
    integer is one coordinate."""
    coords = tuple(site) if np.iterable(site) else (site,)
    if len(coords) != dim:
        raise InvalidParameterError(f"site needs {dim} integer coordinates, got {site!r}")
    return tuple(require_int(v, "site coordinate", None) for v in coords)


# where a component's block lands in the support grown by one step, per axis
_UP, _DOWN = slice(1, None), slice(None, -1)


def _geometry(shifts: tuple[tuple[slice, ...], ...]) -> tuple[tuple, tuple, tuple]:
    """What :func:`_step` needs of a lattice's ``_SHIFTS``, worked out once.

    Returns ``(axes, corners, edges)``: the axis order that moves the
    component axis of a block next to its last axis; each component's
    corner in the grown block, the index of its destination's first cell
    (``c``, then 1 on each axis it moves ``_UP``, else 0); and the edge cells
    each component's shift leaves unwritten, one per axis (the first for
    ``_UP``, the last for ``_DOWN``), as indices into the grown live box.
    """
    dim = len(shifts[0])
    axes = (*range(1, dim), 0, dim)
    corners = tuple((c, *(int(s is _UP) for s in shift)) for c, shift in enumerate(shifts))
    edges = tuple(
        (c,) + (slice(None),) * d + (0 if s is _UP else -1,)
        for c, shift in enumerate(shifts)
        for d, s in enumerate(shift)
    )
    return axes, corners, edges


# the smallest normal float64: a part below it is subnormal or zero, and its
# square underflows to 0
_TINY = float(np.finfo(np.float64).tiny)
# steps between two flushes; a face that underflows meanwhile costs at most
# this many steps of subnormal arithmetic
_FLUSH_EVERY = 16


class _Support1D:
    """Site bookkeeping shared by fields and distributions at time ``t``."""

    __slots__ = ()
    _DIM = 1
    _SHIFTS = ((_UP,), (_DOWN,))  # +x mover, -x mover
    _MIX_AXES, _CORNERS, _EDGES = _geometry(_SHIFTS)

    def site_index(self, x: int) -> int | None:
        """Dense index of site ``x``, or None if outside the support lattice."""
        if (x + self.t) % 2 != 0 or abs(x) > self.t:
            return None
        return (x + self.t) // 2

    def sites(self) -> np.ndarray:
        """All lattice sites of the correct parity, ascending."""
        return 2 * np.arange(self.t + 1) - self.t

    def _grids(self) -> tuple[np.ndarray, ...]:
        return (self.sites(),)

    def _site(self, idx: tuple[int, ...]) -> int:
        return int(2 * idx[0] - self.t)


def _checked_block(
    obj, t, block, lead: tuple[int, ...], masses: bool = False
) -> tuple[int, np.ndarray]:
    """``t`` as an integer ``>= 0`` and ``block`` as a read-only, contiguous
    ``complex128`` copy with shape ``lead + (t + 1,) * obj._DIM``, every
    entry finite; for ``masses``, a ``float64`` copy whose entries had zero
    imaginary parts and are non-negative.  Otherwise
    :class:`InvalidParameterError`.  The copy leaves the caller's array
    writeable and unshared."""
    t, kind = require_int(t, "time"), type(obj).__name__
    try:
        arr = np.array(block, dtype=np.complex128)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{kind} needs a numeric block, got {block!r}") from None
    shape = lead + (t + 1,) * obj._DIM
    if arr.shape != shape:
        raise InvalidParameterError(f"{kind} block must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{kind} block must be finite")
    if masses:
        if arr.imag.any():
            raise InvalidParameterError(f"{kind} masses must be real")
        arr = arr.real.copy()
        if (arr < 0).any():
            raise InvalidParameterError(f"{kind} masses must be non-negative")
    arr.flags.writeable = False
    return t, arr


class _Field:
    """Immutable amplitude block ``amps`` of a ``d``-dimensional support.

    ``amps`` has shape ``(2 d, t+1, ..., t+1)``, one leading row per
    component; the subclass's support mixin says which site each cell holds
    (``_DIM``, ``site_index``, ``_site``, ``_grids``) and where each
    component moves (``_SHIFTS``).  The block is marked read-only so fields
    can be shared freely.

    ``_box`` is the live box: one slice per axis, ``slice(lo, stop)``, where
    ``stop`` is None or negative so that it counts from the end of the axis.
    Every cell outside it is exactly 0, and :func:`_step` mixes only the
    cells inside it.  Counted from the end, the same slices address the box
    grown by one cell per axis in the next, one-larger block.  A field built
    directly has the whole block as its box, and its ``t`` and block pass
    :func:`_checked_block`.
    """

    __slots__ = ("t", "amps", "_box")

    def __init__(self, t: int, amps: np.ndarray) -> None:
        self.t, self.amps = _checked_block(self, t, amps, (2 * self._DIM,))
        self._box = (slice(0, None),) * self._DIM  # the whole block

    @classmethod
    def _stepped(cls, t: int, amps: np.ndarray, box: tuple[slice, ...]) -> "_Field":
        """A field over a block :func:`_step` has just written: a fresh,
        contiguous ``complex128`` block of the right shape, so the
        constructor's checks and copy are skipped."""
        self = object.__new__(cls)
        amps.setflags(write=False)
        self.t, self.amps, self._box = t, amps, box
        return self

    def amplitude(self, *site: int) -> tuple[complex, ...]:
        """Every component at ``site`` (zeros off the support)."""
        idx = self.site_index(*_site_coordinates(site, self._DIM))
        if idx is None:
            return (0j,) * len(self.amps)
        return tuple(complex(a[idx]) for a in self.amps)

    def items(self) -> Iterator[tuple]:
        """Occupied sites (any nonzero component) with their amplitudes, in
        storage order.  Tail sites flushed to zero by the step are not occupied."""
        for idx in zip(*np.nonzero(np.any(self.amps != 0, axis=0))):
            yield self._site(idx), tuple(complex(a[idx]) for a in self.amps)

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def _masses(self) -> np.ndarray:
        """Per-site probability: the squared moduli summed over components."""
        return np.sum(np.abs(self.amps) ** 2, axis=0)


class _Distribution:
    """Immutable probability masses over the support of a field at time ``t``,
    checked on construction as a field's amplitudes are (:func:`_checked_block`)."""

    __slots__ = ("t", "_values")

    def __init__(self, t: int, masses: np.ndarray) -> None:
        self.t, self._values = _checked_block(self, t, masses, (), masses=True)

    @classmethod
    def _of(cls, field: _Field) -> "_Distribution":
        """The masses of ``field``: a fresh, finite, non-negative ``float64``
        block of the right shape, so the constructor's checks and copy are
        skipped."""
        self = object.__new__(cls)
        values = field._masses()
        values.flags.writeable = False
        self.t, self._values = field.t, values
        return self

    def mass(self, *site: int) -> float:
        idx = self.site_index(*_site_coordinates(site, self._DIM))
        return 0.0 if idx is None else float(self._values[idx])

    def items(self) -> Iterator[tuple]:
        """Nonzero masses in ascending site order."""
        nonzero = zip(*np.nonzero(self._values))
        return iter(sorted((self._site(idx), float(self._values[idx])) for idx in nonzero))

    def total(self) -> float:
        return float(np.sum(self._values))


def _step(field: _Field, coin: np.ndarray, ph: complex) -> _Field:
    """One step on either lattice: mix the components at every site of the
    live box by ``coin`` and write each mixed component straight into its
    shifted place in a fresh block, then multiply by the phase ``ph``.

    The components are mixed in pairs, (1, 2) and on the lattice (3, 4).
    One strided view of the new block has the pair's two shifted
    destinations as its rows: component ``c``'s destination starts at the
    box corner plus its own corner in the grown block (``_CORNERS``), and
    the view's row stride is the distance between the two corners.  The
    previous block is read with its component axis moved next to its last
    axis (``_MIX_AXES``), so on the lattice the product runs batched over
    rows, and one ``matmul`` of the pair's two coin rows writes the whole
    pair; no mixed block is allocated or copied.  The coin is real, so the
    product runs on the real view of the amplitudes (real and imaginary
    parts as adjacent ``float64`` columns) and costs a real matrix product
    instead of a complex one.

    The new block is allocated uninitialized: each component's destination
    is all of the box, grown by one cell per axis, but one edge per axis
    (the first cell for an ``_UP`` shift, the last for ``_DOWN``); those
    edges (``_EDGES``) and every cell outside the box are zeroed.  When the
    new time is a multiple of ``_FLUSH_EVERY``, :func:`_flush` then shrinks
    the box past underflowed faces.

    Reads only from the previous field and writes a fresh block, so
    independent evolutions may run concurrently.
    """
    a, box = field.amps, field._box
    live = (slice(None),) + box  # same cells of the grown block: stops count from the end
    src = a[live].transpose(field._MIX_AXES).view(np.float64)
    new = np.empty((len(a),) + (a.shape[1] + 1,) * field._DIM, dtype=a.dtype)
    strides = new.strides
    base = sum(map(mul, (s.start for s in box), strides[1:]))  # the box corner, in bytes
    corners = [sum(map(mul, corner, strides)) for corner in field._CORNERS]
    shape = src.shape[:-2] + (2, src.shape[-1])
    for c in range(0, len(a), 2):
        pair_strides = strides[1:-1] + (corners[c + 1] - corners[c], src.itemsize)
        dst = np.ndarray(shape, np.float64, new, base + corners[c], pair_strides)
        np.matmul(coin[c : c + 2], src, out=dst)
        if ph != 1.0:
            dst = dst.view(a.dtype)
            np.multiply(ph, dst, out=dst)  # phase first: rounds as ``ph * dst`` does
    grown = new[live]
    for edge in field._EDGES:
        grown[edge] = 0
    for d, s in enumerate(box):
        if s.start:
            new[(slice(None),) * (d + 1) + (slice(None, s.start),)] = 0
        if s.stop:
            new[(slice(None),) * (d + 1) + (slice(s.stop, None),)] = 0
    t = field.t + 1
    if t % _FLUSH_EVERY == 0:
        box = _flush(new, box)
    return field._stepped(t, new, box)


def _flush(new: np.ndarray, box: tuple[slice, ...]) -> tuple[slice, ...]:
    """Shrink ``box`` past each face whose cells are all below ``_TINY`` in
    every real and imaginary part, zeroing those cells; return the new box.

    Such a face carries no probability (its squared moduli underflow to 0),
    but stepping it costs subnormal arithmetic.  The box keeps at least one
    cell per axis.
    """
    parts = new.view(np.float64).reshape(new.shape + (2,))
    shrunk = []
    for d, s in enumerate(box):
        n, axis = new.shape[d + 1], (slice(None),) * (d + 1)
        lo, hi = s.start, n + (s.stop or 0)
        while hi - lo > 1 and _underflows(parts[axis + (lo,)]):
            new[axis + (lo,)] = 0
            lo += 1
        while hi - lo > 1 and _underflows(parts[axis + (hi - 1,)]):
            hi -= 1
            new[axis + (hi,)] = 0
        shrunk.append(slice(lo, (hi - n) or None))
    return tuple(shrunk)


def _underflows(parts: np.ndarray) -> bool:
    """Whether every entry is below ``_TINY`` in magnitude (zero or subnormal)."""
    return bool(parts.max() < _TINY and parts.min() > -_TINY)


def _moment(dist: _Distribution, orders: tuple[int, ...]) -> float:
    """``sum_site prod_d (x_d / t)^{a_d} P(site, t)`` over the axes ``d``.

    Order zero always returns 1.  At ``t = 0`` the walker has no velocity,
    so any other order returns 0.
    """
    orders = [require_int(a, "moment order") for a in orders]
    if not any(orders):
        return 1.0
    if dist.t == 0:
        return 0.0
    weights = math.prod((g / dist.t) ** a for g, a in zip(dist._grids(), orders))
    return float(np.sum(weights * dist._values))


class WaveField1D(_Support1D, _Field):
    """Amplitude field on the line at a fixed time, stored densely over its support.

    ``amps`` has shape ``(2, t+1)``; ``amps[c, i]`` is component ``c+1`` at
    site ``x = 2 i - t``, and ``phi1``, ``phi2`` are its two rows as
    read-only views.  Sites of the opposite parity carry no amplitude and
    are not stored.  Immutable.
    """

    __slots__ = ()

    @property
    def phi1(self) -> np.ndarray:
        return self.amps[0]

    @property
    def phi2(self) -> np.ndarray:
        return self.amps[1]


class Distribution1D(_Support1D, _Distribution):
    """Probability masses over the support of a :class:`WaveField1D`."""

    __slots__ = ()

    @property
    def masses(self) -> np.ndarray:
        """Read-only masses; index ``i`` holds site ``x = 2 i - t``."""
        return self._values

    def mean_position(self) -> float:
        return float(np.sum(self.sites() * self.masses))


def init_1d(theta: QubitState | tuple | list | np.ndarray) -> WaveField1D:
    """Field at t = 0: the whole state sits at the origin."""
    return WaveField1D(0, as_qubit(theta).as_array().reshape(2, 1))


def step_1d(
    field: WaveField1D,
    p: CoinParameter | float,
    k: float = 0.0,
) -> WaveField1D:
    """Advance the field one step; the norm is preserved exactly.

    The support grows by one site on each side and the time index by one.
    """
    field, coin = _of_type(field, WaveField1D), _frozen_coin(coin_1d, as_coin(p).p)
    return _step(field, coin, _step_phase(k))


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
    return Distribution1D._of(_of_type(field, WaveField1D))


def moment_1d(dist: Distribution1D, alpha: int) -> float:
    """Pseudo-velocity moment ``sum_x (x/t)^alpha P(x, t)``.

    ``alpha = 0`` always returns 1.  At ``t = 0`` the walker has no velocity,
    so the moment is 1 for ``alpha = 0`` and 0 otherwise.
    """
    return _moment(_of_type(dist, Distribution1D), (alpha,))
