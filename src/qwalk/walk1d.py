"""Exact position-space evolution of the walk on the line.

One step maps the two-component amplitude field ``(phi1, phi2)`` through the
difference equations

    phi1(x, t) = e^{ik} [ sqrt(p) phi1(x-1, t-1) + sqrt(q) phi2(x-1, t-1) ]
    phi2(x, t) = e^{ik} [ sqrt(q) phi1(x+1, t-1) - sqrt(p) phi2(x+1, t-1) ]

so component 1 moves in +x and component 2 in -x.  The walker starts at the
origin; after ``t`` steps the support lies in ``{-t, -t+2, ..., t}``, which is
stored densely as one block of shape ``(2, t + 1)`` (column ``i`` holds site
``x = 2 i - t``).  A step writes each pair of components straight into its
shifted place in a new block: one real matrix product of the pair's two
coin rows with the previous block, whose output is a strided view of the
new block with the pair's two destinations as rows.  No mixed block is
built and copied.  The new block is fresh, except in :func:`evolve_1d` and
:func:`qwalk.walk2d.evolve_2d`, which keep no earlier field: they step in
one buffer of the final field's shape, allocated once, and write each field
over the previous one in the buffer's leading corner, with a staging array
that holds the rows a step overwrites, or a whole field that fits in it;
a buffer of at most 2 MB (the line's, in practice) gets a staging array as
large, so its fields alternate between the two and none is copied
(:func:`_evolve`).

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

The coin is real, so a state whose components are all real stays real at
``k = 0``: :func:`trajectory_1d` and :func:`evolve_1d` (and the lattice's
two loops) then step its fields as ``float64`` blocks, half the bytes of
``complex128`` ones, and every other state in ``complex128``
(:func:`_first_field`).  A ``float64`` field stepped at ``k != 0`` becomes
``complex128``.  The real path is exact up to rounding, but not bitwise
equal to stepping the same state as complex: the products run over other
column counts.

This module also holds the core that :mod:`qwalk.walk2d` shares: the state,
field and distribution bases, the one step body, :func:`_step`, and the
propagator's basis reader, ``_Basis``.  The two lattices differ only in
their support bookkeeping (``_Support1D`` here, ``_Support2D`` there), their
coin and how their basis state carries the chirality basis.

The propagator, :func:`basis_fields_1d`, serves every consumer of many
states at one ``p``.  The walk is linear, and real at ``k = 0``, so one
stepped field per time carries the evolved basis, and every state's field
is ``sum_b theta_b U^t e_b``.  Each basis field gives a batch of states'
masses and amplitude blocks, the basis x component matrix at one site and
one state's field.
On the line the basis state is the packed ``(1, i) / sqrt(2)``, stepped in
``complex128``.

:func:`trajectory_1d` and :func:`evolve_1d` are the only loops over
:func:`step_1d` in the package: every ladder and time average iterates a
trajectory, whose fields each own a fresh block, directly or through the
propagator.  They stay direct position-space stepping, the oracle the
propagator is tested against.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Iterator

import numpy as np

from .coin import CoinParameter, as_coin, coin_1d
from .errors import (
    InvalidParameterError,
    InvalidStateError,
    require_int,
    require_ladder,
    require_real,
    require_time,
)

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
    "basis_fields_1d",
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
        differs from 1 by more than 1e-12, or overflows.
    """

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        comps = [getattr(self, n) for n in names]
        for c in comps:
            if isinstance(c, bool) or not isinstance(c, numbers.Complex):
                raise InvalidStateError(
                    f"{self._KIND} state components must be numbers, got {c!r}"
                )
        try:
            comps = [complex(c) for c in comps]
            norm = sum(abs(c) ** 2 for c in comps)
        except OverflowError:  # a component or its square beyond float range
            norm = math.inf
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
        """Draw a Haar-uniform state from ``rng``, a ``numpy.random.Generator``
        (else :class:`InvalidParameterError`)."""
        if not isinstance(rng, np.random.Generator):
            raise InvalidParameterError(f"need a numpy.random.Generator, got {rng!r}")
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


def _first_field(init, theta, k: float) -> "_Field":
    """``init(theta)``, the field that a trajectory or an evolution starts
    from, once ``k`` is checked: a ``float64`` block when every component
    is real and the phase ``e^{ik}`` is 1, since the real coin then keeps
    every field real; otherwise the ``complex128`` block ``init`` built."""
    field = init(theta)
    if _step_phase(k) != 1.0 or field.amps.imag.any():
        return field
    return field._built(0, field.amps.real.copy())


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

    def _coordinates(self) -> np.ndarray:
        """Every value a site coordinate takes, ascending."""
        return self.sites()

    def _spread(self, d: int, values: np.ndarray) -> np.ndarray:
        """``values``, one per entry of :meth:`_coordinates`, read at each
        cell's coordinate ``d``: here ``values`` itself."""
        return values

    def _site(self, idx: tuple[int, ...]) -> int:
        return int(2 * idx[0] - self.t)


def _checked_array(
    values, name: str, shape: tuple[int, ...] | None, real: bool = False
) -> np.ndarray:
    """``values`` as a read-only, contiguous ``complex128`` copy, every entry
    finite and, unless ``shape`` is None, of that shape; for ``real``, a
    ``float64`` copy whose entries had zero imaginary parts.  Otherwise
    :class:`InvalidParameterError`.  The copy leaves the caller's array
    writeable and unshared."""
    try:
        arr = np.array(values, dtype=np.complex128)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be numeric, got {values!r}") from None
    if shape is not None and arr.shape != shape:
        raise InvalidParameterError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite")
    if real:
        if arr.imag.any():
            raise InvalidParameterError(f"{name} must be real")
        arr = arr.real.copy()
    arr.flags.writeable = False
    return arr


def _checked_block(
    obj, t, block, lead: tuple[int, ...], masses: bool = False
) -> tuple[int, np.ndarray]:
    """``t`` as an integer ``>= 0`` and ``block`` as :func:`_checked_array`'s
    copy with shape ``lead + (t + 1,) * obj._DIM``; for ``masses``, a real
    copy whose entries are non-negative.

    The total probability (of the masses, or of the amplitudes'
    :func:`_masses`) must be finite, else :class:`InvalidStateError`: it
    bounds every amplitude by its square root, so no step overflows.
    """
    t, kind = require_int(t, "time"), type(obj).__name__
    arr = _checked_array(block, f"{kind} block", lead + (t + 1,) * obj._DIM, masses)
    if masses and (arr < 0).any():
        raise InvalidParameterError(f"{kind} masses must be non-negative")
    with np.errstate(over="ignore"):  # an overflowing total is inf, and rejected below
        total = np.sum(arr if masses else _masses(arr))
    if not np.isfinite(total):
        raise InvalidStateError(f"{kind} total probability must be finite, got {total!r}")
    return t, arr


# rows per block of a blocked reduction: about 1/_BLOCKS of the first axis,
# and at least _BLOCK_CELLS cells, so a block's temporaries stay a small
# share of the block-sized result without many small numpy calls
_BLOCKS, _BLOCK_CELLS = 32, 1024


def _masses(amps: np.ndarray) -> np.ndarray:
    """Per-site probability of an amplitude block: the squared moduli
    summed over components, in component order.

    It runs a block of rows at a time, so besides the result it allocates
    only one block of squared moduli.
    """
    masses = np.empty(amps.shape[1:])
    n, row = masses.shape[0], masses[0].size
    size = max(-(-n // _BLOCKS), -(-_BLOCK_CELLS // row))
    blocks = [slice(i, i + size) for i in range(0, n, size)]
    sq = np.empty_like(masses[blocks[0]])
    for rows in blocks:
        out = masses[rows]
        part = sq[: len(out)]
        np.abs(amps[0, rows], out=out)
        out *= out
        for comp in amps[1:, rows]:
            np.abs(comp, out=part)
            part *= part
            out += part
    return masses


class _Field:
    """Immutable amplitude block ``amps`` of a ``d``-dimensional support.

    ``amps`` has shape ``(2 d, t+1, ..., t+1)``, one leading row per
    component; the subclass's support mixin says which site each cell holds
    (``_DIM``, ``site_index``, ``_site``, ``_coordinates``, ``_spread``)
    and where each component moves (``_SHIFTS``).  The block is marked
    read-only so fields can be shared freely.

    ``_box`` is the live box: one slice per axis, ``slice(lo, stop)``, where
    ``stop`` is None or negative so that it counts from the end of the axis.
    Every cell outside it is exactly 0, and :func:`_step` mixes only the
    cells inside it.  Counted from the end, the same slices address the box
    grown by one cell per axis in the next, one-larger block.  A field built
    directly has the whole block as its box, and its ``t`` and block pass
    :func:`_checked_block`.

    ``amps`` is ``complex128``, or ``float64`` for a real state's field at
    ``k = 0`` (:func:`_first_field`); the constructor always makes it
    ``complex128``.

    ``_spare`` is None, or the pair ``(buffer, stage)`` that only
    :func:`_evolve` sets and the step empties: two writeable, contiguous
    arrays of the block's dtype that no other live field reads.
    ``buffer`` is a block at least one cell longer per axis than ``amps``,
    and ``stage`` a flat array; ``amps`` may be the leading corner of the
    one or the leading cells of the other.  :func:`_step` then writes the next block
    into one of them instead of allocating it.
    """

    __slots__ = ("t", "amps", "_box", "_spare")

    def __init__(self, t: int, amps: np.ndarray) -> None:
        self.t, self.amps = _checked_block(self, t, amps, (2 * self._DIM,))
        self._box = (slice(0, None),) * self._DIM  # the whole block
        self._spare = None

    @classmethod
    def _built(cls, t: int, amps: np.ndarray, box: tuple[slice, ...] | None = None) -> "_Field":
        """A field over a block the package has just built and holds nowhere
        else, :func:`_step`'s, :func:`_first_field`'s or a closed-form
        field's: a contiguous, finite ``complex128`` or ``float64`` block of
        the right shape, so the constructor's checks and copy are skipped.
        ``box`` is the live box; None means the whole block."""
        self = object.__new__(cls)
        amps.setflags(write=False)
        self.t, self.amps, self._box = t, amps, box or (slice(0, None),) * cls._DIM
        self._spare = None
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
        """The pairwise sum of the per-site masses (:func:`_masses`)."""
        return float(np.sum(_masses(self.amps)))


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
        values = _masses(field.amps)
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
    shifted place in a new block, then multiply by the phase ``ph``.

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
    parts as adjacent ``float64`` columns; a ``float64`` block is its own
    real view) and costs a real matrix product instead of a complex one.
    The new block has the field's dtype, except that a ``float64`` field
    stepped under a phase ``ph != 1`` is first copied to ``complex128``.

    The new block starts uninitialized.  Without a ``_spare`` of its dtype
    it is allocated.  With one, which the step takes, it is laid over the
    leading cells of ``stage`` if it fits there and the field does not live
    there;
    otherwise it is the leading corner of ``buffer``.  When the field itself
    lives in that corner, the new block overwrites it.  No destination cell
    lies before its source cell on any axis, so the step then walks the
    first spatial axis from its far end in chunks of as many rows as fit
    ``stage`` (:func:`_staged`) and copies each chunk's source rows, all
    components, into ``stage`` before the pairs are written: a chunk
    overwrites only rows that no later, nearer chunk reads.  No other step
    copies its field.  The copy pays for itself: each coin pair reads all
    four components of a chunk while it is cached.  Medians on a 2-vCPU VM
    (numpy 2.4.6), this scheme second: alternating each field between the
    buffer's leading and trailing rows, copy-free, took ``evolve_2d`` to
    t = 300 115-118 ms against 90-93 ms, and to t = 500 553-592 against
    375-386 ms (94-96 against 85-86 and 427-438 against 364-367 ms with
    reads blocked in 512 KB chunks); staging every step, with no
    alternation, took the line to t = 10000 227-230 against 172-182 ms
    and the lattice to t = 100 5.3 against 4.2 ms.

    Each component's destination is all of the box, grown by one cell per
    axis, but one edge per axis (the first cell for an ``_UP`` shift, the
    last for ``_DOWN``); those edges (``_EDGES``) and every cell outside the
    box are zeroed, so no cell keeps what it held.  When the new time is a
    multiple of ``_FLUSH_EVERY``, :func:`_flush` then shrinks the box past
    underflowed faces.

    Reads only from the previous field and writes a block that no other
    live field reads (in an evolution, possibly over the previous field,
    which the evolution then drops), so independent evolutions may run
    concurrently.
    """
    a, box = field.amps, field._box
    buffer, stage = field._spare or (None, None)
    field._spare = None
    if ph != 1.0 and a.dtype == np.float64:  # the phase makes a real field complex
        a = a.astype(np.result_type(a, ph))
    shape = (len(a),) + (a.shape[1] + 1,) * field._DIM
    if buffer is None or buffer.dtype != a.dtype:  # no spare of the block's dtype
        new = home = np.empty(shape, a.dtype)
    elif a.base is stage or len(stage) < math.prod(shape):
        new = np.ndarray(shape, a.dtype, buffer, 0, buffer.strides)  # the leading corner
        home = buffer
    else:
        new = home = np.ndarray(shape, a.dtype, stage)  # over the stage's leading cells
    live = (slice(None),) + box  # same cells of the grown block: stops count from the end
    strides = new.strides
    base = sum(map(mul, (s.start for s in box), strides[1:]))  # the box corner, in bytes
    corners = [sum(map(mul, corner, strides)) for corner in field._CORNERS]
    src = a[live]
    for r0, part in _staged(src, stage) if a.base is home else ((0, src),):
        part = part.transpose(field._MIX_AXES).view(np.float64)
        pair = part.shape[:-2] + (2, part.shape[-1])
        offset = base + r0 * strides[1]
        for c in range(0, len(a), 2):
            pair_strides = strides[1:-1] + (corners[c + 1] - corners[c], part.itemsize)
            dst = np.ndarray(pair, np.float64, home, offset + corners[c], pair_strides)
            np.matmul(coin[c : c + 2], part, out=dst)
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
    return field._built(t, new, box)


# bytes of source rows one in-place step stages at a time
_STAGE_BYTES = 1 << 19
# an evolution whose buffer has at most this many bytes gets a staging array
# as large as the buffer, so no step copies its field: the line's up to
# t = 65535, the lattice's up to t = 180, and in float64 the line's up to
# t = 131071, the lattice's up to t = 255
_UNSTAGED_BYTES = 1 << 21


def _staged(src: np.ndarray, stage: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``src``, a live box with the component axis first, in chunks of as
    many rows of its first spatial axis as fit in ``stage`` (at least one),
    from the far end: yields each chunk's first row, counted within ``src``,
    and the chunk, copied over the leading cells of ``stage``."""
    row = src.size // src.shape[1]  # cells of one row, all components
    rows = max(1, len(stage) // row)
    for r1 in range(src.shape[1], 0, -rows):
        r0 = max(0, r1 - rows)
        part = src[:, r0:r1]
        staged = stage[: part.size].reshape(part.shape)
        np.copyto(staged, part)
        yield r0, staged


def _evolve(field: _Field, t: int, step) -> _Field:
    """``step`` applied ``t`` times to ``field``, in one buffer of the final
    field's shape and one staging array, both allocated here with the
    field's dtype.

    The staging array is as large as the buffer while that is at most
    ``_UNSTAGED_BYTES``, and otherwise holds about ``_STAGE_BYTES``.
    Before each step the current field gets the pair as its ``_spare``
    (:func:`_step`).  Fields that fit in the staging array alternate
    between it and the buffer's leading corner, so no step copies them;
    each larger field is written into the leading corner over the field
    before it, a staged chunk of rows at a time.  Every field of the line
    up to t = 65535 fits: staging its steps cost the line 7-27% at
    t = 20000-50000, to save memory the line never lacks.  On the lattice
    fields past t = 89 are staged once the buffer outgrows
    ``_UNSTAGED_BYTES``, which halves the memory of long evolutions; a
    ``float64`` buffer holds half the bytes, so a real state's lattice
    fields are staged from t = 256 on, those past t = 127.  The
    returned field's block is the whole buffer, or the whole staging array
    when that is as large, and its ``_spare`` is empty, so stepping it
    again allocates.  At ``t = 0`` ``field`` itself is returned and
    nothing is allocated.
    """
    if not t:
        return field
    shape = (len(field.amps),) + (t + 1,) * field._DIM
    buffer = np.empty(shape, field.amps.dtype)
    cells = buffer.size
    if buffer.nbytes > _UNSTAGED_BYTES:  # at least one row, all components
        cells = min(cells, max(buffer[:, 0].size, _STAGE_BYTES // buffer.itemsize))
    stage = np.empty(cells, buffer.dtype)
    for _ in range(t):
        field._spare = buffer, stage
        field = step(field)
    return field


def _flush(new: np.ndarray, box: tuple[slice, ...]) -> tuple[slice, ...]:
    """Shrink ``box`` past each face whose cells are all below ``_TINY`` in
    every real and imaginary part, zeroing those cells; return the new box.

    Such a face carries no probability (its squared moduli underflow to 0),
    but stepping it costs subnormal arithmetic.  The box keeps at least one
    cell per axis.  A ``float64`` block has one part per cell.
    """
    parts = new.view(np.float64).reshape(new.shape + (-1,))
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

    Each axis's factor ``(x_d / t)^{a_d}`` is taken once per coordinate
    value and read at every cell through a strided view (:meth:`_spread`),
    so the weights, built in place in one array of the masses' shape, are
    the only temporary of that size.  A second factor multiplies in row by
    row: a ufunc buffers a two-dimensional strided operand, in 64 KB, a
    fifth of the masses at t = 200 on the lattice.
    """
    orders = [require_int(a, "moment order") for a in orders]
    if not any(orders):
        return 1.0
    if dist.t == 0:
        return 0.0
    first, *rest = [
        dist._spread(d, (dist._coordinates() / dist.t) ** a) for d, a in enumerate(orders) if a
    ]
    weights = np.array(first)
    for factor in rest:
        for w, f in zip(weights, factor):
            w *= f
    weights *= dist._values
    return float(np.sum(weights))


def _parts(amps: np.ndarray) -> np.ndarray:
    """A complex block's amplitudes with no copy, as ``float64`` pairs (real
    part, imaginary part) on a last axis of length 2."""
    return amps.view(np.float64).reshape(amps.shape + (2,))


class _Basis:
    """The evolved chirality basis ``U^t e_1, ..., U^t e_n`` of a lattice at
    time ``t``, read from ``_field``, the one stepped field of the lattice's
    basis state at ``k = 0``.

    The walk is linear, so a state ``theta`` evolves to ``sum_b theta_b U^t
    e_b``.  The subclass says how its field carries the basis:
    ``_components`` gives each component of a batch of states' fields,
    ``_amplitudes`` (unless it stacks the components) their blocks,
    ``_matrix`` the basis x component matrix at one grid index, and
    :meth:`gram` the Gram matrix; its support mixin gives ``site_index``.
    ``_STATE`` and ``_FIELD`` name the lattice's state and field classes.
    """

    __slots__ = ("t", "_field")

    def __init__(self, field: _Field) -> None:
        self.t, self._field = field.t, field

    def masses(self, states) -> np.ndarray:
        """The per-site masses of each of ``states``, batch axis first: an
        array of shape ``(len(states), t+1, ...)``, each row laid out as the
        lattice's distributions are.  ``states`` is a non-empty sequence of
        the lattice's states, else :class:`InvalidParameterError`."""
        return self._masses(_rows(states, self._STATE))

    def _masses(self, theta: np.ndarray) -> np.ndarray:
        """:meth:`masses` of the states whose components are the rows of
        ``theta``.  Each state's squared moduli are summed one component at
        a time, in component order, so a batch of one gives the bits of any
        larger batch."""
        masses = np.zeros((len(theta),) + self._field.amps.shape[1:])
        part = np.empty_like(masses)
        for comp in self._components(theta):
            np.abs(comp, out=part)
            part *= part
            masses += part
        return masses

    def amplitude(self, *site: int) -> np.ndarray:
        """The basis x component matrix at ``site``: row ``b`` holds every
        component of ``U^t e_b`` there (zeros off the support), so a state
        ``theta`` has the amplitudes ``theta @ amplitude(*site)``."""
        idx = self.site_index(*_site_coordinates(site, self._DIM))
        if idx is None:
            return np.zeros((2 * self._DIM,) * 2)
        return self._matrix(idx)

    def amplitudes(self, states) -> np.ndarray:
        """The field blocks of each of ``states`` at time ``t``, batch axis
        first: an array of shape ``(len(states), 2 d, t+1, ...)``, each row
        laid out as the lattice's fields are, their components by
        linearity.  Each row differs from stepping its state only by
        rounding, and is computed apart from the others, so a batch of one
        gives the bits of any larger batch.  ``states`` is as for
        :meth:`masses`."""
        return self._amplitudes(_rows(states, self._STATE))

    def field(self, theta: _State) -> _Field:
        """The field of ``theta``, a state of the lattice, at time ``t``:
        :meth:`amplitudes` of the one state."""
        return self._FIELD._built(self.t, self.amplitudes([theta])[0])

    def _amplitudes(self, theta: np.ndarray) -> np.ndarray:
        """The field blocks of the states whose components are the rows of
        ``theta``, batch axis first: the components, stacked."""
        return np.stack(list(self._components(theta)), axis=1)


def _rows(states, cls: type) -> np.ndarray:
    """The components of ``states``, a non-empty sequence of ``cls``
    instances, one row per state, as a ``complex128`` array; else
    :class:`InvalidParameterError`."""
    try:
        rows = [_of_type(s, cls).as_array() for s in states]
    except TypeError:
        raise InvalidParameterError(f"need a sequence of states, got {states!r}") from None
    if not rows:
        raise InvalidParameterError("need at least one state")
    return np.array(rows)


def _stepped(evolve, trajectory, states, p, times) -> Iterator[tuple[_Field, ...]]:
    """The fields of ``states``, one tuple per time, at each of the
    increasing ``times``, lazily, once every input is checked.  A single
    time is evolved in one buffer (``evolve``); a ladder is read off one
    ``trajectory`` per state, whose fields each own a block."""
    times, c = require_ladder(times, "time", 0), as_coin(p)
    if len(times) == 1:
        return (tuple(evolve(s, c, t) for s in states) for t in times)
    want = set(times)
    steps = zip(*(trajectory(s, c, times[-1]) for s in states))
    return (fields for fields in steps if fields[0].t in want)


def _basis_fields(basis: type, evolve, trajectory, states, p, times) -> Iterator[_Basis]:
    """``basis`` over the fields of ``states``, the basis states it reads,
    at each of the increasing ``times``, lazily (:func:`_stepped`)."""
    return (basis(*fields) for fields in _stepped(evolve, trajectory, states, p, times))


class WaveField1D(_Support1D, _Field):
    """Amplitude field on the line at a fixed time, stored densely over its support.

    ``amps`` has shape ``(2, t+1)``; ``amps[c, i]`` is component ``c+1`` at
    site ``x = 2 i - t``, and ``phi1``, ``phi2`` are its two rows as
    read-only views.  Sites of the opposite parity carry no amplitude and
    are not stored.  ``amps`` is ``complex128``, or ``float64`` for a
    real state's field stepped at ``k = 0``.  Immutable.
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
    """Advance the field one step; the norm is preserved up to rounding.

    :func:`trajectory_1d` and :func:`evolve_1d` iterate it.  The support
    grows by one site on each side and the time index by one.  A
    ``float64`` field stays ``float64`` at ``k = 0`` and becomes
    ``complex128`` at any other ``k``.
    The drift accumulates: over the 30 random states of acceptance criterion
    1, the total probability at t = 1000 is at most 1.4e-13 from 1
    (measured: 1.377e-13).
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
    horizon must be an integer in ``[0, 2**28]`` and ``k`` a finite real number.
    The returned iterator is lazy, so a caller may stop early.  A state
    whose components are all real gives ``float64`` fields at ``k = 0``.
    """
    n, c, field = require_time(horizon, "horizon"), as_coin(p), _first_field(init_1d, theta, k)
    # step_1d is looked up at every step, so a rebound (traced) step is seen
    return accumulate(repeat(None, n), lambda f, _: step_1d(f, c, k), initial=field)


def evolve_1d(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    t: int,
    k: float = 0.0,
) -> WaveField1D:
    """The last field of :func:`trajectory_1d`: ``t`` steps from :func:`init_1d`.

    Inputs are checked as in :func:`trajectory_1d`.  Since no earlier field
    is kept, the steps run in one buffer of the final field's shape and a
    staging array (:func:`_evolve`); the result owns the whole of one of
    them, contiguous and read-only.
    """
    n, c, field = require_time(t, "horizon"), as_coin(p), _first_field(init_1d, theta, k)
    # step_1d is looked up at every step, so a rebound (traced) step is seen
    return _evolve(field, n, lambda f: step_1d(f, c, k))


def distribution_1d(field: WaveField1D) -> Distribution1D:
    """Per-site probability ``|phi1|^2 + |phi2|^2``; sums to one."""
    return Distribution1D._of(_of_type(field, WaveField1D))


def moment_1d(dist: Distribution1D, alpha: int) -> float:
    """Pseudo-velocity moment ``sum_x (x/t)^alpha P(x, t)``.

    ``alpha = 0`` always returns 1.  At ``t = 0`` the walker has no velocity,
    so the moment is 1 for ``alpha = 0`` and 0 otherwise.
    """
    return _moment(_of_type(dist, Distribution1D), (alpha,))


# the line's basis state: the packed ``(e_1 + i e_2) / sqrt(2)``
_R = 1 / math.sqrt(2)
_PACKED = (_R, _R * 1j)


class _LineBasis(_Support1D, _Basis):
    """The line's basis at time ``t``, read from the field of the packed
    state ``(e_1 + i e_2) / sqrt(2)``: the coin is real, so at ``k = 0`` the
    field's real parts carry ``U^t e_1 / sqrt(2)`` and its imaginary parts
    ``U^t e_2 / sqrt(2)``.  The field stays complex, so a step that
    conjugates is seen."""

    __slots__ = ()
    _STATE, _FIELD = QubitState, WaveField1D

    def _amplitudes(self, theta: np.ndarray) -> np.ndarray:
        """The field blocks of the states whose components are the rows of
        ``theta``, batch axis first: ``sqrt(2) (Re theta_b, Im theta_b)``
        weighs the packed parts in one real matrix product."""
        c = _parts(theta) * math.sqrt(2)
        return (_parts(self._field.amps) @ c[:, None]).view(np.complex128)[..., 0]

    def _components(self, theta: np.ndarray) -> np.ndarray:
        return self._amplitudes(theta).swapaxes(0, 1)

    def _matrix(self, idx: int) -> np.ndarray:
        return math.sqrt(2) * _parts(self._field.amps)[:, idx].T

    def gram(self) -> np.ndarray:
        """The Gram matrix ``G_ij = <U^t e_i, U^t e_j>``, so that a state
        ``theta`` has total probability ``theta^H G theta``: ``2 sum_c v_c^T
        v_c`` over the packed field's components' parts, since doubling is
        exact where scaling by ``sqrt(2)`` would round."""
        return 2 * sum(np.einsum("ia,ib->ab", c, c) for c in _parts(self._field.amps))


def basis_fields_1d(p: CoinParameter | float, times) -> Iterator[_LineBasis]:
    """The line's evolved chirality basis at each of the increasing
    ``times`` (integers ``>= 0``), lazily, from one stepped field per time.

    The walk is linear, and real at ``k = 0``: every state's field at
    ``k = 0`` is read from the basis.  The basis is carried by the field of
    the packed state ``(1, i) / sqrt(2)``, stepped in ``complex128`` by
    :func:`evolve_1d` for a single time and by :func:`trajectory_1d` for a
    ladder.  Each basis field has ``t`` and offers ``masses(states)`` (the
    masses of a batch of :class:`QubitState`, batch axis first),
    ``amplitudes(states)`` (their amplitude blocks, batch axis first),
    ``amplitude(x)`` (the basis x component matrix at site ``x``),
    ``field(theta)`` (one state's field) and ``gram()``.  Inputs are
    checked here, before the first field is stepped.
    """
    return _basis_fields(_LineBasis, evolve_1d, trajectory_1d, (_PACKED,), p, times)
