"""Closed-form amplitudes on the line via a Chebyshev-type recurrence.

The one-step kernel ``S(x')`` has trace ``2 c(x')`` with
``2 c = sqrt(p) (e^{-i x'} - e^{i x'})`` and determinant -1, so
Cayley-Hamilton gives ``S^2 = 2 c S + I`` and hence

    S^t = alpha_t S + alpha_{t-1} I,
    alpha_1 = 1,  alpha_2 = 2 c,  alpha_{t+1} = 2 c alpha_t + alpha_{t-1}.

Note the plus sign: the three-term recurrence differs from the Chebyshev
``U_n = 2 y U_{n-1} - U_{n-2}`` exactly because ``det S = -1`` rather than
+1.  Each ``alpha_t`` is a Laurent polynomial in ``e^{i x'}`` supported on
frequencies ``n = -(t-1), -(t-1)+2, ..., t-1``; the recurrence is run
directly on the coefficient arrays, which stays exact in index bookkeeping
and keeps every intermediate bounded (``|alpha_t(x')| <= 1/sqrt(q)``
pointwise on the unit circle); coefficients that underflow below the
smallest normal ``float64`` are shed from the tails.  One run of the
recurrence serves a whole increasing ladder of times, and the last ladder's
run serves the next state too: :func:`closed_form_fields` assembles the
field at each requested time, and :func:`closed_form_field` and
:func:`alpha_coefficients` are its one-time cases.

Position-space amplitudes follow by reading off Fourier coefficients of
``e^{i t k} (alpha_t S + alpha_{t-1} I) Theta``:

    phi1(x, t) = e^{itk} [ (sp d1 + sq d2) a_t[x-1] + d1 a_{t-1}[x] ]
    phi2(x, t) = e^{itk} [ (sq d1 - sp d2) a_t[x+1] + d2 a_{t-1}[x] ]

with ``sp = sqrt(p)``, ``sq = sqrt(q)`` and ``a_t[n]`` the coefficient of
``e^{-i n x'}`` in ``alpha_t``.  The result must agree amplitude-by-amplitude
with the step-by-step oracle in :mod:`qwalk.walk1d`; that equivalence is a
tested invariant, not an assumption.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .coin import CoinParameter, as_coin
from .errors import InvalidParameterError, require_int, require_ladder, require_real, require_time
from .walk1d import QubitState, WaveField1D, _checked_array, _phase, as_qubit, init_1d

__all__ = [
    "LaurentCoefficients",
    "alpha_coefficients",
    "double_sum_coefficient",
    "closed_form_field",
    "closed_form_fields",
]


class LaurentCoefficients:
    """Coefficients ``c_n`` of a Laurent polynomial ``sum_n c_n e^{-i n x'}``.

    ``order`` is the recurrence index ``t``; the support is contained in
    ``{-(t-1), -(t-1)+2, ..., t-1}`` and is stored densely over that set
    (index ``i`` holds frequency ``n = 2 i - (t - 1)``).
    """

    __slots__ = ("order", "values")

    def __init__(self, order: int, values: np.ndarray) -> None:
        self.order = require_int(order, "order")
        self.values = _checked_array(values, "coefficients", (self.order,))

    def indices(self) -> np.ndarray:
        """Frequencies carrying (potentially) nonzero coefficients, ascending."""
        return 2 * np.arange(self.order) - (self.order - 1)

    def __getitem__(self, n: int) -> complex:
        n = require_int(n, "frequency", None)
        if (n + self.order - 1) % 2 != 0 or abs(n) > self.order - 1:
            return 0j
        return complex(self.values[(n + self.order - 1) // 2])

    def items(self) -> Iterator[tuple[int, complex]]:
        for n, c in zip(self.indices(), self.values):
            if c != 0:
                yield int(n), complex(c)

    def evaluate(self, wavenumber: float) -> complex:
        """Value of the polynomial at a given wavenumber.

        Raises
        ------
        InvalidParameterError
            If the wavenumber is not a finite real number.
        """
        x = require_real(wavenumber, "wavenumber")
        return complex(np.sum(self.values * np.exp(-1j * x * self.indices())))


# the smallest normal float64: a coefficient below it is subnormal or zero
_SHED_BELOW = float(np.finfo(np.float64).tiny)
# recurrence steps between two sheddings of underflowed tail cells
_SHED_EVERY = 16


def _alpha_pairs(
    p: CoinParameter, times: tuple[int, ...]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Packed coefficient arrays of ``alpha_t`` and ``alpha_{t-1}`` at each
    ``t >= 1`` of the increasing ``times``, from one run of the recurrence.

    ``alpha_0`` is the empty array.  Reaching ``max(times)`` costs O(t^2) in
    time and O(t) in memory; the yielded arrays are fresh and never written
    again.

    ``2 c = sqrt(p) (e^{-i x'} - e^{i x'})`` has the real coefficients
    ``sqrt(p)`` and ``-sqrt(p)``, so every coefficient is real and the
    recurrence runs on ``float64`` arrays.  With ``s = sqrt(p) a_m`` the new
    array is ``-s[0]``, then ``s[i-1] - s[i] + a_{m-1}[i-1]``, then
    ``s[-1]``, so every cell is written and none needs zeroing first.

    The recurrence runs on the live cores of ``alpha_m`` and ``alpha_{m-1}``:
    both arrays without their ``dead`` outermost cells at either end, which
    are exactly 0.  Every ``_SHED_EVERY`` steps the cores shed their outer
    cells, one at each end of both at a time, while all four are below the
    smallest normal ``float64`` (``_SHED_BELOW``); the next array's core then
    keeps the same ``dead``.  Such cells are subnormal: no amplitude the
    closed form returns can show them, but their arithmetic is slow, and
    long ladders spent most of their time on it (t = 10000 at p = 0.3
    carried 3,264 of them).  At t = 10000 and p from 0.3 to 0.78 the
    coefficients agree with the recurrence on whole arrays within 8.3e-17,
    while either run is 4e-15 to 9e-15 from one in 80-bit floats (p = 0.3,
    0.6, 0.7).  The
    stepped walk flushes its field's faces by the same threshold; nothing
    here reads its flush.
    """
    sp = math.sqrt(p.p)
    prev = np.empty(0)                               # alpha_0
    cur = np.ones(1)                                 # alpha_1
    dead = 0
    for t in times:
        while cur.size + 2 * dead < t:               # cur is alpha_m, m = cur.size + 2 dead
            s = sp * cur
            new = np.empty(cur.size + 1)
            new[0], new[-1] = -s[0], s[-1]
            np.subtract(s[:-1], s[1:], out=new[1:-1])
            new[1:-1] += prev                        # empty for m = 1
            prev, cur = cur, new
            if (cur.size + 2 * dead) % _SHED_EVERY == 0:
                while cur.size > 1 and _subnormal_ends(cur, prev):
                    prev, cur, dead = prev[1:-1], cur[1:-1], dead + 1
        yield np.pad(cur, dead), np.pad(prev, dead)


def _subnormal_ends(*arrays: np.ndarray) -> bool:
    """Whether the first and the last cell of every array are below
    ``_SHED_BELOW`` in magnitude."""
    return all(abs(a[0]) < _SHED_BELOW and abs(a[-1]) < _SHED_BELOW for a in arrays)


@lru_cache(maxsize=1)
def _alpha_ladder(p: CoinParameter, times: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """The pairs of :func:`_alpha_pairs` at each of ``times``, as read-only
    arrays, kept for the last ``(p, times)`` only.

    The recurrence does not depend on the state, so a caller that asks for
    the same ladder state after state (acceptance check 3, 20 states per
    ``p``) runs it once.  The memo holds ``2 t - 1`` ``float64`` per time
    ``t``, at most half the ``complex128`` block of the field
    :func:`closed_form_fields` returns for it, and no more than one ladder.
    """
    pairs = tuple(_alpha_pairs(p, times))
    for pair in pairs:
        for coefficients in pair:
            coefficients.flags.writeable = False
    return pairs


def alpha_coefficients(p: CoinParameter | float, t: int) -> LaurentCoefficients:
    """Laurent coefficients of ``alpha_t`` for ``t >= 1``.

    Equivalently the power series
    ``sum_m C(t-1-m, m) (2 c)^{t-1-2m}`` expanded in ``e^{-i x'}``; see
    :func:`double_sum_coefficient` for the fully expanded double sum.
    """
    t = require_time(t, "recurrence index", 1)
    cur, _ = next(_alpha_pairs(as_coin(p), (t,)))
    return LaurentCoefficients(t, cur)


def double_sum_coefficient(p: CoinParameter | float, t: int, j: int) -> float:
    """Coefficient of ``e^{-i x' (t - 2j)}`` in the degree-t expansion.

    Explicit double-sum form: expanding ``(2 c)^{t-2m} = p^{(t-2m)/2}
    (e^{-ix'} - e^{ix'})^{t-2m}`` binomially inside the recurrence series
    gives

        sum_m  C(t-m, m) p^{(t-2m)/2} (-1)^{j-m} C(t-2m, j-m)

    which must agree with ``alpha_coefficients(p, t+1)[t - 2j]``; that
    identity is a tested invariant.

    The alternating terms reach ~2^t while the result stays O(1), so the sum
    is evaluated in exact rational arithmetic (every float ``p`` is an exact
    rational; one factor of ``sqrt(p)`` remains for odd ``t``) and rounded
    once at the end.
    """
    c = as_coin(p)
    t, j = require_time(t, "degree t"), require_int(j, "index j", None)
    if not 0 <= j <= t:
        raise InvalidParameterError(f"index j must lie in [0, {t}], got {j}")
    p_exact = Fraction(c.p)
    parity = t % 2
    half = (t - parity) // 2
    total = Fraction(0)
    # the terms with 0 <= j - m <= t - 2 m
    for m in range(min(j, t - j) + 1):
        r = j - m
        coeff = math.comb(t - m, m) * math.comb(t - 2 * m, r)
        if r % 2:
            coeff = -coeff
        total += coeff * p_exact ** (half - m)
    value = float(total)
    if parity:
        value *= math.sqrt(c.p)
    return value


def closed_form_fields(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    times,
    k: float = 0.0,
) -> tuple[WaveField1D, ...]:
    """Amplitude fields at each time of a strictly increasing ladder, computed
    without stepping.

    One run of the ``alpha`` recurrence serves the whole ladder, and only the
    requested fields are assembled; the run's coefficients are kept until
    another ``p`` or ladder is asked for (:func:`_alpha_ladder`).  Each
    field must equal ``evolve_1d(theta, p, t, k)`` amplitude-by-amplitude;
    ``t = 0`` is the initial field.
    """
    times, ph = require_ladder(times, "time", 0), _phase(k)
    th, c = as_qubit(theta), as_coin(p)
    sp, sq = math.sqrt(c.p), math.sqrt(c.q)
    out = [init_1d(th)] if times[0] == 0 else []
    later = times[len(out):]
    for t, (a_t, a_tm1) in zip(later, _alpha_ladder(c, later), strict=True):
        amps = np.zeros((2, t + 1), dtype=np.complex128)
        # site x = 2 m - t;  a_t[.] packed with frequency n = 2 i - (t - 1)
        amps[0, 1:] += (sp * th.d1 + sq * th.d2) * a_t     # needs a_t at x - 1
        amps[1, :-1] += (sq * th.d1 - sp * th.d2) * a_t    # needs a_t at x + 1
        # a_{t-1} at x; alpha_0 is empty, so t = 1 adds nothing here
        amps[0, 1:-1] += th.d1 * a_tm1
        amps[1, 1:-1] += th.d2 * a_tm1
        # the stepped oracle's per-step phase raised to the t: finite for every
        # finite k, where exp(1j * k * t) overflows once |k t| exceeds 1.8e308;
        # in place, since the block becomes the field's own
        amps *= ph**t
        out.append(WaveField1D._built(t, amps))
    return tuple(out)


def closed_form_field(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    t: int,
    k: float = 0.0,
) -> WaveField1D:
    """Amplitude field at time ``t`` computed without stepping.

    The one-time case of :func:`closed_form_fields`, which the package
    calls.  Must equal ``evolve_1d(theta, p, t, k)`` amplitude-by-amplitude,
    and rejects the same inputs; the tests hold it to that.
    """
    return closed_form_fields(theta, p, (require_time(t, "time"),), k)[0]
