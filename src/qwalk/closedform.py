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
pointwise on the unit circle).  One run of the recurrence serves a whole
increasing ladder of times: :func:`closed_form_fields` assembles the field
at each requested time as the run passes it, and :func:`closed_form_field`
and :func:`alpha_coefficients` are its one-time cases.

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
from typing import Iterator

import numpy as np

from .coin import CoinParameter, as_coin
from .errors import InvalidParameterError, require_int, require_ladder, require_real
from .walk1d import QubitState, WaveField1D, _phase, as_qubit, init_1d

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
        if values.shape != (order,):
            raise InvalidParameterError(
                f"coefficient array for order {order} must have length {order}"
            )
        self.order = int(order)
        self.values = np.ascontiguousarray(values, dtype=np.complex128)
        self.values.flags.writeable = False

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


def _alpha_pairs(
    p: CoinParameter, times: tuple[int, ...]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Packed coefficient arrays of ``alpha_t`` and ``alpha_{t-1}`` at each
    ``t >= 1`` of the increasing ``times``, from one run of the recurrence.

    ``alpha_0`` is the empty array.  Reaching ``max(times)`` costs O(t^2) in
    time and O(t) in memory; the yielded arrays are never written again.

    ``2 c = sqrt(p) (e^{-i x'} - e^{i x'})`` has the real coefficients
    ``sqrt(p)`` and ``-sqrt(p)``, so every coefficient is real and the
    recurrence runs on ``float64`` arrays.  With ``s = sqrt(p) a_m`` the new
    array is ``-s[0]``, then ``s[i-1] - s[i] + a_{m-1}[i-1]``, then
    ``s[-1]``, so every cell is written and none needs zeroing first.
    """
    sp = math.sqrt(p.p)
    prev = np.empty(0)                               # alpha_0
    cur = np.ones(1)                                 # alpha_1
    for t in times:
        while cur.size < t:                          # cur is alpha_m, m = cur.size
            s = sp * cur
            new = np.empty(cur.size + 1)
            new[0], new[-1] = -s[0], s[-1]
            np.subtract(s[:-1], s[1:], out=new[1:-1])
            new[1:-1] += prev                        # empty for m = 1
            prev, cur = cur, new
        yield cur, prev


def alpha_coefficients(p: CoinParameter | float, t: int) -> LaurentCoefficients:
    """Laurent coefficients of ``alpha_t`` for ``t >= 1``.

    Equivalently the power series
    ``sum_m C(t-1-m, m) (2 c)^{t-1-2m}`` expanded in ``e^{-i x'}``; see
    :func:`double_sum_coefficient` for the fully expanded double sum.
    """
    t = require_int(t, "recurrence index", 1)
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
    t, j = require_int(t, "degree t"), require_int(j, "index j", None)
    if not 0 <= j <= t:
        raise InvalidParameterError(f"index j must lie in [0, {t}], got {j}")
    p_exact = Fraction(c.p)
    parity = t % 2
    half = (t - parity) // 2
    total = Fraction(0)
    for m in range(0, t // 2 + 1):
        r = j - m
        if r < 0 or r > t - 2 * m:
            continue
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
    requested fields are assembled.  Each field must equal ``evolve_1d(theta,
    p, t, k)`` amplitude-by-amplitude; ``t = 0`` is the initial field.
    """
    times, ph = require_ladder(times, "time", 0), _phase(k)
    th, c = as_qubit(theta), as_coin(p)
    sp, sq = math.sqrt(c.p), math.sqrt(c.q)
    out = [init_1d(th)] if times[0] == 0 else []
    later = times[len(out):]
    for t, (a_t, a_tm1) in zip(later, _alpha_pairs(c, later), strict=True):
        amps = np.zeros((2, t + 1), dtype=np.complex128)
        # site x = 2 m - t;  a_t[.] packed with frequency n = 2 i - (t - 1)
        amps[0, 1:] += (sp * th.d1 + sq * th.d2) * a_t     # needs a_t at x - 1
        amps[1, :-1] += (sq * th.d1 - sp * th.d2) * a_t    # needs a_t at x + 1
        # a_{t-1} at x; alpha_0 is empty, so t = 1 adds nothing here
        amps[0, 1:-1] += th.d1 * a_tm1
        amps[1, 1:-1] += th.d2 * a_tm1
        # the stepped oracle's per-step phase raised to the t: finite for every
        # finite k, where exp(1j * k * t) overflows once |k t| exceeds 1.8e308;
        # in place, since the field constructor copies its block
        amps *= ph**t
        out.append(WaveField1D(t, amps))
    return tuple(out)


def closed_form_field(
    theta: QubitState | tuple | list | np.ndarray,
    p: CoinParameter | float,
    t: int,
    k: float = 0.0,
) -> WaveField1D:
    """Amplitude field at time ``t`` computed without stepping.

    The one-time case of :func:`closed_form_fields`.  Must equal
    ``evolve_1d(theta, p, t, k)`` amplitude-by-amplitude, and rejects the
    same inputs.
    """
    return closed_form_fields(theta, p, (require_int(t, "time"),), k)[0]
