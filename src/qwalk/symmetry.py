"""Initial-state symmetry classes, expectation tables, reflection identities.

The exchange identity.  With ``J = [[0, -1], [1, 0]]``, ``E = EXCHANGE_1D =
J`` on the line and ``E = EXCHANGE_2D = blockdiag(J, J)`` on the lattice,
pairing the (+x, -x) movers and the (+y, -y) movers, the coin ``H`` obeys
``E H E^T = -H``, and so, for every state ``theta``, every ``t`` and every
phase ``k``,

    U^t (E theta) = (-1)^t E F U^t theta,

where ``F`` is the inversion: ``x -> -x`` on the line, ``(x, y) -> (-x,
-y)`` on the lattice (within rounding: 1.1e-15 measured on the line to t =
3000, 2.5e-16 on the lattice to t = 300).  The acceptance gate reads the
lattice field of ``e_2 = E e_1`` as the inversion image of ``e_1``'s.

One dimension.  A qubit ``(d1, d2)`` is *balanced-orthogonal* when
``|d1| = |d2|`` and ``d1 conj(d2) + conj(d1) d2 = 0``; such states are
exactly the phase families ``e^{i g} (1, +-i)/sqrt(2)`` and give distributions
symmetric under ``x -> -x`` at every time.  They are the eigenvectors of the
exchange, ``J theta = -+i theta``, so the identity maps their field to
itself: the reflected field satisfies ``zeta_x = (-1)^t (+-i) J zeta_{-x}``
(sign matching the state's ``+-i`` pattern), and ``P(x) = P(-x)``.  The
walk engine here evolves with component 1 moving in +x; the convention with
component 1 moving in -x is its spatial reflection, so all identities are
evaluated on the reflected field ``zeta_x := field(-x)`` (the residual is
the same either way because ``J^2 = -I`` makes the identity form-invariant
under reflection).

Two dimensions.  The analogous four-component pattern is
``e^{i g} (1, +-i, +-i, -1)/2``, the Kronecker square of the line's, with
``EXCHANGE_2D theta = -+i theta``, giving

    Omega_{x, y} = (-1)^t (+-i) EXCHANGE_2D Omega_{-x, -y}

and hence inversion symmetry ``P(x, y) = P(-x, -y)`` at every time.  The
tensor square ``kron(J, J)`` (an anti-diagonal sign matrix) is symmetric and
squares to +I, so it cannot intertwine the inversion for this walk in any
component ordering; it is the exchange constant of a *pair of independent
line walks* instead.  Because no constant matrix intertwines the single-axis
mirror ``x -> -x`` here (the coin's diagonal blocks obstruct it), the
operative notion of a symmetric 2D distribution is inversion symmetry; the
stricter four-way axis-mirror equality genuinely fails for these dynamics,
so ``empirical_symmetric_2d`` tests inversion symmetry only.

The lattice has one more exact symmetry, the diagonal mirror ``R: (x, y) ->
(y, x)``.  The coin is ``kron(C, C)`` and ``EXCHANGE_XY = kron(J, I)``
exchanges the x movers with the y movers, so ``A kron(C, C) A^T = -kron(C,
C)`` with ``A = EXCHANGE_XY``, and the field of ``A theta`` is the mirrored
field of ``theta``:

    U^t (A theta) = (-1)^t A R U^t theta,

at every ``t`` and every phase ``k``, within rounding (1.3e-16 measured to t
= 300).  In wavenumber space it reads ``A S(m, n) A^T = -S(n, m)``.  Like
the exchange identity it holds for every state; the package uses the two to
read the lattice's whole evolved basis from one stepped field (acceptance
checks 1 and 6) and the mirror to sweep an eighth of the torus
(:mod:`qwalk.spectral`).  ``EXCHANGE_XY`` is the one definition of the
mirror, shared by name and not public.

One residual serves both lattices: ``reflection_identity_1d`` and
``reflection_identity_2d`` return ``max |flip(amps) - c E amps|`` with
``c = (-1)^t (+-i)``, where ``flip`` reverses every spatial axis of the
amplitude block and ``E`` is the module's own ``EXCHANGE_1D`` or
``EXCHANGE_2D``; the residual code holds no copy of either constant.

The expectation table extractor reproduces, at p = 1/2, the classical
coefficient sequences ``a_t`` (from state (1, 0)) and ``b_t`` (from state
(1, 1)/sqrt(2)) under this engine's orientation, where
``E(X_t) = +a_t (|d1|^2 - |d2|^2) + b_t (d1 conj(d2) + conj(d1) d2)``, and
``kns_check`` tests the first-difference relation ``b_{t+1} - a_t = 1``.
It is exact at p = 1/2.  Off p = 1/2 it fails at a linear rate: with
``q = 1 - p``, ``(b_{t+1} - a_t) / t -> (1 - sqrt(q)) (sqrt(q / p) - 1)``,
which is nonzero for p != 1/2 (pinned by ``TestKonnoSlopes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice

import numpy as np

from .coin import CoinParameter
from .errors import InvalidParameterError, PreconditionError, require_time
from .walk1d import (
    QubitState,
    _checked_array,
    _of_type,
    as_qubit,
    distribution_1d,
    evolve_1d,
    trajectory_1d,
)
from .walk2d import as_qudit, distribution_2d, evolve_2d, trajectory_2d

__all__ = [
    "EXCHANGE_1D",
    "EXCHANGE_2D",
    "SymmetryVerdict1D",
    "ABTable",
    "in_phi_perp",
    "empirical_symmetric_1d",
    "classify_1d",
    "expectation_series",
    "extract_ab",
    "kns_check",
    "reflection_identity_1d",
    "in_phi_perp_2d",
    "empirical_symmetric_2d",
    "reflection_identity_2d",
]

_CLASS_TOL = 1e-12
_SYM_TOL = 1e-12
_KNS_TOL = 1e-10
_PATTERN_TOL = 1e-9

EXCHANGE_1D = np.array([[0.0, -1.0], [1.0, 0.0]])

# operative 2D exchange: one J block per lattice axis
EXCHANGE_2D = np.block(
    [[EXCHANGE_1D, np.zeros((2, 2))], [np.zeros((2, 2)), EXCHANGE_1D]]
)

# the diagonal mirror's exchange: J across the axes, the x movers to the y
# movers; ``(A theta)_c = A[c, src] theta_src`` with one ``src`` per row
EXCHANGE_XY = np.kron(EXCHANGE_1D, np.eye(2))
EXCHANGE_XY.flags.writeable = False


@dataclass(frozen=True)
class SymmetryVerdict1D:
    """Deterministic classification of one initial qubit at one horizon."""

    in_phi_perp: bool
    empirically_symmetric: bool
    zero_mean: bool
    horizon: int


@dataclass(frozen=True)
class ABTable:
    """Expectation coefficients ``a_t``, ``b_t`` for ``t = 1..T``, held as
    read-only ``float64`` copies of finite real input."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = _checked_array(self.a, "a", None, real=True)
        b = _checked_array(self.b, "b", None, real=True)
        if a.shape != b.shape or a.ndim != 1:
            raise InvalidParameterError("a and b must be 1D arrays of equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return self.a.size

    def kns_residuals(self) -> np.ndarray:
        """``b_{t+1} - a_t - 1`` for ``t = 1..T-1``."""
        return self.b[1:] - self.a[:-1] - 1.0


def _balanced(state) -> bool:
    """Equal component moduli and vanishing cross terms ``sum_{i != j} c_i conj(c_j)``."""
    arr = state.as_array()
    mods = np.abs(arr)
    cross = abs(np.sum(arr)) ** 2 - float(np.sum(mods**2))
    return bool(np.max(mods) - np.min(mods) <= _CLASS_TOL and abs(cross) <= _CLASS_TOL)


def _inversion_symmetric(masses) -> bool:
    """True iff every mass array equals its inversion through the origin
    within 1e-12."""
    return all(np.max(np.abs(m - np.flip(m))) <= _SYM_TOL for m in masses)


def in_phi_perp(theta) -> bool:
    """Balanced-orthogonal test: ``|d1| = |d2|`` and vanishing cross term."""
    return _balanced(as_qubit(theta))


def empirical_symmetric_1d(theta, p: CoinParameter | float, horizon: int) -> bool:
    """True iff ``P(x, t) = P(-x, t)`` within 1e-12 for every ``t <= horizon``."""
    fields = trajectory_1d(theta, p, require_time(horizon, "horizon", 1))
    return _inversion_symmetric(distribution_1d(f).masses for f in fields)


def expectation_series(theta, p: CoinParameter | float, horizon: int) -> np.ndarray:
    """``E(X_t)`` for ``t = 1..horizon`` from the position-space oracle."""
    horizon = require_time(horizon, "horizon", 1)
    fields = islice(trajectory_1d(theta, p, horizon), 1, None)
    return np.array([distribution_1d(f).mean_position() for f in fields])


def classify_1d(theta, p: CoinParameter | float, horizon: int) -> SymmetryVerdict1D:
    """All three class predicates for one state, reproducibly; ``zero_mean``
    is ``|E(X_t)| <= 1e-12`` for every ``t <= horizon``."""
    return SymmetryVerdict1D(
        in_phi_perp=in_phi_perp(theta),
        empirically_symmetric=empirical_symmetric_1d(theta, p, horizon),
        zero_mean=bool(np.max(np.abs(expectation_series(theta, p, horizon))) <= _SYM_TOL),
        horizon=int(horizon),
    )


def extract_ab(p: CoinParameter | float, horizon: int) -> ABTable:
    """Expectation table: ``a_t`` from state (1, 0), ``b_t`` from (1, 1)/sqrt(2)."""
    a = expectation_series(QubitState(1.0, 0.0), p, horizon)
    r = 1.0 / np.sqrt(2.0)
    b = expectation_series(QubitState(r, r), p, horizon)
    return ABTable(a=a, b=b)


def kns_check(table: ABTable) -> bool:
    """First-difference relation ``b_{t+1} = a_t + 1`` over the whole table,
    every residual within 1e-10."""
    if len(_of_type(table, ABTable)) < 2:
        raise InvalidParameterError("table must cover at least t = 1, 2")
    return bool(np.max(np.abs(table.kns_residuals())) <= _KNS_TOL)


_PATTERNS = {2: "(1, +-i)", 4: "(1, +-i, +-i, -1)"}


def _pattern_branch(state) -> int:
    """+1 / -1 for states proportional to ``(1, +i)`` / ``(1, -i)`` on the
    line or to its Kronecker square ``(1, +-i, +-i, -1)`` on the lattice;
    error otherwise."""
    arr = state.as_array()
    if abs(arr[0]) >= _PATTERN_TOL:
        for branch in (1, -1):
            target = reduce(np.kron, [np.array([1.0, 1j * branch])] * (len(arr) // 2))
            if np.max(np.abs(arr / arr[0] - target)) <= _PATTERN_TOL:
                return branch
    raise PreconditionError(
        f"reflection identity needs a state proportional to {_PATTERNS[len(arr)]}"
    )


def _reflection_residual(state, evolve, exchange: np.ndarray, p, t: int) -> float:
    """``max |flip(amps) - c exchange amps|`` at time ``t``, ``c = (-1)^t (+-i)``.

    ``flip`` reverses every spatial axis, so each site is paired with its
    inversion image: the identity is evaluated on the reflected field.
    """
    branch = _pattern_branch(state)
    field = evolve(state, p, require_time(t, "time", 1))
    amps, c = field.amps, (-1) ** field.t * (1j * branch)
    flipped = np.flip(amps, axis=tuple(range(1, amps.ndim)))
    return float(np.max(np.abs(flipped - c * np.tensordot(exchange, amps, axes=1))))


def reflection_identity_1d(theta, p: CoinParameter | float, t: int) -> float:
    """Max amplitude residual of the 1D exchange identity at time ``t``.

    Uses ``EXCHANGE_1D``; evaluated on the reflected field (the mirrored
    walk orientation).  The caller asserts the returned residual against
    its tolerance.
    """
    return _reflection_residual(as_qubit(theta), evolve_1d, EXCHANGE_1D, p, t)


def in_phi_perp_2d(theta) -> bool:
    """Equal component moduli and vanishing off-diagonal cross-term sum."""
    return _balanced(as_qudit(theta))


def empirical_symmetric_2d(theta, p: CoinParameter | float, horizon: int) -> bool:
    """Inversion symmetry ``P(x, y) = P(-x, -y)`` within 1e-12 for every
    ``t <= horizon``: the notion these dynamics realize for the balanced
    states.  The full axis-mirror equality holds for no nontrivial state
    family here (see module docstring).
    """
    fields = trajectory_2d(theta, p, require_time(horizon, "horizon", 1))
    return _inversion_symmetric(distribution_2d(f).grid for f in fields)


def reflection_identity_2d(theta, p: CoinParameter | float, t: int) -> float:
    """Max amplitude residual of the 2D exchange identity at time ``t``.

    Uses the operative constant ``EXCHANGE_2D``; evaluated on the reflected
    field, pairing each site with its inversion image.
    """
    return _reflection_residual(as_qudit(theta), evolve_2d, EXCHANGE_2D, p, t)
