"""Acceptance checks runnable as a suite (CLI ``validate``) or via pytest.

Each check pins one acceptance criterion at its stated scale and tolerance
and returns a :class:`CheckResult`; nothing is rescaled at run time except
through the documented ``quick`` mode, which shrinks horizons and sample
counts for a sub-ten-second smoke run.

One rule, :func:`_judged`, judges every worst value against its tolerance:
a check passes iff its largest deviation is at most the tolerance, so a NaN
in any compared value fails.  :func:`run_checks` reports a check that raises
as that check's FAIL, and ``qwalk validate`` then exits 3.

Checks 1, 3, 5 and 6 read their states by linearity from evolved chirality
bases: ``U^t theta = sum_c theta_c U^t e_c``.  :func:`_basis_fields` steps
one state per lattice (``_BASIS``).  On the line it is the packed state
``(1, i) / sqrt(2)``: the coin is real and the checks run at ``k = 0``, so
``(u + i w) / s`` with real ``u`` and ``w`` carries ``U^t u / s`` in its
real parts and ``U^t w / s`` in its imaginary parts, and a complex field
keeps checks 3 and 5 able to see a step that conjugates.  On the lattice it
is the real ``e_1``, stepped in ``float64``, and the other three basis
fields are its images (:func:`_lattice_basis`), read without a copy: by
the exchange identities of :mod:`qwalk.symmetry`, which hold for every
state, ``U^t (X theta) = (-1)^t X G U^t theta`` with ``X = EXCHANGE_2D``
and ``G`` the inversion ``(x, y) -> (-x, -y)``, or ``X = EXCHANGE_XY`` and
``G`` the diagonal mirror ``(x, y) -> (y, x)``.  ``e_2 = EXCHANGE_2D e_1``
is the inversion image, and ``e_3``, ``e_4`` the mirror images of ``e_1``,
``e_2``: one real lattice field per ``p`` serves the whole basis.  Check 1
reads total probabilities from the basis's Gram matrix (:func:`_gram`).
One reader, :func:`_amplitudes`, gives any other state's amplitudes from
the basis: check 3 compares the line's with the closed form, and checks 5
and 6 take the moments of their masses (:func:`_masses`) with
:func:`moment_1d` and :func:`joint_moment_2d`, the package's one moment
formula.  One basis evolution or trajectory per ``p`` serves every state.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields
from functools import reduce
from itertools import combinations_with_replacement, product
from typing import Callable

import numpy as np

from .closedform import alpha_coefficients, closed_form_fields, double_sum_coefficient
from .errors import InvalidParameterError
from .localization import (
    localization_verdict,
    time_averaged_probability_1d,
    time_averaged_probability_2d,
)
from .spectral import MomentReport, QuadratureGrid, limit_moment_1d, limit_moments_2d
from .symmetry import (
    EXCHANGE_2D,
    EXCHANGE_XY,
    ABTable,
    empirical_symmetric_1d,
    empirical_symmetric_2d,
    extract_ab,
    in_phi_perp,
    in_phi_perp_2d,
    kns_check,
    reflection_identity_1d,
    reflection_identity_2d,
)
from .walk1d import (
    Distribution1D,
    QubitState,
    distribution_1d,
    evolve_1d,
    moment_1d,
    trajectory_1d,
)
from .walk2d import (
    Distribution2D,
    QuditState,
    distribution_2d,
    evolve_2d,
    joint_moment_2d,
    trajectory_2d,
)

__all__ = [
    "CheckResult",
    "ALL_CHECKS",
    "run_checks",
    "reference_table_deviation",
]

_log = logging.getLogger(__name__)
_SEED = 20240811
_P_GRID = (0.25, 0.5, 0.75)

A_TABLE_HALF = (0.0, 0.0, 1 / 2, 1.0, 9 / 8, 5 / 4, 27 / 16, 17 / 8, 293 / 128, 157 / 64)
B_TABLE_HALF = (1.0, 1.0, 1.0, 3 / 2, 2.0, 17 / 8, 9 / 4, 43 / 16, 25 / 8, 421 / 128)


@dataclass(frozen=True)
class CheckResult:
    number: int
    section: str
    description: str
    passed: bool
    details: str
    seconds: float


def _random_states(cls, n: int, rng: np.random.Generator) -> list:
    return [cls.random(rng) for _ in range(n)]


def _judged(metric: str, deviations: list[float], tol: float, scale: str = "") -> tuple[bool, str]:
    """The verdict on a check's deviations: pass iff the largest is at most
    ``tol``, rendered as ``"<metric> = <largest> (tol <tol><scale>)"``.
    ``np.max`` keeps a NaN, which ``max(worst, nan)`` drops, and NaN fails.
    """
    worst = float(np.max(deviations, initial=0.0))
    return worst <= tol, f"{metric} = {worst:.3e} (tol {tol:g}{scale})"


_R = 1 / math.sqrt(2)
# the state each lattice's basis is read from: on the line the packed state
# ``(u + i w) / s``, which carries both basis vectors in its real and its
# imaginary parts, and on the lattice the real ``e_1``, whose field gives
# the other three as its images (:func:`_lattice_basis`)
_BASIS = {1: (_R, _R * 1j), 2: (1, 0, 0, 0)}


def _basis_fields(dim: int, p: float, times: tuple[int, ...]):
    """The fields of the lattice's basis state (``_BASIS``) at the
    increasing ``times``, lazily.

    A single time is evolved in one buffer (``evolve_*``); a ladder is
    read off one trajectory, whose fields each own a block.
    """
    if len(times) == 1:
        yield (evolve_1d, evolve_2d)[dim - 1](_BASIS[dim], p, times[0])
        return
    trajectory, want = (trajectory_1d, trajectory_2d)[dim - 1], set(times)
    yield from (f for f in trajectory(_BASIS[dim], p, times[-1]) if f.t in want)


def _parts(amps: np.ndarray) -> np.ndarray:
    """A packed field's amplitudes with no copy, as ``float64`` pairs (real
    part, imaginary part) on a last axis of length 2: each component's two
    columns carry two basis fields, scaled by ``1 / sqrt(2)``."""
    return amps.view(np.float64).reshape(amps.shape + (2,))


# the two lattice symmetries of :mod:`qwalk.symmetry`, each as its exchange
# matrix and the reversed grid axes of its site map: the inversion ``(x, y)
# -> (-x, -y)`` takes cell ``(i, j)`` of the packed grid to ``(t - i, t -
# j)``, the mirror ``(x, y) -> (y, x)`` takes it to ``(i, t - j)``
_INVERSION = (EXCHANGE_2D, (slice(None, None, -1),) * 2)
_MIRROR = (EXCHANGE_XY, (slice(None), slice(None, None, -1)))


def _image(field: list, t: int, symmetry: tuple) -> list:
    """The components of the lattice field of ``X theta`` from those of
    ``theta``'s, each a ``(sign, view)`` pair, with ``(X, G)`` the
    ``symmetry``: by ``U^t (X theta) = (-1)^t X G U^t theta``, component
    ``c`` is ``(-1)^t X[c, src]`` times component ``src``, the one nonzero
    entry of row ``c``, read through ``G``'s reversed axes without a copy."""
    exchange, flip = symmetry
    image = []
    for row in exchange:
        (src,) = np.flatnonzero(row)
        sign, view = field[src]
        image.append(((-1) ** t * row[src] * sign, view[flip]))
    return image


def _lattice_basis(field) -> list:
    """The evolved lattice basis ``U^t e_1, ..., U^t e_4`` from the field of
    ``e_1`` alone, each as its four components' ``(sign, view)`` pairs:
    ``e_2 = EXCHANGE_2D e_1`` gives the inversion image (:func:`_image`),
    and ``e_3 = EXCHANGE_XY e_1`` and ``e_4 = EXCHANGE_XY e_2`` the mirror
    images of those two.  The views read the block as it is, ``float64``
    when stepped or ``complex128`` when built by the field constructor."""
    e1 = [(1.0, comp) for comp in field.amps]
    e2 = _image(e1, field.t, _INVERSION)
    return [e1, e2, _image(e1, field.t, _MIRROR), _image(e2, field.t, _MIRROR)]


def _inner(f: list, h: list):
    """``<f, h> = sum_c sum_cells conj(f_c) h_c`` of two fields given as
    :func:`_lattice_basis` gives them."""
    return sum(
        sf * sh * np.einsum("ij,ij->", x.conj(), y) for (sf, x), (sh, y) in zip(f, h)
    )


def _gram(dim: int, p: float, t: int) -> np.ndarray:
    """The Gram matrix ``G_ij = <U^t e_i, U^t e_j>`` of the evolved chirality
    basis, so that a state ``theta`` has total probability ``theta^H G theta``.

    On the line, ``2 sum_c v_c^T v_c`` over the packed field's components'
    parts: doubling is exact, where scaling by ``sqrt(2)`` would round.  On
    the lattice, the inner products of the four basis fields
    (:func:`_lattice_basis`), each pair's once: real for the stepped
    ``float64`` block, and Hermitian for a complex one.
    """
    (field,) = _basis_fields(dim, p, (t,))
    if dim == 1:
        return 2 * sum(np.einsum("ia,ib->ab", c, c) for c in _parts(field.amps))
    basis = _lattice_basis(field)
    g = np.empty((4, 4), field.amps.dtype)
    for i, j in combinations_with_replacement(range(4), 2):
        g[i, j] = _inner(basis[i], basis[j])
        g[j, i] = np.conj(g[i, j])
    return g


def _coefficients(theta) -> np.ndarray:
    """The weights :func:`_amplitudes` reads ``theta``'s field with: on the
    line ``sqrt(2) (Re theta_c, Im theta_c)`` per component ``c``, the real
    matrix that reads the packed parts; on the lattice the components
    ``theta_c`` themselves, which weigh the four basis fields."""
    a = theta.as_array()
    if len(a) == 4:
        return a
    return np.array([[z.real, z.imag] for z in a]) * math.sqrt(2)


def _amplitudes(field, c: np.ndarray):
    """The amplitudes of the state whose :func:`_coefficients` are ``c``, by
    linearity from its lattice's basis ``field``.  The line's two components
    come as one array, ``sqrt(2) (theta_1 Re + theta_2 Im)`` of the packed
    parts in one real matrix product; the lattice's four come lazily, one at
    a time, each ``sum_b theta_b`` times that component of basis field
    ``b`` (:func:`_lattice_basis`), so that no block of all four is held."""
    if len(c) == 2:
        return (_parts(field.amps) @ c).view(np.complex128)[..., 0]
    return (
        sum(th * sign * view for th, (sign, view) in zip(c, comps))
        for comps in zip(*_lattice_basis(field))
    )


def _masses(field, c: np.ndarray) -> np.ndarray:
    """The per-site masses of :func:`_amplitudes`, the squared moduli summed
    one component at a time, in component order."""
    return sum(np.einsum("...a,...a->...", x, x) for x in map(_parts, _amplitudes(field, c)))


def check_unitarity(quick: bool = False) -> tuple[bool, str]:
    """1: total probability conserved at full horizon in both dimensions.

    The walk is linear: a state ``theta`` evolves to ``sum_c theta_c U^t e_c``,
    so its total probability is ``theta^H G theta``, where ``G_ij = <U^t e_i,
    U^t e_j>`` is the Gram matrix of the evolved chirality basis
    (:func:`_gram`).  One ``G`` per lattice and ``p``, from one basis
    evolution on either lattice (a packed complex field on the line, a real
    one on the lattice), serves every state.
    """
    rng = np.random.default_rng(_SEED)
    t1, t2, nstate = (100, 40, 3) if quick else (1000, 300, 10)
    devs = []
    for p in _P_GRID:
        for cls, dim, t in ((QubitState, 1, t1), (QuditState, 2, t2)):
            g = _gram(dim, p, t)
            for th in _random_states(cls, nstate, rng):
                a = th.as_array()
                devs.append(abs(float(np.vdot(a, g @ a).real) - 1.0))
    return _judged("max |sum P - 1|", devs, 1e-12, f", t1={t1}, t2={t2}")


def check_hand_distributions(quick: bool = False) -> tuple[bool, str]:
    """2: hand-derived small-time distributions, exact within 1e-14."""
    devs = []
    expected_1d = {
        1: {1: 0.5, -1: 0.5},
        2: {2: 0.25, 0: 0.5, -2: 0.25},
        3: {3: 1 / 8, 1: 5 / 8, -1: 1 / 8, -3: 1 / 8},
    }
    for t, table in expected_1d.items():
        d = distribution_1d(evolve_1d(QubitState(1.0, 0.0), 0.5, t))
        devs += [abs(d.mass(x) - m) for x, m in table.items()]
    for p in _P_GRID:
        q = 1 - p
        d = distribution_2d(evolve_2d(QuditState(1, 0, 0, 0), p, 1))
        table2 = {(1, 0): p * p, (-1, 0): p * q, (0, 1): p * q, (0, -1): q * q}
        devs += [abs(d.mass(x, y) - m) for (x, y), m in table2.items()]
    return _judged("max deviation from hand values", devs, 1e-14)


def check_closed_form(quick: bool = False) -> tuple[bool, str]:
    """3: closed-form amplitudes equal the stepped oracle within 1e-10.

    The oracle is stepped once per ``p``, for the chirality basis
    (:func:`_basis_fields`), and each random state's field is read from it by
    linearity (:func:`_amplitudes`).  The closed form, the layer under test,
    is evaluated for each complex state.
    """
    rng = np.random.default_rng(_SEED + 3)
    tmax, nstate = (50, 5) if quick else (200, 20)
    ps = (0.25, 0.5) if quick else (0.1, 0.25, 0.5, 0.75, 0.9)
    times = tuple(t for t in (*range(1, 51), 60, 80, 100, 125, 150, 175, 200) if t <= tmax)
    devs = []
    for p in ps:
        basis = list(_basis_fields(1, p, times))
        for th in _random_states(QubitState, nstate, rng):
            c = _coefficients(th)
            fields = zip(basis, closed_form_fields(th, p, times), strict=True)
            devs += [np.max(np.abs(cf.amps - _amplitudes(f, c))) for f, cf in fields]
    return _judged("max amplitude deviation", devs, 1e-10, f", t<= {tmax}")


def check_coefficients(quick: bool = False) -> tuple[bool, str]:
    """4: explicit double sum equals the recurrence coefficients within 1e-12."""
    tmax = 15 if quick else 30
    devs = []
    for p in _P_GRID:
        for t in range(0, tmax + 1):
            coeffs = alpha_coefficients(p, t + 1)
            devs += [
                abs(double_sum_coefficient(p, t, j) - coeffs[t - 2 * j]) for j in range(t + 1)
            ]
    return _judged("max |double sum - recurrence|", devs, 1e-12)


def check_limit_1d(quick: bool = False) -> tuple[bool, str]:
    """5: simulated pseudo-velocity moments approach the 1D quadrature limit.

    Each state's masses come by linearity from one basis trajectory per
    ``p`` (:func:`_masses`), and its moments from :func:`moment_1d` of their
    :class:`Distribution1D`.  Each state and order gets a
    :class:`MomentReport` against :func:`limit_moment_1d`, and the
    convergence verdict is the report's own.
    """
    rng = np.random.default_rng(_SEED + 5)
    if quick:
        ladder, gridn, nstate, tol = (50, 100, 200), 1024, 2, 2e-2
    else:
        ladder, gridn, nstate, tol = (125, 250, 500, 1000), 4096, 5, 5e-3
    grid = QuadratureGrid(gridn)
    orders = (1, 2)
    final_gaps, nondec = [], 0
    for p in _P_GRID:
        basis = list(_basis_fields(1, p, ladder))
        for th in _random_states(QubitState, nstate, rng):
            c = _coefficients(th)
            dists = [Distribution1D(f.t, _masses(f, c)) for f in basis]
            for alpha in orders:
                quad = limit_moment_1d(th, p, alpha, grid)
                sims = tuple(moment_1d(d, alpha) for d in dists)
                r = MomentReport(alpha, None, quad, ladder, sims)
                final_gaps.append(r.gaps[-1])
                nondec += not r.converged
    ok, detail = _judged("max final gap", final_gaps, tol)
    return ok and nondec == 0, f"{detail}; {nondec} ladders failed to converge"


def check_limit_2d(quick: bool = False) -> tuple[bool, str]:
    """6: simulated joint moments approach the 2D quadrature limit.

    Each state's simulated masses come by linearity from the lattice's one
    real basis field, that of ``e_1``, and its inversion and mirror images
    (:func:`_masses`), and its moments from :func:`joint_moment_2d` of
    their :class:`Distribution2D`.
    """
    rng = np.random.default_rng(_SEED + 6)
    if quick:
        tmax, gridn, tol = 100, 128, 2e-2
        states = [QuditState(1, 0, 0, 0), QuditState(0.5, 0.5j, 0.5j, -0.5)]
    else:
        tmax, gridn, tol = 300, 512, 2e-2
        states = [
            QuditState(1, 0, 0, 0),
            QuditState(0.5, 0.5j, 0.5j, -0.5),
            QuditState.random(rng),
        ]
    p = 0.5
    orders = ((1, 0), (0, 1), (1, 1), (2, 0))
    # one eigensolve sweep (over an eighth of the tensor grid) covers every
    # state and order; it runs before the field is stepped, which would
    # otherwise be held through it (the gate's ru_maxrss: 50.5 against 55.8 MB)
    quads = limit_moments_2d(states, p, orders, QuadratureGrid(gridn))
    (field,) = _basis_fields(2, p, (tmax,))
    devs = []
    for th, row in zip(states, quads):
        d = Distribution2D(tmax, _masses(field, _coefficients(th)))
        devs += [abs(float(quad) - joint_moment_2d(d, a, b)) for (a, b), quad in zip(orders, row)]
    return _judged(f"max |sim(t={tmax}) - quad(N={gridn})|", devs, tol)


def reference_table_deviation(table: ABTable) -> float:
    """Max deviation of the first ten ``a_t``, ``b_t`` from the p = 1/2 values.

    Raises :class:`InvalidParameterError` for anything but an
    :class:`ABTable` of at least ten rows.
    """
    if not isinstance(table, ABTable):
        raise InvalidParameterError(f"need an ABTable, got {type(table).__name__}")
    if len(table) < 10:
        raise InvalidParameterError(f"reference table needs t = 1..10, got {len(table)} rows")
    return max(
        float(np.max(np.abs(table.a[:10] - np.asarray(A_TABLE_HALF)))),
        float(np.max(np.abs(table.b[:10] - np.asarray(B_TABLE_HALF)))),
    )


def check_ab_table(quick: bool = False) -> tuple[bool, str]:
    """7: the unbiased-coin expectation table and its first-difference law."""
    table = extract_ab(0.5, 10)
    ok, detail = _judged("max table deviation", [reference_table_deviation(table)], 1e-12)
    kns = kns_check(table)
    return ok and kns, f"{detail}; first-difference law: {kns}"


def _phi_perp_states(cls, n: int) -> list:
    """``n`` balanced states: the line's patterns ``(1, +-i)``, or their four
    Kronecker products on the lattice, at evenly spaced global phases."""
    line = (np.array([1, 1j]), np.array([1, -1j]))
    patterns = [reduce(np.kron, c) for c in product(line, repeat=len(fields(cls)) // 2)]
    out = []
    for g in np.linspace(0.0, 2 * np.pi, -(-n // len(patterns)), endpoint=False):
        ph = complex(np.exp(1j * g)) / math.sqrt(len(patterns[0]))
        out.extend(cls(*(ph * v)) for v in patterns)
    return out[:n]


def check_symmetry(quick: bool = False) -> tuple[bool, str]:
    """8: balanced states stay symmetric; unbalanced ones break by t = 3."""
    if quick:
        n1, t1, n2, t2 = 10, 20, 8, 10
    else:
        n1, t1, n2, t2 = 50, 50, 20, 20
    rows = (
        ("1D", _phi_perp_states(QubitState, n1), t1, in_phi_perp, empirical_symmetric_1d, (1, 0)),
        ("2D", _phi_perp_states(QuditState, n2), t2, in_phi_perp_2d, empirical_symmetric_2d,
         (1, 0, 0, 0)),
    )
    bad = []
    for p in _P_GRID:
        for label, states, t, in_class, symmetric, unbalanced in rows:
            for th in states:
                if not in_class(th):
                    bad.append(f"{label} state not in class at p={p}")
                if not symmetric(th, p, t):
                    bad.append(f"{label} symmetric failed p={p}")
            if symmetric(unbalanced, p, 3):
                named = ",".join(map(str, unbalanced))
                bad.append(f"{label} ({named}) unexpectedly symmetric to t=3 at p={p}")
    ok = not bad
    detail = f"{n1} line states to t={t1}, {n2} lattice states to t={t2}, all p"
    return ok, detail if ok else detail + "; failures: " + "; ".join(bad[:4])


def check_reflection(quick: bool = False) -> tuple[bool, str]:
    """9: exchange-identity residuals stay at rounding level."""
    t1max, t2max = (10, 5) if quick else (20, 10)
    devs = []
    for p in _P_GRID:
        for sgn in (1, -1):
            th1 = QubitState(_R, _R * 1j * sgn)
            devs += [reflection_identity_1d(th1, p, t) for t in range(1, t1max + 1)]
            th2 = QuditState(0.5, 0.5j * sgn, 0.5j * sgn, -0.5)
            devs += [reflection_identity_2d(th2, p, t) for t in range(1, t2max + 1)]
    return _judged("max residual", devs, 1e-12)


def check_localization(quick: bool = False) -> tuple[bool, str]:
    """10: origin averages decay with halving ratio in [0.3, 0.8]; no verdicts."""
    rng = np.random.default_rng(_SEED + 10)
    if quick:
        lad1, lad2 = (32, 64, 128), (16, 32, 64)
    else:
        lad1, lad2 = (64, 128, 256), (32, 64, 128)
    rows = (
        ("1D", time_averaged_probability_1d, 0, lad1,
         [QubitState(1.0, 0.0), QubitState(_R, _R * 1j), QubitState.random(rng)]),
        ("2D", time_averaged_probability_2d, (0, 0), lad2,
         [QuditState(1, 0, 0, 0), QuditState(0.5, 0.5j, 0.5j, -0.5), QuditState.random(rng)]),
    )
    bad = []
    for p in _P_GRID:
        for label, averaged, site, ladder, states in rows:
            for th in states:
                _judge_estimate(averaged(th, p, site, ladder), bad, f"{label} p={p}")
    ok = not bad
    return ok, "all ladders decay in ratio band" if ok else "; ".join(bad[:4])


def _judge_estimate(est, bad: list, label: str) -> None:
    if not est.decaying:
        bad.append(f"{label}: not strictly decreasing {est.averages}")
        return
    if not all(0.0 <= v <= 1.0 for v in est.averages):
        bad.append(f"{label}: average outside [0,1]")
    for a, b in zip(est.averages, est.averages[1:]):
        ratio = b / a
        if not 0.3 <= ratio <= 0.8:
            bad.append(f"{label}: halving ratio {ratio:.3f} outside [0.3, 0.8]")
    if localization_verdict(est):
        bad.append(f"{label}: spurious localization verdict")


def check_quadrature_stability(quick: bool = False) -> tuple[bool, str]:
    """11: 1D limit values are grid-size independent to 1e-10."""
    rng = np.random.default_rng(_SEED + 11)
    states = [QubitState(1.0, 0.0), QubitState.random(rng)]
    coarse, fine = (512, 2048) if quick else (1024, 4096)
    devs = [
        abs(
            limit_moment_1d(th, p, alpha, QuadratureGrid(coarse))
            - limit_moment_1d(th, p, alpha, QuadratureGrid(fine))
        )
        for p in _P_GRID
        for th in states
        for alpha in (1, 2)
    ]
    return _judged(f"max |N={coarse} - N={fine}|", devs, 1e-10)


ALL_CHECKS: tuple[tuple[int, str, str, Callable], ...] = (
    (1, "unitarity", "norm conservation at full horizon", check_unitarity),
    (2, "hand", "hand-derived small-time distributions", check_hand_distributions),
    (3, "closedform", "closed form equals stepped oracle", check_closed_form),
    (4, "coefficients", "double sum equals recurrence coefficients", check_coefficients),
    (5, "limit1d", "1D weak-limit moments vs simulation", check_limit_1d),
    (6, "limit2d", "2D weak-limit moments vs simulation", check_limit_2d),
    (7, "table", "unbiased expectation table and difference law", check_ab_table),
    (8, "symmetry", "balanced states symmetric, others not", check_symmetry),
    (9, "reflection", "exchange identity residuals", check_reflection),
    (10, "localization", "origin averages decay, no localization", check_localization),
    (11, "quadrature", "grid-size stability of 1D limits", check_quadrature_stability),
)


def run_checks(
    quick: bool = False,
    only: str | None = None,
    max_workers: int | None = None,
) -> list[CheckResult]:
    """Run the acceptance checks, optionally filtered by section substring.

    The selected checks run one after another on the calling thread, in
    criterion order, so each result's ``seconds`` is that check's own,
    uncontended time.  A check that raises is reported as that check's FAIL,
    with ``"<ExceptionType>: <message>"`` as its details and its traceback
    logged, and the other checks still run.  ``only`` must be None or a
    string and ``quick`` a bool.  ``max_workers`` remains only so that
    existing callers that name the serial run (``None`` or ``1``) keep
    working; any other value raises :class:`InvalidParameterError`.
    """
    if not isinstance(quick, bool):
        raise InvalidParameterError(f"quick must be True or False, got {quick!r}")
    if only is not None and not isinstance(only, str):
        raise InvalidParameterError(f"only must be a section name, got {only!r}")
    if max_workers is True or max_workers not in (None, 1):
        raise InvalidParameterError(
            f"the checks run serially: max_workers must be None or 1, got {max_workers!r}"
        )
    results = []
    for number, section, desc, fn in ALL_CHECKS:
        if only is not None and only.lower() not in section.lower():
            continue
        start = time.perf_counter()
        try:
            passed, details = fn(quick=quick)
        except Exception as exc:
            _log.exception("acceptance check %d (%s) raised", number, section)
            passed, details = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append(CheckResult(number, section, desc, passed, details, seconds))
    if not results:
        raise InvalidParameterError(f"no acceptance section matches {only!r}")
    return results
