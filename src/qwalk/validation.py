"""Acceptance checks runnable as a suite (CLI ``validate``) or via pytest.

Each check pins one acceptance criterion at its stated scale and tolerance
and returns a :class:`CheckResult`; nothing is rescaled at run time except
through the documented ``quick`` mode, which shrinks horizons and sample
counts for a sub-ten-second smoke run.

One rule, :func:`_judged`, judges every worst value against its tolerance:
a check passes iff its largest deviation is at most the tolerance, so a NaN
in any compared value fails.  :func:`run_checks` reports a check that raises
as that check's FAIL, and ``qwalk validate`` then exits 3.

Checks 1, 3 and 5 read their random line states by linearity from evolved
chirality bases: ``U^t theta = sum_c theta_c U^t e_c``.  The coin is real and
the checks run at ``k = 0``, so the field of ``(1, i) / sqrt(2)`` carries
``U^t e_1 / sqrt(2)`` in its real parts and ``U^t e_2 / sqrt(2)`` in its
imaginary parts, and one trajectory per ``p`` serves every state.  Check 1
reads total probabilities from the basis's Gram matrix, check 3 each state's
amplitudes (:func:`_line_fields`), and check 5 each state's moments from
weighted 2x2 forms of the same field (:func:`_packed_gram`).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields
from functools import reduce
from itertools import product
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
from .walk1d import QubitState, distribution_1d, evolve_1d, trajectory_1d
from .walk2d import QuditState, distribution_2d, evolve_2d, joint_moment_2d

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


def _packed_gram(field, weight: np.ndarray | None = None) -> np.ndarray:
    """``2 v^T diag(d) v`` for ``v``, the amplitudes of ``field`` read with no
    copy as two ``float64`` columns, real parts and imaginary parts, and
    ``d`` the per-site ``weight`` repeated for every component (1 if omitted).

    For a field of ``theta = (u + i w) / s`` with real ``u`` and ``w`` this is
    ``2 / s^2`` times ``[[|U^t u|^2, <U^t u, U^t w>], [., |U^t w|^2]]``, each
    product summed with the site weights.  Doubling is exact, where scaling
    the field by ``sqrt(2)`` would round.
    """
    v = field.amps.reshape(-1).view(np.float64).reshape(-1, 2)
    if weight is not None:
        # the rows run over every site of one component, then of the next
        wv = (weight.reshape(-1, 1) * v.reshape(len(field.amps), -1, 2)).reshape(-1, 2)
        return 2 * (v.T @ wv)
    return 2 * (v.T @ v)


_R = 1 / math.sqrt(2)


def _basis_gram_1d(p: float, t: int) -> np.ndarray:
    """The line's Gram matrix ``<U^t e_i, U^t e_j>``, from one evolution."""
    return _packed_gram(evolve_1d((_R, _R * 1j), p, t))


def _basis_gram_2d(p: float, t: int) -> np.ndarray:
    """The lattice's Gram matrix ``<U^t e_i, U^t e_j>``, from four evolutions:
    two for the diagonal 2x2 blocks, then ``(1, i, 1, i) / 2`` and
    ``(1, i, i, 1) / 2``, whose diagonals give the four cross terms by
    polarization: ``|U^t (e_i + e_j)|^2 / 2 = (G_ii + G_jj) / 2 + G_ij``."""
    g = np.zeros((4, 4))
    g[:2, :2] = _packed_gram(evolve_2d((_R, _R * 1j, 0, 0), p, t))
    g[2:, 2:] = _packed_gram(evolve_2d((0, 0, _R, _R * 1j), p, t))
    for theta, pairs in (
        ((0.5, 0.5j, 0.5, 0.5j), ((0, 2), (1, 3))),
        ((0.5, 0.5j, 0.5j, 0.5), ((0, 3), (1, 2))),
    ):
        m = _packed_gram(evolve_2d(theta, p, t))
        for (i, j), mij in zip(pairs, np.diag(m)):
            g[i, j] = g[j, i] = mij - (g[i, i] + g[j, j]) / 2
    return g


def _line_basis(p: float, times: tuple[int, ...]):
    """The fields of ``(1, i) / sqrt(2)`` at the increasing ``times``, from
    one trajectory: their real parts are ``U^t e_1 / sqrt(2)`` and their
    imaginary parts ``U^t e_2 / sqrt(2)``."""
    want = set(times)
    return (f for f in trajectory_1d((_R, _R * 1j), p, times[-1]) if f.t in want)


def _line_fields(basis, theta: QubitState):
    """The amplitudes of ``theta``'s fields, ``sqrt(2) (theta_1 Re + theta_2
    Im)`` of each array in ``basis``, the amplitudes of :func:`_line_basis`
    fields: one real matrix product on the packed parts per field."""
    c = np.array([[z.real, z.imag] for z in (theta.d1, theta.d2)]) * math.sqrt(2)
    for amps in basis:
        v = amps.view(np.float64).reshape(amps.shape + (2,))
        yield (v @ c).view(np.complex128)[..., 0]


def _line_moment_forms(p: float, ladder: tuple[int, ...], orders) -> list[list[np.ndarray]]:
    """``M_a(t) = 2 v^T diag((x/t)^a) v`` for each ladder time ``t`` (rows)
    and order ``a`` (columns), from the packed :func:`_line_basis` fields:
    a state ``theta`` has the moment ``theta^H M_a(t) theta`` at time ``t``."""
    return [
        [_packed_gram(f, (f.sites() / f.t) ** a) for a in orders]
        for f in _line_basis(p, ladder)
    ]


def check_unitarity(quick: bool = False) -> tuple[bool, str]:
    """1: total probability conserved at full horizon in both dimensions.

    The walk is linear: a state ``theta`` evolves to ``sum_c theta_c U^t e_c``,
    so its total probability is ``theta^H G theta``, where ``G_ij = <U^t e_i,
    U^t e_j>`` is the Gram matrix of the evolved chirality basis.  One ``G``
    per lattice and ``p`` serves every random state.

    ``G`` comes from packed evolutions (:func:`_packed_gram`).  The coin is
    real and the check runs at ``k = 0``, so a step maps the real and the
    imaginary parts of a field apart, and ``(u + i w) / sqrt(2)`` with real
    ``u``, ``w`` evolves to ``(U^t u + i U^t w) / sqrt(2)``: one evolution
    gives a 2x2 block of ``G``, which is real and symmetric.  A complex coin
    or a phase ``e^{ik} != 1`` would mix the two parts.  The line takes one
    evolution per ``p``; the lattice takes four, two for its diagonal blocks
    and two for its cross terms by polarization (:func:`_basis_gram_2d`).
    Each block is read before the next evolution starts, so no more fields
    are alive at once than within one evolution.
    """
    rng = np.random.default_rng(_SEED)
    t1, t2, nstate = (100, 40, 3) if quick else (1000, 300, 10)
    devs = []
    for p in _P_GRID:
        for cls, g in ((QubitState, _basis_gram_1d(p, t1)), (QuditState, _basis_gram_2d(p, t2))):
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
    (:func:`_line_basis`), and each random state's field is read from it by
    linearity (:func:`_line_fields`).  The closed form, the layer under test,
    is evaluated for each complex state.
    """
    rng = np.random.default_rng(_SEED + 3)
    tmax, nstate = (50, 5) if quick else (200, 20)
    ps = (0.25, 0.5) if quick else (0.1, 0.25, 0.5, 0.75, 0.9)
    dense = range(1, min(tmax, 50) + 1)
    sparse = [t for t in (60, 80, 100, 125, 150, 175, 200) if t <= tmax]
    times = tuple(sorted(set(dense) | set(sparse)))
    devs = []
    for p in ps:
        basis = [f.amps for f in _line_basis(p, times)]
        for th in _random_states(QubitState, nstate, rng):
            fields = zip(_line_fields(basis, th), closed_form_fields(th, p, times), strict=True)
            devs += [np.max(np.abs(cf.amps - amps)) for amps, cf in fields]
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

    The simulated moments come by linearity from one basis trajectory per
    ``p``: each state's moment at ladder time ``t`` is ``theta^H M_a(t)
    theta`` (:func:`_line_moment_forms`).  Each state and order gets a
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
        forms = _line_moment_forms(p, ladder, orders)
        for th in _random_states(QubitState, nstate, rng):
            a = th.as_array()
            for i, alpha in enumerate(orders):
                quad = limit_moment_1d(th, p, alpha, grid)
                sims = tuple(float(np.vdot(a, row[i] @ a).real) for row in forms)
                gaps = tuple(abs(s - quad) for s in sims)
                r = MomentReport(alpha, None, quad, ladder, sims, gaps)
                final_gaps.append(r.gaps[-1])
                nondec += not r.converged
    ok, detail = _judged("max final gap", final_gaps, tol)
    return ok and nondec == 0, f"{detail}; {nondec} ladders failed to converge"


def check_limit_2d(quick: bool = False) -> tuple[bool, str]:
    """6: simulated joint moments approach the 2D quadrature limit."""
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
    # one eigensolve sweep (over a quarter of the tensor grid) covers every state and order
    quads = limit_moments_2d(states, p, orders, QuadratureGrid(gridn))
    devs = []
    for th, row in zip(states, quads):
        d = distribution_2d(evolve_2d(th, p, tmax))
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
    states1 = _phi_perp_states(QubitState, n1)
    states2 = _phi_perp_states(QuditState, n2)
    bad = []
    for p in _P_GRID:
        for th in states1:
            if not in_phi_perp(th):
                bad.append(f"1D state not in class at p={p}")
            if not empirical_symmetric_1d(th, p, t1):
                bad.append(f"1D symmetric failed p={p}")
        for th in states2:
            if not in_phi_perp_2d(th):
                bad.append(f"2D state not in class at p={p}")
            if not empirical_symmetric_2d(th, p, t2):
                bad.append(f"2D symmetric failed p={p}")
        if empirical_symmetric_1d(QubitState(1.0, 0.0), p, 3):
            bad.append(f"1D (1,0) unexpectedly symmetric to t=3 at p={p}")
        if empirical_symmetric_2d(QuditState(1, 0, 0, 0), p, 3):
            bad.append(f"2D (1,0,0,0) unexpectedly symmetric to t=3 at p={p}")
    ok = not bad
    detail = (
        f"{len(states1)} line states to t={t1}, {len(states2)} lattice states "
        f"to t={t2}, all p"
    )
    return ok, detail if ok else detail + "; failures: " + "; ".join(bad[:4])


def check_reflection(quick: bool = False) -> tuple[bool, str]:
    """9: exchange-identity residuals stay at rounding level."""
    t1max, t2max = (10, 5) if quick else (20, 10)
    r = 1 / math.sqrt(2)
    devs = []
    for p in _P_GRID:
        for sgn in (1, -1):
            th1 = QubitState(r, r * 1j * sgn)
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
    r = 1 / math.sqrt(2)
    states1 = [QubitState(1.0, 0.0), QubitState(r, r * 1j), QubitState.random(rng)]
    states2 = [
        QuditState(1, 0, 0, 0),
        QuditState(0.5, 0.5j, 0.5j, -0.5),
        QuditState.random(rng),
    ]
    bad = []
    for p in _P_GRID:
        for th in states1:
            est = time_averaged_probability_1d(th, p, 0, lad1)
            _judge_estimate(est, bad, f"1D p={p}")
        for th in states2:
            est = time_averaged_probability_2d(th, p, (0, 0), lad2)
            _judge_estimate(est, bad, f"2D p={p}")
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
    string.  ``max_workers`` remains only so that existing callers that name
    the serial run (``None`` or ``1``) keep working; any other value raises
    :class:`InvalidParameterError`.
    """
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
