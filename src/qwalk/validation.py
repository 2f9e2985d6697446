"""Acceptance checks runnable as a suite (CLI ``validate``) or via pytest.

Each check pins one acceptance criterion at its stated scale and tolerance
and returns a :class:`CheckResult`; nothing is rescaled at run time except
through the documented ``quick`` mode, which shrinks horizons and sample
counts for a sub-ten-second smoke run.

One rule, :func:`_judged`, judges every worst value against its tolerance:
a check passes iff its largest deviation is at most the tolerance, so a NaN
in any compared value fails.  :func:`run_checks` reports a check that raises
as that check's FAIL, and ``qwalk validate`` then exits 3.

Every check that reads many states at one ``p`` reads them through the
engine's public propagator (:func:`basis_fields_1d`,
:func:`basis_fields_2d`): the walk is linear, ``U^t theta = sum_c theta_c
U^t e_c``, so one stepped field per lattice and time serves every state.
On the line it is the field of the packed ``(1, i) / sqrt(2)``, complex, so
that checks 3 and 5 see a step that conjugates; on the lattice the real
field of ``e_1``, whose inversion and diagonal mirror images (the exchange
identities of :mod:`qwalk.symmetry`) give the other three basis fields.
Check 8 judges the inversion itself, so its lattice trajectory steps
``e_2``'s field too and reads only the mirror images.
Check 1 reads each state's total probability from the basis's Gram matrix
and check 3 every state's amplitude block at once (``amplitudes``), against
the batch's closed-form block (:func:`closed_form_amplitudes`), one pair per
``p`` and time; checks 5, 6, 8 and 10 call the batch bodies
:func:`convergence_reports`, :func:`symmetric_states` and
:func:`time_averaged_probabilities`.

Those checks step no state themselves, so they rest on linearity and the
images.  Criterion 12 witnesses them: it steps each basis vector and
two Haar states directly (``evolve_*``) and compares them with the
propagator's fields.  Only checks 2 and 12 step states here; check 9 steps
each balanced state once, directly, through :mod:`qwalk.symmetry`'s
:func:`reflection_residuals`, which reads its residual at every time of the
horizon.
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

from .closedform import alpha_coefficients, closed_form_amplitudes, double_sum_coefficient
from .errors import InvalidParameterError
from .localization import localization_verdict, time_averaged_probabilities
from .spectral import QuadratureGrid, convergence_reports, limit_moment_1d
from .symmetry import (
    ABTable,
    extract_ab,
    in_phi_perp,
    in_phi_perp_2d,
    kns_check,
    reflection_residuals,
    symmetric_states,
)
from .walk1d import QubitState, basis_fields_1d, distribution_1d, evolve_1d
from .walk2d import QuditState, basis_fields_2d, distribution_2d, evolve_2d

__all__ = [
    "CheckResult",
    "ALL_CHECKS",
    "run_checks",
    "reference_table_deviation",
]

_log = logging.getLogger(__name__)
_SEED = 20240811
_P_GRID = (0.25, 0.5, 0.75)
# criterion 12's tolerance: over 20 seeds other than its own, p from 0.1 to
# 0.9, two Haar states each and every basis vector, the propagator's fields
# were at most 5.6e-16 from the stepped ones at its horizons (line t = 101,
# lattice t = 33), and 1.1e-15 at t = 1000 and t = 200
_WITNESS_TOL = 1e-14

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


def check_unitarity(quick: bool = False) -> tuple[bool, str]:
    """1: total probability conserved at full horizon in both dimensions.

    The walk is linear: a state ``theta`` evolves to ``sum_c theta_c U^t e_c``,
    so its total probability is ``theta^H G theta``, where ``G_ij = <U^t e_i,
    U^t e_j>`` is the Gram matrix of the evolved chirality basis (the basis
    field's ``gram()``).  One ``G`` per lattice and ``p``, from one basis
    evolution on either lattice (a packed complex field on the line, a real
    one on the lattice), serves every state.

    On the lattice that tests less than it seems: the basis is the field of
    the real ``e_1`` and its inversion and mirror images, each of which only
    permutes and negates ``e_1``'s cells, so ``G`` holds two numbers,
    ``|U^t e_1|^2`` and one overlap, and a defect that breaks only an image's
    identity passes.  Criterion 12 witnesses the images.
    """
    rng = np.random.default_rng(_SEED)
    t1, t2, nstate = (100, 40, 3) if quick else (1000, 300, 10)
    devs = []
    for p in _P_GRID:
        for cls, basis_fields, t in (
            (QubitState, basis_fields_1d, t1),
            (QuditState, basis_fields_2d, t2),
        ):
            (basis,) = basis_fields(p, (t,))
            g = basis.gram()
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
    (:func:`basis_fields_1d`), and every random state's field is read from
    it by linearity.  The closed form, the layer under test, is evaluated
    for the whole batch of complex states at once
    (:func:`closed_form_amplitudes`).  Each time's two blocks are compared
    and dropped before the next time's are built.
    """
    rng = np.random.default_rng(_SEED + 3)
    tmax, nstate = (50, 5) if quick else (200, 20)
    ps = (0.25, 0.5) if quick else (0.1, 0.25, 0.5, 0.75, 0.9)
    times = tuple(t for t in (*range(1, 51), 60, 80, 100, 125, 150, 175, 200) if t <= tmax)
    devs = []
    for p in ps:
        states = _random_states(QubitState, nstate, rng)
        closed = closed_form_amplitudes(states, p, times)
        blocks = zip(basis_fields_1d(p, times), closed, strict=True)
        devs += [np.max(np.abs(cf - b.amplitudes(states))) for b, cf in blocks]
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

    Each ``p``'s states get one row of reports from
    :func:`convergence_reports`, which reads them by linearity from one
    basis trajectory, and the convergence verdict is each report's own.
    """
    rng = np.random.default_rng(_SEED + 5)
    if quick:
        ladder, gridn, nstate, tol = (50, 100, 200), 1024, 2, 2e-2
    else:
        ladder, gridn, nstate, tol = (125, 250, 500, 1000), 4096, 5, 5e-3
    draws = [(p, _random_states(QubitState, nstate, rng)) for p in _P_GRID]
    reports = [
        r for p, states in draws for row in convergence_reports(states, p, (1, 2), ladder, gridn)
        for r in row
    ]
    ok, detail = _judged("max final gap", [r.gaps[-1] for r in reports], tol)
    nondec = [r.converged for r in reports].count(False)
    return ok and nondec == 0, f"{detail}; {nondec} ladders failed to converge"


def check_limit_2d(quick: bool = False) -> tuple[bool, str]:
    """6: simulated joint moments approach the 2D quadrature limit.

    One call of :func:`convergence_reports` at the one-time ladder ``(tmax,)``
    reads every state from the lattice's one real basis field, that of
    ``e_1``, and its inversion and mirror images; its quadrature sweep runs
    before that field is stepped, which would otherwise be held through it.
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
    rows = convergence_reports(states, 0.5, ((1, 0), (0, 1), (1, 1), (2, 0)), (tmax,), gridn)
    devs = [r.gaps[-1] for row in rows for r in row]
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
    """8: balanced states stay symmetric; unbalanced ones break by t = 3.

    Each lattice's states are judged as one batch per ``p``
    (:func:`symmetric_states`), their masses read from one basis
    trajectory.  On the lattice that trajectory steps ``e_2`` beside
    ``e_1`` and reads ``e_3``, ``e_4`` as their mirror images: read as
    ``e_1``'s inversion image, ``e_2``'s field would make every balanced
    state symmetric by construction.  So the verdict rests on linearity and
    the mirror, which criterion 12 witnesses, and a defect that breaks the
    mirror fails it too.
    """
    if quick:
        n1, t1, n2, t2 = 10, 20, 8, 10
    else:
        n1, t1, n2, t2 = 50, 50, 20, 20
    rows = (
        ("1D", QubitState, n1, t1, in_phi_perp, (1, 0)),
        ("2D", QuditState, n2, t2, in_phi_perp_2d, (1, 0, 0, 0)),
    )
    bad = []
    for p in _P_GRID:
        for label, cls, n, t, in_class, unbalanced in rows:
            states = _phi_perp_states(cls, n)
            for th, symmetric in zip(states, symmetric_states(states, p, t)):
                if not in_class(th):
                    bad.append(f"{label} state not in class at p={p}")
                if not symmetric:
                    bad.append(f"{label} symmetric failed p={p}")
            if symmetric_states([cls(*unbalanced)], p, 3)[0]:
                named = ",".join(map(str, unbalanced))
                bad.append(f"{label} ({named}) unexpectedly symmetric to t=3 at p={p}")
    ok = not bad
    detail = f"{n1} line states to t={t1}, {n2} lattice states to t={t2}, all p"
    return ok, detail if ok else detail + "; failures: " + "; ".join(bad[:4])


def check_reflection(quick: bool = False) -> tuple[bool, str]:
    """9: exchange-identity residuals stay at rounding level.

    Each balanced state is stepped once, directly, and its residual read at
    every time of its horizon (:func:`reflection_residuals`), with no
    propagator: this check witnesses the inversion the lattice's propagator
    reads its basis by.
    """
    t1max, t2max = (10, 5) if quick else (20, 10)
    devs = []
    for p in _P_GRID:
        for sgn in (1, -1):
            th1 = QubitState(_R, _R * 1j * sgn)
            devs += reflection_residuals(th1, p, range(1, t1max + 1))
            th2 = QuditState(0.5, 0.5j * sgn, 0.5j * sgn, -0.5)
            devs += reflection_residuals(th2, p, range(1, t2max + 1))
    return _judged("max residual", devs, 1e-12)


def check_localization(quick: bool = False) -> tuple[bool, str]:
    """10: origin averages decay with halving ratio in [0.3, 0.8]; no verdicts.

    Each lattice's states are averaged as one batch per ``p``
    (:func:`time_averaged_probabilities`), from one basis trajectory.
    """
    rng = np.random.default_rng(_SEED + 10)
    if quick:
        lad1, lad2 = (32, 64, 128), (16, 32, 64)
    else:
        lad1, lad2 = (64, 128, 256), (32, 64, 128)
    rows = (
        ("1D", 0, lad1, [QubitState(1.0, 0.0), QubitState(_R, _R * 1j), QubitState.random(rng)]),
        ("2D", (0, 0), lad2,
         [QuditState(1, 0, 0, 0), QuditState(0.5, 0.5j, 0.5j, -0.5), QuditState.random(rng)]),
    )
    bad = []
    for p in _P_GRID:
        for label, site, ladder, states in rows:
            for est in time_averaged_probabilities(states, p, site, ladder):
                _judge_estimate(est, bad, f"{label} p={p}")
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


def check_propagator_witness(quick: bool = False) -> tuple[bool, str]:
    """12: the propagator's fields equal states stepped directly.

    Every check that reads many states (1, 3, 5, 6, 8 and 10) reads them
    through the propagator, by linearity, and on the lattice through the
    inversion and mirror images of one field.  Here each basis vector and
    two Haar states are stepped on their own (``evolve_*``), with no image
    and no linearity, and compared with the propagator's field of the same
    state, on both lattices at every ``p``.  The horizons are odd: each
    image carries the sign ``(-1)^t``, and a coin that breaks only the
    inversion flips that sign, which an even horizon cannot see.
    """
    rng = np.random.default_rng(_SEED + 12)
    t1, t2 = (33, 17) if quick else (101, 33)
    devs = []
    for p in _P_GRID:
        for cls, basis_fields, evolve, t in (
            (QubitState, basis_fields_1d, evolve_1d, t1),
            (QuditState, basis_fields_2d, evolve_2d, t2),
        ):
            (basis,) = basis_fields(p, (t,))
            states = [cls(*e) for e in np.eye(len(fields(cls)))] + _random_states(cls, 2, rng)
            for th in states:
                devs.append(np.max(np.abs(basis.field(th).amps - evolve(th, p, t).amps)))
    return _judged("max |propagator - stepped|", devs, _WITNESS_TOL, f", t1={t1}, t2={t2}")


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
    (12, "witness", "propagator fields equal directly stepped states", check_propagator_witness),
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
