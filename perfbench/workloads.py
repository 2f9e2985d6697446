"""The benchmark's workloads: seeded inputs, one timed unit each, and gates.

A unit is the piece of work whose wall time is one sample of ``wall_s``.
Every unit returns the operations it attempted, each judged against the
tolerance of the acceptance criterion it mirrors:

- criterion 1: norm drift ``|sum P - 1| <= 1e-12`` at the horizons the
  criterion is stated at (t = 1000 on the line, here t = 500 on the
  lattice); the drift of the qubit at t = 10000 is reported, not gated;
- criterion 3: closed form equals the stepped field within 1e-10;
- criterion 6: 2D gap ``|sim(t=300) - quad(N=512)| <= 2e-2``;
- criterion 10: origin averages decay with halving ratio in [0.3, 0.8]
  and give no localization verdict;
- acceptance: every check passes.

An operation also fails when it raises or returns a non-finite value.
Reports that are not ``converged`` are recorded, not failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import qwalk
from qwalk import validation

TOL_NORM = 1e-12
TOL_CLOSED_FORM = 1e-10
TOL_GAP_2D = 2e-2
HALVING_RATIO = (0.3, 0.8)

# Per scale: "full" is what the benchmark measures, "smoke" a seconds-long
# run of the same code paths for the benchmark's own smoke test.
SCALES = {
    "full": {
        "quick": False,
        "grid2d": 512,
        "ladder2d": (75, 150, 300),
        "t1": 10000,
        "t1_norm": 1000,
        "ladder1": (1000, 2000, 4000),
        "t2": 500,
    },
    "smoke": {
        "quick": True,
        "grid2d": 32,
        "ladder2d": (10, 20, 40),
        "t1": 200,
        "t1_norm": 100,
        "ladder1": (64, 128, 256),
        "t2": 20,
    },
}

P_RANGE = (0.2, 0.8)
# Draw i takes its p uniformly from stratum i % STRATA of [0.2, 0.8], and a
# cycle is one draw per stratum, so every run spans the whole range.  Cost
# depends strongly on p in long_horizon: a 1D walk to t = 10000 leaves about
# 6500 subnormal amplitudes in its tails at p = 0.3, 400 at p = 0.8, and
# about 100 below p = 0.26, where the tails underflow to zero instead; its
# stepping time varies several-fold.  lattice_limit draw i takes moment
# order ORDERS_2D[i % 2], which puts order (1, 1) in [0.3, 0.4), [0.5, 0.6)
# and [0.7, 0.8], the last holding p = 0.75, where the 2D gaps can grow
# along the ladder.
STRATA = 6
ORDERS_2D = ((1, 0), (1, 1))
MOMENTS_2D = ((1, 0), (0, 1), (1, 1), (2, 0))
DRAWS = 64  # more than any run can use; unit i takes draw i mod DRAWS


@dataclass
class UnitResult:
    ops: list = field(default_factory=list)  # (label, ok, detail)
    converged: list = field(default_factory=list)  # one bool per 2D report
    check_seconds: dict = field(default_factory=dict)  # criterion -> seconds
    drift: dict = field(default_factory=dict)  # "walk1d"/"walk2d" -> |sum P - 1|

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.ops.append((label, bool(ok), detail))


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _guarded(result: UnitResult, label: str, fn) -> None:
    """Run one operation; an exception fails it instead of the whole run."""
    try:
        ok, detail = fn()
    except Exception as exc:  # any exception is a failed operation, reported
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    result.record(label, ok, detail)


def _stratified_p(rng: np.random.Generator, i: int) -> float:
    lo, hi = P_RANGE
    return lo + (hi - lo) / STRATA * (i % STRATA + float(rng.uniform()))


def make_inputs(workload: str, seed: int) -> list:
    """Seeded unit inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "acceptance":
        return [None]  # the suite fixes its own seeds
    if workload == "lattice_limit":
        return [
            (
                qwalk.QuditState.random(rng),
                _stratified_p(rng, i),
                ORDERS_2D[i % len(ORDERS_2D)],
            )
            for i in range(DRAWS)
        ]
    if workload == "long_horizon":
        return [
            (
                qwalk.QubitState.random(rng),
                qwalk.QuditState.random(rng),
                _stratified_p(rng, i),
            )
            for i in range(DRAWS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_acceptance(inp, scale: dict, serial: bool) -> UnitResult:
    """The full suite, run as ``qwalk validate`` runs it unless ``serial``."""
    result = UnitResult()
    try:
        checks = validation.run_checks(quick=scale["quick"], max_workers=1 if serial else None)
    except Exception as exc:  # the whole suite failed: every check counts as failed
        for num, *_ in validation.ALL_CHECKS:
            result.record(f"check{num:02d}", False, f"{type(exc).__name__}: {exc}")
        return result
    for c in checks:
        result.record(f"check{c.number:02d}", c.passed, c.details)
        result.check_seconds[c.number] = c.seconds
    return result


def run_lattice_limit(inp, scale: dict, serial: bool) -> UnitResult:
    """One 2D convergence report at ``qwalk limit2d``'s default scales."""
    th, p, (a, b) = inp
    result = UnitResult()

    def report():
        rep = qwalk.convergence_report(th, p, a, b, ladder=scale["ladder2d"], grid=scale["grid2d"])
        result.converged.append(rep.converged)
        ok = _finite(rep.quadrature, rep.simulated) and rep.gaps[-1] <= TOL_GAP_2D
        return ok, f"p={p:.4f} order=({a},{b}) gaps={rep.gaps}"

    _guarded(result, "report2d", report)
    return result


def run_long_horizon(inp, scale: dict, serial: bool) -> UnitResult:
    """One qubit to a long horizon on the line, one qudit on the lattice."""
    th1, th2, p = inp
    t1, t2 = scale["t1"], scale["t2"]
    result = UnitResult()
    state = {}

    def norm1():
        drift = abs(qwalk.evolve_1d(th1, p, scale["t1_norm"]).total_probability() - 1.0)
        return drift <= TOL_NORM, f"drift={drift:.3e} at t={scale['t1_norm']}"

    def evolve1():
        f = state["f1"] = qwalk.evolve_1d(th1, p, t1)
        d = qwalk.distribution_1d(f)
        moments = [qwalk.moment_1d(d, a) for a in (1, 2)]
        drift = result.drift["walk1d"] = abs(f.total_probability() - 1.0)
        return _finite(f.phi1, f.phi2, moments, drift), f"drift={drift:.3e} at t={t1}"

    def closed_form():
        f, cf = state["f1"], qwalk.closed_form_field(th1, p, t1)
        dev = max(float(np.max(np.abs(cf.phi1 - f.phi1))), float(np.max(np.abs(cf.phi2 - f.phi2))))
        return _finite(cf.phi1, cf.phi2) and dev <= TOL_CLOSED_FORM, f"dev={dev:.3e}"

    def localization():
        est = qwalk.time_averaged_probability_1d(th1, p, 0, scale["ladder1"])
        avg = est.averages
        ratios = [b / a for a, b in zip(avg, avg[1:])]
        ok = (
            _finite(avg)
            and all(0.0 <= v <= 1.0 for v in avg)
            and est.decaying
            and all(HALVING_RATIO[0] <= r <= HALVING_RATIO[1] for r in ratios)
            and not qwalk.localization_verdict(est)
        )
        return ok, f"averages={avg}"

    def evolve2():
        f = qwalk.evolve_2d(th2, p, t2)
        d = qwalk.distribution_2d(f)
        moments = [qwalk.joint_moment_2d(d, a, b) for a, b in MOMENTS_2D]
        drift = result.drift["walk2d"] = abs(f.total_probability() - 1.0)
        bounded = all(abs(m) <= 1.0 for m in moments)
        ok = _finite(f.amps, moments) and drift <= TOL_NORM and bounded
        return ok, f"drift={drift:.3e} moments={moments}"

    _guarded(result, "norm1d", norm1)
    _guarded(result, "evolve1d", evolve1)
    if "f1" in state:
        _guarded(result, "closed_form", closed_form)
    else:
        result.record("closed_form", False, "no stepped field to compare against")
    _guarded(result, "localization1d", localization)
    _guarded(result, "evolve2d", evolve2)
    return result


CYCLE = {"acceptance": 1, "lattice_limit": STRATA, "long_horizon": STRATA}

RUNNERS = {
    "acceptance": run_acceptance,
    "lattice_limit": run_lattice_limit,
    "long_horizon": run_long_horizon,
}
