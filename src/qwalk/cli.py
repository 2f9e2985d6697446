"""Command-line front end: simulations, limits, symmetry, localization, validation.

Exit codes: 0 success, 2 invalid input, 3 validation failure, 4 output I/O
failure, 5 convergence failure.  All outputs are deterministic: fixed site
ordering, probabilities with 17 significant digits, and a metadata header
(parameters, initial state, convention tag, artifact version) on every file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .coin import CoinParameter
from .errors import InvalidParameterError, QwalkError, require_int
from .localization import (
    validate_epsilon,
    localization_verdict,
    time_averaged_probability_1d,
    time_averaged_probability_2d,
)
from .spectral import QuadratureGrid, convergence_report
from .symmetry import (
    classify_1d,
    expectation_series,
    extract_ab,
    kns_check,
)
from .validation import reference_table_deviation, run_checks
from .walk1d import QubitState, distribution_1d, evolve_1d, moment_1d
from .walk2d import QuditState, distribution_2d, evolve_2d, joint_moment_2d

__all__ = ["main"]

CONVENTION_1D = "diffEq-3.2"
CONVENTION_2D = "diffEq-3.4"

_EXIT_OK = 0
_EXIT_BAD_INPUT = 2
_EXIT_VALIDATION = 3
_EXIT_IO = 4
_EXIT_CONVERGENCE = 5

_SILENT_NORM = 1e-9
_WARN_NORM = 1e-6


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_complex(token: str) -> complex:
    """Parse one component: ``a``, ``ai``, ``a+bi``, ``a-bi`` (no spaces)."""
    s = token.strip()
    if not s:
        raise _CliError(_EXIT_BAD_INPUT, "empty state component")
    try:
        return complex(s.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise _CliError(
            _EXIT_BAD_INPUT,
            f"cannot parse state component {token!r}; use forms a, ai, a+bi, a-bi",
        ) from None


def _parse_state(text: str, dim: int) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != dim:
        raise _CliError(
            _EXIT_BAD_INPUT,
            f"--state needs {dim} comma-separated components, got {len(parts)}",
        )
    vec = np.array([_parse_complex(tk) for tk in parts], dtype=np.complex128)
    norm = float(np.sum(np.abs(vec) ** 2))
    dev = abs(norm - 1.0)
    if dev > _WARN_NORM:
        raise _CliError(
            _EXIT_BAD_INPUT,
            f"--state is not normalized: sum |c|^2 = {norm:.9g} "
            f"(deviation {dev:.3g} exceeds {_WARN_NORM:g})",
        )
    if dev > _SILENT_NORM:
        print(
            f"warning: --state renormalized (deviation {dev:.3g})",
            file=sys.stderr,
        )
    return vec / np.sqrt(norm)


def _parse_p(value: float) -> float:
    """``--p`` checked by :class:`CoinParameter`, with the flag named."""
    try:
        return CoinParameter(value).p
    except InvalidParameterError as exc:
        raise _CliError(_EXIT_BAD_INPUT, f"--p: {exc}") from None


def _parse_grid(n: int) -> QuadratureGrid:
    """``--grid`` within the CLI's [64, 65536]; :class:`QuadratureGrid` checks
    the power of two, with the flag named."""
    if not 64 <= n <= 65536:
        raise _CliError(_EXIT_BAD_INPUT, f"--grid must lie in [64, 65536], got {n}")
    try:
        return QuadratureGrid(n)
    except InvalidParameterError as exc:
        raise _CliError(_EXIT_BAD_INPUT, f"--grid: {exc}") from None


def _parse_ladder(text: str) -> tuple[int, ...]:
    """Comma-separated integers; the library checks their order and range."""
    try:
        return tuple(int(tk) for tk in text.split(","))
    except ValueError:
        raise _CliError(
            _EXIT_BAD_INPUT, f"--ladder must be comma-separated integers, got {text!r}"
        ) from None


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(_EXIT_IO, f"cannot write output file {path!r}: {exc}") from exc


def _meta_line(model: str, args, convention: str, extra: dict) -> str:
    fields = {"model": model, "p": _fmt(args.p)}
    fields.update({k: str(v) for k, v in extra.items()})
    fields["state"] = args.state
    fields["convention"] = convention
    fields["version"] = __version__
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items())


def _cmd_sim(args, dim: int) -> int:
    p = _parse_p(args.p)
    vec = _parse_state(args.state, 2 * dim)
    require_int(args.t, "--t", 0)
    if dim == 1:
        dist = distribution_1d(evolve_1d(QubitState(*vec), p, args.t, args.k))
        orders, moment, convention = ((1,), (2,)), moment_1d, CONVENTION_1D
    else:
        dist = distribution_2d(evolve_2d(QuditState(*vec), p, args.t, args.k))
        orders = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
        moment, convention = joint_moment_2d, CONVENTION_2D
    # 1D sites are bare ints; every row gets the site's coordinates then its mass
    rows = [((site,) if dim == 1 else site) + (m,) for site, m in dist.items()]
    moments = {
        " ".join(f"{n}={a}" for n, a in zip(("alpha", "beta"), ab)): moment(dist, *ab)
        for ab in orders
    }
    model = f"sim{dim}d"
    if args.format == "csv":
        lines = [_meta_line(model, args, convention, {"t": args.t, "k": args.k})]
        lines.append("x,probability" if dim == 1 else "x,y,probability")
        lines.extend(",".join(map(str, row[:-1])) + f",{_fmt(row[-1])}" for row in rows)
        lines.extend(f"# moment {label} value={_fmt(v)}" for label, v in moments.items())
        _write_output("\n".join(lines) + "\n", args.output)
    else:
        doc = {
            "model": model,
            "p": p,
            "t": args.t,
            "k": args.k,
            "state": args.state,
            "convention": convention,
            "version": __version__,
            "masses": [list(row) for row in rows],
            "moments": moments,
        }
        _write_output(json.dumps(doc, indent=2) + "\n", args.output)
    return _EXIT_OK


def cmd_sim1d(args) -> int:
    return _cmd_sim(args, 1)


def cmd_sim2d(args) -> int:
    return _cmd_sim(args, 2)


def _cmd_limit(args, dim: int) -> int:
    p = _parse_p(args.p)
    vec = _parse_state(args.state, 2 * dim)
    grid = _parse_grid(args.grid)
    ladder = _parse_ladder(args.ladder)
    flags = ("alpha", "beta")[:dim]
    orders = tuple(getattr(args, f) for f in flags)
    if min(orders) < 0 or sum(orders) < 1:
        raise _CliError(
            _EXIT_BAD_INPUT,
            f"{'/'.join('--' + f for f in flags)} must be >= 0 with a sum >= 1",
        )
    theta = (QubitState, QuditState)[dim - 1](*vec)
    report = convergence_report(theta, p, *orders, ladder=ladder, grid=grid)
    convention = (CONVENTION_1D, CONVENTION_2D)[dim - 1]
    extra = {**dict(zip(flags, orders)), "grid": grid.n, "ladder": ",".join(map(str, ladder))}
    lines = [_meta_line(f"limit{dim}d", args, convention, extra)]
    lines.append(f"quadrature,{_fmt(report.quadrature)}")
    lines.append("t,simulated,gap")
    for t, s, g in zip(report.times, report.simulated, report.gaps):
        lines.append(f"{t},{_fmt(s)},{_fmt(g)}")
    _write_output("\n".join(lines) + "\n", args.output)
    if not report.converged:
        print(
            f"convergence failure: gap at t={report.times[-1]} "
            f"({report.gaps[-1]:.3e}) exceeds gap at t={report.times[0]} "
            f"({report.gaps[0]:.3e})",
            file=sys.stderr,
        )
        return _EXIT_CONVERGENCE
    return _EXIT_OK


def cmd_limit1d(args) -> int:
    return _cmd_limit(args, 1)


def cmd_limit2d(args) -> int:
    return _cmd_limit(args, 2)


def cmd_symmetry(args) -> int:
    p = _parse_p(args.p)
    lines: list[str] = []
    if args.table:
        horizon = require_int(args.t, "--t", 2)  # kns_check needs t = 1, 2
        table = extract_ab(p, horizon)
        lines.append(
            f"# model=symmetry-table p={_fmt(p)} t={horizon} state=canonical-pair "
            f"convention={CONVENTION_1D} version={__version__}"
        )
        lines.append("t,a,b")
        for t in range(1, horizon + 1):
            lines.append(f"{t},{_fmt(table.a[t - 1])},{_fmt(table.b[t - 1])}")
        if abs(p - 0.5) < 1e-15 and horizon >= 10:
            dev = reference_table_deviation(table)
            verdict = "PASS" if dev <= 1e-12 else "FAIL"
            lines.append(f"# reference-table deviation={dev:.3e} verdict={verdict}")
        lines.append(f"# kns={str(kns_check(table)).lower()}")
        _write_output("\n".join(lines) + "\n", args.output)
        return _EXIT_OK
    if args.state is None:
        raise _CliError(_EXIT_BAD_INPUT, "symmetry needs --state or --table")
    vec = _parse_state(args.state, 2)
    theta = QubitState(vec[0], vec[1])
    horizon = require_int(args.t, "--t", 1)
    verdict = classify_1d(theta, p, horizon)
    series = expectation_series(theta, p, horizon)
    lines.append(_meta_line("symmetry", args, CONVENTION_1D, {"t": horizon}))
    lines.append(f"phi_perp={str(verdict.in_phi_perp).lower()}")
    lines.append(f"symmetric={str(verdict.empirically_symmetric).lower()}")
    lines.append(f"zero_mean={str(verdict.zero_mean).lower()}")
    lines.append("t,mean_position")
    for t, e in enumerate(series, start=1):
        lines.append(f"{t},{_fmt(e)}")
    _write_output("\n".join(lines) + "\n", args.output)
    return _EXIT_OK


def cmd_localize(args) -> int:
    p = _parse_p(args.p)
    ladder = _parse_ladder(args.ladder)
    validate_epsilon(args.epsilon)
    dim = args.dim
    vec = _parse_state(args.state, 2 * dim)
    try:
        site = tuple(int(tk) for tk in args.site.split(","))
    except ValueError:
        site = ()
    if len(site) != dim:
        raise _CliError(
            _EXIT_BAD_INPUT,
            f"--site needs {dim} comma-separated integers for --dim {dim}, got {args.site!r}",
        )
    state, average = (
        (QubitState, time_averaged_probability_1d),
        (QuditState, time_averaged_probability_2d),
    )[dim - 1]
    est = average(state(*vec), p, site[0] if dim == 1 else site, ladder)
    convention = (CONVENTION_1D, CONVENTION_2D)[dim - 1]
    localized = localization_verdict(est, args.epsilon) if len(ladder) >= 3 else None
    lines = [
        _meta_line(
            "localize",
            args,
            convention,
            {"site": args.site, "ladder": ",".join(map(str, ladder))},
        )
    ]
    lines.append("horizon,average")
    for T, v in zip(est.horizons, est.averages):
        lines.append(f"{T},{_fmt(v)}")
    lines.append(f"decaying={str(est.decaying).lower()}")
    lines.append(f"epsilon={_fmt(args.epsilon)}")
    if localized is None:
        lines.append("verdict=UNDECIDED (need a ladder of >= 3 horizons)")
    else:
        lines.append(f"verdict={'LOCALIZED' if localized else 'NOT-LOCALIZED'}")
    _write_output("\n".join(lines) + "\n", args.output)
    return _EXIT_OK


def cmd_validate(args) -> int:
    try:
        results = run_checks(quick=args.quick, only=args.only)
    except QwalkError as exc:
        raise _CliError(_EXIT_BAD_INPUT, str(exc)) from exc
    failures = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.number:2d} {r.section:<12} {r.details} ({r.seconds:.1f}s)")
        if not r.passed:
            failures.append(r)
    if failures:
        print(
            "validation failed: "
            + ", ".join(f"{r.number} ({r.section})" for r in failures),
            file=sys.stderr,
        )
        return _EXIT_VALIDATION
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Generalized Hadamard quantum walk laboratory",
    )
    parser.add_argument("--version", action="version", version=f"qwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, dim_state: int, needs_t: bool = True):
        sp.add_argument("--p", type=float, required=True, help="coin bias in (0,1)")
        sp.add_argument(
            "--state",
            required=True,
            help=f"{dim_state} comma-separated complex components (a, ai, a+bi, a-bi)",
        )
        if needs_t:
            sp.add_argument("--t", type=int, required=True, help="number of steps")
        sp.add_argument("--k", type=float, default=0.0, help="global phase per step")
        sp.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, dim, where in (("sim1d", 1, "line"), ("sim2d", 2, "lattice")):
        sp = sub.add_parser(name, help=f"evolve on the {where}; write distribution")
        add_common(sp, 2 * dim)
        sp.set_defaults(func=cmd_sim1d if dim == 1 else cmd_sim2d)

    for name, dim in (("limit1d", 1), ("limit2d", 2)):
        sp = sub.add_parser(name, help=f"weak-limit moment report ({dim}D)")
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--state", required=True)
        sp.add_argument("--alpha", type=int, required=True)
        if dim == 2:
            sp.add_argument("--beta", type=int, default=0)
        sp.add_argument("--grid", type=int, default=4096 if dim == 1 else 512)
        sp.add_argument(
            "--ladder",
            default="125,250,500,1000" if dim == 1 else "75,150,300",
            help="comma-separated simulation times",
        )
        sp.add_argument("--output", "-o", default="-")
        sp.set_defaults(func=cmd_limit1d if dim == 1 else cmd_limit2d)

    sp = sub.add_parser("symmetry", help="classify a state or extract the a/b table")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--state", default=None)
    sp.add_argument("--t", type=int, default=10, help="horizon")
    sp.add_argument("--table", action="store_true", help="emit the a/b table instead")
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_symmetry)

    sp = sub.add_parser("localize", help="time-averaged probability at one site")
    sp.add_argument("--dim", type=int, choices=(1, 2), required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--state", required=True)
    sp.add_argument("--site", required=True, help="x (1D) or x,y (2D)")
    sp.add_argument("--ladder", default="64,128,256")
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_localize)

    sp = sub.add_parser("validate", help="run the acceptance suite")
    sp.add_argument("--quick", action="store_true", help="reduced scales, <10 s")
    sp.add_argument("--only", default=None, help="run only sections matching this")
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except QwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
