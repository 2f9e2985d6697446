"""Command-line front end: simulations, limits, symmetry, localization, validation.

Exit codes: 0 success, 2 invalid input, 3 validation failure, 4 output I/O
failure, 5 convergence failure.  All outputs are deterministic: fixed site
ordering, probabilities with 17 significant digits, and a metadata header
(parameters, initial state, convention tag, artifact version) on every file.

The commands are thin: the library checks every value it accepts, and the
CLI reports a failed check as ``<flag>: <library message>``.  One command
serves each subcommand family; the parser supplies the lattice dimension.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .coin import CoinParameter
from .errors import InvalidParameterError, QwalkError, require_int, require_real
from .localization import (
    validate_epsilon,
    validate_horizon_ladder,
    localization_verdict,
    time_averaged_probability_1d,
    time_averaged_probability_2d,
)
from .spectral import QuadratureGrid, convergence_report, validate_time_ladder
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

# indexed by lattice dimension
_STATE = {1: QubitState, 2: QuditState}
_CONVENTION = {1: "diffEq-3.2", 2: "diffEq-3.4"}

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


def _checked(flag: str, check, *args):
    """``check(*args)``; a ``QwalkError`` it raises becomes exit 2 with the
    message ``<flag>: <message>``."""
    try:
        return check(*args)
    except QwalkError as exc:
        raise _CliError(_EXIT_BAD_INPUT, f"{flag}: {exc}") from None


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tk) for tk in text.split(","))
    except ValueError:
        raise InvalidParameterError(f"need comma-separated integers, got {text!r}") from None


def _parse_complex(token: str) -> complex:
    """Parse one component: ``a``, ``ai``, ``a+bi``, ``a-bi`` (no spaces)."""
    s = token.strip()
    if not s:
        raise _CliError(_EXIT_BAD_INPUT, "--state: empty component")
    try:
        return complex(s.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise _CliError(
            _EXIT_BAD_INPUT,
            f"--state: cannot parse component {token!r}; use forms a, ai, a+bi, a-bi",
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


def _state(args) -> QubitState | QuditState:
    """``--state`` as the state of the ``args.dim``-dimensional lattice."""
    return _checked("--state", _STATE[args.dim], *_parse_state(args.state, 2 * args.dim))


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(_EXIT_IO, f"cannot write output file {path!r}: {exc}") from exc


def _meta_line(model: str, args, extra: dict, state: str | None = None) -> str:
    fields = {"model": model, "p": _fmt(args.p)}
    fields.update({k: str(v) for k, v in extra.items()})
    fields["state"] = state or args.state
    fields["convention"] = _CONVENTION[args.dim]
    fields["version"] = __version__
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items())


def cmd_sim(args) -> int:
    dim = args.dim
    p = _checked("--p", CoinParameter, args.p).p
    theta = _state(args)
    _checked("--t", require_int, args.t, "time")
    _checked("--k", require_real, args.k, "phase k")
    if dim == 1:
        dist = distribution_1d(evolve_1d(theta, p, args.t, args.k))
        orders, moment = ((1,), (2,)), moment_1d
    else:
        dist = distribution_2d(evolve_2d(theta, p, args.t, args.k))
        orders = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
        moment = joint_moment_2d
    # 1D sites are bare ints; every row gets the site's coordinates then its mass
    rows = [((site,) if dim == 1 else site) + (m,) for site, m in dist.items()]
    moments = {
        " ".join(f"{n}={a}" for n, a in zip(("alpha", "beta"), ab)): moment(dist, *ab)
        for ab in orders
    }
    model = f"sim{dim}d"
    if args.format == "csv":
        lines = [_meta_line(model, args, {"t": args.t, "k": args.k})]
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
            "convention": _CONVENTION[dim],
            "version": __version__,
            "masses": [list(row) for row in rows],
            "moments": moments,
        }
        _write_output(json.dumps(doc, indent=2) + "\n", args.output)
    return _EXIT_OK


def cmd_limit(args) -> int:
    dim = args.dim
    p = _checked("--p", CoinParameter, args.p).p
    theta = _state(args)
    if not 64 <= args.grid <= 65536:
        raise _CliError(_EXIT_BAD_INPUT, f"--grid must lie in [64, 65536], got {args.grid}")
    grid = _checked("--grid", QuadratureGrid, args.grid)
    ladder = _checked("--ladder", _ints, args.ladder)
    ladder = _checked("--ladder", validate_time_ladder, ladder)
    flags = ("alpha", "beta")[:dim]
    orders = tuple(getattr(args, f) for f in flags)
    if min(orders) < 0 or sum(orders) < 1:
        raise _CliError(
            _EXIT_BAD_INPUT,
            f"{'/'.join('--' + f for f in flags)} must be >= 0 with a sum >= 1",
        )
    report = convergence_report(theta, p, *orders, ladder=ladder, grid=grid)
    extra = {**dict(zip(flags, orders)), "grid": grid.n, "ladder": ",".join(map(str, ladder))}
    lines = [_meta_line(f"limit{dim}d", args, extra)]
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


def cmd_symmetry(args) -> int:
    p = _checked("--p", CoinParameter, args.p).p
    if args.table == (args.state is not None):
        raise _CliError(_EXIT_BAD_INPUT, "symmetry needs exactly one of --state and --table")
    if args.table:
        table = _checked("--t", extract_ab, p, args.t)
        kns = _checked("--t", kns_check, table)
        lines = [_meta_line("symmetry-table", args, {"t": args.t}, "canonical-pair"), "t,a,b"]
        lines.extend(
            f"{t},{_fmt(a)},{_fmt(b)}" for t, (a, b) in enumerate(zip(table.a, table.b), 1)
        )
        if abs(p - 0.5) < 1e-15 and args.t >= 10:
            dev = reference_table_deviation(table)
            verdict = "PASS" if dev <= 1e-12 else "FAIL"
            lines.append(f"# reference-table deviation={dev:.3e} verdict={verdict}")
        lines.append(f"# kns={str(kns).lower()}")
    else:
        theta = _state(args)
        verdict = _checked("--t", classify_1d, theta, p, args.t)
        lines = [
            _meta_line("symmetry", args, {"t": args.t}),
            f"phi_perp={str(verdict.in_phi_perp).lower()}",
            f"symmetric={str(verdict.empirically_symmetric).lower()}",
            f"zero_mean={str(verdict.zero_mean).lower()}",
            "t,mean_position",
        ]
        series = expectation_series(theta, p, args.t)
        lines.extend(f"{t},{_fmt(e)}" for t, e in enumerate(series, start=1))
    _write_output("\n".join(lines) + "\n", args.output)
    return _EXIT_OK


def cmd_localize(args) -> int:
    dim = args.dim
    p = _checked("--p", CoinParameter, args.p).p
    ladder = _checked("--ladder", _ints, args.ladder)
    ladder = _checked("--ladder", validate_horizon_ladder, ladder)
    epsilon = _checked("--epsilon", validate_epsilon, args.epsilon)
    theta = _state(args)
    site = _checked("--site", _ints, args.site)
    if len(site) != dim:
        raise _CliError(
            _EXIT_BAD_INPUT,
            f"--site needs {dim} comma-separated integers for --dim {dim}, got {args.site!r}",
        )
    if dim == 1:
        est = time_averaged_probability_1d(theta, p, site[0], ladder)
    else:
        est = time_averaged_probability_2d(theta, p, site, ladder)
    extra = {"site": args.site, "ladder": ",".join(map(str, ladder))}
    lines = [_meta_line("localize", args, extra), "horizon,average"]
    lines.extend(f"{T},{_fmt(v)}" for T, v in zip(est.horizons, est.averages))
    lines.append(f"decaying={str(est.decaying).lower()}")
    lines.append(f"epsilon={_fmt(args.epsilon)}")
    if len(ladder) < 3:
        lines.append("verdict=UNDECIDED (need a ladder of >= 3 horizons)")
    else:
        localized = localization_verdict(est, epsilon)
        lines.append(f"verdict={'LOCALIZED' if localized else 'NOT-LOCALIZED'}")
    _write_output("\n".join(lines) + "\n", args.output)
    return _EXIT_OK


def cmd_validate(args) -> int:
    failures = []
    for r in run_checks(quick=args.quick, only=args.only):
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

    def add_model(name: str, help: str, state_required: bool = True, **defaults):
        """A subcommand with the flags every model shares."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--p", type=float, required=True, help="coin bias in (0,1)")
        sp.add_argument(
            "--state",
            required=state_required,
            help="2 (line) or 4 (lattice) comma-separated complex components "
            "(a, ai, a+bi, a-bi)",
        )
        sp.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        sp.set_defaults(**defaults)
        return sp

    for dim, where in ((1, "line"), (2, "lattice")):
        sp = add_model(
            f"sim{dim}d", f"evolve on the {where}; write distribution", func=cmd_sim, dim=dim
        )
        sp.add_argument("--t", type=int, required=True, help="number of steps")
        sp.add_argument("--k", type=float, default=0.0, help="global phase per step")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    for dim, grid, ladder in ((1, 4096, "125,250,500,1000"), (2, 512, "75,150,300")):
        sp = add_model(
            f"limit{dim}d", f"weak-limit moment report ({dim}D)", func=cmd_limit, dim=dim
        )
        sp.add_argument("--alpha", type=int, required=True)
        if dim == 2:
            sp.add_argument("--beta", type=int, default=0)
        sp.add_argument("--grid", type=int, default=grid)
        sp.add_argument("--ladder", default=ladder, help="comma-separated simulation times")

    sp = add_model(
        "symmetry",
        "classify a state or extract the a/b table",
        state_required=False,
        func=cmd_symmetry,
        dim=1,
    )
    sp.add_argument("--t", type=int, default=10, help="horizon")
    sp.add_argument("--table", action="store_true", help="emit the a/b table instead of --state")

    sp = add_model("localize", "time-averaged probability at one site", func=cmd_localize)
    sp.add_argument("--dim", type=int, choices=(1, 2), required=True)
    sp.add_argument("--site", required=True, help="x (1D) or x,y (2D)")
    sp.add_argument("--ladder", default="64,128,256")
    sp.add_argument("--epsilon", type=float, default=0.01)

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
