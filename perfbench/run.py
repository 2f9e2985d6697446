"""qwalk benchmark: one workload per run, seeded, with its outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

Workloads are ``acceptance``, ``lattice_limit`` and ``long_horizon`` (see
``perfbench/README.md``).  A run executes whole cycles of units until the
next cycle would end after ``--seconds``.  A cycle covers the same input
strata in every run; at least one cycle always runs.

``--trace 0`` prints the end-to-end metrics; it also times set-up, fresh
interpreters that import qwalk and draw the inputs, spread over the run.
``--trace 1`` runs pairs of one untraced and one traced unit on the same
input, serially, and prints the per-layer metrics from the traced units
plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record (and
with ``--trace 1`` the spans) is written under ``perfbench/out/``.

qwalk is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import Tracer, installed, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("acceptance", "lattice_limit", "long_horizon")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 120
CHECKS = range(1, 12)


def import_qwalk() -> None:
    """Import qwalk from this checkout's ``src/`` or exit with code 1."""
    if not (SRC / "qwalk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qwalk sources under {SRC}; nothing to benchmark")
    sys.path.insert(0, str(SRC))
    import qwalk

    if Path(qwalk.__file__).resolve().parent != SRC / "qwalk":
        sys.exit(f"perfbench: imported qwalk from {qwalk.__file__}, not from {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_timer(args):
    """A function that times one fresh interpreter importing qwalk and drawing inputs.

    Each start is reaped with a blocking wait: ``subprocess.run(timeout=...)``
    polls with sleeps of up to 50 ms, which would round every start up to
    that grain.  A timer kills a start that hangs.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-only",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--scale", args.scale,
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def one() -> float:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        code = proc.wait()
        elapsed = time.perf_counter() - start
        timer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        return elapsed

    return one


def run_units(workloads, name, inputs, scale, seconds, trace, after_unit=None):
    """Run whole cycles of units until the next would end after ``seconds``.

    A cycle is the workload's ``CYCLE`` consecutive units, so every run
    covers the same strata of inputs; at least one cycle runs.
    ``after_unit`` is called after each unit, outside its timing.  Returns
    ``[(wall_s, traced, UnitResult), ...]`` and the tracer (or None).
    """
    runner = workloads.RUNNERS[name]
    cycle = workloads.CYCLE[name]
    tracer = Tracer() if trace else None
    # acceptance runs on its thread pool when untraced; spans need one thread
    serial = bool(trace)
    done = []
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(cycle):
            inp = inputs[i % len(inputs)]
            for traced in ((False, True) if trace else (False,)):
                t0 = time.perf_counter()
                if traced:
                    tracer.unit = i
                    with installed(tracer):
                        res = runner(inp, scale, serial)
                else:
                    res = runner(inp, scale, serial)
                done.append((time.perf_counter() - t0, traced, res))
                if after_unit is not None:
                    after_unit()
            i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (i // cycle) > seconds:
            return done, tracer


def environment() -> dict:
    """What a run's numbers depend on besides the code."""
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "QWALK_THREADS": os.environ.get("QWALK_THREADS"),
        "blas": None,
        "blas_threads": None,
        "l2_bytes": None,
        "l3_bytes": None,
    }
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        env["commit"] = proc.stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        env["commit"] = "git unavailable"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    # OpenBLAS reports its thread count; numpy already loaded the library
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                env["blas_threads"] = int(getattr(ctypes.CDLL(lib), sym)())
                break
            except (OSError, AttributeError):
                continue
    if sys.platform.startswith("linux"):
        try:
            libc = ctypes.CDLL(None)
            # glibc: _SC_LEVEL2_CACHE_SIZE = 191, _SC_LEVEL3_CACHE_SIZE = 194
            env["l2_bytes"] = int(libc.sysconf(191))
            env["l3_bytes"] = int(libc.sysconf(194))
        except (OSError, AttributeError):
            pass
    return env


def end_to_end(done, setup) -> dict:
    walls = [w for w, _, _ in done]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(done, tracer) -> dict:
    traced = [res for _, t, res in done if t]
    metrics = {k: (v, unit_of(k)) for k, v in layer_metrics(tracer, len(traced)).items()}
    reports = [c for _, _, res in done for c in res.converged]
    metrics["spectral.report_converged_ratio"] = (
        sum(reports) / len(reports) if reports else 0.0, "ratio"
    )
    for layer in ("walk1d", "walk2d"):
        drifts = [res.drift[layer] for _, _, res in done if layer in res.drift]
        metrics[f"{layer}.norm_drift"] = (max(drifts, default=0.0), "1")
    untraced = [res for _, t, res in done if not t]
    for n in CHECKS:
        secs = [r.check_seconds[n] for r in untraced if n in r.check_seconds]
        metrics[f"validation.check{n:02d}_s"] = (statistics.median(secs) if secs else 0.0, "s")
    metrics["validation.serial_total_s"] = (
        sum(metrics[f"validation.check{n:02d}_s"][0] for n in CHECKS), "s"
    )
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, t, _ in done if t)
        - statistics.median(w for w, t, _ in done if not t),
        "s",
    )
    return metrics


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if "ns_per_" in name:
        return "ns"
    if "us_per_" in name:
        return "us"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_qwalk()
    import workloads  # imports qwalk, so only after import_qwalk

    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed)
        return 0

    env = environment()
    # the acceptance workload runs the suite the way `qwalk validate` does
    os.environ.pop("QWALK_THREADS", None)
    inputs = workloads.make_inputs(args.workload, args.seed)
    scale = workloads.SCALES[args.scale]
    setup = []
    after_unit = None
    if not args.trace:
        # Set-up starts are spread over the run: about half before the
        # units, one after each unit, the rest at the end.  Host load drifts
        # over tens of seconds, and starts bunched in one window of a few
        # seconds carry that window's load into setup_s.
        time_setup = setup_timer(args)
        time_setup()  # untimed: writes the bytecode caches a user already has
        setup += [time_setup() for _ in range(SETUP_REPEATS // 2)]

        def after_unit():
            if len(setup) < SETUP_REPEATS:
                setup.append(time_setup())

    done, tracer = run_units(workloads, args.workload, inputs, scale, args.seconds, args.trace,
                             after_unit)
    if not args.trace:
        setup += [time_setup() for _ in range(SETUP_REPEATS - len(setup))]

    ops = [op for _, _, res in done for op in res.ops]
    failed = [op for op in ops if not op[1]]
    for label, _, detail in failed:
        print(f"perfbench: FAILED {label}: {detail}", file=sys.stderr)
    metrics = per_layer(done, tracer) if args.trace else end_to_end(done, setup)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "environment": env,
        "setup_s": setup,
        "units": [{"wall_s": w, "traced": t, "ops": res.ops} for w, t, res in done],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.jsonl")
    print("environment " + json.dumps(env), file=sys.stderr)
    walls = sorted(w for w, _, _ in done)
    print(f"perfbench: {args.workload}: {len(walls)} units, wall seconds "
          f"min {walls[0]:.3f} median {statistics.median(walls):.3f} max {walls[-1]:.3f}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
