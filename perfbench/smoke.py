"""Smoke test of the benchmark itself, at tiny scales (under a minute).

Run from the repository root::

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` and both trace modes it runs
``run.py --scale smoke`` and checks that the last line of output is the
result object, that no operation failed, and that exactly the declared
metrics are emitted with their declared units and finite values.  It then
copies ``BENCHMARK.json`` and the benchmark directories, without the
sources, into a scratch directory under ``perfbench/out/`` and checks that
the benchmark refuses to run there: non-zero exit and no result line.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec, workload, trace, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last line is not JSON: {lines[-1:]}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}: {proc.stderr[-2000:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    if set(emitted) != set(declared):
        errors.append(f"{where}: missing {sorted(set(declared) - set(emitted))}, "
                      f"undeclared {sorted(set(emitted) - set(declared))}")
    for name, m in emitted.items():
        if name in declared and m.get("unit") != declared[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')!r} != {declared[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{where}: {name} value {v!r} is not a finite number")
    return errors


def check_refuses_without_sources(spec) -> list[str]:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = run(cmd, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--scale", "smoke"]
            errors += check_result(spec, w["name"], trace, run(cmd, ROOT))
    errors += check_refuses_without_sources(spec)
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
