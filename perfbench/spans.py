"""Span tracing of qwalk's layers, applied from outside the package.

:func:`installed` wraps the public functions of each layer module and
rebinds every name in the loaded ``qwalk`` modules that refers to one of
them, including names re-bound by ``from .walk1d import step_1d``-style
imports and ``coin_2d`` inside ``walk2d``.  Each call records one span
(name, start, end, parent span, work count, exception type) in memory;
self time is computed after the run and the spans are written out at the
end.  The wrappers keep one shared call stack, so traced code must run on
one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "walk1d",
    "walk2d",
    "coin",
    "closedform",
    "spectral",
    "symmetry",
    "localization",
    "validation",
)

# Argument coercions run inside every step; they are not layer work, and a
# span around each would double the span count of a 1D step.
_SKIP = frozenset({"as_coin", "validate_wavenumber"})

# The batched 2D eigensolve is private but is the spectral layer's main cost,
# and validation check 6 calls it directly.
_EXTRA = {"spectral": ("_batch_eigensystem",)}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counted per call, by function name; every other span counts 1.
_COUNTS = {
    "step_2d": lambda a, k: (_arg(a, k, 0, "field").t + 1) ** 2,
    "_batch_eigensystem": lambda a, k: _arg(a, k, 1, "ms").size,
    "time_averaged_probability_1d": lambda a, k: max(_arg(a, k, 3, "ladder")),
    "time_averaged_probability_2d": lambda a, k: max(_arg(a, k, 3, "ladder")),
}


@dataclass
class Tracer:
    """In-memory span store shared by every wrapper of one traced run."""

    # each span: [name, parent, start, end, count, error, unit]
    spans: list = field(default_factory=list)
    unit: int = 0
    _stack: list = field(default_factory=list)

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = count(args, kwargs) if count is not None else 1
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, n, None, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        own = self.self_times()
        t0 = self.spans[0][2] if self.spans else 0.0
        fields = ["id", "parent", "unit", "name", "start_s", "end_s", "self_s", "count", "error"]
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for i, ((name, parent, start, end, count, error, unit), st) in enumerate(
                zip(self.spans, own)
            ):
                row = [i, parent, unit, name, start - t0, end - t0, st, count, error]
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer's public functions for the duration of the block."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"qwalk.{layer}")
        names = [n for n in mod.__all__ if n not in _SKIP] + list(_EXTRA.get(layer, ()))
        for n in names:
            fn = getattr(mod, n)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{n}", fn, _COUNTS.get(n))
    modules = [
        m for name, m in list(sys.modules.items()) if name == "qwalk" or name.startswith("qwalk.")
    ]
    patched = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])
    # run_checks reads the check table at call time; give each check a span
    validation = sys.modules["qwalk.validation"]
    checks = validation.ALL_CHECKS
    validation.ALL_CHECKS = tuple(
        (num, sec, desc, tracer.wrap(f"validation.check{num:02d}", fn))
        for num, sec, desc, fn in checks
    )
    try:
        yield tracer
    finally:
        validation.ALL_CHECKS = checks
        for mod, attr, val in patched:
            setattr(mod, attr, val)


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-unit self time and work counts of each layer, from the spans."""
    own = tracer.self_times()
    secs: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    errors: dict[str, int] = {}
    for s, st in zip(tracer.spans, own):
        name = s[0]
        secs[name] = secs.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + s[4]
        if s[5] is not None:
            errors[name, s[5]] = errors.get((name, s[5]), 0) + 1

    def total(table, *names):
        return sum(table.get(n, 0) for n in names) / units

    def layer(table, prefix):
        return sum(v for n, v in table.items() if n.startswith(prefix + ".")) / units

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    stepping_1d = ("walk1d.init_1d", "walk1d.step_1d", "walk1d.evolve_1d")
    stepping_2d = ("walk2d.init_2d", "walk2d.step_2d", "walk2d.evolve_2d")
    coef = (
        "closedform.alpha_coefficients",
        "closedform.double_sum_coefficient",
        "closedform.chebyshev_u",
        "closedform.chebyshev_table",
    )
    limit2d = ("spectral.limit_moment_2d", "spectral.eigensystem_2d", "spectral._batch_eigensystem")
    limit1d = (
        "spectral.limit_moment_1d",
        "spectral.eigensystem_1d",
        "spectral.sigma",
        "spectral.group_velocity",
    )
    m = {
        "walk2d.step_s": total(secs, *stepping_2d),
        "walk2d.steps": total(calls, "walk2d.step_2d"),
        "walk2d.sitesteps": total(work, "walk2d.step_2d"),
        "coin.calls": layer(calls, "coin"),
        "coin.s": layer(secs, "coin"),
        "walk1d.step_s": total(secs, *stepping_1d),
        "walk1d.steps": total(calls, "walk1d.step_1d"),
        "closedform.field_s": total(secs, "closedform.closed_form_field"),
        "closedform.fields": total(calls, "closedform.closed_form_field"),
        "closedform.coef_s": total(secs, *coef),
        "closedform.coef_calls": total(calls, *coef),
        "spectral.limit2d_s": total(secs, *limit2d),
        "spectral.nodes2d": total(work, "spectral._batch_eigensystem"),
        "spectral.limit1d_s": total(secs, *limit1d),
        "spectral.degenerate_errors": errors.get(
            ("spectral._batch_eigensystem", "DegenerateSpectrumError"), 0
        )
        / units,
        "symmetry.s": layer(secs, "symmetry"),
        "localization.s": layer(secs, "localization"),
        "localization.steps": total(
            work,
            "localization.time_averaged_probability_1d",
            "localization.time_averaged_probability_2d",
        ),
    }
    m["walk2d.ns_per_sitestep"] = ratio(m["walk2d.step_s"], m["walk2d.sitesteps"], 1e9)
    m["walk1d.us_per_step"] = ratio(m["walk1d.step_s"], m["walk1d.steps"], 1e6)
    m["spectral.ns_per_node2d"] = ratio(m["spectral.limit2d_s"], m["spectral.nodes2d"], 1e9)
    return m
