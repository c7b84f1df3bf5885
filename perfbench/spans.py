"""Span tracing of the qmds layers, recorded from outside the library.

`Tracer.install` replaces each public function named in `LAYERS` with a
timing wrapper, in every loaded `qmds` module that holds it. The library
modules import these names directly (`from .quat import dominant_eigpair`),
so patching only the defining module would let a layer drop out of the
trace without any error; replacing every reference to the same function
object closes that gap. A name that no longer exists where `LAYERS` expects
it is an error, not a silent gap.

Spans stay in memory as (id, name, start_ns, end_ns, parent id, trial id)
and are written out once, after the run. Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

LAYERS = {
    "harness": ("run_trial", "run_grid", "run_convergence", "write_csv"),
    "cli": ("main",),
    "network": ("true_parameters",),
    "measurement": ("synthesize", "missing_mask"),
    "gek": ("build_real_gek", "quat_gek_from_measurements", "build_quat_gek",
            "apply_mask"),
    "completion": ("complete_real_gek", "complete_quat_gek"),
    "quat": ("dominant_eigpair",),
    "solvers": ("smds", "qd_smds", "qd_mrc_smds", "qd_mrc_smds_iterative",
                "scenario_one_pipeline", "anchored_inversion",
                "procrustes_align"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class TraceTargetMissing(RuntimeError):
    """A function the trace wraps is gone from the module that should hold it."""


@dataclass
class Tracer:
    """Spans, per-name call counts and self times, kept in memory."""

    spans: list = field(default_factory=list)
    calls: dict = field(default_factory=lambda: dict.fromkeys(SPAN_NAMES, 0))
    self_ns: dict = field(default_factory=lambda: dict.fromkeys(SPAN_NAMES, 0))
    trial_ns: list = field(default_factory=list)
    # completion outcomes, read from the return values of the wrapped calls
    completion_calls: int = 0
    completion_sweeps: int = 0
    completion_converged: int = 0
    round_index: int = 0
    _stack: list = field(default_factory=list)
    _next_id: int = 0

    def install(self):
        """Wrap every function in LAYERS; returns a callable that undoes it."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "qmds" or name.startswith("qmds.")}
        missing = [f"qmds.{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns
                   if not callable(getattr(modules.get(f"qmds.{mod}"), fn, None))]
        if missing:
            raise TraceTargetMissing("traced names not found: " + ", ".join(missing))

        patched = []
        for mod, fns in LAYERS.items():
            for fn in fns:
                original = getattr(modules[f"qmds.{mod}"], fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))

        def restore():
            for module, attr, original in patched:
                setattr(module, attr, original)
        return restore

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            trial = parent[1] if parent else None
            if name == "harness.run_trial":
                # run_trial(config, scenario, algorithm, sigma_d, epsilon, trial_index)
                key = "/".join(str(a) for a in args[1:6])
                trial = f"{tracer.round_index}:{key}"
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, trial, 0]
            tracer._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[2]
                tracer.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, trial))
                if name == "harness.run_trial":
                    tracer.trial_ns.append(duration)
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "completion.complete_real_gek":
            res = result[1]
            self._count_completion(res.iterations, res.converged)
        elif name == "completion.complete_quat_gek":
            info = result[1]
            self._count_completion(info["iterations"], info["converged"])

    def _count_completion(self, iterations, converged) -> None:
        self.completion_calls += 1
        self.completion_sweeps += int(iterations)
        self.completion_converged += bool(converged)

    def covered_ns(self) -> int:
        """Time inside some span: the self times of all spans add up to it."""
        return sum(self.self_ns.values())

    def write(self, path, origin_ns: int) -> None:
        """Write one JSON object per span, times relative to `origin_ns`."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name,
                    "start_ns": start - origin_ns, "end_ns": end - origin_ns,
                    "parent": parent, "trial": trial,
                }) + "\n")
