"""Run one csibreath CLI command with its layers timed from outside.

    python3 bench/tracer.py SPANS_JSON -- <csibreath arguments>

Every function named in SPANNED and COUNTED is replaced, on each csibreath
module that holds a reference to it, by a wrapper that records when it ran.
That covers both ``csibreath.pipeline.optimize`` (imported by name) and
``csibreath.gass.fitness`` (looked up on the module). The package's files are
not touched and the wrappers return what the functions return, so the
command's outputs are byte-identical to an untraced run.

Spans (name, start, end, parent, window id) are kept in memory and written to
SPANS_JSON when the command ends, with per-function self times, call counts
and counts read from the functions' return values. A span's self time is its
duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# module -> functions recorded as one span per call
SPANNED = {
    "simulate": ("generate_ideal_csi", "apply_impairments"),
    "traceio": ("read_trace", "write_trace"),
    "ratio": ("average_phase_blocks",),
    "pipeline": (
        "blind_spot_sweep",
        "run_pipeline",
        "single_component_estimates",
        "segment",
    ),
    "gass": ("rank_seed_pairs", "optimize", "build_streams"),
    "combine": ("align_streams", "combine"),
    "waveform": ("project", "clean"),
    "rate": ("estimate_rate",),
}
# called up to ~1e5 times per command: a call count and a total time only
COUNTED = {"gass": ("fitness",), "simulate": ("frames_to_matrix",)}
NAMES = tuple(
    f"{module}.{fn}" for table in (SPANNED, COUNTED) for module, fns in table.items() for fn in fns
)

# spans below these get the id of the window whose rate readout follows them
WINDOW_LOOPS = ("pipeline.run_pipeline", "pipeline.single_component_estimates")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []       # [name, start, end, parent, window]
        self.stack: list[list] = []       # [name, span index, child seconds, pending]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.gains: list[float] = []      # optimize: fitness / seeded_best_fitness
        self.search_depth = 0             # > 0 while inside gass.optimize

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _finish(self, name: str, elapsed: float, child_s: float) -> None:
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.stack:
            self.stack[-1][2] += elapsed

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name, None, 0.0, None]
            self.stack.append(entry)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if name == "gass.fitness" and self.search_depth:
                    self.add("optimize.fitness_calls", 1)
                self._finish(name, elapsed, entry[2])

        return wrapper

    def spanned(self, name: str, fn):
        signature = inspect.signature(fn)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][1] if self.stack else None
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, None]
            self.spans.append(span)
            self._assign_window(name, index, signature, args, kwargs)
            entry = [name, index, 0.0, [] if name in WINDOW_LOOPS else None]
            self.stack.append(entry)
            if name == "gass.optimize":
                self.search_depth += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if name == "gass.optimize":
                    self.search_depth -= 1
                self._finish(name, span[2] - span[1], entry[2])
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _assign_window(self, name, index, signature, args, kwargs) -> None:
        """Queue the span on the innermost window loop, unless it belongs to
        the loop's segmentation; a rate readout names the queued spans'
        window. Spans of a window that fails before its readout are
        attributed to the next window."""
        if name == "pipeline.segment":
            return
        loop = None
        for entry in reversed(self.stack):
            if entry[0] == "pipeline.segment":
                return
            if entry[3] is not None:
                loop = entry
                break
        if loop is None:
            return
        loop[3].append(index)
        if name == "rate.estimate_rate":
            window = signature.bind(*args, **kwargs).arguments.get("window_id")
            for i in loop[3]:
                self.spans[i][4] = window
            loop[3].clear()

    def install(self) -> None:
        """Wrap every listed function wherever a csibreath module holds it;
        a function missing from the package is skipped and reports zero."""
        importlib.import_module("csibreath.cli")
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("csibreath")]
        for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for module_name, functions in table.items():
                home = importlib.import_module(f"csibreath.{module_name}")
                for fn_name in functions:
                    original = getattr(home, fn_name, None)
                    if original is None:
                        continue
                    wrapper = make(f"{module_name}.{fn_name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "self_s": self.self_s,
                    "calls": self.calls,
                    "counts": self.counts,
                    "gains": self.gains,
                },
                fh,
            )


def _observe_optimize(tracer: Tracer, arguments: dict, solution) -> None:
    params = arguments.get("params")
    if params is None:
        params = importlib.import_module("csibreath.gass").GaParams()
    generations = len(solution.history) - 1
    tracer.add("optimize.generations_run", generations)
    tracer.add("optimize.genomes_scored", len(solution.history) * params.population)
    tracer.add("optimize.stagnation_stops", int(generations < params.generations))
    seeded = solution.seeded_best_fitness
    if seeded > 0 and seeded != float("inf") and solution.fitness != float("inf"):
        tracer.gains.append(solution.fitness / seeded)


def _observe_run_pipeline(tracer: Tracer, arguments: dict, results) -> None:
    tracer.add("run_pipeline.windows", len(results))
    tracer.add("run_pipeline.reused", sum(bool(r.gass_reused) for r in results))


def _observe_combine(tracer: Tracer, arguments: dict, combined) -> None:
    tracer.add("combine.aligned", len(arguments["aligned"]))
    tracer.add("combine.contributing", combined.contributing)


OBSERVERS = {
    "gass.optimize": _observe_optimize,
    "pipeline.run_pipeline": _observe_run_pipeline,
    "pipeline.segment": lambda t, a, plan: t.add(
        "segment.frames_rejected", int((~plan.accepted).sum())
    ),
    "gass.build_streams": lambda t, a, streams: t.add("build_streams.streams", len(streams)),
    "combine.combine": _observe_combine,
    "waveform.clean": lambda t, a, result: t.add("clean.replaced", result[1]),
    "traceio.read_trace": lambda t, a, result: t.add(
        "read_trace.bytes", os.path.getsize(a["path"])
    ),
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <csibreath arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("csibreath.cli")
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
