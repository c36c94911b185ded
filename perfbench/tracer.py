"""Span tracer that times steerlab's public functions from outside the package.

Each listed function is replaced, for the duration of a `traced()` block, at
every module attribute that binds it: `steerlab.diffusion.analytic_epsilon`
and the copies imported into `harness`, `guidance` and the package root alike,
so calls are counted whichever binding the caller uses.  A listed function the
package no longer has is reported as absent instead of failing the run.

Spans carry name, start, end, parent and op id.  Functions called once per
reverse step are aggregated per name (calls, inclusive and self time) instead
of being kept as individual spans.  Self time is a span's duration minus the
durations of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Wrapped functions, grouped by the steerlab module (layer) that defines them.
LAYERS = {
    "diffusion": ("sample", "analytic_epsilon", "ancestral_step", "mixture_log_density"),
    "guidance": ("combined_noise", "adaptive_latent_direction", "edit_condition"),
    "controller": ("decide", "record", "lookup", "snapshot_memory", "restore_memory",
                   "consolidate"),
    "evaluate": ("discriminate", "build_report", "write_report_csv"),
    "worldfile": ("load_world",),
    "world": ("make_condition", "conditional_components"),
    "harness": ("run_generate", "run_sweep", "run_window_ablation", "write_samples_csv"),
    "render": ("render_scatter",),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Called per reverse step (or per lookup): aggregated, not kept as spans.
PER_STEP = frozenset({
    "diffusion.analytic_epsilon", "diffusion.ancestral_step", "guidance.combined_noise",
    "guidance.adaptive_latent_direction", "guidance.edit_condition",
    "world.conditional_components", "controller.lookup",
})


class Tracer:
    """In-memory span recorder; `wrap` returns a timed stand-in for a function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}     # name -> [calls, inclusive_s, self_s]
        self.spans: list[tuple] = []         # (span_id, name, start, end, parent_id, op)
        self.observers: dict[str, object] = {}   # name -> callback(args, kwargs, result)
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[list] = []         # per active call: [child_s, nearest span id]
        self._next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            parent_id = self._stack[-1][1] if self._stack else None
            span_id = None
            if name not in PER_STEP:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, parent_id if span_id is None else span_id]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - start
                stat = self.stats.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
                if span_id is not None:
                    self.spans.append((span_id, name, start, end, parent_id, self.op))
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced_call

    def layer_metrics(self, name: str) -> dict[str, float] | None:
        """calls, self_s and us_per_call (inclusive) for one name; None if absent."""
        if name in self.absent:
            return None
        calls, inclusive, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "self_s": self_s,
                "us_per_call": 1e6 * inclusive / calls if calls else 0.0}


@contextlib.contextmanager
def traced(tracer: Tracer, names=FUNCTIONS):
    """Install tracer wrappers on every steerlab module binding; restore on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if (n == "steerlab" or n.startswith("steerlab.")) and m is not None]
    patched = []
    try:
        for name in names:
            layer, fn_name = name.split(".", 1)
            original = getattr(sys.modules.get(f"steerlab.{layer}"), fn_name, None)
            if not callable(original):
                tracer.absent.append(name)
                continue
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
