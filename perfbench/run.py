"""steerlab benchmark: one workload per run, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload vanilla-bulk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; steerlab is imported from its `src/`.  One
caller drives steerlab in a closed loop from this single process and starts
no threads or processes.  Lines before the last describe the machine and the
run; the last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 0 only when every output check
passed.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

END_TO_END = {   # name -> unit
    "samples_per_s": "samples/s", "setup_s": "s", "peak_rss_mb": "MB", "steer_bias": "bias",
}
# Functions every workload calls: their times are reported in the JSON line.
# Functions some workload never calls report only `.calls` there (a time of
# exactly 0 on every run is not a measurement); all times are printed above it.
TIMED_EVERYWHERE = (
    "diffusion.sample", "diffusion.analytic_epsilon", "diffusion.ancestral_step",
    "diffusion.mixture_log_density", "evaluate.discriminate", "evaluate.build_report",
    "evaluate.write_report_csv", "worldfile.load_world", "world.make_condition",
    "world.conditional_components", "harness.run_generate", "harness.write_samples_csv",
)


def import_steerlab() -> None:
    """Import steerlab afresh, dropping any modules of an earlier import."""
    for name in [n for n in sys.modules if n == "steerlab" or n.startswith("steerlab.")]:
        del sys.modules[name]
    importlib.import_module("steerlab.cli")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit()}


def run_op(wl, k: int, errors: list[str]):
    """Prepare, time, inspect and clean up op k; None if it raised."""
    from workloads import Op
    try:
        wl.prepare(k)
        t0 = time.perf_counter()
        wl.run(k)
        op = Op(time.perf_counter() - t0)
        wl.inspect(k, op)
    except Exception as exc:  # a broken program must still end in a result line
        errors.append(f"crash in op {k}: {type(exc).__name__}: {exc}")
        return None
    finally:
        shutil.rmtree(wl.op_dir(k), ignore_errors=True)
    return op


def measure(wl, seconds: float, errors: list[str]) -> list:
    """Closed loop: ops until `seconds` have passed and at least wl.min_ops ran."""
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < wl.min_ops or time.perf_counter() < deadline:
        op = run_op(wl, len(ops), errors)
        if op is None:
            break
        ops.append(op)
    return ops


def end_to_end(ops: list, setups: list[float], min_ops: int) -> dict[str, float]:
    return {
        "samples_per_s": sum(op.samples for op in ops) / sum(op.seconds for op in ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "steer_bias": statistics.fmean(op.bias for op in ops[:min_ops]),
    }


def traced_run(wl, errors: list[str]) -> tuple[list, dict[str, tuple[float, str]], object]:
    """The same ops untraced, then traced; per-layer metrics from the traced pass."""
    from tracer import FUNCTIONS, Tracer, traced

    passes = []
    tracer = Tracer()
    steering = {"plan": None, "entries": 0, "hits": 0, "clusters": 0}

    def on_decide(args, kwargs, plan):
        steering["plan"] = plan

    def on_discriminate(args, kwargs, result):
        plan, steering["plan"] = steering["plan"], None
        if plan is not None:
            for attr, entry in dict(plan.entries).items():
                steering["entries"] += 1
                steering["hits"] += result[0][attr] == entry.target

    def on_record(args, kwargs, result):
        steering["clusters"] = len(args[0].clusters)

    tracer.observers = {"controller.decide": on_decide, "evaluate.discriminate": on_discriminate,
                        "controller.record": on_record}
    for is_traced in (False, True):
        wl.restart()
        ops = []
        with traced(tracer) if is_traced else contextlib.nullcontext():
            for k in range(wl.trace_ops):
                tracer.op = k
                op = run_op(wl, k, errors)
                if op is None:
                    return ops, {}, tracer
                ops.append(op)
        passes.append(ops)
    untraced, traced_ops = passes
    for k, (a, b) in enumerate(zip(untraced, traced_ops)):
        if a.raw_digest != b.raw_digest:
            errors.append(f"op {k}: traced artifacts differ from untraced ones")

    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        layer = tracer.layer_metrics(name)
        if layer is None:
            continue
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        if name in TIMED_EVERYWHERE:
            metrics[f"{name}.self_s"] = (layer["self_s"], "s")
            metrics[f"{name}.us_per_call"] = (layer["us_per_call"], "us")
    calls = {name: tracer.stats.get(name, (0,))[0] for name in FUNCTIONS}
    metrics["guidance.in_window_share"] = (
        calls["guidance.adaptive_latent_direction"] / max(calls["guidance.combined_noise"], 1),
        "ratio")
    metrics["guidance.hit_ratio"] = (steering["hits"] / max(steering["entries"], 1), "ratio")
    metrics["controller.clusters_final"] = (steering["clusters"], "count")
    metrics["trace.overhead_s"] = (
        sum(op.seconds for op in traced_ops) - sum(op.seconds for op in untraced), "s")
    return untraced, metrics, tracer


def write_trace(tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stats": tracer.stats, "absent": tracer.absent,
                   "spans": [dict(zip(("id", "name", "start", "end", "parent", "op"), s))
                             for s in tracer.spans]}, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=["vanilla-bulk", "steer-sweep", "chained-links"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "steerlab", "__init__.py")):
        print(f"error: no steerlab package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    errors: list[str] = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            import_steerlab()
            wl = WORKLOADS[args.workload](args.seed, workdir)
            wl.setup()
            setups.append(time.perf_counter() - t0)
        if args.trace:
            ops, layer_metrics, tracer = traced_run(wl, errors)
            write_trace(tracer, os.path.join(
                BENCH_DIR, "results", f"trace-{args.workload}-{args.seed}.json"))
        else:
            ops = measure(wl, args.seconds, errors)
        if ops and not errors:
            wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still be using it
            os.rmdir(os.path.dirname(workdir))
    errors += wl.errors
    crashed = sum(1 for e in errors if e.startswith("crash in op"))
    attempted = sum(op.prompts for op in ops) + crashed
    failed = sum(op.failed for op in ops) + crashed
    info = machine()
    print("# machine: " + " ".join(f"{k}={v!r}" for k, v in info.items()))
    print(f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(ops)} min_ops={wl.min_ops}")
    for error in errors:
        print(f"# CHECK FAILED: {error}")

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        if tracer.absent:
            print("# absent: " + " ".join(tracer.absent))
        for name, (calls, inclusive, self_s) in sorted(tracer.stats.items()):
            print(f"# layer {name}: calls={calls} self_s={self_s:.6f} "
                  f"us_per_call={1e6 * inclusive / calls:.3f}")
        metrics = layer_metrics
    elif len(ops) >= 2:
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end(ops, setups, wl.min_ops).items()}
        # Printed, not gated: host load moves percentiles more than any usable bound.
        seconds = [op.seconds for op in ops]
        p90 = statistics.quantiles(seconds, n=10, method="inclusive")[8]
        print(f"# op_ms_p50 = {1e3 * statistics.median(seconds)!r} ms, op_ms_p90 = "
              f"{1e3 * p90!r} ms over {len(ops)} ops (lower is better)")
    print(f"# fail_ratio = {failed / attempted!r} ratio (lower is better; "
          f"{failed} failed of {attempted} prompts attempted)")
    run_digest = hashlib.sha256("".join(op.digest for op in ops[:wl.min_ops]).encode())
    print(f"# artifact_digest = {run_digest.hexdigest()} over {min(len(ops), wl.min_ops)} ops")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    correct = not errors and bool(metrics) and all(
        math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
