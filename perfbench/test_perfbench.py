"""Tests of the benchmark itself; kept out of the tier-1 suite (testpaths = tests).

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def steerlab_imported():
    run.import_steerlab()


def test_self_time_on_synthetic_span_tree():
    now = [0.0]
    t = tr.Tracer(clock=lambda: now[0])

    def work(seconds, *children):
        now[0] += seconds
        for child in children:
            child()

    leaf = t.wrap("world.conditional_components", lambda: work(3.0))   # per-step
    mid = t.wrap("diffusion.sample", lambda: work(1.0, leaf, leaf))
    top = t.wrap("harness.run_generate", lambda: work(2.0, mid, leaf))
    t.op = 7
    top()

    assert t.stats["harness.run_generate"] == [1, 12.0, 2.0]
    assert t.stats["diffusion.sample"] == [1, 7.0, 1.0]
    assert t.stats["world.conditional_components"] == [3, 9.0, 9.0]
    # Per-step calls are aggregated; the two kept spans link child to parent.
    (sample_id, sample, s0, s1, parent, op), (top_id, name, t0, t1, root, _) = t.spans
    assert (sample, name, parent, root, op) == (
        "diffusion.sample", "harness.run_generate", top_id, None, 7)
    assert (s0, s1, t0, t1) == (2.0, 9.0, 0.0, 12.0)
    assert t.layer_metrics("diffusion.sample") == {
        "calls": 1, "self_s": 1.0, "us_per_call": 7e6}


def test_wrappers_cover_every_binding_and_are_removed_after():
    import steerlab.diffusion as diffusion
    import steerlab.guidance as guidance
    import steerlab.harness as harness

    original = diffusion.analytic_epsilon
    with tr.traced(tr.Tracer()) as t:
        wrapped = diffusion.analytic_epsilon
        assert wrapped is not original
        assert harness.analytic_epsilon is wrapped and guidance.analytic_epsilon is wrapped
        assert sys.modules["steerlab"].analytic_epsilon is wrapped
        assert t.absent == []
    assert harness.analytic_epsilon is original and guidance.analytic_epsilon is original


def test_missing_function_is_absent_not_zero():
    t = tr.Tracer()
    with tr.traced(t, names=("diffusion.sample", "diffusion.renamed_away")):
        pass
    assert t.absent == ["diffusion.renamed_away"]
    assert t.layer_metrics("diffusion.renamed_away") is None
    assert t.layer_metrics("diffusion.sample")["calls"] == 0


def _inputs(cls, seed, tmp_path):
    wl = cls(seed, str(tmp_path))
    wl.world_path = "w.world"
    text = wl.world_text() if cls is workloads.ChainedLinks else ""
    if cls is workloads.SteerSweep:
        return text, [wl.config(k, "deficit") for k in range(3)]
    return text, [wl.config(k) for k in range(3)]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(cls, tmp_path):
    first = _inputs(cls, 11, tmp_path)
    assert _inputs(cls, 11, tmp_path) == first
    assert _inputs(cls, 12, tmp_path) != first
    assert first[1][0] != first[1][1]     # ops differ too


def test_generated_world_passes_validate_world(tmp_path, capsys):
    from steerlab import cli

    for seed in range(5):
        path = tmp_path / f"seed{seed}.world"
        path.write_text(workloads.ChainedLinks(seed, str(tmp_path)).world_text())
        assert cli.main(["validate-world", "--world", str(path)]) == 0
    assert "concepts=['concept0'" in capsys.readouterr().out


def _tiny(cls, tmp_path, **sizes):
    wl = cls(3, str(tmp_path))
    for name, value in sizes.items():
        setattr(wl, name, value)
    wl.setup()
    return wl


@pytest.mark.parametrize("cls, sizes", [
    (workloads.ChainedLinks, {"trace_ops": 3}),
    (workloads.SteerSweep, {"trace_ops": 1, "SAMPLES": 1}),
    (workloads.VanillaBulk, {"trace_ops": 1, "SAMPLES": 1, "STEPS": 50}),
])
def test_traced_artifacts_are_byte_identical_to_untraced(cls, sizes, tmp_path):
    wl = _tiny(cls, tmp_path, **sizes)
    errors = []
    ops, metrics, t = run.traced_run(wl, errors)
    assert errors == [] and len(ops) == wl.trace_ops
    assert metrics["harness.run_generate.calls"][0] >= 1
    assert metrics["trace.overhead_s"][1] == "s"
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) == declared


def test_benchmark_json_declares_the_end_to_end_metrics():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
