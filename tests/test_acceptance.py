"""End-to-end acceptance gate: ten numbered criteria, one verdict line each.

Verdict lines are written straight to the real stdout (bypassing capture) so
the grade for every criterion is visible in any test log, pass or fail.
Statistical criteria run a calibrated strong-steering configuration (gamma
0.6, attribute scale 4.0, 200-step schedule ending at beta 0.1) whose seeded
margins clear the thresholds with room to spare; runtime bounds are asserted
alongside the statistical bounds.
"""

import json
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from steerlab import (
    ExperimentSpec,
    PromptSpec,
    run_generate,
    run_sweep,
    run_window_ablation,
)
from steerlab.controller import (
    IndicatorPolicy,
    MemoryModule,
    consolidate,
    restore_memory,
    snapshot_memory,
)
from steerlab.diffusion import (
    LatentState,
    analytic_epsilon,
    linear_schedule,
    noise_tapes,
    run_trajectories,
)
from steerlab.evaluate import bias_score, discriminate
from steerlab.world import Condition, TargetDistribution, conditional_components, make_condition
from steerlab.worldfile import default_world_path
from steerlab.cli import main as cli_main

from conftest import build_gender_world, decide_matching, record_matching, single_gaussian_world
from test_diffusion import scipy_mixture_logpdf

UNIFORM_GENDER = {"gender": {"male": 0.5, "female": 0.5}}

# the calibrated strong-steering arm shared by the statistical criteria
STEER = dict(steps=200, beta_end=0.1, gamma=0.6, attribute_scale=4.0)


@pytest.fixture
def verdict(capfd):
    """Emit one '[acceptance] <criterion>: PASS/FAIL (<detail>)' line per test.

    Capture is suspended for the print so the line lands in the real test log
    (pytest captures at the file-descriptor level by default), then the
    criterion is asserted.
    """

    def emit(name: str, ok: bool, detail: str) -> None:
        line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, file=sys.stdout, flush=True)
        assert ok, line

    return emit


def _mixed_prompts(n_each: int = 25) -> list[PromptSpec]:
    return [PromptSpec("engineer", count=n_each), PromptSpec("teacher", count=n_each)]


def _steer_spec(**overrides) -> ExperimentSpec:
    base = dict(
        world_path=default_world_path(),
        prompts=_mixed_prompts(),
        target=UNIFORM_GENDER,
        policy="deficit",
        samples_per_prompt=10,
        seed=0,
        **STEER,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_c01_noise_prediction_matches_score_oracle(default_world, verdict):
    """1,000 random (x, t, condition) triples: the analytic noise prediction
    must match a finite-difference gradient of an independently computed log
    density to relative error < 1e-4, in under 10 seconds."""
    t0 = time.perf_counter()
    general = build_gender_world(
        male_weight=0.65,
        covariances={
            ("engineer", "male"): [[2.0, 0.6], [0.6, 1.0]],
            ("teacher", "female"): [[0.5, -0.2], [-0.2, 1.5]],
        },
    )
    cases = []
    for world in (default_world, general):
        for concept in world.concepts:
            cases.append((world, make_condition(world, concept)))
            cases.append((world, make_condition(world, concept, {"gender": "female"})))
    schedule = linear_schedule(200, beta_end=0.1)
    rng = np.random.default_rng(101)
    h = 1e-5
    worst = 0.0
    for i in range(1000):
        world, cond = cases[i % len(cases)]
        mix = conditional_components(world, cond)
        t = int(rng.integers(0, schedule.steps))
        a_bar = float(schedule.alpha_bar[t])
        anchor = mix.components[int(rng.integers(len(mix.components)))]
        x = math.sqrt(a_bar) * anchor.mean + 1.5 * rng.standard_normal(2)
        eps = analytic_epsilon(world, schedule, LatentState(x, t), cond)
        grad = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            grad[k] = (
                scipy_mixture_logpdf(mix, x + e, a_bar)
                - scipy_mixture_logpdf(mix, x - e, a_bar)
            ) / (2 * h)
        expected = -math.sqrt(1.0 - a_bar) * grad
        rel = float(np.linalg.norm(eps - expected) / max(np.linalg.norm(expected), 1e-12))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-01 noise-prediction-oracle",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e} over 1000 triples, {elapsed:.1f}s (limit 10s)",
    )


def test_c02_sampler_reproduces_unit_gaussian(verdict):
    """5,000 full reverse trajectories on the unit-Gaussian world under the
    default 1,000-step schedule, drawn by the trajectory engine from 5,000
    independent streams: sample moments must match N(0, I)."""
    t0 = time.perf_counter()
    world = single_gaussian_world()
    schedule = linear_schedule(1000)
    cond = make_condition(world, "origin")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(202).spawn(5000)]
    draws, failed = run_trajectories(world, schedule, [cond] * len(rngs),
                                     noise_tapes(rngs, schedule.steps, 2))
    assert not failed, failed
    mean_err = float(np.abs(draws.mean(axis=0)).max())
    cov_err = float(np.abs(np.cov(draws.T) - np.eye(2)).max())
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-02 sampler-fidelity",
        mean_err < 0.1 and cov_err < 0.15 and elapsed < 120.0,
        f"|mean| {mean_err:.4f} (<0.1), |cov-I| {cov_err:.4f} (<0.15), "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_c03_gamma_one_collapses_to_vanilla(tmp_path, verdict):
    """gamma = 1 must make every steered policy reproduce the vanilla arm's
    data rows byte-for-byte (comment headers carry differing config digests)."""

    def data_rows(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    common = dict(
        world_path=default_world_path(),
        prompts=[PromptSpec("engineer", count=3), PromptSpec("teacher", count=3)],
        target=UNIFORM_GENDER,
        samples_per_prompt=4,
        steps=50,
        beta_end=0.25,
        seed=33,
    )
    run_generate(ExperimentSpec(policy="vanilla", **common),
                 out_dir=str(tmp_path / "vanilla"))
    mismatches = []
    for policy in ("deficit", "probabilistic"):
        run_generate(ExperimentSpec(policy=policy, gamma=1.0, **common),
                     out_dir=str(tmp_path / policy))
        for name in ("samples.csv", "report.csv"):
            if data_rows(tmp_path / policy / name) != data_rows(tmp_path / "vanilla" / name):
                mismatches.append(f"{policy}/{name}")
    verdict(
        "criterion-03 gamma-one-endpoint-identity",
        not mismatches,
        "vanilla vs gamma=1 deficit+probabilistic: all data rows identical"
        if not mismatches else f"mismatched: {mismatches}",
    )


def test_c04_deficit_counts_stay_within_one_generation(default_world, verdict):
    """Perfect-enforcement deficit loop: for every target share in
    {0, 0.1, ..., 1.0}, realized counts never drift more than one generation
    from n * share over 10,000 generations."""
    t0 = time.perf_counter()
    schema = default_world.schema
    cond = Condition("prompt", {}, np.zeros(2))
    worst = 0.0
    for p10 in range(11):
        p = p10 / 10.0
        target = TargetDistribution({"gender": {"male": p, "female": 1.0 - p}})
        memory = MemoryModule(budget=2, tau=1.0)
        policy = IndicatorPolicy("deficit")
        counts = {"male": 0, "female": 0}
        for n in range(1, 10001):
            plan = decide_matching(memory, cond, schema, target, policy)
            chosen = dict(plan.entries)["gender"].target
            record_matching(memory, cond, {"gender": chosen})
            counts[chosen] += 1
            dev = max(abs(counts["male"] - n * p), abs(counts["female"] - n * (1.0 - p)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-04 deficit-boundedness",
        worst <= 1.0 + 1e-9 and elapsed < 10.0,
        f"max |count - n*share| = {worst:.6f} over 11 targets x 10k generations, "
        f"{elapsed:.1f}s (limit 10s)",
    )


def test_c05_deficit_variance_dominates_probabilistic(verdict):
    """100 trials of 50 real guided generations per policy: the deficit loop's
    achieved-proportion variance must beat the probabilistic policy's
    (one-sided F-test at alpha = 0.01)."""
    t0 = time.perf_counter()
    achieved: dict[str, list[float]] = {"deficit": [], "probabilistic": []}
    for p_i, policy in enumerate(achieved):
        for trial in range(100):
            spec = _steer_spec(
                prompts=[PromptSpec("engineer", count=50)],
                samples_per_prompt=1,
                policy=policy,
                seed=1_000_000 * (p_i + 1) + trial,
            )
            result = run_generate(spec)
            labels = [s.labels["gender"] == "female" for s in result.samples]
            achieved[policy].append(float(np.mean(labels)))
    var_def = float(np.var(achieved["deficit"], ddof=1))
    var_prob = float(np.var(achieved["probabilistic"], ddof=1))
    f_stat = var_prob / var_def if var_def > 0 else np.inf
    p_value = float(stats.f.sf(f_stat, 99, 99))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-05 variance-dominance",
        var_def < var_prob and p_value < 0.01 and elapsed < 900.0,
        f"std deficit {math.sqrt(var_def):.4f} vs probabilistic "
        f"{math.sqrt(var_prob):.4f}, F={f_stat:.1f}, p={p_value:.2e}, "
        f"{elapsed:.0f}s (limit 900s)",
    )


def test_c06_sweep_orders_policies_by_bias(verdict):
    """Across target shares {0, 0.2, ..., 1.0}: mean bias must order
    deficit < probabilistic < vanilla."""
    t0 = time.perf_counter()
    base = _steer_spec(
        seed=17,
        sweep={"attribute": "gender", "value": "male",
               "proportions": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]},
    )
    avg = {}
    for policy in ("deficit", "probabilistic", "vanilla"):
        avg[policy] = run_sweep(replace(base, policy=policy)).avg_bias
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-06 sweep-policy-ordering",
        avg["deficit"] < avg["probabilistic"] < avg["vanilla"] and elapsed < 1200.0,
        f"mean bias deficit {avg['deficit']:.4f} < probabilistic "
        f"{avg['probabilistic']:.4f} < vanilla {avg['vanilla']:.4f}, "
        f"{elapsed:.0f}s (limit 1200s)",
    )


def test_c07_middle_window_beats_early_window(verdict):
    """Steering during the middle of the trajectory must yield lower bias than
    the same budget spent early (one-sided Welch t-test at alpha = 0.01,
    500 samples per arm)."""
    t0 = time.perf_counter()
    spec = _steer_spec(seed=3, windows=[[0.0, 0.25], [0.375, 0.625]])
    ablation = run_window_ablation(spec)
    early = [row.deviation for row in ablation.results[0].report.rows]
    middle = [row.deviation for row in ablation.results[1].report.rows]
    welch = stats.ttest_ind(early, middle, equal_var=False, alternative="greater")
    b_early = ablation.rows[0].bias
    b_middle = ablation.rows[1].bias
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-07 window-placement",
        b_middle < b_early and welch.pvalue < 0.01,
        f"bias early {b_early:.4f} vs middle {b_middle:.4f}, "
        f"Welch p={welch.pvalue:.2e}, {elapsed:.0f}s",
    )


def _memory_invariant_failure(memory: MemoryModule, records_so_far: int) -> str | None:
    if len(memory.clusters) > memory.budget:
        return f"{len(memory.clusters)} clusters exceed budget {memory.budget}"
    total = sum(c.total for c in memory.clusters)
    if total != records_so_far:
        return f"cluster totals {total} != records {records_so_far}"
    for c in memory.clusters:
        if not np.all(np.isfinite(c.centroid)):
            return "non-finite centroid"
        for attr, vals in c.counts.items():
            if sum(vals.values()) != c.total:
                return f"counts for {attr} do not sum to cluster total"
    return None


def test_c08_memory_survives_random_operation_storm(default_world, tmp_path, verdict):
    """10,000 randomized operation sequences (record / decide / consolidate /
    snapshot round-trip) with zero invariant violations, in under 30 seconds."""
    t0 = time.perf_counter()
    schema = default_world.schema
    target = TargetDistribution(UNIFORM_GENDER)
    policy = IndicatorPolicy("deficit")
    snap_path = str(tmp_path / "storm.json")
    failure = None
    for i in range(10000):
        rng = np.random.default_rng(808_000 + i)
        memory = MemoryModule(budget=int(rng.integers(1, 5)),
                              tau=float(rng.uniform(0.3, 3.0)))
        records = 0
        for _ in range(int(rng.integers(4, 13))):
            roll = rng.random()
            if roll < 0.7 or not memory.clusters:
                value = "male" if rng.random() < 0.5 else "female"
                record_matching(memory, Condition("p", {}, rng.uniform(-6, 6, 2)),
                                {"gender": value})
                records += 1
            elif roll < 0.9:
                decide_matching(memory, Condition("p", {}, rng.uniform(-6, 6, 2)),
                                schema, target, policy)
            elif len(memory.clusters) >= 2:
                consolidate(memory)
            failure = _memory_invariant_failure(memory, records)
            if failure:
                failure = f"sequence {i}: {failure}"
                break
        if failure:
            break
        snapshot_memory(memory, snap_path, schema, prompts_seen=records)
        restored, seen = restore_memory(snap_path, schema)
        if seen != records or len(restored.clusters) != len(memory.clusters):
            failure = f"sequence {i}: snapshot round-trip altered shape"
            break
        for a, b in zip(memory.clusters, restored.clusters):
            if (not np.array_equal(a.centroid, b.centroid)
                    or a.total != b.total or a.counts != b.counts):
                failure = f"sequence {i}: snapshot round-trip altered a cluster"
                break
        if failure:
            break
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-08 memory-operation-storm",
        failure is None and elapsed < 30.0,
        failure or f"10,000 sequences clean, {elapsed:.1f}s (limit 30s)",
    )


def test_c09_metrics_are_exact_and_discriminator_agrees_with_bayes(verdict):
    """Hand-computable bias cases must be exact to 1e-12, and the
    discriminator must agree with a brute-force Bayes classifier on 10,000
    random points."""
    gender = build_gender_world().schema
    uniform = TargetDistribution(UNIFORM_GENDER)

    def outcome(males, females):
        return [{"gender": "male"}] * males + [{"gender": "female"}] * females

    checks = [
        abs(bias_score([outcome(7, 3)], uniform, gender).combined - 0.2),
        abs(bias_score([outcome(7, 3), outcome(9, 1)], uniform, gender).combined - 0.3),
        abs(bias_score(
            [outcome(10, 0)],
            TargetDistribution({"gender": {"male": 1.0, "female": 0.0}}),
            gender,
        ).combined - 0.0),
    ]
    hand_ok = max(checks) <= 1e-12

    world = build_gender_world(
        male_weight=0.65,
        covariances={
            ("engineer", "male"): [[2.0, 0.7], [0.7, 1.2]],
            ("teacher", "female"): [[0.6, -0.1], [-0.1, 1.8]],
        },
    )
    rng = np.random.default_rng(909)
    points = rng.uniform(-5, 11, size=(10000, 2))
    density = {"male": np.zeros(len(points)), "female": np.zeros(len(points))}
    for c in world.components:
        density[c.tags["gender"]] += c.weight * stats.multivariate_normal.pdf(
            points, mean=c.mean, cov=c.covariance
        )
    expected = np.where(density["male"] >= density["female"], "male", "female")
    ours = np.array([discriminate(world, x)[0]["gender"] for x in points])
    agreement = float(np.mean(ours == expected))
    verdict(
        "criterion-09 metric-exactness",
        hand_ok and agreement == 1.0,
        f"hand-case max err {max(checks):.1e} (<=1e-12), "
        f"Bayes agreement {agreement:.4%} on 10,000 points",
    )


def test_c10_artifacts_are_byte_reproducible(tmp_path, verdict):
    """The same sweep config run twice (CLI path) must produce byte-identical
    CSV and SVG artifacts.  manifest.json is excluded: it records wall-clock
    timings by design."""
    config = {
        "world_path": default_world_path(),
        "prompts": [{"concept": "engineer", "count": 2},
                    {"concept": "teacher", "count": 2}],
        "target": UNIFORM_GENDER,
        "policy": "deficit",
        "samples_per_prompt": 3,
        "steps": 50,
        "beta_end": 0.25,
        "seed": 1010,
        "sweep": {"attribute": "gender", "value": "male", "proportions": [0.3, 0.7]},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))

    def run_into(out_dir):
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert cli_main([
            "render", "--samples", str(out_dir / "arm_00" / "samples.csv"),
            "--out", str(out_dir / "arm_00.svg"),
        ]) == 0
        return {
            p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.suffix in (".csv", ".svg")
        }

    first = run_into(tmp_path / "run_a")
    second = run_into(tmp_path / "run_b")
    same_names = set(first) == set(second)
    diffs = [str(name) for name in first if same_names and first[name] != second[name]]
    verdict(
        "criterion-10 artifact-determinism",
        same_names and not diffs,
        f"{len(first)} csv/svg artifacts byte-identical across reruns"
        if same_names and not diffs
        else f"differing artifacts: {diffs or 'name sets differ'}",
    )
