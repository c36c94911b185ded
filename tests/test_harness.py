import copy
import json
import math
import os
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from steerlab import (
    ExperimentSpec,
    NumericsError,
    PromptSpec,
    RenderError,
    SteerlabError,
    run_generate,
    run_sweep,
    run_window_ablation,
)
from steerlab.controller import (
    MemoryModule,
    decide,
    default_match_threshold,
    record,
    restore_memory,
)
from steerlab.diffusion import Steering, linear_schedule, noise_tapes, run_trajectories
from steerlab.evaluate import discriminate
from steerlab.guidance import EMPTY_PLAN, GuidanceConfig, GuidanceProbe, window_mask
from steerlab.render import render_scatter
from steerlab.world import TargetDistribution, make_condition
from steerlab.worldfile import default_world_path, load_world
from steerlab import harness
from steerlab.harness import _POLICY_NS, _build_policy, _child_seed, load_samples_csv, sweep_targets

from conftest import build_gender_world, single_gaussian_world
import reference
from reference import quality_score

GENDER_WORLD_TEXT = """\
dimension 2
attribute gender male female
component engineer gender=male   mean=4,0 weight=0.325
component engineer gender=female mean=0,0 weight=0.175
component teacher  gender=male   mean=4,6 weight=0.175
component teacher  gender=female mean=0,6 weight=0.325
"""

TWO_ATTR_WORLD_TEXT = """\
dimension 2
attribute gender male female
attribute age young old
component worker gender=male   age=young mean=0,0 weight=0.4
component worker gender=female age=old   mean=4,0 weight=0.3
component worker gender=female age=young mean=0,4 weight=0.3
"""

# No shade=c age=old component: steering an age=old prompt toward shade=c is infeasible.
SHADE_WORLD_TEXT = """\
dimension 2
attribute shade a b c
attribute age young old
component worker shade=a age=young mean=0,0 weight=0.2
component worker shade=a age=old   mean=4,0 weight=0.2
component worker shade=b age=young mean=0,4 weight=0.2
component worker shade=b age=old   mean=4,4 weight=0.2
component worker shade=c age=young mean=-4,0 weight=0.2
"""


# Every shade and age pair is feasible, so any plan can run.
THREE_VALUED_WORLD_TEXT = """\
dimension 2
attribute shade a b c
attribute age young old
component worker shade=a age=young mean=0,0  weight=0.2
component worker shade=a age=old   mean=4,0  weight=0.15
component worker shade=b age=young mean=0,4  weight=0.15
component worker shade=b age=old   mean=4,4  weight=0.15
component worker shade=c age=young mean=-4,0 weight=0.15
component worker shade=c age=old   mean=-4,4 weight=0.2
"""


@pytest.fixture()
def world_path(tmp_path):
    path = tmp_path / "test.world"
    path.write_text(GENDER_WORLD_TEXT)
    return str(path)


def base_spec(world_path, **overrides):
    defaults = dict(
        world_path=world_path,
        prompts=[PromptSpec("engineer", count=4), PromptSpec("teacher", count=4)],
        target={"gender": {"male": 0.5, "female": 0.5}},
        policy="deficit",
        samples_per_prompt=5,
        steps=40,
        beta_end=0.3,
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestExperimentSpec:
    def config_dict(self):
        return {
            "world_path": "w.world",
            "prompts": [{"concept": "engineer", "count": 2}],
            "target": {"gender": {"male": 0.5, "female": 0.5}},
            "gamma": 0.6,
            "window": [0.375, 0.625],
        }

    def test_from_dict_round_trip(self):
        spec = ExperimentSpec.from_dict(self.config_dict(), base_dir="/cfg")
        assert spec.world_path == "/cfg/w.world"
        assert spec.prompts[0].concept == "engineer"
        assert spec.window == (0.375, 0.625)

    def test_unknown_keys_rejected(self):
        data = self.config_dict()
        data["verbosity"] = 3
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentSpec.from_dict(data)

    def test_required_keys(self):
        with pytest.raises(ValueError, match="world_path"):
            ExperimentSpec.from_dict({"prompts": []})

    def test_bad_prompt_entry(self):
        data = self.config_dict()
        data["prompts"] = [{"concept": "engineer", "size": 4}]
        with pytest.raises(ValueError, match="bad prompt entry"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("count", [-3, 0])
    def test_non_positive_prompt_count_rejected(self, count):
        data = self.config_dict()
        data["prompts"] = [{"concept": "engineer", "count": count}]
        with pytest.raises(ValueError, match="bad prompt entry.*count"):
            ExperimentSpec.from_dict(data)
        with pytest.raises(ValueError, match="count"):
            PromptSpec("engineer", count=count)

    def test_policy_validated(self):
        data = self.config_dict()
        data["policy"] = "greedy"
        with pytest.raises(ValueError, match="unknown policy"):
            ExperimentSpec.from_dict(data)

    def test_digest_stable_under_key_reordering(self):
        a = ExperimentSpec.from_dict(self.config_dict(), base_dir="/cfg")
        reordered = dict(reversed(list(self.config_dict().items())))
        b = ExperimentSpec.from_dict(reordered, base_dir="/cfg")
        assert a.digest() == b.digest()

    def test_digest_changes_with_content(self):
        a = ExperimentSpec.from_dict(self.config_dict(), base_dir="/cfg")
        data = self.config_dict()
        data["gamma"] = 0.61
        b = ExperimentSpec.from_dict(data, base_dir="/cfg")
        assert a.digest() != b.digest()

    def test_from_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.config_dict()))
        spec = ExperimentSpec.from_file(str(cfg))
        assert spec.world_path == str(tmp_path / "w.world")


class TestRunGenerate:
    def test_produces_expected_artifacts(self, world_path, tmp_path):
        out = tmp_path / "run"
        result = run_generate(base_spec(world_path), out_dir=str(out))
        assert len(result.samples) == 8 * 5
        assert result.report is not None
        assert result.report.n_prompts == 8
        assert 0.0 <= result.report.combined <= 1.0
        assert 0.0 <= result.report.quality <= 1.0
        assert not result.failures
        assert (out / "samples.csv").exists()
        assert (out / "report.csv").exists()
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == base_spec(world_path).digest()
        assert "samples.csv" in manifest["outputs"]

    def test_memory_receives_every_generation(self, world_path):
        result = run_generate(base_spec(world_path))
        assert result.memory is not None
        assert sum(c.total for c in result.memory.clusters) == 8 * 5
        assert result.prompts_seen == 8

    @pytest.mark.parametrize("policy", ["deficit", "probabilistic", "static"])
    def test_only_the_probabilistic_policy_gets_a_decision_stream(self, world_path, monkeypatch,
                                                                   policy):
        streams = []

        def spy(memory, cond, schema, target, indicator, rng):
            streams.append(rng)
            return decide(memory, cond, schema, target, indicator, rng)
        monkeypatch.setattr(harness, "decide", spy)
        pairs = {"gender": ["female", "male"]} if policy == "static" else None
        run_generate(base_spec(world_path, policy=policy, static_pairs=pairs))
        assert len(streams) == 8 * 5
        if policy == "probabilistic":
            assert all(isinstance(rng, np.random.Generator) for rng in streams)
        else:
            assert all(rng is None for rng in streams)

    def test_vanilla_runs_without_memory(self, world_path):
        result = run_generate(base_spec(world_path, policy="vanilla"))
        assert result.memory is None
        assert result.report is not None

    def test_deterministic_artifacts(self, world_path, tmp_path):
        spec = base_spec(world_path)
        run_generate(spec, out_dir=str(tmp_path / "a"))
        run_generate(spec, out_dir=str(tmp_path / "b"))
        for name in ("samples.csv", "report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_probabilistic_policy_is_reproducible(self, world_path, tmp_path):
        spec = base_spec(world_path, policy="probabilistic")
        run_generate(spec, out_dir=str(tmp_path / "a"))
        run_generate(spec, out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "samples.csv").read_bytes() == \
            (tmp_path / "b" / "samples.csv").read_bytes()

    def test_seed_changes_output(self, world_path):
        a = run_generate(base_spec(world_path, seed=1))
        b = run_generate(base_spec(world_path, seed=2))
        assert not np.array_equal(a.samples[0].x, b.samples[0].x)

    def test_gamma_one_matches_vanilla(self, world_path, tmp_path):
        """The guided data path with gamma=1 must reproduce the vanilla arm
        byte-for-byte (comment headers differ by config digest only)."""

        def data_rows(path):
            return [l for l in path.read_text().splitlines() if not l.startswith("#")]

        run_generate(base_spec(world_path, policy="vanilla"),
                     out_dir=str(tmp_path / "v"))
        run_generate(base_spec(world_path, policy="deficit", gamma=1.0),
                     out_dir=str(tmp_path / "g"))
        assert data_rows(tmp_path / "v" / "samples.csv") == \
            data_rows(tmp_path / "g" / "samples.csv")

    def test_static_policy_plumbs_pairs(self, world_path):
        spec = base_spec(
            world_path, policy="static",
            static_pairs={"gender": ["female", "male"]},
            gamma=0.5, attribute_scale=4.0, window=(0.2, 0.8),
            steps=80, beta_end=0.15,
            prompts=[PromptSpec("engineer", count=10)],
            samples_per_prompt=4,
        )
        result = run_generate(spec)
        freqs = [s.labels["gender"] == "female" for s in result.samples]
        assert np.mean(freqs) > 0.6  # strongly steered toward the static target

    def test_static_pairs_are_read_by_the_static_policy_only(self, world_path, tmp_path):
        """Other policies ignore the key, so that one config serves every
        policy: a deficit run gives the same samples and report with and
        without it, and only the config digest line differs."""
        run_generate(base_spec(world_path), out_dir=str(tmp_path / "without"))
        run_generate(base_spec(world_path, static_pairs={"gender": ["female", "male"]}),
                     out_dir=str(tmp_path / "with"))
        for name in ("samples.csv", "report.csv"):
            without, with_ = ((tmp_path / run / name).read_text().splitlines()
                              for run in ("without", "with"))
            differ = [(a, b) for a, b in zip(without, with_) if a != b]
            assert len(without) == len(with_) and len(differ) == 1
            assert all(line.startswith("# config_digest=") for line in differ[0])

    def test_failed_prompt_continues_run(self, tmp_path):
        world = tmp_path / "two.world"
        world.write_text(TWO_ATTR_WORLD_TEXT)
        spec = ExperimentSpec(
            world_path=str(world),
            prompts=[
                PromptSpec("worker", count=2),
                PromptSpec("worker", count=1,
                           constraints={"gender": "male", "age": "old"}),
                PromptSpec("worker", count=2),
            ],
            target={
                "gender": {"male": 0.5, "female": 0.5},
                "age": {"young": 0.5, "old": 0.5},
            },
            samples_per_prompt=3,
            steps=30,
            beta_end=0.3,
            seed=5,
        )
        result = run_generate(spec)
        assert len(result.failures) == 1
        assert "age='old'" in result.failures[0][1] or "gender='male'" in result.failures[0][1]
        assert result.report is not None
        assert result.report.n_prompts == 4
        # the failed prompt still consumed its ordinal slot
        assert result.prompts_seen == 5
        ordinals = sorted({s.prompt_ordinal for s in result.samples})
        assert ordinals == [0, 1, 3, 4]

    def test_prompt_failing_mid_run_leaves_no_state(self, tmp_path):
        """Samples 0 and 1 succeed, then deficit steers toward shade=c and
        sample 2 fails: none of the prompt's records or probe rows survive."""
        world = tmp_path / "shade.world"
        world.write_text(SHADE_WORLD_TEXT)
        spec = ExperimentSpec(
            world_path=str(world),
            prompts=[PromptSpec("worker", constraints={"age": "old"})],
            target={"shade": {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3},
                    "age": {"young": 0.5, "old": 0.5}},
            samples_per_prompt=6, steps=30, beta_end=0.3, seed=0, diagnostics=True,
        )
        out = tmp_path / "run"
        result = run_generate(spec, out_dir=str(out))
        assert len(result.failures) == 1 and "shade='c'" in result.failures[0][1]
        assert result.samples == [] and result.report is None
        assert result.memory.clusters == []
        assert result.prompts_seen == 1
        assert not (out / "diagnostics.csv").exists()

    def test_unknown_concept_fails_entire_prompt_not_run(self, world_path):
        spec = base_spec(world_path, prompts=[
            PromptSpec("engineer", count=1),
            PromptSpec("astronaut", count=2),
        ])
        result = run_generate(spec)
        assert len(result.failures) == 2
        assert len(result.samples) == 5

    def test_record_intent_balances_counts(self, world_path):
        spec = base_spec(
            world_path,
            prompts=[PromptSpec("engineer", count=12)],
            samples_per_prompt=1,
            record_intent=True,
        )
        result = run_generate(spec)
        counts = result.memory.clusters[0].counts["gender"]
        assert counts.get("male", 0) + counts.get("female", 0) == 12
        assert abs(counts.get("male", 0) - counts.get("female", 0)) <= 1

    def test_diagnostics_csv(self, world_path, tmp_path):
        out = tmp_path / "diag"
        spec = base_spec(world_path, diagnostics=True,
                         prompts=[PromptSpec("engineer", count=2)])
        run_generate(spec, out_dir=str(out))
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "# steerlab-diagnostics v1"
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "prompt_id,sample_index,t_index,cosine,base_norm,attr_norm"
        assert len(lines) > 3


def _one_at_a_time(spec, world):
    """Every generation alone, in order: decide, its stream's trajectory,
    discriminate, record.  A prompt commits only when all its samples succeed.
    Returns samples, memory, probe rows, each prompt's plans and the failures."""
    schedule = linear_schedule(spec.steps, spec.beta_start, spec.beta_end)
    config = GuidanceConfig(spec.gamma, tuple(spec.window), spec.attribute_scale)
    active = window_mask(schedule, config)
    target = TargetDistribution(spec.target)
    policy = _build_policy(spec)
    memory = None
    if policy is not None:
        memory = MemoryModule(spec.memory_budget,
                              spec.memory_tau or default_match_threshold(world))
    samples, probe_rows, plans, failures = [], [], [], []
    ordinal = 0
    for prompt in spec.prompts:
        for instance in range(prompt.count):
            prompt_id = f"{prompt.concept}-{ordinal:05d}"
            cond = make_condition(world, prompt.concept, prompt.constraints,
                                  jitter_seed=_child_seed(prompt.jitter_seed, instance),
                                  jitter_scale=spec.jitter_scale)
            staged, rows, probes = copy.deepcopy(memory), [], []
            plans.append([])
            try:
                for s_i in range(spec.samples_per_prompt):
                    plan = EMPTY_PLAN
                    if policy is not None:
                        rng = None
                        if policy.kind == "probabilistic":
                            rng = np.random.default_rng(
                                np.random.SeedSequence([spec.seed, _POLICY_NS, ordinal, s_i]))
                        plan = decide(staged, cond, world.schema, target, policy, rng)
                    plans[-1].append(plan)
                    probe = GuidanceProbe()
                    steering = None
                    if plan.entries and config.gamma != 1.0 and active.any():
                        steering = Steering(active, plan, config.gamma, config.attribute_scale)
                    stream = np.random.default_rng(
                        np.random.SeedSequence([spec.seed, ordinal, s_i]))
                    tapes = noise_tapes([stream], spec.steps, world.dimension)
                    x, failed = run_trajectories(world, schedule, [cond], tapes, steering,
                                                 probe=probe)
                    if failed:
                        raise NumericsError(failed[0])
                    x0 = x[0]
                    labels, _ = discriminate(world, x0)
                    if policy is not None:
                        record(staged, cond, {a: e.target for a, e in plan.entries}
                               if spec.record_intent else labels)
                    rows.append((prompt_id, s_i, x0, labels))
                    probes += [(prompt_id, s_i) + r for r in probe.stream(0)]
            except SteerlabError as exc:
                failures.append([prompt_id, str(exc)])
            else:
                memory = staged
                samples += rows
                probe_rows += probes
            ordinal += 1
    return samples, memory, probe_rows, plans, failures


TWO_CONCEPT_WORLD_TEXT = TWO_ATTR_WORLD_TEXT + """\
component nurse  gender=male   age=old   mean=9,0 weight=0.3
component nurse  gender=female age=old   mean=13,0 weight=0.3
component nurse  gender=female age=young mean=9,4 weight=0.4
"""

# The nurse has all four components against the worker's three, so a run's
# steps make one kernel call per concept's shape.
UNEQUAL_K_WORLD_TEXT = TWO_ATTR_WORLD_TEXT + """\
component nurse  gender=male   age=young mean=9,0  weight=0.2
component nurse  gender=male   age=old   mean=13,0 weight=0.2
component nurse  gender=female age=young mean=9,4  weight=0.3
component nurse  gender=female age=old   mean=13,4 weight=0.3
"""

FULL_COV_WORLD_TEXT = """\
dimension 2
attribute gender male female
attribute age young old
component worker gender=male   age=young mean=0,0  weight=0.3 cov=1,0.3;0.3,0.8
component worker gender=male   age=old   mean=4,0  weight=0.2
component worker gender=female age=young mean=0,4  weight=0.2 cov=0.7,0;0,1.2
component worker gender=female age=old   mean=4,4  weight=0.3
component nurse  gender=male   age=young mean=9,0  weight=0.2 cov=0.6,0.1;0.1,1.4
component nurse  gender=male   age=old   mean=13,0 weight=0.2 cov=1.3,-0.2;-0.2,0.9
component nurse  gender=female age=young mean=9,4  weight=0.3 cov=0.8,0;0,0.8
component nurse  gender=female age=old   mean=13,4 weight=0.3 cov=1.1,0.4;0.4,1.0
"""

TWO_ATTR_TARGET = {"gender": {"male": 0.5, "female": 0.5}, "age": {"young": 0.3, "old": 0.7}}
TWO_ATTR_PAIRS = {"gender": ["female", "male"], "age": ["young", "old"]}
SHADE_TARGET = {"shade": {"a": 0.2, "b": 0.3, "c": 0.5}, "age": {"young": 0.3, "old": 0.7}}
MIXED_PROMPTS = [PromptSpec("worker", count=2), PromptSpec("nurse", count=2, jitter_seed=4),
                 PromptSpec("worker", jitter_seed=9)]

# world text, target, static pairs, prompts, samples per prompt
_EQUIVALENCE_WORLDS = {
    "two-valued": (TWO_ATTR_WORLD_TEXT, TWO_ATTR_TARGET, TWO_ATTR_PAIRS,
                   [PromptSpec("worker", count=3), PromptSpec("worker", count=2, jitter_seed=4)],
                   6),
    "three-valued": (THREE_VALUED_WORLD_TEXT, SHADE_TARGET,
                     {"shade": ["c", "a"], "age": ["young", "old"]},
                     [PromptSpec("worker", count=3), PromptSpec("worker", count=2, jitter_seed=4)],
                     6),
    # Criterion-05's shape: many prompts of one condition, one sample each.
    "c05-shape": (TWO_ATTR_WORLD_TEXT, TWO_ATTR_TARGET, TWO_ATTR_PAIRS,
                  [PromptSpec("worker", count=12)], 1),
    "two-concepts": (TWO_CONCEPT_WORLD_TEXT, TWO_ATTR_TARGET, TWO_ATTR_PAIRS, MIXED_PROMPTS, 4),
    "unequal-k": (UNEQUAL_K_WORLD_TEXT, TWO_ATTR_TARGET, TWO_ATTR_PAIRS, MIXED_PROMPTS, 4),
    "full-cov": (FULL_COV_WORLD_TEXT, TWO_ATTR_TARGET, TWO_ATTR_PAIRS, MIXED_PROMPTS, 4),
    # The age=old prompt fails once a sample steers it toward shade=c.
    "failing-prompt": (SHADE_WORLD_TEXT, SHADE_TARGET, {"shade": ["c", "a"], "age": ["young", "old"]},
                       [PromptSpec("worker", count=2),
                        PromptSpec("worker", count=2, jitter_seed=3, constraints={"age": "old"}),
                        PromptSpec("worker", count=2, jitter_seed=6)], 5),
}
_POLICIES = [("vanilla", 0.6), ("deficit", 0.6), ("deficit", 1.0), ("probabilistic", 0.6),
             ("static", 0.6)]


@pytest.mark.parametrize("world_name, policy, gamma", [
    pytest.param(world_name, policy, gamma, id=policy + "-gamma1" * (gamma == 1.0)
                 + f"-{world_name}" * (world_name != "two-valued"))
    for world_name in _EQUIVALENCE_WORLDS
    for policy, gamma in _POLICIES
    if world_name in ("two-valued", "three-valued") or gamma != 1.0
])
@pytest.mark.parametrize("record_intent", [False, True])
def test_batched_prompt_equals_one_generation_at_a_time(tmp_path, world_name, policy, gamma,
                                                        record_intent):
    """The shared prefix and the per-plan runs across the prompts of a run
    change nothing: samples, memory counts, probe rows and failures come out
    as from the per-sample loop, in the same order."""
    text, target, pairs, prompts, n = _EQUIVALENCE_WORLDS[world_name]
    world_file = tmp_path / "mixed.world"
    world_file.write_text(text)
    spec = ExperimentSpec(
        world_path=str(world_file), prompts=prompts,
        target=target, policy=policy, static_pairs=pairs if policy == "static" else None,
        samples_per_prompt=n, steps=40, beta_end=0.3, gamma=gamma, attribute_scale=4.0,
        window=(0.2, 0.6), seed=3, memory_budget=2, memory_tau=0.05,
        diagnostics=True, record_intent=record_intent,
    )
    world = load_world(spec.world_path)
    samples, memory, probe_rows, plans, failures = _one_at_a_time(spec, world)
    out = tmp_path / "run"
    result = run_generate(spec, out_dir=str(out), world=world)

    assert result.failures == failures
    assert not failures or world_name == "failing-prompt"
    assert [(s.prompt_id, s.sample_index, s.labels) for s in result.samples] == \
        [(p, i, labels) for p, i, _, labels in samples]
    for s, (_, _, x0, _) in zip(result.samples, samples):
        np.testing.assert_array_equal(s.x, x0)
    if memory is None:
        assert result.memory is None
    else:  # clusters, totals and counts (insertion order included) as in the loop
        assert [(c.centroid.tolist(), c.total, list(c.counts.items()))
                for c in result.memory.clusters] == \
            [(c.centroid.tolist(), c.total, list(c.counts.items())) for c in memory.clusters]
    steered = policy != "vanilla" and gamma != 1.0
    assert bool(probe_rows) == steered == (out / "diagnostics.csv").exists()
    if steered:
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[3:] == [",".join(map(str, row)) for row in probe_rows]
    # Some prompt ran a plan for several streams, so their probe rows would
    # have interleaved had they not been split per stream.
    if policy in ("probabilistic", "static") and n > 1:
        assert any(len(set(p)) < len(p) for p in plans)
    # Some plan was first chosen past sample 0 and then chosen again, so its
    # run started mid-prompt and served a later sample from that batch.
    # (Deficit recording its intent reuses only its sample-0 plan here.)
    if world_name == "three-valued" and (
            policy == "probabilistic" or policy == "deficit" and not record_intent):
        assert any(p.index(q) > 0 and p.count(q) > 1 for p in plans for q in p)
    # A later prompt took a plan's row from the batch an earlier prompt started,
    # and (deficit recording its intent here tries every plan in each prompt)
    # a later prompt's rows were finished under a plan it never chose.
    if steered and policy != "static" and world_name not in ("two-valued", "three-valued"):
        first = {}
        for i, p in enumerate(plans):
            for q in p:
                first.setdefault(q, i)
        assert any(first[q] < i for i, p in enumerate(plans) for q in p)
        if policy == "probabilistic" or not record_intent:
            assert any(q not in p for i, p in enumerate(plans) for q in first if first[q] < i)
    if world_name == "failing-prompt" and steered:  # prompts on both sides kept their rows
        assert failures and all("shade='c'" in message for _, message in failures)
        assert {s.prompt_ordinal for s in result.samples} >= {0, 1, 4, 5}


@pytest.mark.parametrize("policy", ["deficit", "probabilistic"])
def test_rows_failing_under_one_plan_fail_only_prompts_that_choose_it(tmp_path, monkeypatch,
                                                                      policy):
    """Every row steered toward female and old goes non-finite.  A prompt
    fails only when one of its samples chooses that plan, with the message it
    gets alone; rows of other prompts finished under the plan are discarded
    and fail nothing."""
    def poisoned(steering):
        def wrapper(active, plan, gamma, scale):
            bad = {a: e.target for a, e in plan.entries} == {"gender": "female", "age": "old"}
            return steering(active, plan, gamma, math.inf if bad else scale)
        return wrapper
    monkeypatch.setattr(harness, "Steering", poisoned(harness.Steering))
    monkeypatch.setitem(globals(), "Steering", poisoned(Steering))
    (tmp_path / "mixed.world").write_text(TWO_CONCEPT_WORLD_TEXT)
    spec = ExperimentSpec(
        world_path=str(tmp_path / "mixed.world"), prompts=MIXED_PROMPTS * 2,
        target=TWO_ATTR_TARGET, policy=policy, samples_per_prompt=2, steps=40, beta_end=0.3,
        gamma=0.6, attribute_scale=4.0, window=(0.2, 0.6), seed=8, memory_tau=0.05,
    )
    world = load_world(spec.world_path)
    samples, _, _, plans, failures = _one_at_a_time(spec, world)
    result = run_generate(spec, world=world)
    assert result.failures == failures
    assert failures and all("non-finite steered noise" in message for _, message in failures)
    assert [(s.prompt_id, s.sample_index, s.labels) for s in result.samples] == \
        [(p, i, labels) for p, i, _, labels in samples]
    for s, (_, _, x0, _) in zip(result.samples, samples):
        np.testing.assert_array_equal(s.x, x0)
    # A prompt that succeeded came after the first choice of the failing plan,
    # so its rows were finished under it and discarded.
    first = min(i for i, p in enumerate(plans) for q in p
                if {a: e.target for a, e in q.entries} == {"gender": "female", "age": "old"})
    assert any(i > first for i in {s.prompt_ordinal for s in result.samples})


@pytest.mark.parametrize("chunk_bytes", [1, 60_000])
def test_chunked_run_writes_the_bytes_of_one_batch(tmp_path, monkeypatch, chunk_bytes):
    """Chunks of one prompt, or of several, give the artifacts of one whole-run batch."""
    (tmp_path / "mixed.world").write_text(UNEQUAL_K_WORLD_TEXT)
    spec = ExperimentSpec(
        world_path=str(tmp_path / "mixed.world"), prompts=MIXED_PROMPTS * 2,
        target=TWO_ATTR_TARGET, policy="probabilistic", samples_per_prompt=4, steps=40,
        beta_end=0.3, gamma=0.6, attribute_scale=4.0, window=(0.2, 0.6), seed=5,
        diagnostics=True,
    )
    run_generate(spec, out_dir=str(tmp_path / "whole"))
    monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
    chunks = []

    def tapes(rngs, steps, d):
        chunks.append(len(rngs))
        return noise_tapes(rngs, steps, d)
    monkeypatch.setattr(harness, "noise_tapes", tapes)
    run_generate(spec, out_dir=str(tmp_path / "chunked"))
    if chunk_bytes == 1:
        assert chunks == [4] * 10
    else:
        assert len(chunks) > 1 and max(chunks) > 4
    for name in ("samples.csv", "report.csv", "diagnostics.csv"):
        assert (tmp_path / "whole" / name).read_bytes() == \
            (tmp_path / "chunked" / name).read_bytes()


def test_non_finite_row_fails_its_prompt_without_numpy_warnings():
    """An overflowing steered row is reported as a failed prompt, and the
    kernel's overflow raises no floating-point warning on the way."""
    spec = ExperimentSpec(
        world_path=default_world_path(), prompts=[PromptSpec("engineer")],
        target={"gender": {"male": 0.5, "female": 0.5}}, policy="deficit",
        samples_per_prompt=2, steps=50, gamma=0.5, window=(0.0, 1.0), attribute_scale=1e308,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_generate(spec)
    assert result.failures == [["engineer-00000", "non-finite steered noise at step 49"]]
    assert result.samples == []


# Arms whose plans blend no step, as overrides of base_spec.
_UNBLENDED_ARMS = {
    "gamma-1": dict(gamma=1.0),
    "empty-window": dict(steps=2, window=(0.3, 0.6)),  # reverse progress hits only 0 and 1
    "vanilla": dict(policy="vanilla"),
    "no-attributes": dict(target={}, prompts=[PromptSpec("origin", count=3)]),
}


class TestBlendRule:
    """The arm's mask (`_open_arm`) says which steps it blends; a finish
    hands the engine a Steering only when its plan blends one."""

    @staticmethod
    def _engine_calls(monkeypatch) -> list:
        """(steering, start, stop) of each engine call the harness makes, from now on."""
        calls = []
        engine = harness.run_trajectories

        def spy(*args):
            calls.append(args[4:7])
            return engine(*args)
        monkeypatch.setattr(harness, "run_trajectories", spy)
        return calls

    @pytest.mark.parametrize("arm", sorted(_UNBLENDED_ARMS))
    def test_arm_that_blends_no_step_gives_the_engine_no_steering(self, world_path, tmp_path,
                                                                   monkeypatch, arm):
        """Its rows also take the whole trajectory in the prefix call."""
        world = single_gaussian_world() if arm == "no-attributes" else load_world(world_path)
        calls = self._engine_calls(monkeypatch)
        spec = base_spec(world_path, diagnostics=True, **_UNBLENDED_ARMS[arm])
        result = run_generate(spec, out_dir=str(tmp_path / "out"), world=world)
        assert result.samples and not result.failures
        assert calls and all(s is None for s, _, _ in calls)
        assert calls[0][1:] == (0, spec.steps)
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("arm", ["gamma-1", "vanilla", "no-attributes"])
    def test_chunks_of_an_arm_that_blends_no_step_ignore_diagnostics(self, world_path,
                                                                      monkeypatch, arm):
        """The chunk estimate counts probe rows for the steps an arm blends
        only; it used to count the window's steps for these arms."""
        world = single_gaussian_world() if arm == "no-attributes" else load_world(world_path)
        chunks = []

        def tapes(rngs, steps, d):
            chunks.append(len(rngs))
            return noise_tapes(rngs, steps, d)
        monkeypatch.setattr(harness, "noise_tapes", tapes)
        for chunk_bytes in range(5_000, 50_000, 1_500):
            monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
            split = []
            for diagnostics in (False, True):
                chunks.clear()
                run_generate(base_spec(world_path, diagnostics=diagnostics,
                                       **_UNBLENDED_ARMS[arm]), world=world)
                split.append(list(chunks))
            assert split[0] == split[1], chunk_bytes

    def test_steered_finish_carries_the_decided_plan_itself(self, world_path, monkeypatch):
        decided = []

        def spy(*args):
            decided.append(decide(*args))
            return decided[-1]
        monkeypatch.setattr(harness, "decide", spy)
        calls = self._engine_calls(monkeypatch)
        spec = base_spec(world_path, gamma=0.6, attribute_scale=4.0)
        run_generate(spec)
        active = window_mask(linear_schedule(spec.steps, spec.beta_start, spec.beta_end),
                             GuidanceConfig(spec.gamma, spec.window, spec.attribute_scale))
        steered = [s for s, _, _ in calls if s is not None]
        assert steered
        for s in steered:
            assert any(s.plan is plan for plan in decided)
            assert (s.gamma, s.scale) == (0.6, 4.0)
            np.testing.assert_array_equal(s.active, active)


class TestSamplesCsv:
    def test_round_trip(self, world_path, tmp_path):
        out = tmp_path / "run"
        result = run_generate(base_spec(world_path), out_dir=str(out))
        points, labels, header = load_samples_csv(str(out / "samples.csv"), ("gender",))
        assert points.shape == (len(result.samples), 2)
        assert header[:5] == ["prompt_id", "prompt_ordinal", "sample_index",
                              "stream_seed", "concept"]
        for i, s in enumerate(result.samples):
            np.testing.assert_array_equal(points[i], s.x)  # repr round-trips exactly
            assert labels[i] == s.labels

    def test_report_matches_recomputation_from_samples(self, world_path, tmp_path):
        """Reporting integrity: the summary in report.csv must equal a direct
        recomputation from the raw samples.csv rows."""
        out = tmp_path / "run"
        spec = base_spec(world_path)
        run_generate(spec, out_dir=str(out))

        rows = [l.split(",") for l in (out / "samples.csv").read_text().splitlines()
                if l and not l.startswith("#")][1:]
        by_prompt: dict[str, list[str]] = {}
        for cells in rows:
            by_prompt.setdefault(cells[0], []).append(cells[7])  # gender column
        deviations = []
        for genders in by_prompt.values():
            male = genders.count("male") / len(genders)
            female = genders.count("female") / len(genders)
            deviations.append((abs(male - 0.5) + abs(female - 0.5)) / 2)
        expected = sum(deviations) / len(deviations)

        summary = [l for l in (out / "report.csv").read_text().splitlines()
                   if l.startswith("# summary bias[gender]=")][0]
        reported = float(summary.split("=", 1)[1])
        assert abs(reported - expected) <= 1e-12


    def test_report_quality_matches_quality_score(self, world_path, tmp_path):
        """report.csv's quality and mean_log_density equal the reference quality_score
        over each prompt's samples read back from samples.csv, averaged per prompt."""
        out = tmp_path / "run"
        result = run_generate(base_spec(world_path), out_dir=str(out))
        points, _, _ = load_samples_csv(str(out / "samples.csv"), ("gender",))
        world = load_world(world_path)
        by_prompt: dict[str, list[int]] = {}
        for i, s in enumerate(result.samples):
            by_prompt.setdefault(s.prompt_id, []).append(i)
        scores = [quality_score(world, result.samples[idx[0]].concept, points[idx])
                  for idx in by_prompt.values()]
        summary = dict(l[len("# summary "):].split("=", 1)
                       for l in (out / "report.csv").read_text().splitlines()
                       if l.startswith("# summary quality=")
                       or l.startswith("# summary mean_log_density="))
        assert float(summary["quality"]) == sum(q.adherence for q in scores) / len(scores)
        assert float(summary["mean_log_density"]) == \
            sum(q.mean_log_density for q in scores) / len(scores)


class TestMemoryContinuity:
    def test_chained_runs_match_combined_run(self, world_path, tmp_path):
        mem_path = str(tmp_path / "memory.json")
        first = [PromptSpec("engineer", count=3)]
        second = [PromptSpec("engineer", count=2), PromptSpec("teacher", count=2)]

        run_generate(base_spec(world_path, prompts=first, memory_path=mem_path),
                     out_dir=str(tmp_path / "a"))
        _, seen = restore_memory(mem_path)
        assert seen == 3
        run_generate(base_spec(world_path, prompts=second, memory_path=mem_path),
                     out_dir=str(tmp_path / "b"))

        combined_mem = str(tmp_path / "combined.json")
        run_generate(
            base_spec(world_path, prompts=first + second, memory_path=combined_mem),
            out_dir=str(tmp_path / "c"),
        )

        # final memory states are byte-identical
        assert (tmp_path / "memory.json").read_text() == \
            (tmp_path / "combined.json").read_text()

        # the second run's data rows equal the combined run's tail rows
        def data_rows(path):
            return [l for l in path.read_text().splitlines()
                    if l and not l.startswith("#")][1:]

        tail = data_rows(tmp_path / "c" / "samples.csv")[3 * 5:]
        assert data_rows(tmp_path / "b" / "samples.csv") == tail


class TestSweeps:
    def test_sweep_targets_compact_form(self, world_path):
        spec = base_spec(world_path, sweep={
            "attribute": "gender", "value": "male", "proportions": [0.2, 0.8],
        })
        world = build_gender_world()
        targets = sweep_targets(spec, world)
        assert [t["gender"]["male"] for t in targets] == [0.2, 0.8]
        assert targets[0]["gender"]["female"] == pytest.approx(0.8)
        assert targets[1]["gender"]["female"] == pytest.approx(0.2)

    def test_sweep_targets_list_form(self, world_path):
        explicit = [{"gender": {"male": 0.4, "female": 0.6}}]
        spec = base_spec(world_path, sweep=explicit)
        assert sweep_targets(spec, build_gender_world()) == explicit

    def test_sweep_rejects_unknown_value(self, world_path):
        spec = base_spec(world_path, sweep={
            "attribute": "gender", "value": "robot", "proportions": [0.5],
        })
        with pytest.raises(ValueError, match="robot"):
            sweep_targets(spec, build_gender_world())

    def test_sweep_needs_section(self, world_path):
        with pytest.raises(ValueError, match="no sweep"):
            sweep_targets(base_spec(world_path), build_gender_world())

    def test_sweep_run_writes_arms(self, world_path, tmp_path):
        out = tmp_path / "sweep"
        spec = base_spec(
            world_path,
            prompts=[PromptSpec("engineer", count=3)],
            samples_per_prompt=4,
            sweep={"attribute": "gender", "value": "male", "proportions": [0.3, 0.7]},
        )
        result = run_sweep(spec, out_dir=str(out))
        assert len(result.rows) == 2
        assert (out / "arm_00" / "samples.csv").exists()
        assert (out / "arm_01" / "report.csv").exists()
        sweep_csv = (out / "sweep.csv").read_text()
        assert sweep_csv.startswith("# steerlab-sweep v1")
        assert "avg_bias=" in sweep_csv and "std_bias=" in sweep_csv
        assert result.rows[0].label == "gender=male:0.3|female:0.7"

    def test_degenerate_sweep_arms_agree_within_noise(self, world_path):
        same = {"gender": {"male": 0.5, "female": 0.5}}
        spec = base_spec(
            world_path,
            prompts=[PromptSpec("engineer", count=8)],
            samples_per_prompt=10,
            steps=60,
            beta_end=0.2,
            sweep=[same, same],
        )
        result = run_sweep(spec)
        assert abs(result.rows[0].bias - result.rows[1].bias) < 0.2

    def test_single_arm_sweep_std_is_zero(self, world_path):
        spec = base_spec(
            world_path,
            prompts=[PromptSpec("engineer", count=2)],
            samples_per_prompt=3,
            sweep=[{"gender": {"male": 0.5, "female": 0.5}}],
        )
        result = run_sweep(spec)
        assert result.std_bias == 0.0

    def test_window_ablation_default_arms(self, world_path, tmp_path):
        out = tmp_path / "ablate"
        spec = base_spec(
            world_path,
            prompts=[PromptSpec("engineer", count=3)],
            samples_per_prompt=3,
        )
        result = run_window_ablation(spec, out_dir=str(out))
        assert len(result.rows) == 3
        assert result.rows[0].label == "window=0,0.25"
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "# steerlab-ablation v1"
        assert lines[1] == f"# config_digest={spec.digest()}"
        assert lines[2] == "arm,label,bias,quality"
        assert lines[3:] == [f"{r.arm},{r.label},{r.bias!r},{r.quality!r}" for r in result.rows]
        assert (out / "arm_02" / "samples.csv").exists()

    def test_window_ablation_custom_windows(self, world_path):
        spec = base_spec(
            world_path,
            prompts=[PromptSpec("engineer", count=2)],
            samples_per_prompt=2,
            windows=[[0.0, 0.5], [0.5, 1.0]],
        )
        result = run_window_ablation(spec)
        assert [r.label for r in result.rows] == ["window=0,0.5", "window=0.5,1"]


def _tree(root) -> dict:
    """Every file under root by relative path; manifest.json without its wall-clock timings."""
    files = {}
    for d, _, names in os.walk(root):
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                data = {k: v for k, v in json.loads(data).items() if k != "timings"}
            files[os.path.relpath(path, root)] = data
    return files


def _batched_and_per_arm(tmp_path, monkeypatch, caplog, run, spec):
    """run(spec) arm-batched, then with the per-arm `run_generate` loop of
    tests/reference.py: for each, the files left, the result or the error
    raised, and the warnings logged."""
    outcomes = []
    for name in ("batched", "per-arm"):
        out = tmp_path / name
        caplog.clear()
        with monkeypatch.context() as m:
            if name == "per-arm":
                m.setattr(harness, "_run_arms", reference.run_arms)
            try:
                result = run(spec, out_dir=str(out))
            except Exception as exc:
                outcome = (type(exc), str(exc))
            else:
                outcome = (
                    [(r.arm, r.label, r.bias, r.quality) for r in result.rows],
                    result.avg_bias, result.std_bias,
                    [(r.failures, r.prompts_seen, [s.x.tolist() for s in r.samples],
                      r.memory and [(c.centroid.tolist(), c.total, list(c.counts.items()))
                                    for c in r.memory.clusters]) for r in result.results])
        outcomes.append((_tree(out), outcome, [r.getMessage() for r in caplog.records]))
    return outcomes


def _arms_spec(tmp_path, policy, **overrides):
    (tmp_path / "mixed.world").write_text(TWO_CONCEPT_WORLD_TEXT)
    return ExperimentSpec(**{
        "world_path": str(tmp_path / "mixed.world"), "prompts": MIXED_PROMPTS,
        "target": TWO_ATTR_TARGET, "policy": policy,
        "static_pairs": TWO_ATTR_PAIRS if policy == "static" else None,
        "samples_per_prompt": 3, "steps": 40, "beta_end": 0.3, "gamma": 0.6,
        "attribute_scale": 4.0, "window": (0.2, 0.6), "seed": 13, "memory_budget": 2,
        "memory_tau": 0.05,
        "sweep": {"attribute": "gender", "value": "male", "proportions": [0.0, 0.5, 1.0]},
        "windows": [[0.0, 0.3], [0.5, 0.505], [0.25, 0.75], [0.6, 1.0]], **overrides})


_ARM_RUNS = {"sweep": run_sweep, "ablation": run_window_ablation}


class TestArmBatching:
    """A sweep's or ablation's arms run as row groups of one batch; everything
    they leave equals one `run_generate` per arm."""

    @pytest.mark.parametrize("policy", ["vanilla", "deficit", "probabilistic", "static"])
    @pytest.mark.parametrize("diagnostics", [False, True])
    @pytest.mark.parametrize("kind", ["sweep", "ablation"])
    def test_arms_equal_one_run_each(self, tmp_path, monkeypatch, caplog, kind, policy,
                                     diagnostics):
        spec = _arms_spec(tmp_path, policy, diagnostics=diagnostics)
        batched, per_arm = _batched_and_per_arm(tmp_path, monkeypatch, caplog, _ARM_RUNS[kind],
                                                spec)
        assert batched == per_arm
        files = batched[0]
        arms = 3 if kind == "sweep" else 4
        assert f"{kind}.csv" in files and f"arm_{arms - 1:02d}/samples.csv" in files
        steered = policy != "vanilla" and diagnostics
        assert steered == any(name.endswith("diagnostics.csv") for name in files)

    @pytest.mark.parametrize("kind", ["sweep", "ablation"])
    @pytest.mark.parametrize("chunk_bytes", [1, 40_000])
    def test_chunks_split_inside_and_across_arms(self, tmp_path, monkeypatch, caplog, kind,
                                                 chunk_bytes):
        spec = _arms_spec(tmp_path, "deficit", diagnostics=True)
        whole = _batched_and_per_arm(tmp_path / "whole", monkeypatch, caplog, _ARM_RUNS[kind],
                                     spec)
        monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
        split = _batched_and_per_arm(tmp_path / "split", monkeypatch, caplog, _ARM_RUNS[kind],
                                     spec)
        assert split == whole and whole[0] == whole[1]
        chunks = []

        def tapes(rngs, steps, d):
            chunks.append(len(rngs))
            return noise_tapes(rngs, steps, d)
        monkeypatch.setattr(harness, "noise_tapes", tapes)
        _ARM_RUNS[kind](spec)
        arm_rows = 5 * 3   # each arm's rows: five prompt instances of three samples
        assert sum(chunks) == arm_rows * (3 if kind == "sweep" else 4)
        if chunk_bytes == 1:
            assert chunks == [3] * len(chunks)
        else:  # a chunk holds the last rows of one arm and the first of the next
            ends = np.cumsum(chunks)
            assert any(lo // arm_rows != (hi - 1) // arm_rows
                       for lo, hi in zip(ends - chunks, ends))

    @pytest.mark.parametrize("kind", ["sweep", "ablation"])
    def test_arms_share_each_prompt_instance_condition(self, tmp_path, monkeypatch, caplog, kind):
        """Each prompt instance's condition is made once, whatever the arm
        count, and so is an infeasible one's error; the arms still leave what
        one run each leaves."""
        made = []

        def counted(world, concept, *args, **kwargs):
            made.append(concept)
            return make_condition(world, concept, *args, **kwargs)
        monkeypatch.setattr(harness, "make_condition", counted)
        robot = PromptSpec("nurse", count=2, jitter_seed=7, constraints={"gender": "robot"})
        spec = _arms_spec(tmp_path, "deficit", prompts=MIXED_PROMPTS + [robot])
        batched, per_arm = _batched_and_per_arm(tmp_path, monkeypatch, caplog, _ARM_RUNS[kind],
                                                spec)
        assert batched == per_arm
        arms = 3 if kind == "sweep" else 4
        assert sum("unknown value 'robot'" in w for w in batched[2]) == 2 * arms
        made.clear()
        _ARM_RUNS[kind](spec)
        assert sorted(made) == ["nurse"] * 4 + ["worker"] * 3

    def test_sweep_arm_whose_prompts_all_fail(self, tmp_path, monkeypatch, caplog):
        """Every row steered toward female goes non-finite, so the arm whose
        target is all female loses every prompt: the same error at the same
        arm, the same files and warnings as the per-arm loop."""
        def poisoned(steering):
            def wrapper(active, plan, gamma, scale):
                bad = dict(plan.entries)["gender"].target == "female"
                return steering(active, plan, gamma, math.inf if bad else scale)
            return wrapper
        monkeypatch.setattr(harness, "Steering", poisoned(harness.Steering))
        spec = _arms_spec(tmp_path, "deficit", diagnostics=True, sweep={
            "attribute": "gender", "value": "male", "proportions": [1.0, 0.0, 1.0]})
        batched, per_arm = _batched_and_per_arm(tmp_path, monkeypatch, caplog, run_sweep, spec)
        assert batched == per_arm
        files, outcome, warned = batched
        assert outcome == (SteerlabError, "sweep arm 1 produced no successful prompts")
        assert "arm_01/samples.csv" in files and not any(f.startswith("arm_02") for f in files)
        assert len(warned) == 5 and "sweep.csv" not in files

    def test_ablation_arm_whose_prompts_all_fail(self, tmp_path, monkeypatch, caplog):
        """Steering an age=old prompt toward shade=c is infeasible: the arm
        whose window holds no step keeps its prompts, the next loses them all."""
        (tmp_path / "shade.world").write_text(SHADE_WORLD_TEXT)
        spec = ExperimentSpec(
            world_path=str(tmp_path / "shade.world"),
            prompts=[PromptSpec("worker", count=2, constraints={"age": "old"})],
            target=SHADE_TARGET, policy="static", static_pairs={"shade": ["c", "a"],
                                                                "age": ["young", "old"]},
            samples_per_prompt=3, steps=40, beta_end=0.3, gamma=0.6, attribute_scale=4.0,
            windows=[[0.5, 0.505], [0.0, 0.3], [0.6, 1.0]])
        batched, per_arm = _batched_and_per_arm(tmp_path, monkeypatch, caplog,
                                                run_window_ablation, spec)
        assert batched == per_arm
        files, outcome, warned = batched
        assert outcome == (SteerlabError, "ablation arm 1 produced no successful prompts")
        assert sorted(files) == ["arm_00/manifest.json", "arm_00/report.csv",
                                 "arm_00/samples.csv", "arm_01/manifest.json",
                                 "arm_01/samples.csv"]
        assert len(warned) == 2 and all("shade='c'" in w for w in warned)

    @pytest.mark.parametrize("key, overrides", [
        ("sweep", {"sweep": {"attribute": "gender", "value": "male", "proportions": [0.5, 1.5]}}),
        ("windows", {"windows": [[0.0, 0.5], [0.6, 0.2]]}),
    ])
    def test_spec_whose_later_arm_could_not_be_set_up_cannot_be_made(self, tmp_path, key,
                                                                      overrides):
        """A second arm's target or window is checked when the spec is made,
        built directly or replaced into a valid spec, before any arm runs."""
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            _arms_spec(tmp_path, "deficit", **overrides)
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            replace(_arms_spec(tmp_path, "deficit"), **overrides)

    def test_arm_that_cannot_be_set_up_stops_the_batch_before_any_row_runs(self, tmp_path,
                                                                           monkeypatch):
        spec = _arms_spec(tmp_path, "deficit")
        bad = replace(spec, target={"colour": {"red": 1.0}})  # checked against the world
        calls = TestBlendRule._engine_calls(monkeypatch)
        out_dirs = [str(tmp_path / "arm_00"), str(tmp_path / "arm_01")]
        with pytest.raises(SteerlabError, match="colour"):
            list(harness._run_batch([spec, bad], load_world(spec.world_path), out_dirs))
        assert not calls and not (tmp_path / "arm_00").exists()


class TestRender:
    def test_svg_structure(self, world_path, tmp_path):
        out = tmp_path / "run"
        result = run_generate(base_spec(world_path), out_dir=str(out))
        svg_path = str(tmp_path / "plot.svg")
        world = build_gender_world(male_weight=0.65)
        render_scatter(*load_samples_csv(str(out / "samples.csv"), world.schema.names())[:2],
                       world, svg_path)

        root = ET.parse(svg_path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        assert len(circles) == len(result.samples)
        crosses = root.findall(f"{ns}path")
        assert len(crosses) == len(world.components)
        texts = [t.text for t in root.findall(f"{ns}text")]
        assert any(t and t.startswith("gender=") for t in texts)
        assert "engineer" in texts and "teacher" in texts

    def test_render_is_deterministic(self, world_path, tmp_path):
        out = tmp_path / "run"
        run_generate(base_spec(world_path), out_dir=str(out))
        world = build_gender_world()
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        points, labels, _ = load_samples_csv(str(out / "samples.csv"), world.schema.names())
        render_scatter(points, labels, world, a)
        render_scatter(points, labels, world, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_sample_set_renders_axes_and_means(self, tmp_path):
        world = build_gender_world()
        path = str(tmp_path / "empty.svg")
        render_scatter(np.empty((0, 2)), [], world, path)
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}circle")) == 0
        assert len(root.findall(f"{ns}path")) == len(world.components)

    def test_higher_dimensions_rejected(self, tmp_path):
        world = single_gaussian_world(mean=(0.0, 0.0, 0.0))
        with pytest.raises(RenderError, match="dimension 2"):
            render_scatter(np.empty((0, 3)), [], world, str(tmp_path / "x.svg"))

    @pytest.mark.parametrize("shape, rows", [((2, 2), 1), ((3, 3), 3), ((2, 1), 2), ((4,), 2)])
    def test_label_count_mismatch(self, tmp_path, shape, rows):
        """Points must be one (x, y) pair per label row; they used to be
        reshaped to pairs first, so four flat values passed as two points."""
        world = build_gender_world()
        with pytest.raises(RenderError, match=rf"{rows} label rows, expected \({rows}, 2\)"):
            render_scatter(np.zeros(shape), [{"gender": "male"}] * rows, world,
                           str(tmp_path / "x.svg"))
