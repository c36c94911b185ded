"""The batched trajectory engine against the one-point reference path.

`run_trajectories` must reproduce `sample` driven by `analytic_epsilon` (or,
when steering, by `combined_noise`) bit for bit, stream by stream, whatever
the batch size and however a trajectory is split into runs.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steerlab import InfeasibleConditionError, NumericsError, diffusion, harness, run_generate
from steerlab.diffusion import (
    analytic_epsilon,
    linear_schedule,
    noise_tapes,
    run_trajectories,
    sample,
)
from steerlab.guidance import (
    EMPTY_PLAN,
    GuidanceConfig,
    GuidancePlan,
    GuidanceProbe,
    PlanEntry,
    combined_noise,
    resolve_steering,
    window_mask,
)
from steerlab.world import make_condition
from steerlab.worldfile import default_world_path, load_world, parse_world
from steerlab.harness import ExperimentSpec, PromptSpec, _advance

from conftest import build_gender_world, two_attribute_world

FULL_COV = {
    ("engineer", "male"): [[2.0, 0.6], [0.6, 1.0]],
    ("engineer", "female"): [[0.7, -0.2], [-0.2, 1.3]],
    ("teacher", "female"): [[0.5, -0.2], [-0.2, 1.5]],
}
WORLDS = {
    "identity": lambda: build_gender_world(male_weight=0.65),
    "full-cov": lambda: build_gender_world(male_weight=0.65, covariances=FULL_COV),
}
TWO_ATTR_WORLDS = {
    "identity": two_attribute_world,
    "full-cov": lambda: two_attribute_world(covariances={
        ("male", "young"): [[1.5, 0.4], [0.4, 0.8]],
        ("female", "old"): [[0.6, 0.1], [0.1, 1.2]],
    }),
}
CONFIG = GuidanceConfig(gamma=0.6, window=(0.2, 0.55), attribute_scale=4.0)
ONE_ATTR = GuidancePlan((("gender", PlanEntry("female", "male")),))
TWO_ATTR = GuidancePlan((
    ("gender", PlanEntry("female", "male")),
    ("age", PlanEntry("young", "old")),
))
AGE_ONLY = GuidancePlan((("age", PlanEntry("young", "old")),))


def _rngs(n, seed=0):
    return [np.random.default_rng(np.random.SeedSequence([seed, 7, i])) for i in range(n)]


def _reference(world, schedule, cond, rng, plan=None, probe=None):
    if plan is None:
        def hook(state, c):
            return analytic_epsilon(world, schedule, state, c)
    else:
        def hook(state, c):
            return combined_noise(world, schedule, state, c, plan, CONFIG, probe)
    return sample(world, schedule, cond, hook, rng)


def _steering(schedule, plan):
    return plan and resolve_steering(plan, CONFIG, window_mask(schedule, CONFIG))


def _engine(world, schedule, cond, rngs, plan=None, probe=None):
    tapes = noise_tapes(rngs, schedule.steps, world.dimension)
    x, failures = run_trajectories(world, schedule, [cond] * len(rngs), tapes,
                                   _steering(schedule, plan), probe=probe)
    assert not failures
    return x


@pytest.mark.parametrize("d", [2, 3])
def test_one_tape_draw_equals_per_step_draws(d):
    steps = 1000
    a, b = np.random.default_rng(42), np.random.default_rng(42)
    tape = a.standard_normal(steps * d)
    per_step = np.concatenate([b.standard_normal(d) for _ in range(steps)])
    np.testing.assert_array_equal(tape, per_step)


@pytest.mark.parametrize("name", WORLDS)
def test_vanilla_batch_equals_reference_per_stream(name):
    world = WORLDS[name]()
    schedule = linear_schedule(120, beta_end=0.1)
    cond = make_condition(world, "engineer", jitter_seed=3, jitter_scale=0.2)
    batch = _engine(world, schedule, cond, _rngs(6))
    for b, rng in enumerate(_rngs(6)):
        np.testing.assert_array_equal(batch[b], _reference(world, schedule, cond, rng))


@pytest.mark.parametrize("name", WORLDS)
def test_one_attribute_plan_equals_reference_with_probe_rows(name):
    world = WORLDS[name]()
    schedule = linear_schedule(120, beta_end=0.1)
    cond = make_condition(world, "teacher")
    for rng_a, rng_b in zip(_rngs(3, seed=1), _rngs(3, seed=1)):
        probe_a, probe_b = GuidanceProbe(), GuidanceProbe()
        ours = _engine(world, schedule, cond, [rng_a], ONE_ATTR, probe_a)[0]
        theirs = _reference(world, schedule, cond, rng_b, ONE_ATTR, probe_b)
        np.testing.assert_array_equal(ours, theirs)
        assert probe_a.stream(0) and probe_a.stream(0) == probe_b.stream(0)


@pytest.mark.parametrize("name", TWO_ATTR_WORLDS)
def test_two_attribute_plan_equals_reference(name):
    world = TWO_ATTR_WORLDS[name]()
    schedule = linear_schedule(120, beta_end=0.1)
    cond = make_condition(world, "worker")
    for rng_a, rng_b in zip(_rngs(3, seed=2), _rngs(3, seed=2)):
        probe_a, probe_b = GuidanceProbe(), GuidanceProbe()
        ours = _engine(world, schedule, cond, [rng_a], TWO_ATTR, probe_a)[0]
        theirs = _reference(world, schedule, cond, rng_b, TWO_ATTR, probe_b)
        np.testing.assert_array_equal(ours, theirs)
        assert probe_a.stream(0) and probe_a.stream(0) == probe_b.stream(0)


@settings(max_examples=25, deadline=None)
@given(
    world_name=st.sampled_from(sorted(WORLDS)),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 40),
    steered=st.booleans(),
)
def test_batch_size_never_changes_a_stream(world_name, n, seed, steps, steered):
    world = WORLDS[world_name]()
    schedule = linear_schedule(steps, beta_end=0.3)
    cond = make_condition(world, "engineer")
    plan = ONE_ATTR if steered else None
    batch = _engine(world, schedule, cond, _rngs(n, seed), plan)
    for b, rng in enumerate(_rngs(n, seed)):
        np.testing.assert_array_equal(batch[b], _engine(world, schedule, cond, [rng], plan)[0])


@settings(max_examples=40, deadline=None)
@given(
    world_name=st.sampled_from(sorted(WORLDS)),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 40),
    steered=st.booleans(),
    data=st.data(),
)
def test_split_run_finishes_any_subset_like_each_stream_alone(
        world_name, n, seed, steps, steered, data):
    world = WORLDS[world_name]()
    schedule = linear_schedule(steps, beta_end=0.3)
    cond = make_condition(world, "engineer")
    k = data.draw(st.integers(0, steps), label="k")
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="subset")
    plan = ONE_ATTR if steered else None
    tapes = noise_tapes(_rngs(n, seed), steps, world.dimension)
    probe_all, probe_sub = GuidanceProbe(), GuidanceProbe()
    x, failed = run_trajectories(world, schedule, [cond] * n, tapes, _steering(schedule, plan),
                                 stop=k, probe=probe_all)
    out, failed_sub = run_trajectories(world, schedule, [cond] * len(subset), tapes[:, subset],
                                       _steering(schedule, plan), k, x=x[subset], probe=probe_sub)
    assert not failed and not failed_sub
    for j, b in enumerate(subset):
        probe = GuidanceProbe()
        alone = _engine(world, schedule, cond, [_rngs(n, seed)[b]], plan, probe)
        np.testing.assert_array_equal(out[j], alone[0])
        # Each steered step records one row per stream, in batch order.
        assert probe_all.stream(b) + probe_sub.stream(j) == probe.stream(0)


def test_starting_past_step_zero_needs_a_state():
    world = build_gender_world()
    schedule = linear_schedule(10)
    tapes = noise_tapes(_rngs(2), 10, 2)
    with pytest.raises(ValueError, match="x is needed"):
        run_trajectories(world, schedule, [make_condition(world, "engineer")] * 2, tapes, start=3)


def test_steering_resolves_to_none_when_no_step_is_blended():
    plan = GuidancePlan((("gender", PlanEntry("male", "female")),))
    narrow = GuidanceConfig(window=(0.3, 0.6))
    schedule = linear_schedule(2)          # reverse progress hits only 0 and 1
    assert resolve_steering(plan, narrow, window_mask(schedule, narrow)) is None
    schedule = linear_schedule(20)
    active = window_mask(schedule, CONFIG)
    assert resolve_steering(plan, GuidanceConfig(gamma=1.0), active) is None
    assert resolve_steering(EMPTY_PLAN, CONFIG, active) is None
    assert resolve_steering(plan, CONFIG, active).pins == (("gender", "male"), ("gender", "female"))


@pytest.mark.parametrize("n", [2, 5, 16])
def test_edits_are_resolved_once_per_condition_key(monkeypatch, n):
    """Rows of two condition keys under the two-attribute plan: each key is
    edited by each of the plan's four pins once, whatever the batch size."""
    world = parse_world(GRID_WORLD)
    schedule = linear_schedule(10)
    conds = [make_condition(world, ("worker", "nurse")[b % 2], jitter_seed=b, jitter_scale=0.2)
             for b in range(n)]
    edits = []
    edit = diffusion.edit_condition

    def counted(world, cond, attribute, value):
        edits.append((cond.concept, attribute, value))
        return edit(world, cond, attribute, value)
    monkeypatch.setattr(diffusion, "edit_condition", counted)
    _, failures = run_trajectories(world, schedule, conds, noise_tapes(_rngs(n), 10, 2),
                                   _steering(schedule, TWO_ATTR))
    assert not failures
    assert len(edits) == 2 * 4 and len(set(edits)) == 2 * 4


def test_row_that_cannot_take_the_plan_fails_alone_and_its_neighbours_keep_their_bits():
    """worker {age=old} has no male component, so steering it by the gender
    plan fails it before its first step, with the error its edit raises."""
    world = two_attribute_world()
    schedule = linear_schedule(20, beta_end=0.3)
    conds = [make_condition(world, "worker", c)
             for c in ({}, {"age": "old"}, {"gender": "female"})]
    tapes = noise_tapes(_rngs(3, seed=4), schedule.steps, world.dimension)
    out, failures = run_trajectories(world, schedule, conds, tapes, _steering(schedule, ONE_ATTR))
    assert list(failures) == [1] and "gender='male'" in failures[1]
    with pytest.raises(InfeasibleConditionError, match="gender='male'"):
        _reference(world, schedule, conds[1], _rngs(3, seed=4)[1], ONE_ATTR)
    assert np.isnan(out[1]).all()
    for b in (0, 2):
        alone = _engine(world, schedule, conds[b], [_rngs(3, seed=4)[b]], ONE_ATTR)
        np.testing.assert_array_equal(out[b], alone[0])


class _Tape:
    """A generator stand-in whose draws are fixed values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.at = 0

    def standard_normal(self, n):
        out = self.values[self.at:self.at + n]
        self.at += n
        return out


@pytest.mark.parametrize("poison, message", [
    ((0, 0), "non-finite noise estimate at step 9"),
    ((4, 1), "non-finite latent produced at step 6"),
])
def test_finiteness_failures_match_reference(poison, message):
    world = build_gender_world()
    schedule = linear_schedule(10)
    cond = make_condition(world, "engineer")
    values = np.zeros((10, 2))
    values[poison] = np.nan if poison == (0, 0) else np.inf
    with pytest.raises(NumericsError, match=message):
        _reference(world, schedule, cond, _Tape(values.ravel()))
    x, failures = run_trajectories(world, schedule, [cond],
                                   noise_tapes([_Tape(values.ravel())], schedule.steps, 2))
    assert failures == {0: message} and np.isnan(x).all()


# Conditions of both component counts; under FULL_COV the teacher male
# component keeps an identity covariance, so edited conditions there differ
# in covariance kind as well.  With every covariance full, the two concepts'
# edited mixtures share one batch, and their steering directions differ.
ROW_CONDITIONS = [("engineer", {}), ("teacher", {}), ("engineer", {"gender": "male"}),
                  ("engineer", {"gender": "female"}), ("teacher", {"gender": "female"}),
                  ("teacher", {"gender": "male"})]
ROW_WORLDS = {**WORLDS, "all-full-cov": lambda: build_gender_world(
    male_weight=0.65, covariances={**FULL_COV, ("teacher", "male"): [[1.2, 0.3], [0.3, 0.9]]})}

# A full gender x age grid per concept.  The worker's male-young and
# female-young components have full covariances, the rest the identity, so a
# two-attribute plan edits a condition into mixtures of one or two components
# of either covariance kind: worker {} into three full two-component mixtures
# and one identity one, nurse {} into four identity ones.  Under the age-only
# plan, the full two-component shape holds worker {gender=male}'s base and
# worker {}'s edit toward young, so one kernel call covers both kinds of cell.
GRID_WORLD = """\
dimension 2
attribute gender male female
attribute age young old
component worker gender=male   age=young mean=0,0  weight=0.3 cov=1,0.3;0.3,0.8
component worker gender=male   age=old   mean=4,0  weight=0.2
component worker gender=female age=young mean=0,4  weight=0.2 cov=0.7,0;0,1.2
component worker gender=female age=old   mean=4,4  weight=0.3
component nurse  gender=male   age=young mean=9,0  weight=0.2
component nurse  gender=male   age=old   mean=13,0 weight=0.2
component nurse  gender=female age=young mean=9,4  weight=0.3
component nurse  gender=female age=old   mean=13,4 weight=0.3
"""
GRID_CONDITIONS = [("worker", {}), ("nurse", {}), ("worker", {"gender": "male"}),
                   ("worker", {"gender": "female"}), ("worker", {"age": "old"}),
                   ("nurse", {"gender": "male"}), ("nurse", {"gender": "female"})]
# world, the conditions its rows follow, the plan that steers them
ROW_CASES = {
    **{name: (world, ROW_CONDITIONS, ONE_ATTR) for name, world in ROW_WORLDS.items()},
    "two-attribute-grid": (lambda: parse_world(GRID_WORLD), GRID_CONDITIONS, TWO_ATTR),
    "age-only-grid": (lambda: parse_world(GRID_WORLD), GRID_CONDITIONS, AGE_ONLY),
}


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(ROW_CASES)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 40),
    steered=st.booleans(),
    data=st.data(),
)
def test_rows_of_any_conditions_grouped_and_split_run_as_alone(
        case, seed, steps, steered, data):
    """Rows of several conditions, in one batch in any order and split at any
    step, each give the bits and probe rows of that row alone, as they do in
    one `run_trajectories` call over all the rows.  A step makes one kernel
    call per shape among the base and edited mixtures, across plan entries
    and rows."""
    make_world, conditions, plan = ROW_CASES[case]
    world = make_world()
    schedule = linear_schedule(steps, beta_end=0.3)
    picks = data.draw(st.lists(st.integers(0, len(conditions) - 1), min_size=1,
                               max_size=10), label="conditions")
    conds = [make_condition(world, *conditions[i], jitter_seed=b, jitter_scale=0.2)
             for b, i in enumerate(picks)]
    n = len(conds)
    k = data.draw(st.integers(0, steps), label="k")
    first = data.draw(st.permutations(range(n)), label="first order")
    then = data.draw(st.lists(st.sampled_from(first), min_size=1, unique=True), label="then")
    plan = plan if steered else None

    steering = _steering(schedule, plan)
    tapes = noise_tapes(_rngs(n, seed), steps, world.dimension)
    whole, failed = run_trajectories(world, schedule, conds, tapes, steering)
    assert not failed
    probe_a, probe_b = GuidanceProbe(), GuidanceProbe()
    x, failed = _advance(world, schedule, conds, tapes, first, None, 0, k, steering, probe_a)
    out, failed_b = _advance(world, schedule, conds, tapes, then, x, k, steps, steering, probe_b)
    assert not failed and not failed_b
    assert np.isnan(out[[b for b in range(n) if b not in then]]).all()
    for b in then:
        probe = GuidanceProbe()
        alone = _engine(world, schedule, conds[b], [_rngs(n, seed)[b]], plan, probe)
        np.testing.assert_array_equal(out[b], alone[0])
        np.testing.assert_array_equal(whole[b], alone[0])
        assert probe_a.stream(first.index(b)) + probe_b.stream(then.index(b)) == probe.stream(0)


@pytest.mark.parametrize("name", WORLDS)
@pytest.mark.parametrize("poison, message", [
    ((0, 0), "non-finite noise estimate at step 9"),
    ((4, 1), "non-finite latent produced at step 6"),
])
def test_poisoned_row_fails_alone_and_its_neighbours_keep_their_bits(name, poison, message):
    world = WORLDS[name]()
    schedule = linear_schedule(10)
    # Two conditions whose base and edited mixtures share one shape in both worlds.
    conds = [make_condition(world, *ROW_CONDITIONS[i]) for i in (2, 3, 2, 3)]
    values = np.zeros((10, 2))
    values[poison] = np.nan if poison == (0, 0) else np.inf
    rngs = _rngs(4, seed=5)
    rngs[2] = _Tape(values.ravel())
    tapes = noise_tapes(rngs, schedule.steps, world.dimension)
    out, failures = run_trajectories(world, schedule, conds, tapes, _steering(schedule, ONE_ATTR))
    assert failures == {2: message}
    assert np.isnan(out[2]).all()
    for b in (0, 1, 3):
        alone = _engine(world, schedule, conds[b], [_rngs(4, seed=5)[b]], ONE_ATTR)
        np.testing.assert_array_equal(out[b], alone[0])


@pytest.mark.parametrize("conditions, calls, plain", [
    ([("nurse", {})], 2, 1),
    ([("worker", {})], 3, 1),
    ([("worker", {"gender": "male"}), ("worker", {"gender": "female"})], 3, 1),
    ([("worker", {"age": "old"}), ("worker", {"age": "old"})], 3, 1),
    ([("nurse", {"gender": "female"})], 2, 1),
    ([("worker", {}), ("nurse", {}), ("worker", {"gender": "male"})], 6, 3),
])
def test_a_step_makes_one_kernel_call_per_mixture_shape(monkeypatch, conditions, calls, plain):
    """A steered step makes 1 kernel call per distinct shape among the rows'
    base and four edited mixtures; an unsteered step 1 per distinct shape
    among their base mixtures."""
    world = parse_world(GRID_WORLD)
    schedule = linear_schedule(10)
    conds = [make_condition(world, *c) for c in conditions]
    steering = _steering(schedule, TWO_ATTR)
    seen = []
    noise = diffusion._noise

    def counted(mix, x, schedule, t):
        seen.append(t)
        return noise(mix, x, schedule, t)
    monkeypatch.setattr(diffusion, "_noise", counted)
    _, failures = run_trajectories(world, schedule, conds,
                                   noise_tapes(_rngs(len(conds)), 10, 2), steering)
    assert not failures
    per_step = Counter(seen)
    assert steering.active.sum() == 3
    assert all(per_step[t] == (calls if steering.active[t] else plain) for t in range(10))


@pytest.mark.parametrize("picks", [(2, 2, 0, 0), (0, 0, 2, 2)])
def test_base_and_edited_cells_of_one_shape_keep_their_rows(picks):
    """Rows of worker {gender=male} and worker {} under the age-only plan: the
    full two-component cells are the male rows' base and the other rows' edit
    toward young, four cells over rows 0..3 in order (or, in the second order,
    four adjacent cells of the noise stack), yet not one slot.  Each row gives
    its bits alone."""
    world = parse_world(GRID_WORLD)
    schedule = linear_schedule(20, beta_end=0.3)
    conds = [make_condition(world, *GRID_CONDITIONS[i]) for i in picks]
    tapes = noise_tapes(_rngs(4, seed=3), schedule.steps, world.dimension)
    out, failures = run_trajectories(world, schedule, conds, tapes, _steering(schedule, AGE_ONLY))
    assert not failures
    for b in range(4):
        alone = _engine(world, schedule, conds[b], [_rngs(4, seed=3)[b]], AGE_ONLY)
        np.testing.assert_array_equal(out[b], alone[0])


def test_rows_of_several_shapes_take_one_engine_call(monkeypatch):
    world = parse_world(GRID_WORLD)
    schedule = linear_schedule(10)
    conds = [make_condition(world, *c) for c in GRID_CONDITIONS]
    calls = []
    engine = harness.run_trajectories

    def counted(*args):
        calls.append(len(args[2]))
        return engine(*args)
    monkeypatch.setattr(harness, "run_trajectories", counted)
    for plan in (None, TWO_ATTR):
        calls.clear()
        _, failed = _advance(world, schedule, conds, noise_tapes(_rngs(len(conds)), 10, 2),
                             list(range(len(conds))), None, 0, 10, _steering(schedule, plan))
        assert not failed and calls == [len(conds)]


@pytest.mark.parametrize("poison, message", [
    ((0, 0), "non-finite noise estimate at step 9"),
    ((4, 1), "non-finite latent produced at step 6"),
])
def test_poisoned_row_under_a_two_attribute_plan_fails_alone(poison, message):
    """The failed row's fused edited rows are zeroed, not its neighbours'."""
    world = parse_world(GRID_WORLD)
    schedule = linear_schedule(10)
    # Two conditions whose base and four edited mixtures share their shapes.
    conds = [make_condition(world, *GRID_CONDITIONS[i]) for i in (2, 3, 2, 3)]
    values = np.zeros((10, 2))
    values[poison] = np.nan if poison == (0, 0) else np.inf
    rngs = _rngs(4, seed=5)
    rngs[1] = _Tape(values.ravel())
    tapes = noise_tapes(rngs, schedule.steps, world.dimension)
    out, failures = run_trajectories(world, schedule, conds, tapes, _steering(schedule, TWO_ATTR))
    assert failures == {1: message}
    assert np.isnan(out[1]).all()
    for b in (0, 2, 3):
        alone = _engine(world, schedule, conds[b], [_rngs(4, seed=5)[b]], TWO_ATTR)
        np.testing.assert_array_equal(out[b], alone[0])


def test_vanilla_run_equals_reference_sampler():
    spec = ExperimentSpec(
        world_path=default_world_path(),
        prompts=[PromptSpec("engineer", count=2, jitter_seed=5), PromptSpec("teacher")],
        target={"gender": {"male": 0.5, "female": 0.5}},
        policy="vanilla", samples_per_prompt=3, steps=60, beta_end=0.2, seed=9,
    )
    world = load_world(spec.world_path)
    schedule = linear_schedule(spec.steps, spec.beta_start, spec.beta_end)
    result = run_generate(spec, world=world)
    assert len(result.samples) == 9
    for s in result.samples:
        instance = s.prompt_ordinal if s.concept == "engineer" else 0
        jitter = spec.prompts[0].jitter_seed if s.concept == "engineer" else 0
        cond = make_condition(
            world, s.concept,
            jitter_seed=int(np.random.SeedSequence([jitter, instance]).generate_state(1)[0]),
            jitter_scale=spec.jitter_scale,
        )
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, s.prompt_ordinal,
                                                            s.sample_index]))
        np.testing.assert_array_equal(s.x, _reference(world, schedule, cond, rng))
