"""The batched trajectory engine against the one-point reference path.

`run_trajectories` must reproduce `sample` driven by `analytic_epsilon` (or,
when steering, by `combined_noise`) bit for bit, stream by stream, whatever
the batch size and however a trajectory is split into runs.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steerlab import InfeasibleConditionError, NumericsError, diffusion, harness, run_generate
from steerlab.diffusion import (
    Steering,
    analytic_epsilon,
    linear_schedule,
    noise_tapes,
    run_trajectories,
    sample,
)
from steerlab.guidance import (
    GuidanceConfig,
    GuidancePlan,
    GuidanceProbe,
    PlanEntry,
    combined_noise,
    window_mask,
)
from steerlab.world import MixtureWorld, make_condition
from steerlab.worldfile import default_world_path, load_world, parse_world
from steerlab.harness import ExperimentSpec, PromptSpec, _advance

from conftest import build_gender_world, two_attribute_world
from reference import affine_trajectories

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


def _steering(schedule, plan, n):
    """The plan as a finish applies it to n rows: None when there is none or no step is blended."""
    active = window_mask(schedule, CONFIG)
    if plan is None or not active.any():
        return None
    return Steering(active, (plan,) * n, CONFIG.gamma, CONFIG.attribute_scale)


def _engine(world, schedule, cond, rngs, plan=None, probe=None):
    tapes = noise_tapes(rngs, schedule.steps, world.dimension)
    x, failures = run_trajectories(world, schedule, [cond] * len(rngs), tapes,
                                   _steering(schedule, plan, len(rngs)), probe=probe)
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


# One full-covariance component per (gender, age) cell: a condition that pins
# both attributes is one Gaussian, and so is each of its one-attribute edits.
GAUSSIAN_CELLS = """\
dimension 2
attribute gender male female
attribute age young old
component worker gender=male   age=young mean=0,0 weight=0.3 cov=1.5,0.4;0.4,0.8
component worker gender=female age=old   mean=4,0 weight=0.2 cov=0.6,0.1;0.1,1.2
component worker gender=female age=young mean=0,4 weight=0.3 cov=0.9,-0.3;-0.3,0.7
component worker gender=male   age=old   mean=4,4 weight=0.2 cov=1.1,0.2;0.2,0.5
"""


def test_steered_rows_of_gaussian_cells_follow_the_affine_recursion():
    """Rows of every cell under every two-attribute plan, in one batch, each
    agree within 1e-12 with `reference.affine_trajectories`, which shares no code
    with the density kernel."""
    world = parse_world(GAUSSIAN_CELLS)
    schedule = linear_schedule(60, beta_end=0.3)
    config = GuidanceConfig(gamma=0.6, window=(0.2, 0.6), attribute_scale=4.0)
    pairs = {"gender": ("female", "male"), "age": ("old", "young")}
    plans = [GuidancePlan(tuple((attr, PlanEntry(*pair[::flip])) for attr, pair, flip
                                in zip(pairs, pairs.values(), flips)))
             for flips in itertools.product((1, -1), repeat=2)]
    rows = [({"gender": g, "age": a}, plan) for g, a, plan
            in itertools.product(pairs["gender"], pairs["age"], plans)] * 2
    conds = [make_condition(world, "worker", cell) for cell, _ in rows]
    active = window_mask(schedule, config)
    assert 0 < active.sum() < schedule.steps
    steering = Steering(active, tuple(plan for _, plan in rows), config.gamma,
                        config.attribute_scale)
    tapes = noise_tapes(_rngs(len(rows), seed=5), schedule.steps, world.dimension)
    x, failures = run_trajectories(world, schedule, conds, tapes, steering)
    assert not failures
    np.testing.assert_allclose(x, affine_trajectories(world, schedule, conds, tapes, steering),
                               rtol=0, atol=1e-12)


# A 2 x 2 covariance as (variance, variance, correlation): positive definite.
COVARIANCES = st.tuples(st.floats(0.3, 2.0), st.floats(0.3, 2.0), st.floats(-0.8, 0.8)).map(
    lambda v: [[v[0], v[2] * math.sqrt(v[0] * v[1])], [v[2] * math.sqrt(v[0] * v[1]), v[1]]])


@settings(max_examples=60, deadline=None)
@given(
    covariances=st.lists(COVARIANCES, min_size=4, max_size=4),
    gamma=st.floats(0.0, 1.0),
    window=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True).map(sorted),
    scale=st.floats(0.1, 6.0),
    steps=st.integers(1, 60),
    both=st.booleans(),
    rows=st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans(), st.booleans()),
                  min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_steered_rows_of_gaussian_cells_follow_the_affine_recursion(
        covariances, gamma, window, scale, steps, both, rows, seed):
    """One batch of rows of any cell, each under its own plan: both attributes
    or one of them, each entry either way round.  The engine agrees with
    `reference.affine_trajectories` within 1e-12 of the latents' size, for any
    gamma, window, scale and full covariances."""
    cells = parse_world(GAUSSIAN_CELLS)
    world = MixtureWorld(2, cells.schema, [replace(c, covariance=np.array(cov))
                                           for c, cov in zip(cells.components, covariances)])
    pairs = {"gender": ("female", "male"), "age": ("old", "young")}
    plans, conds = [], []
    for cell, flip_gender, flip_age, gender_only in rows:
        attributes = ("gender", "age") if both else ("gender",) if gender_only else ("age",)
        flips = {"gender": flip_gender, "age": flip_age}
        plans.append(GuidancePlan(tuple((a, PlanEntry(*pairs[a][::-1 if flips[a] else 1]))
                                        for a in attributes)))
        conds.append(make_condition(world, "worker", dict(cells.components[cell].tags)))
    schedule = linear_schedule(steps, beta_end=0.3)
    config = GuidanceConfig(gamma=gamma, window=tuple(window), attribute_scale=scale)
    steering = Steering(window_mask(schedule, config), tuple(plans), gamma, scale)
    tapes = noise_tapes(_rngs(len(rows), seed=seed), steps, world.dimension)
    x, failures = run_trajectories(world, schedule, conds, tapes, steering)
    assert not failures
    expected = affine_trajectories(world, schedule, conds, tapes, steering)
    assert np.abs(x - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


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
    x, failed = run_trajectories(world, schedule, [cond] * n, tapes, _steering(schedule, plan, n),
                                 stop=k, probe=probe_all)
    out, failed_sub = run_trajectories(world, schedule, [cond] * len(subset), tapes[:, subset],
                                       _steering(schedule, plan, len(subset)), k, x=x[subset],
                                       probe=probe_sub)
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


@pytest.mark.parametrize("every_reversal", [False, True])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_edits_are_resolved_once_per_condition_key(monkeypatch, n, every_reversal):
    """Rows of two condition keys under the two-attribute plan, or under it and
    its three reversals by turns: each key is edited to each of the four
    (attribute, value) pairs once, whatever the batch size, though every plan
    holds every pair."""
    world = parse_world(GRID_WORLD)
    schedule = linear_schedule(10)
    conds = [make_condition(world, ("worker", "nurse")[b % 2], jitter_seed=b, jitter_scale=0.2)
             for b in range(n)]
    plans = _reversals(TWO_ATTR) if every_reversal else [TWO_ATTR]
    steering = Steering(window_mask(schedule, CONFIG),
                        tuple(plans[b // 2 % len(plans)] for b in range(n)), CONFIG.gamma,
                        CONFIG.attribute_scale)
    edits = []
    edit = diffusion.edit_condition

    def counted(world, cond, attribute, value):
        edits.append((cond.concept, attribute, value))
        return edit(world, cond, attribute, value)
    monkeypatch.setattr(diffusion, "edit_condition", counted)
    _, failures = run_trajectories(world, schedule, conds, noise_tapes(_rngs(n), 10, 2), steering)
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
    out, failures = run_trajectories(world, schedule, conds, tapes,
                                     _steering(schedule, ONE_ATTR, len(conds)))
    assert list(failures) == [1] and "gender='male'" in failures[1]
    with pytest.raises(InfeasibleConditionError, match="gender='male'"):
        _reference(world, schedule, conds[1], _rngs(3, seed=4)[1], ONE_ATTR)
    assert np.isnan(out[1]).all()
    for b in (0, 2):
        alone = _engine(world, schedule, conds[b], [_rngs(3, seed=4)[b]], ONE_ATTR)
        np.testing.assert_array_equal(out[b], alone[0])


def test_run_of_no_steps_leaves_the_callers_latents_as_they_were():
    """A row that cannot take its plan is NaN in the result, even over no
    steps, but the latents handed in keep their values."""
    world = two_attribute_world()
    schedule = linear_schedule(20, beta_end=0.3)
    conds = [make_condition(world, "worker", c) for c in ({}, {"age": "old"})]
    tapes = noise_tapes(_rngs(2), schedule.steps, world.dimension)
    x = tapes[5].copy()
    out, failures = run_trajectories(world, schedule, conds, tapes,
                                     _steering(schedule, ONE_ATTR, 2), 5, 5, x)
    assert list(failures) == [1] and np.isnan(out[1]).all()
    np.testing.assert_array_equal(x, tapes[5])
    np.testing.assert_array_equal(out[0], tapes[5][0])


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


def _reversals(plan):
    """The plan with each subset of its entries' target and reference swapped."""
    return [GuidancePlan(tuple((a, PlanEntry(e.reference, e.target) if swap else e)
                               for (a, e), swap in zip(plan.entries, swaps)))
            for swaps in itertools.product((False, True), repeat=len(plan.entries))]


# world, the conditions its rows follow, the plans that steer them
ROW_CASES = {
    **{name: (world, ROW_CONDITIONS, _reversals(ONE_ATTR)) for name, world in ROW_WORLDS.items()},
    "two-attribute-grid": (lambda: parse_world(GRID_WORLD), GRID_CONDITIONS,
                           _reversals(TWO_ATTR)),
    "age-only-grid": (lambda: parse_world(GRID_WORLD), GRID_CONDITIONS, _reversals(AGE_ONLY)),
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
    """Rows of several conditions under several plans, in one batch in any
    order and split at any step, each give the bits and probe rows of that row
    alone, as they do in one `run_trajectories` call over all the rows, and a
    row taken twice gives them twice.  A step makes one kernel call per shape
    among the base and edited mixtures, across plans, plan entries and rows."""
    make_world, conditions, variants = ROW_CASES[case]
    world = make_world()
    schedule = linear_schedule(steps, beta_end=0.3)
    picks = data.draw(st.lists(st.integers(0, len(conditions) - 1), min_size=1,
                               max_size=10), label="conditions")
    conds = [make_condition(world, *conditions[i], jitter_seed=b, jitter_scale=0.2)
             for b, i in enumerate(picks)]
    n = len(conds)
    plans = data.draw(st.lists(st.sampled_from(variants), min_size=n, max_size=n), label="plans")
    k = data.draw(st.integers(0, steps), label="k")
    first = data.draw(st.permutations(range(n)), label="first order")
    then = data.draw(st.lists(st.sampled_from(first), min_size=1), label="then")
    active = window_mask(schedule, CONFIG)

    def steering(rows):
        if not steered or not active.any():
            return None
        return Steering(active, tuple(plans[b] for b in rows), CONFIG.gamma,
                        CONFIG.attribute_scale)
    tapes = noise_tapes(_rngs(n, seed), steps, world.dimension)
    whole, failed = run_trajectories(world, schedule, conds, tapes, steering(range(n)))
    assert not failed
    probe_a, probe_b = GuidanceProbe(), GuidanceProbe()
    x = np.full((n, world.dimension), np.nan)
    x[first], failed = _advance(world, schedule, conds, tapes, first, None, 0, k,
                                steering(first), probe_a)
    out, failed_b = _advance(world, schedule, conds, tapes, then, x, k, steps, steering(then),
                             probe_b)
    assert not failed and not failed_b
    for j, b in enumerate(then):
        probe = GuidanceProbe()
        alone = _engine(world, schedule, conds[b], [_rngs(n, seed)[b]],
                        plans[b] if steered else None, probe)
        np.testing.assert_array_equal(out[j], alone[0])
        np.testing.assert_array_equal(whole[b], alone[0])
        assert probe_a.stream(first.index(b)) + probe_b.stream(j) == probe.stream(0)


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
    out, failures = run_trajectories(world, schedule, conds, tapes,
                                     _steering(schedule, ONE_ATTR, len(conds)))
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
    among their base mixtures.  The kernel is told its step by alpha_bar, and
    takes its operand's scratch, made once per engine call."""
    world = parse_world(GRID_WORLD)
    schedule = linear_schedule(10)
    conds = [make_condition(world, *c) for c in conditions]
    steering = _steering(schedule, TWO_ATTR, len(conds))
    seen = []
    noise = diffusion._noise

    def counted(mix, x, a_bar, scale, scratch):
        seen.append(a_bar)
        return noise(mix, x, a_bar, scale, scratch)
    monkeypatch.setattr(diffusion, "_noise", counted)
    _, failures = run_trajectories(world, schedule, conds,
                                   noise_tapes(_rngs(len(conds)), 10, 2), steering)
    assert not failures
    per_step = Counter(seen)
    assert steering.active.sum() == 3 and len(per_step) == 10
    assert all(per_step[schedule.alpha_bar[t]] == (calls if steering.active[t] else plain)
               for t in range(10))


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
    out, failures = run_trajectories(world, schedule, conds, tapes,
                                     _steering(schedule, AGE_ONLY, 4))
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
                             list(range(len(conds))), None, 0, 10,
                             _steering(schedule, plan, len(conds)))
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
    out, failures = run_trajectories(world, schedule, conds, tapes,
                                     _steering(schedule, TWO_ATTR, 4))
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
    result = run_generate(spec)
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


# Young x holds only shade=a, so its edits to b and to c both fail; old x lacks a.
SHADE_WORLD = """\
dimension 2
attribute shade a b c
attribute age young old
component x shade=a age=young mean=0,0 weight=1
component x shade=b age=old   mean=3,0 weight=1
component x shade=c age=old   mean=0,3 weight=1
"""


def test_a_row_fails_with_its_plans_first_failing_edit():
    """Young x under (a -> c) resolves c's failing edit first; young x under
    (b -> c) must still fail with b's, the first in its plan, as it does alone."""
    world = parse_world(SHADE_WORLD)
    schedule = linear_schedule(10)
    a_to_c, b_to_c = (GuidancePlan((("shade", PlanEntry(v, "c")),)) for v in ("a", "b"))
    rows = [("young", a_to_c), ("young", b_to_c), ("old", b_to_c), ("old", a_to_c)]
    conds = [make_condition(world, "x", {"age": age}) for age, _ in rows]
    steering = Steering(window_mask(schedule, CONFIG), tuple(p for _, p in rows), CONFIG.gamma,
                        CONFIG.attribute_scale)
    out, failures = run_trajectories(world, schedule, conds, noise_tapes(_rngs(4), 10, 2),
                                     steering)
    assert sorted(failures) == [0, 1, 3]
    assert [f"shade={v!r}" in failures[b] for b, v in ((0, "c"), (1, "b"), (3, "a"))] == [True] * 3
    for b in (0, 1, 3):
        with pytest.raises(InfeasibleConditionError) as alone:
            _reference(world, schedule, conds[b], _rngs(4)[b], rows[b][1])
        assert failures[b] == str(alone.value)
    np.testing.assert_array_equal(out[2], _reference(world, schedule, conds[2], _rngs(4)[2],
                                                     b_to_c))


REVERSED = _reversals(ONE_ATTR)[1]
WINDOW_STEPS = 20  # under CONFIG, steps t = 9..15 are blended


def _poison_steered(monkeypatch, t):
    """At step t, every row steered by REVERSED gets an inf target slot, which
    only the blend's check sees (as in `test_harness._poison_plans`)."""
    steer = diffusion._steer

    def wrapper(steering, eps, step, failures, probe):
        if step == t:
            eps = eps.copy()
            eps[1, [b for b, plan in enumerate(steering.plans) if plan == REVERSED]] = math.inf
        return steer(steering, eps, step, failures, probe)
    monkeypatch.setattr(diffusion, "_steer", wrapper)


@pytest.mark.parametrize("name", WORLDS)
@pytest.mark.parametrize("stage, t", [
    ("noise estimate", 14), ("noise estimate", 5), ("steered noise", 13), ("steered noise", 9),
    ("latent", 13), ("latent", 5),
])
def test_a_row_poisoned_at_any_stage_is_replayed_to_its_first_failure(monkeypatch, name, stage,
                                                                       t):
    """Row 2 of four is poisoned at step t: a huge draw at step t + 1
    overflows step t's noise estimate, an inf draw at step t the latent, and a
    wrapped blend the steered noise.  The row fails with the message of its
    step and stage, as alone, and the other rows keep the bits of a run
    without it."""
    world = WORLDS[name]()
    schedule = linear_schedule(WINDOW_STEPS, beta_end=0.3)
    conds = [make_condition(world, *ROW_CONDITIONS[c]) for c in (0, 1, 0, 1)]  # two components
    plans = (ONE_ATTR, ONE_ATTR, REVERSED, ONE_ATTR)
    values = np.zeros((WINDOW_STEPS, 2))  # tape row i is drawn by step WINDOW_STEPS - i
    if stage == "noise estimate":
        values[WINDOW_STEPS - 1 - t, 0] = 1e300
    elif stage == "latent":
        values[WINDOW_STEPS - t, 0] = math.inf
    else:
        _poison_steered(monkeypatch, t)
    message = f"non-finite {'latent produced' if stage == 'latent' else stage} at step {t}"
    rngs = _rngs(4, seed=6)
    rngs[2] = _Tape(values.ravel())
    tapes = noise_tapes(rngs, WINDOW_STEPS, 2)
    active = window_mask(schedule, CONFIG)
    out, failures = run_trajectories(world, schedule, conds, tapes,
                                     Steering(active, plans, CONFIG.gamma, CONFIG.attribute_scale))
    assert failures == {2: message} and np.isnan(out[2]).all()
    if stage != "steered noise":  # alone, the overflow warns as it fails
        with pytest.raises(NumericsError, match=f"^{message}$"), np.errstate(all="ignore"):
            _reference(world, schedule, conds[2], _Tape(values.ravel()), REVERSED)
    kept = [0, 1, 3]
    without, failed = run_trajectories(
        world, schedule, [conds[b] for b in kept], tapes[:, kept],
        Steering(active, tuple(plans[b] for b in kept), CONFIG.gamma, CONFIG.attribute_scale))
    assert not failed
    np.testing.assert_array_equal(out[kept].view(np.int64), without.view(np.int64))


@pytest.mark.parametrize("steered", [False, True])
def test_only_the_replay_of_failed_rows_checks_a_step(monkeypatch, steered):
    """A run that fails no row checks no stage; one whose rows 1 and 4 go
    non-finite replays those two rows, once, checking every stage of every step."""
    world = WORLDS["identity"]()
    schedule = linear_schedule(WINDOW_STEPS, beta_end=0.3)
    conds = [make_condition(world, *ROW_CONDITIONS[c % 2]) for c in range(6)]
    steering = Steering(window_mask(schedule, CONFIG), (ONE_ATTR,) * 6, CONFIG.gamma,
                        CONFIG.attribute_scale) if steered else None
    checks, runs = [], []
    check, reverse = diffusion._check, diffusion._reverse

    def counted_check(values, message, failures):
        checks.append(values.shape[-2])
        return check(values, message, failures)

    def counted_reverse(schedule, mixes, pick, steering, tapes, x, *rest):
        runs.append((len(x), rest[-1] is not None))
        return reverse(schedule, mixes, pick, steering, tapes, x, *rest)
    monkeypatch.setattr(diffusion, "_check", counted_check)
    monkeypatch.setattr(diffusion, "_reverse", counted_reverse)
    rngs = _rngs(6, seed=2)
    _, failures = run_trajectories(world, schedule, conds,
                                   noise_tapes(rngs, WINDOW_STEPS, 2), steering)
    assert not failures and not checks and runs == [(6, False)]
    runs.clear()
    for b, i in ((1, 14), (4, 6)):  # inf draws at steps 6 and 14
        values = np.zeros((WINDOW_STEPS, 2))
        values[i, 1] = -math.inf
        rngs[b] = _Tape(values.ravel())
    _, failures = run_trajectories(world, schedule, conds,
                                   noise_tapes(rngs, WINDOW_STEPS, 2), steering)
    assert sorted(failures) == [1, 4] and runs == [(6, False), (2, True)]
    stages = 2 * WINDOW_STEPS + (int(steering.active.sum()) if steered else 0)
    assert checks == [2] * stages


def test_a_row_that_cannot_take_its_plan_is_not_replayed(monkeypatch):
    """Row 1 fails before its first step, so its edit's message stands, though
    its latent, run under its base mixture, also goes non-finite."""
    world = two_attribute_world()
    schedule = linear_schedule(20, beta_end=0.3)
    conds = [make_condition(world, "worker", c) for c in ({}, {"age": "old"}, {})]
    runs, reverse = [], diffusion._reverse

    def counted(*args):
        runs.append(len(args[5]))
        return reverse(*args)
    monkeypatch.setattr(diffusion, "_reverse", counted)
    rngs = _rngs(3)
    values = np.zeros((20, 2))
    values[4, 0] = math.inf
    rngs[1] = _Tape(values.ravel())
    _, failures = run_trajectories(world, schedule, conds, noise_tapes(rngs, 20, 2),
                                   _steering(schedule, ONE_ATTR, 3))
    assert list(failures) == [1] and "gender='male'" in failures[1] and runs == [3]


# The design rests on two facts, tested here: a non-finite latent stays
# non-finite to the end of a run, and the kernel's column-by-column max has the
# bits of numpy's max reduction.
NONFINITE_CONDITIONS = {"one component": ("engineer", {"gender": "male"}),
                        "two components": ("engineer", {})}


@settings(max_examples=80, deadline=None)
@given(
    world_name=st.sampled_from(sorted(WORLDS)),
    components=st.sampled_from(sorted(NONFINITE_CONDITIONS)),
    steered=st.booleans(),
    gamma=st.sampled_from([0.0, 0.6, 1.0]),
    value=st.sampled_from([math.inf, -math.inf, math.nan]),
    coord=st.integers(0, 1),
    steps=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_non_finite_latent_ends_non_finite(world_name, components, steered, gamma, value,
                                             coord, steps, seed, data):
    """Row 1's latent is set to inf or NaN after k steps; the unchecked pass
    ends it non-finite, whether each step is blended or none is, so the
    replay names the noise estimate of step k."""
    world = WORLDS[world_name]()
    schedule = linear_schedule(steps, beta_end=0.3)
    k = data.draw(st.integers(0, steps - 1), label="k")
    conds = [make_condition(world, *NONFINITE_CONDITIONS[components])] * 3
    tapes = noise_tapes(_rngs(3, seed), steps, world.dimension)
    x = tapes[0].copy()
    x[1, coord] = value
    steering = (Steering(np.ones(steps, dtype=bool), (ONE_ATTR,) * 3, gamma,
                         CONFIG.attribute_scale) if steered else None)
    ends = []
    reverse = diffusion._reverse

    def kept(*args):
        ends.append(reverse(*args))
        return ends[-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diffusion, "_reverse", kept)
        out, failures = run_trajectories(world, schedule, conds, tapes, steering, k, steps, x)
    assert np.isfinite(ends[0][[0, 2]]).all() and not np.isfinite(ends[0][1]).any()
    assert failures == {1: f"non-finite noise estimate at step {steps - 1 - k}"}


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 12), b=st.integers(1, 16), data=st.data())
def test_row_max_has_the_bits_of_a_max_reduction(k, b, data):
    """Bit for bit but for the sign of a zero max (a reduction over 8 or more
    columns may order +0 and -0 otherwise), which the weights cannot see."""
    values = data.draw(st.lists(
        st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])),
        min_size=b * k, max_size=b * k))
    logits = np.array(values).reshape(b, k)
    ours, theirs = diffusion._row_max(logits.T), logits.max(axis=1)
    nan = np.isnan(theirs)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    signed = ~nan & (theirs != 0)
    np.testing.assert_array_equal(ours[signed].view(np.int64), theirs[signed].view(np.int64))
    np.testing.assert_array_equal(ours[~nan], theirs[~nan])
    with np.errstate(all="ignore"):
        ours, theirs = (np.exp(logits - m[:, None]) for m in (ours, theirs))
    nan = np.isnan(theirs)  # any payload
    np.testing.assert_array_equal(np.isnan(ours), nan)
    np.testing.assert_array_equal(ours[~nan].view(np.int64), theirs[~nan].view(np.int64))


def _accumulated_blend(steering, eps):
    """The blend as `combined_noise` forms it: an accumulator from zeros, then
    scaled and divided by the entry count."""
    acc = np.zeros_like(eps[0])
    for target, reference in zip(eps[1::2], eps[2::2]):
        acc += target - reference
    attr_term = steering.scale * acc / (len(eps) // 2)
    return steering.gamma * eps[0] + (1.0 - steering.gamma) * attr_term, attr_term


class _KeptProbe:
    def record(self, t, base, attr_term):
        self.rows = base.copy(), attr_term.copy()


def _assert_blend_bits(eps, gamma, scale):
    """`_steer` gives the accumulated blend's bits (NaN of any payload), and so
    do the base and attribute term its probe is handed."""
    steering = Steering(np.ones(1, dtype=bool), (), gamma, scale)
    probe = _KeptProbe()
    with np.errstate(all="ignore"):
        ours = diffusion._steer(steering, eps.copy(), 0, None, probe)
        theirs, attr_term = _accumulated_blend(steering, eps)
    for a, b in ((ours, theirs), (probe.rows[0], eps[0]), (probe.rows[1], attr_term)):
        nan = np.isnan(b)
        np.testing.assert_array_equal(np.isnan(a), nan)
        np.testing.assert_array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


@pytest.mark.parametrize("entries", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.6])
def test_folded_blend_keeps_the_sign_of_a_zero(entries, gamma):
    """Every row of signed zeros across base, targets and references: a
    difference of -0.0 summed from 0.0 is +0.0, which gamma * -0.0 shows."""
    rows = np.array(list(itertools.product([0.0, -0.0], repeat=1 + 2 * entries)))
    eps = np.repeat(rows.T[:, :, None], 2, axis=2)  # (slots, rows, d)
    _assert_blend_bits(eps, gamma, 4.0)


@settings(max_examples=200, deadline=None)
@given(entries=st.sampled_from([1, 2]), b=st.integers(1, 6),
       gamma=st.sampled_from([0.0, 0.6, 1.0]), scale=st.sampled_from([4.0, 0.5, 1e300]),
       data=st.data())
def test_folded_blend_has_the_bits_of_an_accumulated_one(entries, b, gamma, scale, data):
    values = data.draw(st.lists(
        st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])),
        min_size=(1 + 2 * entries) * b * 2, max_size=(1 + 2 * entries) * b * 2))
    _assert_blend_bits(np.array(values).reshape(1 + 2 * entries, b, 2), gamma, scale)


@pytest.mark.parametrize("name", WORLDS)
@pytest.mark.parametrize("steered", [False, True])
def test_results_share_no_memory_and_outlive_the_next_call(name, steered):
    """A run split in two calls, the second from the first's latents, and an
    empty third: no result shares memory with the caller's x, the tapes or
    another result, and the second call changes neither the first's result
    nor the tapes."""
    world = WORLDS[name]()
    schedule = linear_schedule(WINDOW_STEPS, beta_end=0.3)
    conds = [make_condition(world, *ROW_CONDITIONS[c % 3]) for c in range(5)]
    steering = Steering(window_mask(schedule, CONFIG), (ONE_ATTR,) * 5, CONFIG.gamma,
                        CONFIG.attribute_scale) if steered else None
    tapes = noise_tapes(_rngs(5, seed=8), WINDOW_STEPS, world.dimension)
    drawn = tapes.copy()
    first, failed = run_trajectories(world, schedule, conds, tapes, steering, 0, 12)
    kept = first.copy()
    second, failed_too = run_trajectories(world, schedule, conds, tapes, steering, 12, None, first)
    empty, _ = run_trajectories(world, schedule, conds, tapes, steering, 12, 12, first)
    assert not failed and not failed_too
    np.testing.assert_array_equal(first.view(np.int64), kept.view(np.int64))
    np.testing.assert_array_equal(empty.view(np.int64), kept.view(np.int64))
    np.testing.assert_array_equal(tapes.view(np.int64), drawn.view(np.int64))
    for a, b in itertools.combinations([first, second, empty, tapes], 2):
        assert not np.shares_memory(a, b)
    whole, _ = run_trajectories(world, schedule, conds, tapes, steering)
    np.testing.assert_array_equal(second.view(np.int64), whole.view(np.int64))
