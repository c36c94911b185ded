import numpy as np
import pytest

import steerlab.guidance as guidance
from steerlab import InfeasibleConditionError, WorldValidationError
from steerlab.diffusion import (LatentState, analytic_epsilon, linear_schedule, noise_tapes,
                                run_trajectories)
from steerlab.evaluate import discriminate
from steerlab.guidance import (
    EMPTY_PLAN,
    GuidanceConfig,
    GuidancePlan,
    GuidanceProbe,
    PlanEntry,
    adaptive_latent_direction,
    combined_noise,
    edit_condition,
    resolve_steering,
    window_mask,
)
from steerlab.world import make_condition

from conftest import build_gender_world, two_attribute_world


class TestConfigAndPlan:
    def test_defaults(self):
        cfg = GuidanceConfig()
        assert cfg.gamma == 0.7
        assert cfg.window == (0.375, 0.625)
        assert cfg.attribute_scale == 1.0

    @pytest.mark.parametrize("gamma", [-0.01, 1.01])
    def test_gamma_bounds(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            GuidanceConfig(gamma=gamma)

    @pytest.mark.parametrize("window", [(0.5, 0.5), (0.6, 0.4), (-0.1, 0.5), (0.5, 1.1)])
    def test_window_bounds(self, window):
        with pytest.raises(ValueError, match="window"):
            GuidanceConfig(window=window)

    def test_scale_positive(self):
        with pytest.raises(ValueError, match="attribute_scale"):
            GuidanceConfig(attribute_scale=0.0)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_scale_finite(self, scale):
        with pytest.raises(ValueError, match="attribute_scale must be positive and finite"):
            GuidanceConfig(attribute_scale=scale)

    def test_plan_entry_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            PlanEntry("male", "male")

    def test_plan_round_trip(self):
        plan = GuidancePlan((("gender", PlanEntry("female", "male")),))
        assert dict(plan.entries)["gender"].target == "female"
        assert GuidancePlan(tuple(dict(plan.entries).items())) == plan
        assert EMPTY_PLAN.entries == ()


class TestWindow:
    def test_default_window_step_count(self):
        """(0.375, 0.625) over 1000 steps admits exactly 250 of them."""
        sched = linear_schedule(1000)
        mask = window_mask(sched, GuidanceConfig())
        assert mask.shape == (1000,) and mask.dtype == bool
        assert mask.sum() == 250

    def test_first_reverse_step_is_progress_zero(self):
        sched = linear_schedule(1000)
        assert not window_mask(sched, GuidanceConfig())[999]          # progress 0.0
        assert window_mask(sched, GuidanceConfig(window=(0.0, 0.5)))[999]

    def test_window_lower_edge_closed_upper_open(self):
        sched = linear_schedule(5)  # progress grid: 0, .25, .5, .75, 1
        mask = window_mask(sched, GuidanceConfig(window=(0.25, 0.75)))
        # t_index 3 -> progress .25 (in), 2 -> .5 (in), 1 -> .75 (out)
        assert np.flatnonzero(mask).tolist() == [2, 3]

    def test_full_window_covers_every_step(self):
        sched = linear_schedule(64)
        assert window_mask(sched, GuidanceConfig(window=(0.0, 1.0))).all()

    def test_single_step_schedule_counts_as_progress_zero(self):
        sched = linear_schedule(1, beta_start=0.02, beta_end=0.02)
        assert window_mask(sched, GuidanceConfig(window=(0.0, 0.5))).tolist() == [True]
        assert window_mask(sched, GuidanceConfig(window=(0.25, 0.75))).tolist() == [False]

    def test_window_ending_at_one_is_closed_on_the_last_step(self):
        sched = linear_schedule(5)  # progress grid: 0, .25, .5, .75, 1
        assert np.flatnonzero(window_mask(sched, GuidanceConfig(window=(0.75, 1.0)))).tolist() \
            == [0, 1]
        assert np.flatnonzero(window_mask(sched, GuidanceConfig(window=(0.5, 0.6)))).tolist() \
            == [2]


class TestEditCondition:
    def test_edit_pins_value_and_keeps_embedding(self):
        world = build_gender_world()
        cond = make_condition(world, "engineer")
        edited = edit_condition(world, cond, "gender", "female")
        assert edited.constraints == {"gender": "female"}
        assert cond.constraints == {}
        assert edited.embedding is cond.embedding
        assert edited.concept == "engineer"

    def test_edit_overrides_existing_pin(self):
        world = build_gender_world()
        cond = make_condition(world, "engineer", {"gender": "male"})
        edited = edit_condition(world, cond, "gender", "female")
        assert edited.constraints == {"gender": "female"}

    def test_edit_unknown_value(self):
        world = build_gender_world()
        cond = make_condition(world, "engineer")
        with pytest.raises(WorldValidationError):
            edit_condition(world, cond, "gender", "robot")

    def test_infeasible_edit_raises(self):
        world = two_attribute_world()
        cond = make_condition(world, "worker", {"age": "old"})
        with pytest.raises(InfeasibleConditionError):
            edit_condition(world, cond, "gender", "male")


class TestAdaptiveLatentDirection:
    def test_antisymmetric_in_the_pair(self):
        world = build_gender_world(male_weight=0.65)
        sched = linear_schedule(100, beta_end=0.1)
        cond = make_condition(world, "engineer")
        state = LatentState(np.array([1.0, 0.5]), 60)
        fwd = adaptive_latent_direction(world, sched, state, cond, "gender",
                                        ("male", "female"))
        rev = adaptive_latent_direction(world, sched, state, cond, "gender",
                                        ("female", "male"))
        np.testing.assert_array_equal(fwd, -rev)

    def test_identical_pair_is_exactly_zero(self):
        world = build_gender_world()
        sched = linear_schedule(100, beta_end=0.1)
        cond = make_condition(world, "engineer")
        state = LatentState(np.array([0.3, -0.2]), 50)
        out = adaptive_latent_direction(world, sched, state, cond, "gender",
                                        ("male", "male"))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_direction_aligns_with_value_axis(self):
        """Gender values differ only along the first coordinate, so the
        direction's second coordinate must vanish."""
        world = build_gender_world(male_weight=0.5, separation=4.0)
        sched = linear_schedule(100, beta_end=0.1)
        cond = make_condition(world, "engineer")
        for t in (10, 50, 90):
            for x in (np.array([0.0, 0.0]), np.array([2.0, 1.0]), np.array([-1.0, 3.0])):
                vec = adaptive_latent_direction(world, sched, LatentState(x, t),
                                                cond, "gender", ("male", "female"))
                assert abs(vec[1]) < 1e-9
                # epsilon-space directions point away from the target value;
                # the reverse update subtracts them, moving x toward it
                assert vec[0] < 0.0


class TestCombinedNoise:
    def _setup(self):
        world = build_gender_world(male_weight=0.65)
        sched = linear_schedule(100, beta_end=0.1)
        cond = make_condition(world, "engineer")
        plan = GuidancePlan((("gender", PlanEntry("female", "male")),))
        return world, sched, cond, plan

    def test_gamma_one_is_bitwise_base(self):
        world, sched, cond, plan = self._setup()
        cfg = GuidanceConfig(gamma=1.0, window=(0.0, 1.0))
        state = LatentState(np.array([1.0, 1.0]), 50)
        base = analytic_epsilon(world, sched, state, cond)
        out = combined_noise(world, sched, state, cond, plan, cfg)
        np.testing.assert_array_equal(out, base)

    def test_empty_plan_is_base(self):
        world, sched, cond, _ = self._setup()
        cfg = GuidanceConfig(gamma=0.5, window=(0.0, 1.0))
        state = LatentState(np.array([1.0, 1.0]), 50)
        base = analytic_epsilon(world, sched, state, cond)
        out = combined_noise(world, sched, cond=cond, state=state,
                             plan=EMPTY_PLAN, config=cfg)
        np.testing.assert_array_equal(out, base)

    def test_blend_arithmetic(self, monkeypatch):
        """gamma=0.6 with base (1,0) and unit attribute term (0,1) -> (0.6, 0.4)."""
        world, sched, cond, plan = self._setup()
        monkeypatch.setattr(guidance, "analytic_epsilon",
                            lambda *a, **k: np.array([1.0, 0.0]))
        monkeypatch.setattr(guidance, "adaptive_latent_direction",
                            lambda *a, **k: np.array([0.0, 1.0]))
        cfg = GuidanceConfig(gamma=0.6, window=(0.0, 1.0), attribute_scale=1.0)
        out = combined_noise(world, sched, LatentState(np.zeros(2), 50), cond, plan, cfg)
        np.testing.assert_allclose(out, [0.6, 0.4], atol=1e-15)

    def test_multi_attribute_plans_average(self, monkeypatch):
        world = two_attribute_world()
        sched = linear_schedule(100, beta_end=0.1)
        cond = make_condition(world, "worker")
        plan = GuidancePlan((
            ("gender", PlanEntry("female", "male")),
            ("age", PlanEntry("old", "young")),
        ))
        # antisymmetric in the pair, like the real direction
        directions = {("female", "male"): np.array([2.0, 0.0]),
                      ("young", "old"): np.array([0.0, 4.0])}
        monkeypatch.setattr(guidance, "analytic_epsilon",
                            lambda *a, **k: np.zeros(2))
        monkeypatch.setattr(
            guidance, "adaptive_latent_direction",
            lambda world, sched, state, cond, attribute, pair:
                directions[pair] if pair in directions else -directions[pair[::-1]],
        )
        cfg = GuidanceConfig(gamma=0.5, window=(0.0, 1.0), attribute_scale=1.0)
        out = combined_noise(world, sched, LatentState(np.zeros(2), 50), cond, plan, cfg)
        # mean of (2,0) and -(0,4) is (1,-2); blend halves it
        np.testing.assert_allclose(out, [0.5, -1.0], atol=1e-15)

    def test_no_edited_evaluations_outside_window(self, monkeypatch):
        world, sched, cond, plan = self._setup()
        calls = []
        real = guidance.adaptive_latent_direction
        monkeypatch.setattr(
            guidance, "adaptive_latent_direction",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        cfg = GuidanceConfig(gamma=0.5, window=(0.375, 0.625))
        for t in range(sched.steps):
            combined_noise(world, sched, LatentState(np.zeros(2), t), cond, plan, cfg)
        inside = window_mask(sched, cfg).sum()
        assert len(calls) == inside
        assert 0 < inside < sched.steps

    def test_gamma_one_never_evaluates_directions(self, monkeypatch):
        world, sched, cond, plan = self._setup()

        def boom(*a, **k):
            raise AssertionError("gamma=1 must not evaluate attribute directions")

        monkeypatch.setattr(guidance, "adaptive_latent_direction", boom)
        cfg = GuidanceConfig(gamma=1.0, window=(0.0, 1.0))
        combined_noise(world, sched, LatentState(np.zeros(2), 50), cond, plan, cfg)

    def test_probe_records_only_inside_window(self):
        world, sched, cond, plan = self._setup()
        cfg = GuidanceConfig(gamma=0.5, window=(0.375, 0.625))
        probe = GuidanceProbe()
        for t in range(sched.steps):
            combined_noise(world, sched, LatentState(np.array([1.0, 0.2]), t),
                           cond, plan, cfg, probe=probe)
        inside = window_mask(sched, cfg).sum()
        assert len(probe.stream(0)) == inside
        for t_index, cosine, base_norm, attr_norm in probe.stream(0):
            assert window_mask(sched, cfg)[t_index]
            assert -1.0 - 1e-9 <= cosine <= 1.0 + 1e-9
            assert base_norm >= 0.0 and attr_norm >= 0.0


class TestSteeringEfficacy:
    def test_guidance_moves_rates_toward_target(self):
        """Steering engineer toward female must beat the vanilla female rate
        by a clear margin (one-sided two-proportion z-test at alpha=0.01).
        Each arm's streams share one generator, drawn in turn as `sample`
        would draw them one point at a time."""
        world = build_gender_world(male_weight=0.65)
        sched = linear_schedule(200, beta_end=0.1)
        cond = make_condition(world, "engineer", jitter_seed=515)
        plan = GuidancePlan((("gender", PlanEntry("female", "male")),))
        cfg = GuidanceConfig(gamma=0.7, window=(0.375, 0.625), attribute_scale=1.0)

        def run(steering, seed, n=600):
            rng = np.random.default_rng(seed)
            x, failed = run_trajectories(world, sched, [cond] * n,
                                         noise_tapes([rng] * n, sched.steps, world.dimension),
                                         steering)
            assert not failed
            return sum(discriminate(world, p)[0]["gender"] == "female" for p in x), n

        base_f, n1 = run(None, seed=1)
        guided_f, n2 = run(resolve_steering(plan, cfg, window_mask(sched, cfg)),
                           seed=2)

        p1, p2 = base_f / n1, guided_f / n2
        pooled = (base_f + guided_f) / (n1 + n2)
        z = (p2 - p1) / np.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        assert z > 2.33, f"vanilla {p1:.3f} vs guided {p2:.3f}, z={z:.2f}"


@pytest.mark.parametrize("d", range(2, 17))
def test_probe_records_each_row_as_per_row_norm_and_dot(d):
    """The batched record gives, row by row, the bits of np.linalg.norm and of
    `@` on that row alone; a zero row has cosine 0."""
    rng = np.random.default_rng(d)
    base = rng.standard_normal((7, d)) * 10.0 ** rng.integers(-3, 4, size=(7, 1))
    attr = rng.standard_normal((7, d))
    attr[3] = 0.0
    probe = GuidanceProbe()
    probe.record(11, base, attr)
    expected = []
    for b, a in zip(base, attr):
        nb, na = float(np.linalg.norm(b)), float(np.linalg.norm(a))
        expected.append((11, float(b @ a) / (nb * na) if nb > 0 and na > 0 else 0.0, nb, na))
    assert [probe.stream(b)[0] for b in range(7)] == expected
