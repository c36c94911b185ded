import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from steerlab.diffusion import mixture_log_density
from steerlab.evaluate import BiasScores, bias_score, discriminate, value_frequencies
from steerlab.world import (
    Attribute,
    AttributeSchema,
    TargetDistribution,
    conditional_components,
    make_condition,
)

from conftest import build_gender_world
from reference import quality_score

GENDER = AttributeSchema([Attribute("gender", ("male", "female"))])
UNIFORM = TargetDistribution({"gender": {"male": 0.5, "female": 0.5}})


def assignments(males, females):
    return [{"gender": "male"}] * males + [{"gender": "female"}] * females


class TestDiscriminator:
    def test_labels_obvious_points(self):
        world = build_gender_world(male_weight=0.5, separation=4.0)
        labels, _ = discriminate(world, np.array([3.9, 0.1]))
        assert labels["gender"] == "male"
        labels, _ = discriminate(world, np.array([0.2, -0.1]))
        assert labels["gender"] == "female"

    def test_exact_tie_prefers_schema_order(self):
        # equal weights and identity covariances: x equidistant from both
        # gender means has exactly equal marginal mass; "male" is declared first
        world = build_gender_world(male_weight=0.5, separation=4.0)
        labels, _ = discriminate(world, np.array([2.0, 0.0]))
        assert labels["gender"] == "male"

    def test_concept_posterior_sums_to_one(self):
        world = build_gender_world()
        for x in ([0.0, 0.0], [2.0, 3.0], [-1.0, 7.0]):
            _, post = discriminate(world, np.array(x))
            assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)
            assert set(post) == {"engineer", "teacher"}

    def test_concept_side_is_correct(self):
        world = build_gender_world(concept_gap=6.0)
        _, post = discriminate(world, np.array([2.0, 0.0]))
        assert post["engineer"] > 0.95
        _, post = discriminate(world, np.array([2.0, 6.0]))
        assert post["teacher"] > 0.95

    def test_agrees_with_bayes_brute_force(self):
        """Label every point by explicit scipy posterior mass; ours must agree."""
        covs = {
            ("engineer", "male"): [[2.0, 0.7], [0.7, 1.2]],
            ("teacher", "female"): [[0.6, -0.1], [-0.1, 1.8]],
        }
        world = build_gender_world(male_weight=0.65, covariances=covs)
        rng = np.random.default_rng(17)
        points = rng.uniform(-4, 10, size=(1000, 2))
        for x in points:
            dens = {
                "male": 0.0,
                "female": 0.0,
            }
            for c in world.components:
                dens[c.tags["gender"]] += c.weight * stats.multivariate_normal.pdf(
                    x, mean=c.mean, cov=c.covariance
                )
            expected = "male" if dens["male"] >= dens["female"] else "female"
            labels, _ = discriminate(world, x)
            assert labels["gender"] == expected


class TestValueFrequencies:
    def test_counts(self):
        freqs = value_frequencies(assignments(7, 3), GENDER)
        assert freqs == {"gender": {"male": 0.7, "female": 0.3}}

    def test_all_schema_values_present(self):
        freqs = value_frequencies(assignments(5, 0), GENDER)
        assert freqs["gender"]["female"] == 0.0


class TestBiasScore:
    def test_hand_case_single_prompt(self):
        """7 of 10 male against a 50/50 target scores exactly 0.2."""
        scores = bias_score([assignments(7, 3)], UNIFORM, GENDER)
        assert abs(scores.per_attribute["gender"] - 0.2) <= 1e-12
        assert abs(scores.combined - 0.2) <= 1e-12

    def test_hand_case_two_prompts(self):
        """Prompt deviations 0.2 and 0.4 average to 0.3 exactly."""
        scores = bias_score(
            [assignments(7, 3), assignments(9, 1)], UNIFORM, GENDER
        )
        assert abs(scores.per_prompt[0]["gender"] - 0.2) <= 1e-12
        assert abs(scores.per_prompt[1]["gender"] - 0.4) <= 1e-12
        assert abs(scores.per_attribute["gender"] - 0.3) <= 1e-12

    def test_hand_case_perfect_degenerate(self):
        """All-male output against an all-male target scores exactly zero."""
        target = TargetDistribution({"gender": {"male": 1.0, "female": 0.0}})
        scores = bias_score([assignments(10, 0)], target, GENDER)
        assert scores.combined == 0.0

    def test_multi_valued_attribute_averages_over_values(self):
        schema = AttributeSchema([Attribute("shade", ("a", "b", "c"))])
        target = TargetDistribution({"shade": {"a": 0.5, "b": 0.3, "c": 0.2}})
        sample = (
            [{"shade": "a"}] * 6 + [{"shade": "b"}] * 3 + [{"shade": "c"}] * 1
        )
        scores = bias_score([sample], target, schema)
        assert abs(scores.per_attribute["shade"] - (0.1 + 0.0 + 0.1) / 3) <= 1e-12

    def test_two_attributes_combined_is_their_mean(self):
        schema = AttributeSchema([
            Attribute("gender", ("male", "female")),
            Attribute("age", ("young", "old")),
        ])
        target = TargetDistribution({
            "gender": {"male": 0.5, "female": 0.5},
            "age": {"young": 0.5, "old": 0.5},
        })
        sample = [
            {"gender": "male", "age": "young"},
            {"gender": "male", "age": "young"},
            {"gender": "male", "age": "old"},
            {"gender": "female", "age": "old"},
        ]
        scores = bias_score([sample], target, schema)
        assert abs(scores.per_attribute["gender"] - 0.25) <= 1e-12
        assert abs(scores.per_attribute["age"] - 0.0) <= 1e-12
        assert abs(scores.combined - 0.125) <= 1e-12

    def test_rejects_ragged_or_empty(self):
        with pytest.raises(ValueError, match="at least one prompt"):
            bias_score([], UNIFORM, GENDER)
        with pytest.raises(ValueError, match="ragged"):
            bias_score([assignments(2, 0), assignments(2, 1)], UNIFORM, GENDER)
        with pytest.raises(ValueError, match="at least one sample"):
            bias_score([[], []], UNIFORM, GENDER)

    def test_target_schema_mismatch(self):
        bad = TargetDistribution({"age": {"young": 0.5, "old": 0.5}})
        with pytest.raises(Exception, match="target"):
            bias_score([assignments(1, 1)], bad, GENDER)

    @given(
        counts=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda t: sum(t) > 0),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({sum(r) for r in rows}) == 1),
        p_male=st.floats(min_value=0.0, max_value=1.0, width=32),
    )
    @settings(max_examples=150, deadline=None)
    def test_score_is_bounded_and_zero_iff_exact(self, counts, p_male):
        target = TargetDistribution(
            {"gender": {"male": float(p_male), "female": float(1.0 - p_male)}}
        )
        outcomes = [assignments(m, f) for m, f in counts]
        scores = bias_score(outcomes, target, GENDER)
        assert 0.0 <= scores.combined <= 1.0
        exact = all(
            abs(m / (m + f) - p_male) < 1e-12 for m, f in counts
        )
        if exact:
            assert scores.combined <= 1e-9
        if scores.combined == 0.0:
            for m, f in counts:
                assert abs(m / (m + f) - p_male) <= 1e-9

    def test_sampling_noise_shrinks_with_t(self):
        """E[B] under on-target Bernoulli sampling decays roughly as 1/sqrt(T)."""
        rng = np.random.default_rng(23)
        mean_b = {}
        for t in (8, 32, 128):
            scores = []
            for _ in range(200):
                males = int(rng.binomial(t, 0.5))
                s = bias_score([assignments(males, t - males)], UNIFORM, GENDER)
                scores.append(s.combined)
            mean_b[t] = float(np.mean(scores))
        assert mean_b[8] > mean_b[32] > mean_b[128]
        # 16x more samples should shrink the gap by roughly 4x (loose factor 2)
        assert mean_b[8] / mean_b[128] > 2.0


class TestQuality:
    def _exact_conditional_draws(self, world, concept, n, rng):
        mix = conditional_components(world, make_condition(world, concept))
        ks = rng.choice(len(mix.components), size=n, p=mix.weights)
        out = np.empty((n, world.dimension))
        for k in range(len(mix.components)):
            sel = ks == k
            c = mix.components[k]
            if sel.any():
                out[sel] = rng.multivariate_normal(c.mean, c.covariance, size=int(sel.sum()))
        return out

    def test_on_manifold_samples_score_high(self):
        world = build_gender_world(concept_gap=6.0)
        rng = np.random.default_rng(31)
        samples = self._exact_conditional_draws(world, "engineer", 1000, rng)
        q = quality_score(world, "engineer", samples)
        assert q.adherence >= 0.99
        assert math.isfinite(q.mean_log_density)

    def test_off_manifold_samples_score_low(self):
        world = build_gender_world(concept_gap=6.0)
        rng = np.random.default_rng(32)
        teacher_draws = self._exact_conditional_draws(world, "teacher", 400, rng)
        q = quality_score(world, "engineer", teacher_draws)
        assert q.adherence <= 0.05

    def test_mean_log_density_matches_direct_average(self):
        world = build_gender_world()
        rng = np.random.default_rng(33)
        samples = self._exact_conditional_draws(world, "engineer", 50, rng)
        q = quality_score(world, "engineer", samples)
        mix = conditional_components(world, make_condition(world, "engineer"))
        direct = np.mean([mixture_log_density(mix, x, 1.0) for x in samples])
        assert q.mean_log_density == pytest.approx(float(direct), abs=1e-12)

    def test_needs_samples(self):
        world = build_gender_world()
        with pytest.raises(ValueError):
            quality_score(world, "engineer", np.empty((0, 2)))
