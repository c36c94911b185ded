import dataclasses

import numpy as np
import pytest

from steerlab import InfeasibleConditionError, WorldValidationError
from steerlab.world import (
    Attribute,
    AttributeSchema,
    Component,
    Condition,
    MixtureWorld,
    TargetDistribution,
    conditional_components,
    edit_condition,
    embed_condition,
    make_condition,
)

from conftest import build_gender_world, single_gaussian_world, two_attribute_world


def make_component(concept="engineer", gender="male", mean=(0.0, 0.0), weight=0.5,
                   cov=None):
    return Component(
        mean=np.array(mean, dtype=float),
        covariance=np.eye(2) if cov is None else np.array(cov, dtype=float),
        weight=weight,
        concept=concept,
        tags={"gender": gender},
    )


GENDER = AttributeSchema([Attribute("gender", ("male", "female"))])


class TestAttributeSchema:
    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(WorldValidationError, match="duplicate attribute"):
            AttributeSchema([Attribute("a", ("x", "y")), Attribute("a", ("p", "q"))])

    def test_attribute_needs_two_values(self):
        with pytest.raises(WorldValidationError, match="at least 2"):
            AttributeSchema([Attribute("gender", ("male",))])

    def test_duplicate_values_rejected(self):
        with pytest.raises(WorldValidationError, match="duplicate value"):
            AttributeSchema([Attribute("gender", ("male", "male"))])

    def test_empty_schema_is_allowed(self):
        schema = AttributeSchema([])
        assert schema.names() == ()

    def test_values_of_unknown_attribute(self):
        with pytest.raises(WorldValidationError, match="unknown attribute"):
            GENDER.values_of("age")

    def test_digest_is_order_sensitive_and_stable(self):
        a = AttributeSchema([Attribute("g", ("m", "f")), Attribute("a", ("y", "o"))])
        b = AttributeSchema([Attribute("g", ("m", "f")), Attribute("a", ("y", "o"))])
        c = AttributeSchema([Attribute("a", ("y", "o")), Attribute("g", ("m", "f"))])
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestMixtureWorldValidation:
    def test_weights_are_normalized(self):
        world = MixtureWorld(2, GENDER, [
            make_component(gender="male", weight=2.0),
            make_component(gender="female", mean=(1, 0), weight=2.0),
        ])
        assert sum(c.weight for c in world.components) == pytest.approx(1.0)
        assert world.components[0].weight == pytest.approx(0.5)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(WorldValidationError, match="weight"):
            MixtureWorld(2, GENDER, [
                make_component(weight=0.0),
                make_component(gender="female", weight=1.0),
            ])

    @pytest.mark.parametrize("weights", [(np.inf, 1.0), (1e308, 1e308)])
    def test_non_finite_weight_or_total_rejected(self, weights):
        with pytest.raises(WorldValidationError, match="finite"):
            MixtureWorld(2, GENDER, [
                make_component(weight=weights[0]),
                make_component(gender="female", weight=weights[1]),
            ])

    def test_wrong_mean_dimension_rejected(self):
        bad = Component(np.zeros(3), np.eye(3), 1.0, "engineer", {"gender": "male"})
        ok = make_component(gender="female")
        with pytest.raises(WorldValidationError, match="mean shape"):
            MixtureWorld(2, GENDER, [bad, ok])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(WorldValidationError, match="symmetric"):
            MixtureWorld(2, GENDER, [
                make_component(cov=[[1.0, 0.5], [0.0, 1.0]]),
                make_component(gender="female"),
            ])

    def test_non_positive_definite_covariance_rejected(self):
        with pytest.raises(WorldValidationError, match="positive definite"):
            MixtureWorld(2, GENDER, [
                make_component(cov=[[1.0, 2.0], [2.0, 1.0]]),
                make_component(gender="female"),
            ])

    def test_unknown_tag_value_rejected(self):
        with pytest.raises(WorldValidationError, match="unknown value"):
            MixtureWorld(2, GENDER, [
                make_component(gender="robot"),
                make_component(gender="female"),
            ])

    def test_tags_must_cover_schema_exactly(self):
        untagged = Component(np.zeros(2), np.eye(2), 0.5, "engineer", {})
        with pytest.raises(WorldValidationError, match="gender"):
            MixtureWorld(2, GENDER, [untagged, make_component(gender="female")])

    def test_missing_value_coverage_diagnostic_names_the_gap(self):
        with pytest.raises(WorldValidationError) as err:
            MixtureWorld(2, GENDER, [
                make_component(concept="engineer", gender="male"),
                make_component(concept="teacher", gender="male", mean=(0, 4)),
                make_component(concept="teacher", gender="female", mean=(4, 4)),
            ])
        message = str(err.value)
        assert "engineer" in message
        assert "gender='female'" in message
        assert "infeasible" in message

    # Two bad components of each kind (and of two kinds, the first's checked
    # later on its own): the error names the first, with its own numbers.
    @pytest.mark.parametrize("first, second, message", [
        (dict(mean=(0.0, 0.0, 0.0)), dict(mean=(1.0,)), "mean shape (3,) != (2,)"),
        (dict(cov=np.eye(3)), dict(cov=[[1.0]]), "covariance shape (3, 3) != (2, 2)"),
        (dict(mean=(np.nan, 0.0)), dict(cov=[[np.inf, 0], [0, 1]]), "non-finite parameter"),
        (dict(cov=[[1.0, 0.5], [0.0, 1.0]]), dict(cov=[[1.0, 0.0], [0.3, 1.0]]),
         "covariance not symmetric"),
        (dict(cov=[[1.0, 1.7e308], [-1.7e308, 1.0]]), dict(cov=[[1.0, 0.0], [0.3, 1.0]]),
         "covariance not symmetric"),
        (dict(cov=[[1.0, 2.0], [2.0, 1.0]]), dict(cov=[[1.0, 3.0], [3.0, 1.0]]),
         "covariance not positive definite (min eigenvalue -1)"),
        (dict(weight=0.0), dict(weight=-1.0), "weight must be positive and finite, got 0.0"),
        (dict(gender="robot"), dict(gender="alien"),
         "unknown value 'robot' for attribute 'gender'"),
        (dict(weight=-1.0), dict(mean=(0.0, 0.0, 0.0)),
         "weight must be positive and finite, got -1.0"),
        (dict(cov=[[1.0, 2.0], [2.0, 1.0]]), dict(mean=(np.nan, 0.0)),
         "covariance not positive definite (min eigenvalue -1)"),
    ], ids=["mean-shape", "covariance-shape", "non-finite", "symmetric",
            "symmetric-past-float-range", "positive-definite",
            "weight", "tag", "weight-then-shape", "definite-then-non-finite"])
    def test_of_two_bad_components_the_first_is_named(self, first, second, message):
        components = [make_component(), make_component(**first), make_component(**second),
                      make_component(gender="female")]
        with pytest.raises(WorldValidationError) as err:
            MixtureWorld(2, GENDER, components)
        assert str(err.value) == f"component 1 (concept 'engineer'): {message}"
        assert err.value.index == 1

    def test_arrays_are_frozen(self):
        world = build_gender_world()
        with pytest.raises(ValueError):
            world.components[0].mean[0] = 99.0

    def test_the_callers_components_stay_as_given(self):
        given = [make_component(weight=0.1), make_component(gender="female", weight=0.2)]
        world = MixtureWorld(2, GENDER, given)
        assert [c.weight for c in given] == [0.1, 0.2]
        assert all(c.mean.flags.writeable and c.covariance.flags.writeable for c in given)
        given[0].mean[0] = 99.0
        given[0].tags["gender"] = "female"
        assert world.components[0].mean[0] == 0.0
        assert world.components[0].tags["gender"] == "male"
        assert [c.weight for c in world.components] == [0.1 / (0.1 + 0.2), 0.2 / (0.1 + 0.2)]

    def test_concepts_in_first_seen_order(self):
        world = build_gender_world()
        assert world.concepts == ("engineer", "teacher")

    def test_min_concept_separation(self):
        world = build_gender_world(male_weight=0.5, separation=4.0, concept_gap=6.0)
        # centroids: engineer (2, 0) vs teacher (2, 6)
        assert world.min_concept_separation() == pytest.approx(6.0)

    def test_single_concept_has_no_separation(self):
        assert single_gaussian_world().min_concept_separation() is None

    def test_digest_distinguishes_worlds(self):
        a = build_gender_world(male_weight=0.5)
        b = build_gender_world(male_weight=0.6)
        assert a.digest() != b.digest()
        assert a.digest() == build_gender_world(male_weight=0.5).digest()


class TestConditioning:
    def test_concept_filter_and_renormalization(self):
        world = build_gender_world(male_weight=0.65)
        mix = conditional_components(world, Condition("engineer", {}, np.zeros(2)))
        assert len(mix.components) == 2
        assert mix.weights.sum() == pytest.approx(1.0)
        # engineer male share: 0.325 / 0.5
        assert sorted(mix.weights) == pytest.approx(sorted([0.65, 0.35]))

    def test_constraint_filter(self):
        world = build_gender_world()
        cond = Condition("engineer", {"gender": "female"}, np.zeros(2))
        mix = conditional_components(world, cond)
        assert len(mix.components) == 1
        assert mix.components[0].tags["gender"] == "female"
        assert mix.weights[0] == pytest.approx(1.0)

    def test_unknown_concept_raises(self):
        world = build_gender_world()
        with pytest.raises(InfeasibleConditionError, match="nurse"):
            conditional_components(world, Condition("nurse", {}, np.zeros(2)))

    def test_infeasible_constraint_names_the_culprit(self):
        world = two_attribute_world()
        cond = Condition("worker", {"age": "old", "gender": "male"}, np.zeros(2))
        with pytest.raises(InfeasibleConditionError) as err:
            conditional_components(world, cond)
        # constraints are applied in sorted-name order, so age=old still leaves
        # a component and gender=male is the one that empties the slice
        assert "gender='male'" in str(err.value)

    def test_conditional_mixtures_are_cached(self):
        world = build_gender_world()
        cond = Condition("engineer", {}, np.zeros(2))
        assert conditional_components(world, cond) is conditional_components(world, cond)

    def test_prepared_mixtures_are_read_only(self):
        """Every later kernel call shares a prepared mixture, so neither its
        fields nor any of its arrays, the eigen-decomposition included, change."""
        world = build_gender_world(covariances={
            ("engineer", "male"): [[1.0, 0.3], [0.3, 0.8]],
            ("engineer", "female"): [[0.7, 0.0], [0.0, 1.2]],
            ("teacher", "male"): [[0.5, -0.2], [-0.2, 0.9]],
            ("teacher", "female"): [[1.5, 0.1], [0.1, 0.6]]})
        base = Condition("engineer", {}, np.zeros(2))
        edited = edit_condition(world, base, "gender", "female")
        for mix in (world.all_components(), conditional_components(world, base),
                    conditional_components(world, edited)):
            assert not mix.identity_cov
            arrays = {f.name: getattr(mix, f.name) for f in dataclasses.fields(mix)
                      if isinstance(getattr(mix, f.name), np.ndarray)}
            assert sorted(arrays) == ["eig_vals", "eig_vecs", "log_weights", "means", "weights"]
            for name, arr in arrays.items():
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 0.0
            for f in dataclasses.fields(mix):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(mix, f.name, getattr(mix, f.name))

    def test_make_condition_validates_eagerly(self):
        world = two_attribute_world()
        with pytest.raises(InfeasibleConditionError):
            make_condition(world, "worker", {"gender": "male", "age": "old"})
        with pytest.raises(WorldValidationError, match="unknown value"):
            make_condition(world, "worker", {"gender": "robot"})

    def test_make_condition_embedding_shape_checked(self):
        world = build_gender_world()
        with pytest.raises(WorldValidationError, match="finite vector"):
            make_condition(world, "engineer", {}, embedding=np.zeros(3))


class TestEmbedding:
    def test_zero_jitter_gives_exact_weighted_centroid(self):
        # equal weights, means (4,0) and (0,0) -> centroid (2,0)
        world = build_gender_world(male_weight=0.5, separation=4.0)
        emb = embed_condition(world, "engineer", jitter_seed=0, jitter_scale=0.0)
        np.testing.assert_allclose(emb, [2.0, 0.0], atol=1e-12)

    def test_weighted_centroid_respects_weights(self):
        world = build_gender_world(male_weight=0.65, separation=4.0)
        emb = embed_condition(world, "engineer", jitter_seed=0, jitter_scale=0.0)
        np.testing.assert_allclose(emb, [4.0 * 0.65, 0.0], atol=1e-12)

    def test_jitter_is_seed_deterministic(self):
        world = build_gender_world()
        a = embed_condition(world, "engineer", jitter_seed=7, jitter_scale=0.5)
        b = embed_condition(world, "engineer", jitter_seed=7, jitter_scale=0.5)
        c = embed_condition(world, "engineer", jitter_seed=8, jitter_scale=0.5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unknown_concept(self):
        with pytest.raises(InfeasibleConditionError):
            embed_condition(build_gender_world(), "nurse", jitter_seed=0)


class TestTargetDistribution:
    def test_valid_target(self):
        t = TargetDistribution({"gender": {"male": 0.3, "female": 0.7}})
        assert t.of("gender", "male") == pytest.approx(0.3)

    def test_must_sum_to_one(self):
        with pytest.raises(WorldValidationError, match="sum"):
            TargetDistribution({"gender": {"male": 0.3, "female": 0.6}})

    def test_no_negative_mass(self):
        with pytest.raises(WorldValidationError, match="negative"):
            TargetDistribution({"gender": {"male": -0.1, "female": 1.1}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_proportion_rejected(self, bad):
        with pytest.raises(WorldValidationError, match="non-finite proportion .* gender=male"):
            TargetDistribution({"gender": {"male": bad, "female": 0.5}})

    @pytest.mark.parametrize("bad", ["0.5", None, True, 1j, [0.5]])
    def test_proportion_that_is_not_a_real_number_rejected(self, bad):
        with pytest.raises(WorldValidationError, match="proportion .* gender=male is not a number"):
            TargetDistribution({"gender": {"male": bad, "female": 0.5}})

    def test_degenerate_point_mass_is_legal(self):
        t = TargetDistribution({"gender": {"male": 1.0, "female": 0.0}})
        assert t.of("gender", "female") == 0.0

    def test_validate_for_rejects_value_mismatch(self):
        t = TargetDistribution({"gender": {"male": 0.5, "robot": 0.5}})
        with pytest.raises(WorldValidationError, match="gender"):
            t.validate_for(GENDER)

    def test_validate_for_rejects_unknown_attribute(self):
        t = TargetDistribution({"age": {"young": 0.5, "old": 0.5}})
        with pytest.raises(WorldValidationError, match="age"):
            t.validate_for(GENDER)
