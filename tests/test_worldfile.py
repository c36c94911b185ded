import dataclasses
import operator
import textwrap

import numpy as np
import pytest

from steerlab import WorldFileError, worldfile
from steerlab.worldfile import default_world_path, load_world, parse_world

GOOD = textwrap.dedent("""\
    # a compact balanced world
    dimension 2
    attribute gender male female

    component engineer gender=male   mean=4,0 weight=0.25
    component engineer gender=female mean=0,0 weight=0.25   # trailing comment
    component teacher  gender=male   mean=4,6 weight=0.25 cov=2,0;0,1
    component teacher  gender=female mean=0,6 weight=0.25
""")


def test_parse_round_trip():
    world = parse_world(GOOD)
    assert world.dimension == 2
    assert world.schema.names() == ("gender",)
    assert world.concepts == ("engineer", "teacher")
    np.testing.assert_array_equal(world.components[2].covariance, [[2, 0], [0, 1]])
    assert world.components[0].weight == pytest.approx(0.25)


def test_default_world_loads_and_is_skewed():
    world = load_world(default_world_path())
    assert world.dimension == 2
    assert world.schema.names() == ("gender",)
    # the packaged world is deliberately gender-skewed per concept
    engineer_male = next(
        c for c in world.components
        if c.concept == "engineer" and c.tags["gender"] == "male"
    )
    engineer_female = next(
        c for c in world.components
        if c.concept == "engineer" and c.tags["gender"] == "female"
    )
    assert engineer_male.weight > engineer_female.weight


def _expect_error(text, lineno, fragment):
    with pytest.raises(WorldFileError) as err:
        parse_world(text, path="bad.world")
    assert err.value.line == lineno
    assert fragment in str(err.value)
    assert "bad.world" in str(err.value)


class TestLineAnchoredErrors:
    def test_unknown_directive(self):
        _expect_error("dimension 2\nwibble 3\n", 2, "unknown directive")

    def test_dimension_twice(self):
        _expect_error("dimension 2\ndimension 3\n", 2, "already declared")

    def test_dimension_not_integer(self):
        _expect_error("dimension two\n", 1, "positive integer")

    def test_component_before_dimension(self):
        _expect_error("component engineer mean=0,0 weight=1\n", 1,
                      "dimension must be declared before")

    def test_attribute_after_component(self):
        text = (
            "dimension 1\n"
            "component a mean=0 weight=1\n"
            "attribute gender male female\n"
        )
        _expect_error(text, 3, "before components")

    def test_attribute_too_few_values(self):
        _expect_error("attribute gender male\n", 1, "at least 2 values")

    def test_attribute_declared_twice(self):
        text = "attribute g a b\nattribute g c d\n"
        _expect_error(text, 2, "declared twice")

    def test_missing_mean(self):
        _expect_error("dimension 2\ncomponent a weight=1\n", 2, "missing mean")

    def test_missing_weight(self):
        _expect_error("dimension 2\ncomponent a mean=0,0\n", 2, "missing weight")

    def test_nonpositive_weight(self):
        _expect_error("dimension 2\ncomponent a mean=0,0 weight=0\n", 2, "positive")

    @pytest.mark.parametrize("pairs", [
        "mean=0,0 weight=inf", "mean=nan,0 weight=1",
        "mean=0,0 weight=1 cov=1,0;0,inf",
    ])
    def test_non_finite_numbers(self, pairs):
        _expect_error(f"dimension 2\ncomponent a {pairs}\n", 2, "finite")

    def test_weights_summing_past_float_range(self):
        text = ("dimension 1\ncomponent a mean=0 weight=1e308\n"
                "component a mean=1 weight=1e308\n")
        with pytest.raises(WorldFileError, match="finite total"):
            parse_world(text)

    def test_wrong_vector_length(self):
        _expect_error("dimension 2\ncomponent a mean=0,0,0 weight=1\n", 2, "entries")

    def test_unparseable_vector(self):
        _expect_error("dimension 2\ncomponent a mean=x,y weight=1\n", 2, "bad vector")

    def test_bad_covariance_shape(self):
        _expect_error("dimension 2\ncomponent a mean=0,0 weight=1 cov=1,0\n", 2, "rows")

    def test_asymmetric_covariance(self):
        _expect_error(
            "dimension 2\ncomponent a mean=0,0 weight=1 cov=1,0.5;0,1\n", 2, "symmetric"
        )

    def test_indefinite_covariance(self):
        _expect_error(
            "dimension 2\ncomponent a mean=0,0 weight=1 cov=1,2;2,1\n", 2,
            "positive definite",
        )

    def test_unknown_component_key(self):
        _expect_error("dimension 2\ncomponent a mean=0,0 weight=1 shape=round\n", 2,
                      "unknown component key")

    def test_unknown_attribute_value(self):
        text = (
            "dimension 2\n"
            "attribute gender male female\n"
            "component a gender=robot mean=0,0 weight=1\n"
        )
        _expect_error(text, 3, "unknown value")

    def test_missing_attribute_tag(self):
        text = (
            "dimension 2\n"
            "attribute gender male female\n"
            "component a mean=0,0 weight=1\n"
        )
        _expect_error(text, 3, "missing a value for attribute")

    def test_not_key_value(self):
        _expect_error("dimension 2\ncomponent a mean=0,0 weight=1 rogue\n", 2,
                      "expected key=value")


    @pytest.mark.parametrize("text, lineno", [
        ("dimension 2\nattribute gen,der male female\n", 2),
        ("dimension 2\nattribute gender ma|le female\n", 2),
        ("dimension 2\nattribute gender male fe:male\n", 2),
        ("dimension 2\nattribute gender male female\n"
         "component eng,ineer gender=male mean=0,0 weight=1\n", 3),
    ])
    def test_names_outside_the_safe_charset(self, text, lineno):
        _expect_error(text, lineno, "must match [A-Za-z0-9_.-]+")


class TestFileLevelErrors:
    def test_missing_dimension(self):
        with pytest.raises(WorldFileError, match="missing dimension"):
            parse_world("attribute gender male female\n")

    def test_no_components(self):
        with pytest.raises(WorldFileError, match="no components"):
            parse_world("dimension 2\n")

    def test_coverage_failure_reported_at_file_level(self):
        text = (
            "dimension 2\n"
            "attribute gender male female\n"
            "component a gender=male mean=0,0 weight=1\n"
            "component b gender=male mean=4,0 weight=1\n"
            "component b gender=female mean=4,2 weight=1\n"
        )
        with pytest.raises(WorldFileError) as err:
            parse_world(text, path="gap.world")
        assert err.value.line == 0
        assert "attribute control infeasible" in str(err.value)

    def test_load_world_not_utf8_names_file_and_line(self, tmp_path):
        """A Latin-1 byte used to escape as a bare UnicodeDecodeError."""
        path = tmp_path / "latin.world"
        path.write_bytes(GOOD.replace("gender male", "g\xe9nder male").encode("latin-1"))
        with pytest.raises(WorldFileError, match=r"latin\.world:3: not UTF-8 text") as err:
            load_world(str(path))
        assert err.value.line == 3

    def test_load_world_missing_file(self):
        with pytest.raises(OSError):
            load_world("/nonexistent/void.world")


class TestLoadedWorlds:
    """load_world parses and validates each distinct file content once."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        """The texts load_world has parsed in the test."""
        seen = []

        def counted(text, path="<world>"):
            seen.append(text)
            return parse_world(text, path)

        monkeypatch.setattr(worldfile, "parse_world", counted)
        return seen

    @staticmethod
    def _text(tmp_path, text=GOOD):
        """The text under a comment naming the test's directory, so no other test loads it."""
        return f"# {tmp_path}\n{text}"

    def test_same_bytes_from_one_path_or_two_give_one_world(self, tmp_path, parses):
        a, b = tmp_path / "a.world", tmp_path / "b.world"
        a.write_text(self._text(tmp_path))
        b.write_text(self._text(tmp_path))
        world = load_world(str(a))
        assert load_world(str(a)) is world
        assert load_world(str(b)) is world
        assert len(parses) == 1

    def test_rewritten_file_gives_the_new_world_and_digest(self, tmp_path):
        path = tmp_path / "w.world"
        path.write_text(self._text(tmp_path))
        old = load_world(str(path))
        edited = self._text(tmp_path, GOOD.replace("mean=4,6", "mean=5,6"))
        path.write_text(edited)
        new = load_world(str(path))
        assert new is not old
        assert new.components[2].mean.tolist() == [5.0, 6.0]
        assert new.digest() != old.digest()
        assert new.digest() == parse_world(edited).digest()

    def test_file_broken_after_a_good_load_names_file_and_line(self, tmp_path):
        path = tmp_path / "w.world"
        path.write_text(self._text(tmp_path))
        world = load_world(str(path))
        path.write_text(self._text(tmp_path, GOOD.replace("weight=0.25 cov", "weight=x cov")))
        with pytest.raises(WorldFileError, match=r"w\.world:8: bad weight 'x'"):
            load_world(str(path))
        path.write_text(self._text(tmp_path))
        assert load_world(str(path)) is world

    def test_bad_file_is_not_kept(self, tmp_path, parses):
        bad = self._text(tmp_path, "dimension 2\nwibble 3\n")
        for name in ("a.world", "b.world"):
            (tmp_path / name).write_text(bad)
            with pytest.raises(WorldFileError, match=rf"{name}:3: unknown directive"):
                load_world(str(tmp_path / name))
        assert len(parses) == 2

    def test_only_the_latest_contents_are_kept(self, tmp_path, parses):
        paths = []
        for i in range(worldfile._LOADED_MAX + 1):
            paths.append(tmp_path / f"{i}.world")
            paths[-1].write_text(self._text(tmp_path, f"# {i}\n{GOOD}"))
            load_world(str(paths[-1]))
        load_world(str(paths[-1]))
        assert len(parses) == worldfile._LOADED_MAX + 1
        load_world(str(paths[0]))
        assert len(parses) == worldfile._LOADED_MAX + 2

    def test_derived_values_equal_fresh_ones_and_the_centroid_is_read_only(self, tmp_path):
        path = tmp_path / "w.world"
        path.write_text(self._text(tmp_path))
        world = load_world(str(path))
        digest, centroid = world.digest(), world.concept_centroid("teacher")
        world = load_world(str(path))
        fresh = parse_world(GOOD)
        assert world.digest() is digest
        assert digest == fresh.digest()
        assert world.concept_centroid("teacher") is centroid
        np.testing.assert_array_equal(centroid, [2.0, 6.0])
        np.testing.assert_array_equal(centroid, fresh.concept_centroid("teacher"))
        assert world.min_concept_separation() == 6.0
        with pytest.raises(ValueError, match="read-only"):
            centroid[0] = 0.0

    @pytest.mark.parametrize("write, error", [
        (lambda w: setattr(w.components[0], "weight", 1.0), dataclasses.FrozenInstanceError),
        (lambda w: setattr(w.components[0], "mean", np.zeros(2)),
         dataclasses.FrozenInstanceError),
        (lambda w: operator.setitem(w.components[0].covariance, (0, 1), 0.5), ValueError),
        (lambda w: operator.setitem(w.components[0].tags, "gender", "female"), TypeError),
        (lambda w: w.components[0].tags.update(gender="female"), AttributeError),
        (lambda w: operator.setitem(w.components, 0, w.components[1]), TypeError),
        (lambda w: w.components.append(w.components[0]), AttributeError),
        (lambda w: w.all_components().components.append(w.components[0]), AttributeError),
    ], ids=["weight", "mean", "covariance-entry", "tag", "tags-update", "component",
            "components-append", "mixture-components-append"])
    def test_a_loaded_world_cannot_be_changed(self, tmp_path, write, error):
        """A write raises, and the next load of the same bytes gives the world
        and digest of a fresh parse."""
        path = tmp_path / "w.world"
        path.write_text(self._text(tmp_path))
        world = load_world(str(path))
        digest = world.digest()
        with pytest.raises(error):
            write(world)
        again = load_world(str(path))
        fresh = parse_world(self._text(tmp_path))
        assert again.digest() == digest == fresh.digest()
        assert [(c.weight, dict(c.tags)) for c in again.components] == \
            [(c.weight, dict(c.tags)) for c in fresh.components]
