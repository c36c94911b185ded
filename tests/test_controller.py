import copy
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steerlab import MemorySnapshotError
from steerlab.cli import main
from steerlab.controller import (
    POLICY_KINDS,
    Cluster,
    IndicatorPolicy,
    MemoryModule,
    _container_checksum,
    consolidate,
    default_match_threshold,
    lookup,
    plan_space,
    restore_memory,
    snapshot_memory,
)
from steerlab.world import Attribute, AttributeSchema, Condition, TargetDistribution

from conftest import build_gender_world, decide_matching, record_matching, single_gaussian_world

GENDER = AttributeSchema([Attribute("gender", ("male", "female"))])
UNIFORM = TargetDistribution({"gender": {"male": 0.5, "female": 0.5}})
TRI = AttributeSchema([Attribute("shade", ("a", "b", "c"))])


def cond_at(*coords):
    return Condition("p", {}, np.array(coords, dtype=float))


def memory_with(clusters, budget=8, tau=1.0):
    mem = MemoryModule(budget=budget, tau=tau)
    mem.clusters.extend(clusters)
    return mem


class TestLookup:
    def test_no_match_outside_threshold(self):
        mem = memory_with([
            Cluster(np.array([0.0, 0.0])),
            Cluster(np.array([5.0, 5.0])),
        ], tau=1.0)
        # distance to both centroids is ~3.536, above tau
        assert lookup(mem, np.array([2.5, 2.5])) is None

    def test_nearest_cluster_wins(self):
        mem = memory_with([
            Cluster(np.array([0.0, 0.0])),
            Cluster(np.array([5.0, 5.0])),
        ], tau=2.0)
        assert lookup(mem, np.array([4.5, 5.0])) == 1

    def test_tie_takes_lowest_index(self):
        mem = memory_with([
            Cluster(np.array([0.0, 0.0])),
            Cluster(np.array([2.0, 0.0])),
        ], tau=2.0)
        assert lookup(mem, np.array([1.0, 0.0])) == 0

    def test_threshold_is_strict(self):
        mem = memory_with([Cluster(np.array([0.0, 0.0]))], tau=1.0)
        assert lookup(mem, np.array([1.0, 0.0])) is None
        assert lookup(mem, np.array([1.0 - 1e-9, 0.0])) == 0

    @pytest.mark.filterwarnings("error")
    def test_huge_centroid_is_out_of_reach_without_a_warning(self):
        """A restored centroid like [1e308, 0] is at distance inf, silently."""
        mem = memory_with([Cluster(np.array([1e308, 0.0])), Cluster(np.array([0.0, 0.0]))],
                          tau=1.0)
        assert lookup(mem, np.array([-1e308, 0.0])) is None
        assert lookup(mem, np.array([0.5, 0.0])) == 1

    @given(dim=st.integers(1, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lowest_index_of_the_nearest_strictly_within_tau(self, dim, data):
        """On a small integer grid exact ties are common.  Squared distances are
        integers, so the oracle is exact: the norm is below tau = k / 2 exactly
        when 4 * d2 < k * k."""
        point = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        centroids = data.draw(st.lists(point, max_size=8))
        embedding = data.draw(point)
        k = data.draw(st.integers(1, 12))
        mem = memory_with([Cluster(np.array(c, dtype=float)) for c in centroids], tau=k / 2)
        d2 = [sum((e - x) ** 2 for e, x in zip(embedding, c)) for c in centroids]
        expected = d2.index(min(d2)) if d2 and 4 * min(d2) < k * k else None
        assert lookup(mem, np.array(embedding, dtype=float)) == expected

    def test_dimension_mismatch(self):
        mem = memory_with([Cluster(np.array([0.0, 0.0]))])
        with pytest.raises(ValueError, match="dimension"):
            lookup(mem, np.array([1.0, 0.0, 0.0]))

    def test_module_validation(self):
        with pytest.raises(ValueError, match="budget"):
            MemoryModule(budget=0, tau=1.0)
        with pytest.raises(ValueError, match="tau"):
            MemoryModule(budget=1, tau=0.0)

    def test_default_threshold_from_world(self):
        world = build_gender_world(concept_gap=6.0)
        assert default_match_threshold(world) == pytest.approx(3.0)
        assert default_match_threshold(single_gaussian_world()) == 1.0


class TestDecideDeficit:
    def deficit(self):
        return IndicatorPolicy("deficit")

    def test_steers_toward_underrepresented(self):
        mem = memory_with([
            Cluster(np.zeros(2), total=4,
                    counts={"gender": {"male": 3, "female": 1}}),
        ])
        plan = decide_matching(mem, cond_at(0, 0), GENDER, UNIFORM, self.deficit())
        entry = dict(plan.entries)["gender"]
        assert entry.target == "female"
        assert entry.reference == "male"

    def test_unmatched_prompt_uses_target_alone(self):
        mem = MemoryModule(budget=4, tau=1.0)
        skew = TargetDistribution({"gender": {"male": 1.0, "female": 0.0}})
        entry = dict(decide_matching(mem, cond_at(9, 9),
                                     GENDER, skew, self.deficit()).entries)["gender"]
        assert entry.target == "male"
        assert entry.reference == "female"

    def test_exact_tie_breaks_by_schema_order(self):
        mem = memory_with([
            Cluster(np.zeros(2), total=10,
                    counts={"gender": {"male": 5, "female": 5}}),
        ])
        entry = dict(decide_matching(mem, cond_at(0, 0),
                                     GENDER, UNIFORM, self.deficit()).entries)["gender"]
        assert entry.target == "male"
        assert entry.reference == "female"

    def test_three_valued_attribute(self):
        target = TargetDistribution({"shade": {"a": 0.2, "b": 0.3, "c": 0.5}})
        mem = memory_with([
            Cluster(np.zeros(2), total=10,
                    counts={"shade": {"a": 5, "b": 3, "c": 2}}),
        ])
        entry = dict(decide_matching(mem, cond_at(0, 0),
                                     TRI, target, self.deficit()).entries)["shade"]
        # deficits: a -0.3, b 0.0, c +0.3; excesses among (a, b): a +0.3, b 0.0
        assert entry.target == "c"
        assert entry.reference == "a"

    def test_decide_never_mutates_memory(self):
        mem = memory_with([
            Cluster(np.zeros(2), total=4, counts={"gender": {"male": 3, "female": 1}}),
        ])
        before = copy.deepcopy(mem.clusters)
        decide_matching(mem, cond_at(0, 0), GENDER, UNIFORM, self.deficit())
        after = mem.clusters
        assert len(before) == len(after)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b.centroid, a.centroid)
            assert b.total == a.total and b.counts == a.counts

    def test_target_must_match_schema(self):
        mem = MemoryModule(budget=2, tau=1.0)
        bad = TargetDistribution({"age": {"young": 0.5, "old": 0.5}})
        with pytest.raises(Exception, match="target"):
            decide_matching(mem, cond_at(0, 0), GENDER, bad, self.deficit())

    def test_boundedness_under_perfect_enforcement(self):
        """With outcomes always honoring the plan, realized counts stay within
        one generation of the target share at every prefix."""
        for p_male in (0.0, 0.3, 0.5, 0.77, 1.0):
            target = TargetDistribution({"gender": {"male": p_male, "female": 1 - p_male}})
            mem = MemoryModule(budget=2, tau=1.0)
            cond = cond_at(0, 0)
            counts = {"male": 0, "female": 0}
            for n in range(1, 1001):
                plan = decide_matching(mem, cond, GENDER, target, IndicatorPolicy("deficit"))
                chosen = dict(plan.entries)["gender"].target
                record_matching(mem, cond, {"gender": chosen})
                counts[chosen] += 1
                for v, p in (("male", p_male), ("female", 1 - p_male)):
                    assert abs(counts[v] - n * p) <= 1.0 + 1e-9


class TestDecideProbabilistic:
    def test_needs_rng(self):
        mem = MemoryModule(budget=2, tau=1.0)
        with pytest.raises(ValueError, match="rng"):
            decide_matching(mem, cond_at(0, 0), GENDER, UNIFORM, IndicatorPolicy("probabilistic"))

    def test_target_follows_proportions(self):
        mem = MemoryModule(budget=2, tau=1.0)
        target = TargetDistribution({"gender": {"male": 0.8, "female": 0.2}})
        policy, rng = IndicatorPolicy("probabilistic"), np.random.default_rng(5)
        males = 0
        for _ in range(300):
            entry = dict(decide_matching(mem, cond_at(0, 0),
                                         GENDER, target, policy, rng).entries)["gender"]
            males += entry.target == "male"
            assert entry.reference != entry.target
        assert 210 <= males <= 270  # ~Binomial(300, 0.8)

    def test_reference_uniform_over_rest(self):
        mem = MemoryModule(budget=2, tau=1.0)
        target = TargetDistribution({"shade": {"a": 1.0, "b": 0.0, "c": 0.0}})
        policy, rng = IndicatorPolicy("probabilistic"), np.random.default_rng(6)
        refs = {"b": 0, "c": 0}
        for _ in range(400):
            entry = dict(decide_matching(mem, cond_at(0, 0),
                                         TRI, target, policy, rng).entries)["shade"]
            assert entry.target == "a"
            refs[entry.reference] += 1
        assert 140 <= refs["b"] <= 260

    def test_seeded_stream_is_reproducible(self):
        mem = MemoryModule(budget=2, tau=1.0)

        def run(seed):
            policy, rng = IndicatorPolicy("probabilistic"), np.random.default_rng(seed)
            return [
                dict(decide_matching(mem, cond_at(0, 0),
                                     GENDER, UNIFORM, policy, rng).entries)["gender"].target
                for _ in range(20)
            ]

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestDecideStatic:
    def test_fixed_pairs_honored(self):
        mem = MemoryModule(budget=2, tau=1.0)
        policy = IndicatorPolicy("static", static_pairs={"gender": ("female", "male")})
        for _ in range(3):
            entry = dict(decide_matching(mem, cond_at(0, 0),
                                         GENDER, UNIFORM, policy).entries)["gender"]
            assert (entry.target, entry.reference) == ("female", "male")

    def test_missing_attribute_pair(self):
        mem = MemoryModule(budget=2, tau=1.0)
        policy = IndicatorPolicy("static", static_pairs={})
        with pytest.raises(ValueError, match="no pair"):
            decide_matching(mem, cond_at(0, 0), GENDER, UNIFORM, policy)

    def test_unknown_value_in_pair(self):
        mem = MemoryModule(budget=2, tau=1.0)
        policy = IndicatorPolicy("static", static_pairs={"gender": ("robot", "male")})
        with pytest.raises(Exception, match="unknown value"):
            decide_matching(mem, cond_at(0, 0), GENDER, UNIFORM, policy)

    def test_policy_kind_validation(self):
        with pytest.raises(ValueError, match="unknown policy"):
            IndicatorPolicy("greedy")
        with pytest.raises(ValueError, match="static_pairs"):
            IndicatorPolicy("deficit", static_pairs={"gender": ("male", "female")})
        with pytest.raises(ValueError, match="static_pairs"):
            IndicatorPolicy("static")


class TestPlanSpace:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_decided_plan_is_listed(self, data):
        """Whatever the schema, counts, target and draw, the plan `decide`
        returns is one of `plan_space`'s, which lists prod(V(V-1)) distinct
        plans for V values per attribute (1 for static)."""
        sizes = data.draw(st.lists(st.integers(2, 4), max_size=3), label="values per attribute")
        schema = AttributeSchema([Attribute(f"a{i}", tuple(f"v{j}" for j in range(v)))
                                  for i, v in enumerate(sizes)])
        kind = data.draw(st.sampled_from(POLICY_KINDS), label="policy")
        pairs = None
        if kind == "static":
            pairs = {a.name: tuple(data.draw(st.permutations(a.values))[:2])
                     for a in schema.attributes}
        proportions, counts = {}, {}
        for a in schema.attributes:
            weights = data.draw(st.lists(st.integers(1, 5), min_size=len(a.values),
                                         max_size=len(a.values)), label=f"target {a.name}")
            proportions[a.name] = {v: w / sum(weights) for v, w in zip(a.values, weights)}
            counts[a.name] = dict(zip(a.values, data.draw(st.lists(
                st.integers(0, 6), min_size=len(a.values), max_size=len(a.values)),
                label=f"counts {a.name}")))
        clusters = [Cluster(np.zeros(2), 1, counts)] if data.draw(st.booleans()) else []
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        policy = IndicatorPolicy(kind, static_pairs=pairs)
        plans = plan_space(schema, policy)
        plan = decide_matching(memory_with(clusters), cond_at(0, 0), schema,
                               TargetDistribution(proportions), policy, rng)
        assert plan in plans
        expected = 1 if kind == "static" else int(np.prod([v * (v - 1) for v in sizes]))
        assert len(plans) == len(set(plans)) == expected


class TestRecord:
    def test_running_mean_centroid(self):
        mem = memory_with([Cluster(np.array([0.0, 0.0]), total=4,
                                   counts={"gender": {"male": 4}})], tau=2.0)
        record_matching(mem, cond_at(1.0, 0.0), {"gender": "female"})
        c = mem.clusters[0]
        np.testing.assert_allclose(c.centroid, [0.2, 0.0], atol=1e-15)
        assert c.total == 5
        assert c.counts == {"gender": {"male": 4, "female": 1}}

    def test_new_cluster_under_budget(self):
        mem = MemoryModule(budget=2, tau=0.5)
        record_matching(mem, cond_at(3.0, 4.0), {"gender": "male"})
        assert len(mem.clusters) == 1
        c = mem.clusters[0]
        np.testing.assert_array_equal(c.centroid, [3.0, 4.0])
        assert c.total == 1
        assert c.counts == {"gender": {"male": 1}}

    def test_embedding_array_is_copied(self):
        mem = MemoryModule(budget=2, tau=0.5)
        emb = np.array([1.0, 1.0])
        record_matching(mem, Condition("p", {}, emb), {"gender": "male"})
        emb[0] = 99.0
        assert mem.clusters[0].centroid[0] == 1.0

    def test_budget_forces_consolidation(self):
        mem = memory_with([
            Cluster(np.array([0.0, 0.0]), total=10, counts={"gender": {"male": 10}}),
            Cluster(np.array([0.1, 0.0]), total=4, counts={"gender": {"female": 4}}),
        ], budget=2, tau=0.05)
        record_matching(mem, cond_at(10.0, 10.0), {"gender": "female"})
        assert len(mem.clusters) == 2
        merged, fresh = mem.clusters
        np.testing.assert_allclose(merged.centroid, [0.4 / 14, 0.0], atol=1e-15)
        assert merged.total == 14
        assert merged.counts == {"gender": {"male": 10, "female": 4}}
        np.testing.assert_array_equal(fresh.centroid, [10.0, 10.0])
        assert fresh.total == 1

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(3)
        mem = MemoryModule(budget=3, tau=0.25)
        for _ in range(200):
            record_matching(mem, cond_at(*rng.uniform(-8, 8, size=2)), {"gender": "male"})
            assert len(mem.clusters) <= 3


class TestConsolidate:
    def test_count_weighted_merge(self):
        mem = memory_with([
            Cluster(np.array([0.0, 0.0]), total=10, counts={"gender": {"male": 6, "female": 4}}),
            Cluster(np.array([0.1, 0.0]), total=4, counts={"gender": {"male": 1, "female": 3}}),
            Cluster(np.array([9.0, 9.0]), total=2, counts={"gender": {"male": 2}}),
        ])
        consolidate(mem)
        assert len(mem.clusters) == 2
        merged = mem.clusters[0]
        assert merged.centroid[0] == pytest.approx(0.4 / 14)
        assert merged.total == 14
        assert merged.counts == {"gender": {"male": 7, "female": 7}}
        # the far cluster is untouched
        np.testing.assert_array_equal(mem.clusters[1].centroid, [9.0, 9.0])

    def test_zero_total_clusters_average_unweighted(self):
        mem = memory_with([
            Cluster(np.array([0.0, 0.0])),
            Cluster(np.array([2.0, 0.0])),
        ])
        consolidate(mem)
        np.testing.assert_allclose(mem.clusters[0].centroid, [1.0, 0.0])
        assert mem.clusters[0].total == 0

    @pytest.mark.filterwarnings("error")
    def test_huge_centroid_is_farthest_without_a_warning(self):
        mem = memory_with([Cluster(np.array([1e308, 0.0]), total=1),
                           Cluster(np.array([0.0, 0.0]), total=1),
                           Cluster(np.array([1.0, 0.0]), total=1)])
        consolidate(mem)
        assert [c.centroid.tolist() for c in mem.clusters] == [[1e308, 0.0], [0.5, 0.0]]

    def test_exact_tie_merges_the_first_pair_in_order(self):
        """(0, 3) and (1, 2) are both at distance 1; (0, 3) comes first."""
        mem = memory_with([Cluster(np.array([0.0, 0.0]), total=1),
                           Cluster(np.array([10.0, 0.0]), total=1),
                           Cluster(np.array([11.0, 0.0]), total=1),
                           Cluster(np.array([0.0, 1.0]), total=1)])
        consolidate(mem)
        assert [c.centroid.tolist() for c in mem.clusters] == [[0.0, 0.5], [10.0, 0.0],
                                                               [11.0, 0.0]]

    def test_every_distance_inf_merges_clusters_0_and_1(self):
        mem = memory_with([Cluster(np.array([1e308, 0.0]), total=1),
                           Cluster(np.array([-1e308, 0.0]), total=1),
                           Cluster(np.array([0.0, 1e308]), total=1)])
        consolidate(mem)
        assert [c.centroid.tolist() for c in mem.clusters] == [[0.0, 0.0], [0.0, 1e308]]
        assert mem.clusters[0].total == 2

    def test_needs_two_clusters(self):
        with pytest.raises(ValueError, match="at least 2"):
            consolidate(memory_with([Cluster(np.zeros(2))]))
        with pytest.raises(ValueError, match="at least 2"):
            consolidate(MemoryModule(budget=2, tau=1.0))


class TestSnapshot:
    def populated(self):
        mem = MemoryModule(budget=4, tau=1.5)
        rng = np.random.default_rng(11)
        for _ in range(25):
            emb = rng.uniform(-6, 6, size=2)
            record_matching(mem, Condition("p", {}, emb),
                            {"gender": rng.choice(["male", "female"])})
        return mem

    def test_round_trip(self, tmp_path):
        mem = self.populated()
        path = str(tmp_path / "memory.json")
        snapshot_memory(mem, path, GENDER, prompts_seen=25)
        restored, seen = restore_memory(path, GENDER)
        assert seen == 25
        assert restored.budget == mem.budget
        assert restored.tau == mem.tau
        assert len(restored.clusters) == len(mem.clusters)
        for a, b in zip(mem.clusters, restored.clusters):
            np.testing.assert_array_equal(a.centroid, b.centroid)
            assert a.total == b.total and a.counts == b.counts

    def test_round_trip_preserves_decisions(self, tmp_path):
        mem = self.populated()
        path = str(tmp_path / "memory.json")
        snapshot_memory(mem, path, GENDER)
        restored, _ = restore_memory(path, GENDER)
        rng = np.random.default_rng(7)
        for _ in range(20):
            cond = cond_at(*rng.uniform(-6, 6, size=2))
            a = decide_matching(mem, cond, GENDER, UNIFORM, IndicatorPolicy("deficit"))
            b = decide_matching(restored, cond, GENDER, UNIFORM, IndicatorPolicy("deficit"))
            assert a == b

    def test_snapshot_is_idempotent(self, tmp_path):
        mem = self.populated()
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        snapshot_memory(mem, p1, GENDER, prompts_seen=3)
        restored, seen = restore_memory(p1, GENDER)
        snapshot_memory(restored, p2, GENDER, prompts_seen=seen)
        assert open(p1).read() == open(p2).read()

    def test_truncated_file(self, tmp_path):
        mem = self.populated()
        path = str(tmp_path / "memory.json")
        snapshot_memory(mem, path, GENDER)
        blob = open(path).read()
        open(path, "w").write(blob[: len(blob) // 2])
        with pytest.raises(MemorySnapshotError, match="unreadable"):
            restore_memory(path, GENDER)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        mem = self.populated()
        path = str(tmp_path / "memory.json")
        snapshot_memory(mem, path, GENDER)
        payload = json.load(open(path))
        payload["clusters"][0]["total"] += 1
        json.dump(payload, open(path, "w"))
        with pytest.raises(MemorySnapshotError, match="checksum"):
            restore_memory(path, GENDER)

    def test_wrong_magic_and_version(self, tmp_path):
        path = str(tmp_path / "memory.json")
        json.dump({"magic": "other"}, open(path, "w"))
        with pytest.raises(MemorySnapshotError, match="not a memory container"):
            restore_memory(path)

        mem = self.populated()
        snapshot_memory(mem, path, GENDER)
        payload = json.load(open(path))
        payload["version"] = 99
        json.dump(payload, open(path, "w"))
        with pytest.raises(MemorySnapshotError, match="version"):
            restore_memory(path)

    def test_schema_mismatch(self, tmp_path):
        mem = self.populated()
        path = str(tmp_path / "memory.json")
        snapshot_memory(mem, path, GENDER)
        with pytest.raises(MemorySnapshotError, match="schema"):
            restore_memory(path, TRI)
        # no schema given (inspection mode) skips the check
        restored, _ = restore_memory(path)
        assert len(restored.clusters) == len(mem.clusters)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MemorySnapshotError, match="unreadable"):
            restore_memory(str(tmp_path / "absent.json"))

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path):
        """A 0xff byte used to escape as a bare UnicodeDecodeError."""
        path = str(tmp_path / "memory.json")
        snapshot_memory(self.populated(), path, GENDER)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:20] + b"\xff" + blob[20:])
        with pytest.raises(MemorySnapshotError,
                           match=rf"unreadable memory file {re.escape(repr(path))}"):
            restore_memory(path)

    @pytest.mark.parametrize("key, value", [
        ("budget", 2.5), ("budget", 0), ("tau", 0), ("tau", "1"), ("prompts_seen", -5),
        ("prompts_seen", True), ("clusters", {}), ("clusters.0", 3),
        ("clusters.0.centroid", [[0, 0]]), ("clusters.0.centroid", [0, None]),
        ("clusters.0.centroid", [10**400, 0]),
        # Centroids of 2 and 3 coordinates used to load when no dimension was given.
        ("clusters.1.centroid", [0, 0, 0]),
        ("clusters.0.total", -1), ("clusters.0.counts", [1, 2]),
        ("clusters.0.counts", {"gender": 5}), ("clusters.0.counts", {"gender": {"male": 1.5}}),
    ])
    def test_field_of_wrong_type_or_range_names_file_and_key(self, tmp_path, key, value):
        path = str(tmp_path / "memory.json")
        snapshot_memory(self.populated(), path, GENDER)
        *parents, last = key.split(".")
        payload = json.load(open(path))
        node = payload
        for part in parents:
            node = node[int(part) if part.isdigit() else part]
        node[int(last) if last.isdigit() else last] = value
        rewrite_with_checksum(path, payload)
        named = re.sub(r"\.(\d+)", r"[\1]", key)
        for args in ((GENDER, 2), ()):
            with pytest.raises(MemorySnapshotError,
                               match=rf"{re.escape(path)}.*{re.escape(named)} must be"):
                restore_memory(path, *args)

    @pytest.mark.parametrize("total, counts, schemas, named", [
        # A count of 7 under a total of 0 used to load and drive decide.
        (0, {"gender": {"robot": 7}}, [None, GENDER], "gender"),
        (3, {"gender": {"male": 3, "female": 1}}, [None, GENDER], "gender"),
        (3, {"gender": {"male": 3}, "age": {"young": 2}}, [None, GENDER], "age"),
        (3, {"gender": {"robot": 3}}, [GENDER], "gender"),
        (3, {"gender": {"male": 3}, "age": {"young": 3}}, [GENDER], "age"),
    ], ids=["sum-off-total", "sum-past-total", "second-attribute-short", "value-outside-schema",
            "attribute-outside-schema"])
    def test_counts_must_sum_to_total_and_fit_the_schema(self, tmp_path, total, counts, schemas,
                                                         named):
        path = str(tmp_path / "memory.json")
        snapshot_memory(self.populated(), path, GENDER)
        with open(path) as fh:
            payload = json.load(fh)
        payload["clusters"][0].update(total=total, counts=counts)
        rewrite_with_checksum(path, payload)
        for schema in schemas:
            with pytest.raises(MemorySnapshotError, match=rf"{re.escape(path)}.*"
                               rf"clusters\[0\]\.counts\.{named} must be"):
                restore_memory(path, schema)
        if schemas == [GENDER]:  # inspection gives no schema to check names against
            restore_memory(path)


def rewrite_with_checksum(path, payload):
    """Write payload with the checksum of its current fields, as a valid file would carry."""
    payload.pop("checksum", None)
    payload["checksum"] = _container_checksum(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _paths(node, prefix=()):
    """Every key path into a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)) and v:
            yield from _paths(v, prefix + (k,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)


class TestRestoreFuzz:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_container_loads_and_works_or_raises_snapshot_error(
            self, data, tmp_path_factory):
        """Any field of a valid container deleted or replaced by any JSON value,
        under a recomputed checksum: restore either raises MemorySnapshotError
        or returns a memory that inspection, decide and record can use."""
        mem = TestSnapshot().populated()
        path = str(tmp_path_factory.mktemp("mem") / "m.json")
        snapshot_memory(mem, path, GENDER, prompts_seen=25)
        payload = json.load(open(path))
        del payload["checksum"]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            target = data.draw(st.sampled_from(sorted(_paths(payload), key=repr)), label="path")
            node = payload
            for part in target[:-1]:
                node = node[part]
            if isinstance(node, dict) and data.draw(st.booleans(), label="delete"):
                del node[target[-1]]
            else:
                node[target[-1]] = data.draw(JSON_VALUES, label="value")
        rewrite_with_checksum(path, payload)
        for args in ((), (GENDER, 2)):
            try:
                restored, seen = restore_memory(path, *args)
            except MemorySnapshotError:
                continue
            assert seen >= 0 and 1 <= restored.budget and len(restored.clusters) <= restored.budget
            if not args:
                assert main(["inspect-memory", "--memory", path, "--out", path + ".csv"]) == 0
            else:
                decide_matching(restored, cond_at(0, 0), GENDER, UNIFORM,
                                IndicatorPolicy("deficit"))
                record_matching(restored, cond_at(0, 0), {"gender": "male"})


class TestStagedCopy:
    def test_recording_into_a_copy_of_the_cluster_list_leaves_the_original(self):
        mem = TestSnapshot().populated()
        before = [(c.centroid.copy(), c.total, json.dumps(c.counts)) for c in mem.clusters]
        staged = replace(mem, clusters=list(mem.clusters))
        for c in mem.clusters:  # each record matches an existing cluster
            record_matching(staged, Condition("p", {}, c.centroid + 0.1), {"gender": "female"})
        assert len(staged.clusters) == len(mem.clusters)
        assert sum(c.total for c in staged.clusters) == sum(t for _, t, _ in before) + len(before)
        after = [(c.centroid, c.total, json.dumps(c.counts)) for c in mem.clusters]
        assert len(after) == len(before)
        for (c0, t0, n0), (c1, t1, n1) in zip(before, after):
            np.testing.assert_array_equal(c0, c1)
            assert (t0, n0) == (t1, n1)


class TestInvariantsUnderRandomOperations:
    @given(
        budget=st.integers(min_value=1, max_value=4),
        tau=st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
        ops=st.lists(
            st.tuples(
                st.floats(min_value=-6, max_value=6, width=32),
                st.floats(min_value=-6, max_value=6, width=32),
                st.sampled_from(["male", "female"]),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_record_preserves_all_invariants(self, budget, tau, ops):
        mem = MemoryModule(budget=budget, tau=tau)
        for n, (x, y, value) in enumerate(ops, start=1):
            record_matching(mem, cond_at(x, y), {"gender": value})
            assert 1 <= len(mem.clusters) <= budget
            total = sum(c.total for c in mem.clusters)
            assert total == n  # every recorded outcome is accounted for exactly once
            for c in mem.clusters:
                assert np.all(np.isfinite(c.centroid))
                per_attr = sum(c.counts.get("gender", {}).values())
                assert per_attr == c.total

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_snapshot_restore_is_lossless(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        mem = MemoryModule(budget=int(rng.integers(1, 5)), tau=float(rng.uniform(0.3, 2.0)))
        for _ in range(int(rng.integers(1, 30))):
            record_matching(mem, cond_at(*rng.uniform(-6, 6, size=2)),
                            {"gender": str(rng.choice(["male", "female"]))})
        path = str(tmp_path_factory.mktemp("mem") / "m.json")
        snapshot_memory(mem, path, GENDER, prompts_seen=17)
        restored, seen = restore_memory(path, GENDER)
        assert seen == 17
        assert len(restored.clusters) == len(mem.clusters)
        for a, b in zip(mem.clusters, restored.clusters):
            np.testing.assert_array_equal(a.centroid, b.centroid)
            assert a.total == b.total and a.counts == b.counts


class TestVarianceContrast:
    def test_deficit_variance_beats_probabilistic(self):
        """Perfect-enforcement thought experiment: realized proportions from the
        deficit loop concentrate far tighter than independent draws."""
        n_trials, n_gen = 100, 50
        achieved = {"deficit": [], "probabilistic": []}
        for kind in achieved:
            for trial in range(n_trials):
                mem = MemoryModule(budget=2, tau=1.0)
                rng = np.random.default_rng(1000 + trial)
                policy = IndicatorPolicy(kind)
                females = 0
                for _ in range(n_gen):
                    plan = decide_matching(mem, cond_at(0, 0), GENDER, UNIFORM, policy, rng)
                    chosen = dict(plan.entries)["gender"].target
                    record_matching(mem, cond_at(0, 0), {"gender": chosen})
                    females += chosen == "female"
                achieved[kind].append(females / n_gen)
        std_def = np.std(achieved["deficit"], ddof=1)
        std_prob = np.std(achieved["probabilistic"], ddof=1)
        assert std_def < std_prob
        assert std_prob > 0.03  # sanity: the contrast is real, not degenerate
