"""Outcome memory and per-generation steering decisions.

The memory is a budgeted set of clusters keyed by prompt embedding.  Each
cluster keeps a running-mean centroid, a sample total and per-attribute value
counts (each attribute's summing to the total) of the outcomes observed for
prompts that matched it; `record` and `consolidate` share one merge rule.
Policies turn a cluster's counts plus a target distribution into a steering
plan for the next generation:

  deficit        -- steer toward the most under-represented value (relative to
                    the target), away from the most over-represented one; the
                    feedback loop keeps realized counts within one generation
                    of the target share
  probabilistic  -- draw the target value from the target distribution (no
                    feedback; realized proportions keep sampling variance)
  static         -- a fixed value pair per attribute, configured up front

A decide followed by its record forms one generation's critical section; the
harness runs generations sequentially so cluster state is never read torn.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import MemorySnapshotError, NumericsError, WorldValidationError
from .guidance import GuidancePlan, PlanEntry
from .world import NAME, AttributeSchema, Condition, MixtureWorld, TargetDistribution

_MAGIC = "steerlab-memory"
_VERSION = 1

POLICY_KINDS = ("deficit", "probabilistic", "static")


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return _is_number(v) and math.isfinite(v)
    except OverflowError:  # an integer beyond the range of a float
        return False


@dataclass
class Cluster:
    centroid: np.ndarray
    total: int = 0
    counts: dict[str, dict[str, int]] = field(default_factory=dict)


@dataclass
class MemoryModule:
    """At most `budget` clusters; embeddings within `tau` of a centroid match it."""

    budget: int
    tau: float
    clusters: list[Cluster] = field(default_factory=list)

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass
class IndicatorPolicy:
    kind: str
    static_pairs: dict[str, tuple[str, str]] | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        if (self.static_pairs is not None) != (self.kind == "static"):
            raise ValueError("static_pairs must be given exactly when kind='static'")

    def validate_for(self, schema: AttributeSchema) -> None:
        """Static pairs must name two different known values for exactly the
        schema's attributes."""
        if self.static_pairs is None:
            return
        for name in schema.names():
            if name not in self.static_pairs:
                raise WorldValidationError(f"static_pairs has no pair for attribute {name!r}")
        for name, pair in self.static_pairs.items():
            if name not in schema.names():
                raise WorldValidationError(f"static_pairs names unknown attribute {name!r}")
            for value in pair:
                if value not in schema.values_of(name):
                    raise WorldValidationError(
                        f"static_pairs value {value!r} is not a value of attribute {name!r}")
            if pair[0] == pair[1]:
                raise WorldValidationError(f"config key 'static_pairs': the pair for attribute "
                                           f"{name!r} names {pair[0]!r} twice")


def default_match_threshold(world: MixtureWorld) -> float:
    """Half the smallest inter-concept centroid distance (1.0 for one-concept worlds)."""
    sep = world.min_concept_separation()
    return 0.5 * sep if sep is not None else 1.0


def lookup(memory: MemoryModule, embedding: np.ndarray) -> int | None:
    """Index of the nearest cluster strictly within tau; ties take the lowest index."""
    for cluster in memory.clusters:
        if embedding.shape != cluster.centroid.shape:
            raise ValueError(
                f"embedding dimension {embedding.shape} != centroid {cluster.centroid.shape}"
            )
    with np.errstate(over="ignore"):  # a huge restored centroid is at distance inf
        dists = [float(np.linalg.norm(embedding - c.centroid)) for c in memory.clusters]
    best = min(range(len(dists)), key=dists.__getitem__, default=None)
    return best if best is not None and dists[best] < memory.tau else None


def plan_space(schema: AttributeSchema, policy: IndicatorPolicy) -> tuple[GuidancePlan, ...]:
    """Every plan `decide` can return under the policy, in a fixed order: the
    static pairs' one plan, or else one per choice of an ordered (target,
    reference) pair of distinct values for each attribute, prod(V(V-1)) plans."""
    if policy.kind == "static":
        return (GuidancePlan(tuple((a.name, PlanEntry(*policy.static_pairs[a.name]))
                                   for a in schema.attributes)),)
    choices = [[(a.name, PlanEntry(tgt, ref)) for tgt in a.values for ref in a.values
                if tgt != ref] for a in schema.attributes]
    return tuple(GuidancePlan(entries) for entries in itertools.product(*choices))


def decide(
    memory: MemoryModule,
    cond: Condition,
    schema: AttributeSchema,
    target: TargetDistribution,
    policy: IndicatorPolicy,
    rng: np.random.Generator | None = None,
    *,
    match: int | None,
) -> GuidancePlan:
    """Choose a steering plan for one generation; never mutates the memory.

    `rng` is the generation's stream; only the probabilistic policy draws from it.
    `match` is the condition's `lookup` in this memory.
    """
    target.validate_for(schema)
    counts = memory.clusters[match].counts if match is not None else {}
    entries = []
    for attr in schema.attributes:
        values = attr.values
        if policy.kind == "deficit":
            attr_counts = counts.get(attr.name, {})
            total = sum(attr_counts.values())
            def observed(v):
                return attr_counts.get(v, 0) / total if total else 0.0
            # `max` keeps the first of equal scores: ties break by schema order.
            tgt = max(values, key=lambda v: target.of(attr.name, v) - observed(v))
            rest = tuple(v for v in values if v != tgt)
            ref = max(rest, key=lambda v: observed(v) - target.of(attr.name, v))
        elif policy.kind == "probabilistic":
            if rng is None:
                raise ValueError("probabilistic policy needs an rng stream")
            probs = np.array([target.of(attr.name, v) for v in values])
            tgt = values[int(rng.choice(len(values), p=probs / probs.sum()))]
            rest = tuple(v for v in values if v != tgt)
            ref = rest[int(rng.integers(len(rest)))]
        else:  # static
            try:
                tgt, ref = policy.static_pairs[attr.name]
            except KeyError:
                raise ValueError(f"static policy has no pair for attribute {attr.name!r}") from None
            schema.check_value(attr.name, tgt)
            schema.check_value(attr.name, ref)
        entries.append((attr.name, PlanEntry(target=tgt, reference=ref)))
    return GuidancePlan(tuple(entries))


def _merge(a: Cluster, b: Cluster) -> Cluster:
    """One cluster holding both: count-weighted centroid, totals and counts summed.

    A centroid that overflows raises NumericsError, so that no memory holding
    it is committed or written.
    """
    total = a.total + b.total
    with np.errstate(over="ignore", invalid="ignore"):
        if total > 0:
            centroid = (a.centroid * a.total + b.centroid * b.total) / total
        else:
            centroid = (a.centroid + b.centroid) / 2.0
    if not math.isfinite(centroid.sum()):
        raise NumericsError(f"merged cluster centroid overflows: {centroid.tolist()}")
    counts = {attr: dict(vals) for attr, vals in a.counts.items()}
    for attr, vals in b.counts.items():
        merged = counts.setdefault(attr, {})
        for v, c in vals.items():
            merged[v] = merged.get(v, 0) + c
    return Cluster(centroid, total, counts)


def record(memory: MemoryModule, cond: Condition, outcome: dict[str, str], *,
           match: int | None) -> None:
    """Fold one generation's outcome into the matching (or a new) cluster.

    The outcome is a one-sample cluster, merged into `match`, the condition's
    `lookup` in this memory, or appended.
    When no cluster matches and the budget is exhausted, the two nearest
    clusters are consolidated first, so the budget bound never breaks.
    Clusters are replaced, never changed in place, so a copy of the cluster
    list is a copy of the memory.  A merge that would overflow a centroid
    raises NumericsError and leaves the memory unchanged.
    """
    embedding = np.asarray(cond.embedding, dtype=float)
    counts = {attr: {value: 1} for attr, value in outcome.items()}
    if match is None and len(memory.clusters) >= memory.budget:
        if len(memory.clusters) >= 2:
            consolidate(memory)
        else:
            match = 0  # budget of one: the lone cluster absorbs every prompt
    if match is None:
        memory.clusters.append(Cluster(embedding.copy(), 1, counts))
    else:  # the one-sample cluster is merged, not kept, so it need not own its centroid
        memory.clusters[match] = _merge(memory.clusters[match], Cluster(embedding, 1, counts))


def consolidate(memory: MemoryModule) -> None:
    """Merge the two nearest clusters into the first of them; ties take the first
    pair in (i, j) order, so clusters 0 and 1 when every distance is inf."""
    clusters = memory.clusters
    if len(clusters) < 2:
        raise ValueError(f"consolidation needs at least 2 clusters, have {len(clusters)}")
    with np.errstate(over="ignore"):  # as in lookup: a huge centroid is at distance inf
        i, j = min(itertools.combinations(range(len(clusters)), 2), key=lambda p: float(
            np.linalg.norm(clusters[p[0]].centroid - clusters[p[1]].centroid)))
    clusters[i] = _merge(clusters[i], clusters[j])
    del clusters[j]


def _container_checksum(payload: dict) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest()


def snapshot_memory(
    memory: MemoryModule, path: str, schema: AttributeSchema, prompts_seen: int = 0
) -> None:
    """Persist the memory as a versioned, checksummed container."""
    payload = {
        "magic": _MAGIC,
        "version": _VERSION,
        "schema": schema.digest(),
        "budget": memory.budget,
        "tau": memory.tau,
        "prompts_seen": prompts_seen,
        "clusters": [
            {"centroid": c.centroid.tolist(), "total": c.total, "counts": c.counts}
            for c in memory.clusters
        ],
    }
    payload["checksum"] = _container_checksum({k: v for k, v in payload.items()})
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1))  # one write, not one per encoder chunk
    os.replace(tmp, path)


def restore_memory(
    path: str, schema: AttributeSchema | None = None, dimension: int | None = None
) -> tuple[MemoryModule, int]:
    """Load a persisted memory; returns (memory, prompts_seen).

    Any structural problem (bad magic, version, schema or dimension mismatch,
    checksum, truncation, a field of the wrong type or range, counts that miss
    their cluster's total or the schema, or without one name what no world file
    could) raises MemorySnapshotError naming the file, and the key where one is
    at fault, before any state is exposed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bytes that are not UTF-8
        raise MemorySnapshotError(f"unreadable memory file {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise MemorySnapshotError(f"{path!r} is not a memory container")
    if payload.get("version") != _VERSION:
        raise MemorySnapshotError(
            f"unsupported memory version {payload.get('version')!r} (expected {_VERSION})"
        )
    declared = payload.get("checksum")
    expected = _container_checksum({k: v for k, v in payload.items() if k != "checksum"})
    if declared != expected:
        raise MemorySnapshotError(f"checksum mismatch in {path!r}; file is corrupt")
    if schema is not None and payload.get("schema") != schema.digest():
        raise MemorySnapshotError(
            f"memory file {path!r} was written for a different attribute schema"
        )

    def require(key: str, value, ok: bool, what: str):
        if not ok:
            raise MemorySnapshotError(f"memory file {path!r}: {key} must be {what}, got {value!r}")
        return value

    budget, tau, clusters = payload.get("budget"), payload.get("tau"), payload.get("clusters")
    seen = payload.get("prompts_seen", 0)
    memory = MemoryModule(
        budget=require("budget", budget, _is_int(budget) and budget >= 1, "an integer >= 1"),
        tau=require("tau", tau, _is_number(tau) and tau > 0, "a positive number"))
    prompts_seen = require("prompts_seen", seen, _is_int(seen) and seen >= 0, "an integer >= 0")
    for i, c in enumerate(require("clusters", clusters, isinstance(clusters, list), "a list")):
        key = f"clusters[{i}]"
        c = require(key, c, isinstance(c, dict), "an object")
        centroid, total, counts = c.get("centroid"), c.get("total"), c.get("counts")
        require(f"{key}.centroid", centroid,
                isinstance(centroid, list) and all(map(_is_finite, centroid))
                and (i == 0 or len(centroid) == len(clusters[0]["centroid"])),
                "a list of finite numbers" + (" as long as clusters[0].centroid" if i else ""))
        require(f"{key}.total", total, _is_int(total) and total >= 0, "an integer >= 0")
        require(f"{key}.counts", counts, isinstance(counts, dict) and all(
            isinstance(vals, dict) and all(_is_int(n) and n >= 0 for n in vals.values())
            for vals in counts.values()), "an object of {attribute: {value: integer >= 0}}")
        for attr, vals in counts.items():
            require(f"{key}.counts.{attr}", vals, sum(vals.values()) == total,
                    f"counts summing to the cluster's total {total}")
            require(f"{key}.counts.{attr}", vals, schema is None or attr in schema.names()
                    and set(vals) <= set(schema.values_of(attr)), "counts of schema values")
            require(f"{key}.counts", {attr: vals}, schema is not None or all(
                map(NAME.fullmatch, (attr, *vals))), f"counts of names matching {NAME.pattern}")
        memory.clusters.append(Cluster(np.asarray(centroid, dtype=float), total,
                                       {a: dict(vals) for a, vals in counts.items()}))
    if len(memory.clusters) > memory.budget:
        raise MemorySnapshotError(f"memory file {path!r} exceeds its own budget")
    if dimension is not None and any(c.centroid.shape != (dimension,) for c in memory.clusters):
        raise MemorySnapshotError(
            f"memory file {path!r} was written for a world of another dimension than {dimension}"
        )
    return memory, prompts_seen
