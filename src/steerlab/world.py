"""Analytic ground world: a labeled Gaussian mixture over a low-dimensional space.

Each mixture component carries a concept label (the "subject" of a prompt) and
exactly one value per schema attribute.  Conditions select subsets of
components; embeddings of conditions live in the same space as the mixture so
that prompt-similarity lookups stay geometric.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleConditionError, WorldValidationError


def _invalid(message: str, index: int) -> WorldValidationError:
    """The error for attribute or component `index`, carrying that index."""
    exc = WorldValidationError(message)
    exc.index = index
    return exc


@dataclass(frozen=True)
class Attribute:
    name: str
    values: tuple[str, ...]


class AttributeSchema:
    """Ordered attribute declarations; value order is the tie-break order."""

    def __init__(self, attributes: list[Attribute] | tuple[Attribute, ...]):
        self.attributes = tuple(attributes)
        self._by_name: dict[str, Attribute] = {}
        for i, a in enumerate(self.attributes):
            if a.name in self._by_name:
                raise _invalid(f"duplicate attribute {a.name!r}: declared twice", i)
            if len(a.values) < 2:
                raise _invalid(f"attribute {a.name!r} needs at least 2 values, "
                               f"got {list(a.values)}", i)
            if len(set(a.values)) != len(a.values):
                raise _invalid(f"attribute {a.name!r} has duplicate values", i)
            self._by_name[a.name] = a

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def values_of(self, name: str) -> tuple[str, ...]:
        try:
            return self._by_name[name].values
        except KeyError:
            raise WorldValidationError(f"unknown attribute {name!r}") from None

    def check_value(self, name: str, value: str) -> None:
        if value not in self.values_of(name):
            raise WorldValidationError(
                f"unknown value {value!r} for attribute {name!r}"
            )

    def digest(self) -> str:
        payload = [[a.name, list(a.values)] for a in self.attributes]
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.attributes)

    def __eq__(self, other) -> bool:
        return isinstance(other, AttributeSchema) and self.attributes == other.attributes

    def __repr__(self) -> str:
        return f"AttributeSchema({list(self.attributes)!r})"


@dataclass
class Component:
    """One Gaussian component with its concept label and attribute tags."""

    mean: np.ndarray
    covariance: np.ndarray
    weight: float
    concept: str
    tags: dict[str, str]


@dataclass
class ConditionalMixture:
    """A renormalized component subset prepared for fast density/score work."""

    components: list[Component]
    weights: np.ndarray          # renormalized, sums to 1
    means: np.ndarray            # (K, d)
    log_weights: np.ndarray      # (K,)
    identity_cov: bool           # True when every covariance is the identity
    eig_vals: np.ndarray | None  # (K, d) eigenvalues of each covariance
    eig_vecs: np.ndarray | None  # (K, d, d) matching eigenvectors (columns)
    # noise level -> (marginal eigenvalues, their log-determinants), filled by the kernel
    marginals: dict = field(default_factory=dict, repr=False)


def _prepare(components: list[Component], weights: np.ndarray) -> ConditionalMixture:
    means = np.ascontiguousarray([c.mean for c in components], dtype=float)
    d = means.shape[1]
    identity = all(np.array_equal(c.covariance, np.eye(d)) for c in components)
    eig_vals = eig_vecs = None
    if not identity:
        covs = np.ascontiguousarray([c.covariance for c in components], dtype=float)
        eig_vals, eig_vecs = np.linalg.eigh(covs)
    mix = ConditionalMixture(
        components=components,
        weights=weights,
        means=means,
        log_weights=np.log(weights),
        identity_cov=identity,
        eig_vals=eig_vals,
        eig_vecs=eig_vecs,
    )
    for arr in (mix.weights, mix.means, mix.log_weights):
        arr.setflags(write=False)
    return mix


class MixtureWorld:
    """Immutable mixture world; the one place that checks its invariants."""

    def __init__(self, dimension: int, schema: AttributeSchema, components: list[Component]):
        if dimension < 1:
            raise WorldValidationError(f"dimension must be >= 1, got {dimension}")
        if not components:
            raise WorldValidationError("world has no components")
        self.dimension = dimension
        self.schema = schema
        self.components = components
        for i, c in enumerate(components):
            c.mean = np.asarray(c.mean, dtype=float)
            c.covariance = np.asarray(c.covariance, dtype=float)
            problem = self._component_problem(c)
            if problem:
                raise _invalid(f"component {i} (concept {c.concept!r}): {problem}", i)
        # Attribute control is infeasible unless every (concept, attribute,
        # value) triple has at least one component.
        for concept in dict.fromkeys(c.concept for c in components):
            group = [c for c in components if c.concept == concept]
            for attr in schema.attributes:
                for v in attr.values:
                    if not any(c.tags[attr.name] == v for c in group):
                        raise WorldValidationError(
                            f"concept {concept!r} has no component with "
                            f"{attr.name}={v!r}; attribute control infeasible"
                        )
        total = sum(c.weight for c in components)
        if not math.isfinite(total):
            raise WorldValidationError(f"component weights sum to {total}, expected a finite total")
        for c in components:
            c.weight = c.weight / total
            c.mean.setflags(write=False)
            c.covariance.setflags(write=False)
        self.concepts: tuple[str, ...] = tuple(dict.fromkeys(c.concept for c in components))
        self._cache: dict[tuple, ConditionalMixture] = {}

    def _component_problem(self, c: Component) -> str | None:
        d = self.dimension
        if c.mean.shape != (d,):
            return f"mean shape {c.mean.shape} != ({d},)"
        if c.covariance.shape != (d, d):
            return f"covariance shape {c.covariance.shape} != ({d}, {d})"
        if not np.all(np.isfinite(c.mean)) or not np.all(np.isfinite(c.covariance)):
            return "non-finite parameter"
        if not np.allclose(c.covariance, c.covariance.T, atol=1e-9):
            return "covariance not symmetric"
        low = np.linalg.eigvalsh(c.covariance).min()
        if low <= 1e-12:
            return f"covariance not positive definite (min eigenvalue {low:g})"
        if not 0 < c.weight < math.inf:
            return f"weight must be positive and finite, got {c.weight}"
        missing = sorted(set(self.schema.names()) - set(c.tags))
        if missing:
            return f"missing a value for attribute(s) {missing}"
        try:
            for a, v in c.tags.items():
                self.schema.check_value(a, v)
        except WorldValidationError as exc:
            return str(exc)
        return None

    def concept_centroid(self, concept: str) -> np.ndarray:
        group = [c for c in self.components if c.concept == concept]
        if not group:
            raise InfeasibleConditionError(f"unknown concept {concept!r}")
        w = np.array([c.weight for c in group])
        w = w / w.sum()
        return np.einsum("k,kd->d", w, np.array([c.mean for c in group]))

    def min_concept_separation(self) -> float | None:
        """Smallest pairwise distance between concept centroids, None if < 2 concepts."""
        cents = [self.concept_centroid(c) for c in self.concepts]
        return min((float(np.linalg.norm(a - b)) for a, b in itertools.combinations(cents, 2)),
                   default=None)

    def digest(self) -> str:
        payload = {
            "dimension": self.dimension,
            "schema": [[a.name, list(a.values)] for a in self.schema.attributes],
            "components": [
                [c.concept, sorted(c.tags.items()), c.mean.tolist(),
                 c.covariance.tolist(), c.weight]
                for c in self.components
            ],
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    def all_components(self) -> ConditionalMixture:
        """Prepared view over every component under prior weights."""
        key = ("all",)
        mix = self._cache.get(key)
        if mix is None:
            w = np.array([c.weight for c in self.components])
            mix = _prepare(list(self.components), w / w.sum())
            self._cache[key] = mix
        return mix


@dataclass
class Condition:
    """A structured prompt: concept, partial attribute constraints, embedding."""

    concept: str
    constraints: dict[str, str]
    embedding: np.ndarray

    def key(self) -> tuple:
        return (self.concept, tuple(sorted(self.constraints.items())))


def conditional_components(world: MixtureWorld, cond: Condition) -> ConditionalMixture:
    """Components matching the condition's concept and constraints, renormalized.

    Raises InfeasibleConditionError naming the constraint that emptied the
    subset.  Results are cached on the world (it is immutable after load).
    """
    key = ("cond",) + cond.key()
    mix = world._cache.get(key)
    if mix is not None:
        return mix
    group = [c for c in world.components if c.concept == cond.concept]
    if not group:
        raise InfeasibleConditionError(f"unknown concept {cond.concept!r}")
    for attr in sorted(cond.constraints):
        world.schema.check_value(attr, cond.constraints[attr])
        kept = [c for c in group if c.tags[attr] == cond.constraints[attr]]
        if not kept:
            raise InfeasibleConditionError(
                f"condition (concept={cond.concept!r}) has no components once "
                f"constraint {attr}={cond.constraints[attr]!r} is applied"
            )
        group = kept
    w = np.array([c.weight for c in group])
    mix = _prepare(group, w / w.sum())
    world._cache[key] = mix
    return mix


def embed_condition(
    world: MixtureWorld, concept: str, jitter_seed: int = 0, jitter_scale: float = 0.0
) -> np.ndarray:
    """Deterministic prompt embedding: concept centroid plus seeded Gaussian jitter.

    The embedding space is the world space itself (d_e = d), so distinct
    phrasings of one concept land near its centroid and far from other
    concepts.  jitter_scale=0 returns the exact centroid.
    """
    centroid = world.concept_centroid(concept)
    if jitter_scale == 0.0:
        return centroid
    rng = np.random.default_rng(jitter_seed)
    return centroid + jitter_scale * rng.standard_normal(world.dimension)


def make_condition(
    world: MixtureWorld,
    concept: str,
    constraints: dict[str, str] | None = None,
    embedding: np.ndarray | None = None,
    jitter_seed: int = 0,
    jitter_scale: float = 0.0,
) -> Condition:
    """Build and validate a condition; feasibility is checked eagerly."""
    constraints = dict(constraints or {})
    if embedding is None:
        embedding = embed_condition(world, concept, jitter_seed, jitter_scale)
    embedding = np.asarray(embedding, dtype=float)
    if embedding.shape != (world.dimension,) or not np.all(np.isfinite(embedding)):
        raise WorldValidationError(
            f"embedding must be a finite vector of length {world.dimension}"
        )
    cond = Condition(concept, constraints, embedding)
    conditional_components(world, cond)  # raises if infeasible
    return cond


def edit_condition(world: MixtureWorld, cond: Condition, attribute: str, value: str) -> Condition:
    """Pin one attribute constraint; everything else (embedding included) unchanged."""
    new = Condition(cond.concept, {**cond.constraints, attribute: value}, cond.embedding)
    conditional_components(world, new)  # raises on an unknown value or an empty slice
    return new


class TargetDistribution:
    """Desired per-attribute value proportions (each attribute sums to 1)."""

    def __init__(self, proportions: dict[str, dict[str, float]]):
        self.proportions = {a: dict(v) for a, v in proportions.items()}
        for attr, dist in self.proportions.items():
            for v, p in dist.items():
                if not isinstance(p, numbers.Real) or isinstance(p, bool):
                    raise WorldValidationError(f"proportion {p!r} for {attr}={v} is not a number")
                if not math.isfinite(p):
                    raise WorldValidationError(f"non-finite proportion {p!r} for {attr}={v}")
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise WorldValidationError(
                    f"target proportions for {attr!r} sum to {total!r}, expected 1"
                )
            for v, p in dist.items():
                if p < 0:
                    raise WorldValidationError(f"negative proportion {p} for {attr}={v}")

    def validate_for(self, schema: AttributeSchema) -> None:
        if set(self.proportions) != set(schema.names()):
            raise WorldValidationError(
                f"target covers {sorted(self.proportions)} but schema has "
                f"{sorted(schema.names())}"
            )
        for attr, dist in self.proportions.items():
            values = schema.values_of(attr)
            if set(dist) != set(values):
                raise WorldValidationError(
                    f"target for {attr!r} covers {sorted(dist)}, expected {sorted(values)}"
                )

    def of(self, attr: str, value: str) -> float:
        return self.proportions[attr][value]

    def __repr__(self) -> str:
        return f"TargetDistribution({self.proportions!r})"
