from __future__ import annotations

import numpy as np
import pytest

from steerlab.controller import decide, lookup, record
from steerlab.world import Attribute, AttributeSchema, Component, MixtureWorld
from steerlab.worldfile import default_world_path, load_world


@pytest.fixture(scope="session")
def default_world():
    return load_world(default_world_path())


def build_gender_world(
    male_weight: float = 0.5,
    separation: float = 4.0,
    concept_gap: float = 6.0,
    covariances: dict | None = None,
) -> MixtureWorld:
    """Two concepts x gender, with configurable skew and geometry."""
    schema = AttributeSchema([Attribute("gender", ("male", "female"))])
    covs = covariances or {}
    eye = np.eye(2)

    def comp(concept, gender, mean, weight):
        cov = covs.get((concept, gender), eye)
        return Component(
            mean=np.array(mean, dtype=float),
            covariance=np.array(cov, dtype=float),
            weight=weight,
            concept=concept,
            tags={"gender": gender},
        )

    return MixtureWorld(
        2,
        schema,
        [
            comp("engineer", "male", (separation, 0.0), male_weight / 2),
            comp("engineer", "female", (0.0, 0.0), (1 - male_weight) / 2),
            comp("teacher", "male", (separation, concept_gap), (1 - male_weight) / 2),
            comp("teacher", "female", (0.0, concept_gap), male_weight / 2),
        ],
    )


def single_gaussian_world(mean=(0.0, 0.0)) -> MixtureWorld:
    """One unlabeled component: schema is empty, sampling is unconditional."""
    return MixtureWorld(
        len(mean),
        AttributeSchema([]),
        [Component(
            mean=np.array(mean, dtype=float),
            covariance=np.eye(len(mean)),
            weight=1.0,
            concept="origin",
            tags={},
        )],
    )


def two_attribute_world(covariances: dict | None = None) -> MixtureWorld:
    """gender x age world where the joint (male, old) slice is empty.

    covariances maps (gender, age) to a component covariance (default I).
    """
    schema = AttributeSchema([
        Attribute("gender", ("male", "female")),
        Attribute("age", ("young", "old")),
    ])
    covs = covariances or {}

    def comp(mean, weight, gender, age):
        return Component(
            mean=np.array(mean, dtype=float),
            covariance=np.array(covs.get((gender, age), np.eye(2)), dtype=float),
            weight=weight, concept="worker", tags={"gender": gender, "age": age},
        )

    return MixtureWorld(2, schema, [
        comp((0, 0), 0.4, "male", "young"),
        comp((4, 0), 0.3, "female", "old"),
        comp((0, 4), 0.3, "female", "young"),
    ])


def decide_matching(memory, cond, *args):
    """`decide` given the condition's `lookup` in the memory, as the harness gives it."""
    return decide(memory, cond, *args, match=lookup(memory, cond.embedding))


def record_matching(memory, cond, outcome):
    """`record` given the condition's `lookup` in the memory, as the harness gives it."""
    record(memory, cond, outcome, match=lookup(memory, cond.embedding))
