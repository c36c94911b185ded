"""Reference implementations the tests check the package against."""

import numpy as np

from steerlab.diffusion import mixture_log_density
from steerlab.evaluate import QualityScores, discriminate
from steerlab.world import Condition, MixtureWorld, conditional_components


def quality_score(world: MixtureWorld, concept: str, samples: np.ndarray) -> QualityScores:
    """Concept adherence plus mean log-density; attribute constraints are ignored.

    The per-sample form of the per-prompt quality that `run_generate` computes
    inline for report.csv.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("quality_score needs at least one sample")
    mix = conditional_components(world, Condition(concept, {}, np.zeros(world.dimension)))
    hits = 0
    log_density = 0.0
    for x in samples:
        _, concept_post = discriminate(world, x)
        if max(concept_post, key=lambda c: concept_post[c]) == concept:
            hits += 1
        log_density += mixture_log_density(mix, x, 1.0)
    return QualityScores(hits / len(samples), log_density / len(samples))
