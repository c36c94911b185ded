"""Reference implementations the tests check the package against."""

import os
from dataclasses import replace

import numpy as np

from steerlab.diffusion import mixture_log_density
from steerlab.errors import SteerlabError
from steerlab.evaluate import QualityScores, discriminate, write_csv
from steerlab.harness import _ARM_NS, ArmRow, ArmsResult, _child_seed, run_generate
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


def run_arms(spec, world, arms, kind, out_dir) -> ArmsResult:
    """`harness._run_arms` as one `run_generate` per arm, in arm order.

    The arm-batched runner must leave the same artifacts, results, warnings
    and errors as this loop.
    """
    rows, results = [], []
    for i, (label, overrides) in enumerate(arms):
        arm_spec = replace(spec, **overrides, memory_path=None,
                           seed=_child_seed(spec.seed, _ARM_NS, i))
        arm_dir = os.path.join(out_dir, f"arm_{i:02d}") if out_dir else None
        result = run_generate(arm_spec, out_dir=arm_dir, world=world)
        if result.report is None:
            raise SteerlabError(f"{kind} arm {i} produced no successful prompts")
        rows.append(ArmRow(i, label, result.report.combined, result.report.quality))
        results.append(result)
    biases = np.array([r.bias for r in rows])
    avg = float(biases.mean())
    std = float(biases.std(ddof=1)) if len(biases) > 1 else 0.0
    if out_dir is not None:
        summary = (f"avg_bias={avg!r}", f"std_bias={std!r}") if kind == "sweep" else ()
        write_csv(os.path.join(out_dir, f"{kind}.csv"), kind, {"config_digest": spec.digest()},
                  ["arm", "label", "bias", "quality"],
                  ((r.arm, r.label, repr(r.bias), repr(r.quality)) for r in rows), summary)
    return ArmsResult(rows, avg, std, results)
