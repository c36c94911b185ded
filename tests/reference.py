"""Reference implementations the tests check the package against."""

import math
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


def run_arms(spec, arms, kind, out_dir) -> ArmsResult:
    """`harness._run_arms` as one `run_generate` per arm, in arm order.

    The arm-batched runner must leave the same artifacts, results, warnings
    and errors as this loop.
    """
    rows, results = [], []
    for i, (label, overrides) in enumerate(arms):
        arm_spec = replace(spec, **overrides, memory_path=None,
                           seed=_child_seed(spec.seed, _ARM_NS, i))
        arm_dir = os.path.join(out_dir, f"arm_{i:02d}") if out_dir else None
        result = run_generate(arm_spec, out_dir=arm_dir)
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


def _cell(world: MixtureWorld, concept: str, constraints: dict) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the one component of the concept that meets every constraint."""
    (component,) = [c for c in world.components if c.concept == concept
                    and all(c.tags[a] == v for a, v in constraints.items())]
    return component.mean, component.covariance


def affine_trajectories(world: MixtureWorld, schedule, conds, tapes, steering) -> np.ndarray:
    """The (B, d) final latents of `run_trajectories` under a `diffusion.Steering`,
    for rows whose every condition, base and edited, is one Gaussian N(mu, Sigma).

    The noise estimate of one Gaussian is affine in x:
    eps(x) = sqrt(1 - a) S^-1 (x - sqrt(a) mu), with S = a Sigma + (1 - a) I at
    alpha_bar a.  So is a blended step's, and a reverse step maps
    x -> M x + c + sqrt(beta) z, each row's final latent an affine function of
    its tape.  This uses matrix inverses and no code of the density kernel.
    """
    d = world.dimension
    eye = np.eye(d)
    out = np.empty((len(conds), d))
    for b, cond in enumerate(conds):
        cells = [cond.constraints]
        for attribute, entry in steering.plans[b].entries:
            cells += [{**cond.constraints, attribute: value}
                      for value in (entry.target, entry.reference)]
        gaussians = [_cell(world, cond.concept, cell) for cell in cells]
        n = len(steering.plans[b].entries)
        x = tapes[0, b]
        for i in range(schedule.steps):
            t = schedule.steps - 1 - i
            a, beta = float(schedule.alpha_bar[t]), float(schedule.beta[t])
            # each condition's eps(x) = A x - A sqrt(a) mu, as the pair (A, A sqrt(a) mu)
            maps = []
            for mu, cov in gaussians:
                A = math.sqrt(1 - a) * np.linalg.inv(a * cov + (1 - a) * eye)
                maps.append((A, A @ (math.sqrt(a) * mu)))
            E, e = maps[0]
            if steering.active[t]:
                weight = (1 - steering.gamma) * steering.scale / n
                edits = list(zip(maps[1::2], maps[2::2]))  # (target, reference) per entry
                E = steering.gamma * E + weight * sum(tg[0] - ref[0] for tg, ref in edits)
                e = steering.gamma * e + weight * sum(tg[1] - ref[1] for tg, ref in edits)
            coef = beta / math.sqrt(1 - a)
            x = (eye - coef * E) @ x / math.sqrt(1 - beta) + coef * e / math.sqrt(1 - beta)
            if t >= 1:
                x = x + math.sqrt(beta) * tapes[i + 1, b]
        out[b] = x
    return out
