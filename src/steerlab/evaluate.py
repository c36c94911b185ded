"""Bias and quality measurement against the analytic world.

The discriminator is exact: posterior responsibilities of every world
component at the sampled point, marginalized onto attribute values (and onto
concepts for the quality proxy).  The bias score for one prompt-attribute is
the mean absolute gap between the empirical value frequencies over that
prompt's samples and the target proportions; prompt scores average into
per-attribute scores and then into one combined number.
"""

from __future__ import annotations

import contextlib
import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .world import AttributeSchema, MixtureWorld, TargetDistribution
from .diffusion import _logits, _logsumexp


def discriminate(world: MixtureWorld, x0: np.ndarray) -> tuple[dict[str, str], dict[str, float]]:
    """Attribute labels (marginal argmax, ties by schema order) and concept posterior."""
    x0 = np.asarray(x0, dtype=float)
    mix = world.all_components()
    logits = _logits(mix, x0[None, :], 1.0)[0][0]
    post = np.exp(logits - _logsumexp(logits))
    # Each mass adds its components' posteriors from 0 in component order.
    concept_mass = dict.fromkeys(world.concepts, 0)
    value_mass = {(attr.name, v): 0 for attr in world.schema.attributes for v in attr.values}
    for p, c in zip(post, mix.components):
        concept_mass[c.concept] += p
        for tag in c.tags.items():
            value_mass[tag] += p
    labels = {attr.name: max(attr.values, key=lambda v: value_mass[attr.name, v])
              for attr in world.schema.attributes}
    return labels, {concept: float(m) for concept, m in concept_mass.items()}


def value_frequencies(
    assignments: list[dict[str, str]], schema: AttributeSchema
) -> dict[str, dict[str, float]]:
    """Empirical per-attribute value proportions over one prompt's samples."""
    n = len(assignments)
    freqs: dict[str, dict[str, float]] = {}
    for attr in schema.attributes:
        counts = Counter(a[attr.name] for a in assignments)
        freqs[attr.name] = {v: counts[v] / n for v in attr.values}
    return freqs


@dataclass
class BiasScores:
    per_attribute: dict[str, float]
    combined: float
    per_prompt: list[dict[str, float]]                       # prompt -> attr -> deviation
    proportions: list[dict[str, dict[str, float]]]           # prompt -> attr -> value -> freq


def bias_score(
    outcomes: list[list[dict[str, str]]],
    target: TargetDistribution,
    schema: AttributeSchema,
) -> BiasScores:
    """Mean absolute deviation of per-prompt value frequencies from the target.

    outcomes[n] holds the discriminated attribute assignments of prompt n's
    samples; every prompt must carry the same sample count T >= 1.
    """
    if not outcomes:
        raise ValueError("bias_score needs at least one prompt")
    t_counts = {len(per_prompt) for per_prompt in outcomes}
    if len(t_counts) != 1:
        raise ValueError(f"ragged sample counts across prompts: {sorted(t_counts)}")
    if t_counts == {0}:
        raise ValueError("bias_score needs at least one sample per prompt")
    target.validate_for(schema)

    proportions = [value_frequencies(per_prompt, schema) for per_prompt in outcomes]
    per_prompt: list[dict[str, float]] = []
    for freqs in proportions:
        per_prompt.append(
            {
                attr.name: sum(
                    abs(freqs[attr.name][v] - target.of(attr.name, v)) for v in attr.values
                ) / len(attr.values)
                for attr in schema.attributes
            }
        )
    per_attribute = {
        attr.name: sum(row[attr.name] for row in per_prompt) / len(per_prompt)
        for attr in schema.attributes
    }
    combined = (
        sum(per_attribute.values()) / len(per_attribute) if per_attribute else 0.0
    )
    return BiasScores(per_attribute, combined, per_prompt, proportions)


@dataclass
class QualityScores:
    adherence: float          # fraction of samples whose MAP concept matches
    mean_log_density: float   # under the attribute-marginalized conditional mixture


@dataclass
class ReportRow:
    prompt_id: str
    concept: str
    attribute: str
    t_samples: int
    observed: dict[str, float]
    deviation: float


@dataclass
class BiasReport:
    rows: list[ReportRow]
    per_attribute: dict[str, float]
    combined: float
    quality: float
    mean_log_density: float
    n_prompts: int
    t_samples: int
    master_seed: int
    config_digest: str


def build_report(
    samples: list,
    qualities: list[QualityScores],
    target: TargetDistribution,
    schema: AttributeSchema,
    master_seed: int,
    config_digest: str,
) -> BiasReport:
    """Bias and quality over a run's samples, grouped by prompt in order of appearance.

    Each sample carries `prompt_id`, `concept` and `labels`; qualities[n] scores
    the n-th prompt.
    """
    prompts: dict[str, list] = {}
    for s in samples:
        prompts.setdefault(s.prompt_id, []).append(s)
    groups = list(prompts.values())
    outcomes = [[s.labels for s in group] for group in groups]
    scores = bias_score(outcomes, target, schema)
    rows = [
        ReportRow(
            prompt_id=group[0].prompt_id,
            concept=group[0].concept,
            attribute=attr.name,
            t_samples=len(group),
            observed=scores.proportions[n][attr.name],
            deviation=scores.per_prompt[n][attr.name],
        )
        for n, group in enumerate(groups)
        for attr in schema.attributes
    ]
    return BiasReport(
        rows=rows,
        per_attribute=scores.per_attribute,
        combined=scores.combined,
        quality=float(sum(q.adherence for q in qualities) / len(qualities)),
        mean_log_density=float(sum(q.mean_log_density for q in qualities) / len(qualities)),
        n_prompts=len(outcomes),
        t_samples=len(outcomes[0]),
        master_seed=master_seed,
        config_digest=config_digest,
    )


def write_csv(out, kind: str, meta: dict, header: list[str], rows, summary=()) -> None:
    """A `# steerlab-<kind> v1` tag, `# key=value` meta lines, header, rows, `# summary` lines;
    a header or row cell that holds a comma (an ablation's window label) is quoted.
    `out` is a path, or an open text stream that is written to and left open."""
    comments = [f"# steerlab-{kind} v1", *(f"# {k}={v}" for k, v in meta.items())]
    with (open(out, "w", encoding="utf-8", newline="\n") if isinstance(out, str)
          else contextlib.nullcontext(out)) as fh:
        fh.writelines(f"{line}\n" for line in comments)
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        fh.writelines(f"# summary {s}\n" for s in summary)


def write_report_csv(report: BiasReport, path: str, schema: AttributeSchema) -> None:
    """One row per prompt per attribute, then a summary comment block."""
    rows = [(r.prompt_id, r.concept, r.attribute, r.t_samples,
             "|".join(f"{v}:{r.observed[v]!r}" for v in schema.values_of(r.attribute)),
             repr(r.deviation)) for r in report.rows]
    summary = [f"bias[{a}]={report.per_attribute[a]!r}" for a in schema.names()]
    summary += [f"bias_combined={report.combined!r}", f"quality={report.quality!r}",
                f"mean_log_density={report.mean_log_density!r}",
                f"n_prompts={report.n_prompts} t_samples={report.t_samples}"]
    write_csv(path, "report",
              {"config_digest": report.config_digest, "master_seed": report.master_seed},
              ["prompt_id", "concept", "attribute", "t_samples", "observed", "deviation"],
              rows, summary)
