"""Experiment orchestration: generation runs, target sweeps, window ablations.

A run walks its prompt list in order; each prompt instance gets a fresh
deterministic RNG stream per sample, derived from (master seed, global prompt
ordinal, sample index), so arms with the same seed share identical streams
and artifacts are byte-reproducible.  For every generation the harness asks
the controller for a plan, samples its trajectory with that plan's steering,
discriminates the outcome, and feeds it back into the memory — in that order.
Vanilla generations read no memory, so a prompt's samples are drawn as one
batch of independent streams.

A persisted memory file carries the count of prompts already processed, so a
run that resumes from it continues the ordinal sequence exactly where the
previous run stopped; two chained runs replay identically to one combined
run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .controller import (
    IndicatorPolicy,
    MemoryModule,
    decide,
    default_match_threshold,
    record,
    restore_memory,
    snapshot_memory,
)
from .diffusion import linear_schedule, mixture_log_density, run_trajectories
from .errors import SteerlabError
from .evaluate import BiasReport, QualityScores, build_report, discriminate, write_report_csv
from .guidance import GuidanceConfig, GuidanceProbe, resolve_steering
from .render import render_scatter
from .world import Condition, MixtureWorld, TargetDistribution, conditional_components, make_condition
from .worldfile import load_world

log = logging.getLogger("steerlab.harness")

_POLICY_NS = 7919   # namespace constants keeping derived seed streams disjoint
_ARM_NS = 104729

DEFAULT_ABLATION_WINDOWS = ((0.0, 0.25), (0.375, 0.625), (0.75, 1.0))


@dataclass
class PromptSpec:
    concept: str
    count: int = 1
    jitter_seed: int = 0
    constraints: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.count, int) and self.count >= 1):
            raise ValueError(f"count must be an integer >= 1, got {self.count!r}")


@dataclass
class ExperimentSpec:
    world_path: str
    prompts: list[PromptSpec]
    target: dict[str, dict[str, float]] = field(default_factory=dict)
    policy: str = "deficit"
    static_pairs: dict[str, list[str]] | None = None
    samples_per_prompt: int = 10
    steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    gamma: float = 0.7
    window: tuple[float, float] = (0.375, 0.625)
    attribute_scale: float = 1.0
    jitter_scale: float = 0.2
    seed: int = 0
    memory_budget: int = 16
    memory_tau: float | None = None
    memory_path: str | None = None
    record_intent: bool = False
    diagnostics: bool = False
    sweep: list | dict | None = None
    windows: list | None = None

    @classmethod
    def from_dict(cls, data: dict, base_dir: str = ".") -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "world_path" not in data or "prompts" not in data:
            raise ValueError("config needs at least 'world_path' and 'prompts'")
        data = dict(data)
        prompts = []
        for p in data["prompts"]:
            if isinstance(p, PromptSpec):
                prompts.append(p)
                continue
            try:
                prompts.append(PromptSpec(**p))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad prompt entry {p!r}: {exc}") from None
        data["prompts"] = prompts
        if not os.path.isabs(data["world_path"]):
            data["world_path"] = os.path.join(base_dir, data["world_path"])
        if "window" in data:
            data["window"] = tuple(data["window"])
        spec = cls(**data)
        if spec.policy not in ("vanilla", "deficit", "probabilistic", "static"):
            raise ValueError(f"unknown policy {spec.policy!r}")
        if spec.samples_per_prompt < 1:
            raise ValueError("samples_per_prompt must be >= 1")
        return spec

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls.from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))

    def canonical(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "prompts":
                v = [
                    {"concept": p.concept, "count": p.count, "jitter_seed": p.jitter_seed,
                     "constraints": dict(sorted(p.constraints.items()))}
                    for p in v
                ]
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    def digest(self) -> str:
        body = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()[:16]


@dataclass
class GeneratedSample:
    prompt_id: str
    prompt_ordinal: int
    sample_index: int
    stream_seed: int
    concept: str
    x: np.ndarray
    labels: dict[str, str]


@dataclass
class RunManifest:
    config_digest: str
    master_seed: int
    world_digest: str
    outputs: list[str]
    failures: list[list[str]]
    timings: dict[str, float]


@dataclass
class RunResult:
    samples: list[GeneratedSample]
    report: BiasReport | None
    manifest: RunManifest
    failures: list[list[str]]
    memory: MemoryModule | None
    prompts_seen: int


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _build_policy(spec: ExperimentSpec) -> IndicatorPolicy | None:
    if spec.policy == "vanilla":
        return None
    if spec.policy == "static":
        pairs = {a: (p[0], p[1]) for a, p in (spec.static_pairs or {}).items()}
        return IndicatorPolicy(kind="static", static_pairs=pairs)
    return IndicatorPolicy(kind=spec.policy)


def run_generate(
    spec: ExperimentSpec, out_dir: str | None = None, world: MixtureWorld | None = None
) -> RunResult:
    """Execute one arm: decide, sample, discriminate, record — per generation.

    A failing prompt is logged and skipped; the rest of the run continues and
    the failure list marks the run as partial.
    """
    t_start = time.perf_counter()
    if world is None:
        world = load_world(spec.world_path)
    schema = world.schema
    schedule = linear_schedule(spec.steps, spec.beta_start, spec.beta_end)
    config = GuidanceConfig(spec.gamma, tuple(spec.window), spec.attribute_scale)
    target = TargetDistribution(spec.target)
    target.validate_for(schema)
    policy = _build_policy(spec)

    prompts_seen = 0
    memory: MemoryModule | None = None
    if policy is not None:
        tau = spec.memory_tau if spec.memory_tau is not None else default_match_threshold(world)
        if spec.memory_path and os.path.exists(spec.memory_path):
            memory, prompts_seen = restore_memory(spec.memory_path, schema)
        else:
            memory = MemoryModule(budget=spec.memory_budget, tau=tau)

    digest = spec.digest()
    samples: list[GeneratedSample] = []
    failures: list[list[str]] = []
    prompt_ids: list[str] = []
    prompt_concepts: list[str] = []
    outcomes: list[list[dict[str, str]]] = []
    qualities: list[QualityScores] = []
    probe_rows: list[tuple] = []

    ordinal = prompts_seen
    for prompt in spec.prompts:
        for instance in range(prompt.count):
            prompt_id = f"{prompt.concept}-{ordinal:05d}"
            try:
                emb_seed = _child_seed(prompt.jitter_seed, instance)
                cond = make_condition(
                    world, prompt.concept, prompt.constraints,
                    jitter_seed=emb_seed, jitter_scale=spec.jitter_scale,
                )
                marg_mix = conditional_components(
                    world, Condition(prompt.concept, {}, cond.embedding)
                )
                rows: list[GeneratedSample] = []
                prompt_outcomes: list[dict[str, str]] = []
                hits = 0
                logdens = 0.0
                streams = [np.random.SeedSequence([spec.seed, ordinal, s_i])
                           for s_i in range(spec.samples_per_prompt)]
                if policy is None:
                    # Vanilla samples share no state: one batch for the prompt.
                    points = run_trajectories(
                        world, schedule, cond, [np.random.default_rng(ss) for ss in streams]
                    )
                for s_i, ss in enumerate(streams):
                    if policy is None:
                        x0 = points[s_i]
                    else:
                        if policy.kind == "probabilistic":
                            policy.rng = np.random.default_rng(
                                np.random.SeedSequence([spec.seed, _POLICY_NS, ordinal, s_i])
                            )
                        plan = decide(memory, cond, schema, target, policy)
                        probe = GuidanceProbe() if spec.diagnostics else None
                        steering = resolve_steering(world, schedule, cond, plan, config, probe)
                        x0 = run_trajectories(
                            world, schedule, cond, [np.random.default_rng(ss)], steering
                        )[0]
                    labels, concept_post = discriminate(world, x0)
                    if policy is not None:
                        if spec.record_intent:
                            outcome = {a: e.target for a, e in plan.entries}
                        else:
                            outcome = labels
                        record(memory, cond, outcome)
                        if spec.diagnostics and probe is not None:
                            probe_rows.extend((prompt_id, s_i) + r for r in probe.rows)
                    if max(concept_post, key=lambda c: concept_post[c]) == prompt.concept:
                        hits += 1
                    logdens += mixture_log_density(marg_mix, x0, 1.0)
                    prompt_outcomes.append(labels)
                    rows.append(GeneratedSample(
                        prompt_id=prompt_id, prompt_ordinal=ordinal, sample_index=s_i,
                        stream_seed=int(ss.generate_state(1)[0]), concept=prompt.concept,
                        x=x0, labels=labels,
                    ))
                samples.extend(rows)
                prompt_ids.append(prompt_id)
                prompt_concepts.append(prompt.concept)
                outcomes.append(prompt_outcomes)
                qualities.append(QualityScores(
                    hits / spec.samples_per_prompt, logdens / spec.samples_per_prompt
                ))
            except SteerlabError as exc:
                log.warning("prompt %s failed: %s", prompt_id, exc)
                failures.append([prompt_id, str(exc)])
            ordinal += 1

    report = None
    if outcomes:
        report = build_report(
            prompt_ids, prompt_concepts, outcomes, qualities,
            target, schema, spec.seed, digest,
        )

    outputs: list[str] = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        samples_path = os.path.join(out_dir, "samples.csv")
        write_samples_csv(samples, world, spec, samples_path)
        outputs.append("samples.csv")
        if report is not None:
            write_report_csv(report, os.path.join(out_dir, "report.csv"), schema)
            outputs.append("report.csv")
        if spec.diagnostics and probe_rows:
            _write_probe_csv(probe_rows, os.path.join(out_dir, "diagnostics.csv"), digest)
            outputs.append("diagnostics.csv")
    if spec.memory_path and memory is not None:
        snapshot_memory(memory, spec.memory_path, schema, prompts_seen=ordinal)

    manifest = RunManifest(
        config_digest=digest,
        master_seed=spec.seed,
        world_digest=world.digest(),
        outputs=outputs,
        failures=failures,
        timings={"total_s": round(time.perf_counter() - t_start, 3)},
    )
    if out_dir is not None:
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest.__dict__, fh, indent=1, sort_keys=True)
    return RunResult(samples, report, manifest, failures, memory, ordinal)


def write_samples_csv(
    samples: list[GeneratedSample], world: MixtureWorld, spec: ExperimentSpec, path: str
) -> None:
    attrs = world.schema.names()
    coord_cols = [f"x{i}" for i in range(world.dimension)]
    lines = [
        "# steerlab-samples v1",
        f"# config_digest={spec.digest()}",
        f"# world_digest={world.digest()}",
        f"# master_seed={spec.seed}",
        ",".join(["prompt_id", "prompt_ordinal", "sample_index", "stream_seed", "concept"]
                 + coord_cols + list(attrs)),
    ]
    for s in samples:
        coords = [repr(float(v)) for v in s.x]
        labels = [s.labels[a] for a in attrs]
        lines.append(",".join(
            [s.prompt_id, str(s.prompt_ordinal), str(s.sample_index),
             str(s.stream_seed), s.concept] + coords + labels
        ))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_samples_csv(path: str) -> tuple[np.ndarray, list[dict[str, str]], list[str]]:
    """Points, per-sample labels, and column names from a samples.csv file."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no header row")
    header = rows[0].split(",")
    coord_idx = [i for i, h in enumerate(header) if h.startswith("x") and h[1:].isdigit()]
    attr_cols = header[max(coord_idx) + 1:] if coord_idx else []
    points = []
    labels = []
    for row in rows[1:]:
        if not row:
            continue
        cells = row.split(",")
        points.append([float(cells[i]) for i in coord_idx])
        labels.append({a: cells[header.index(a)] for a in attr_cols})
    return np.array(points).reshape(len(labels), len(coord_idx)), labels, header


def _write_probe_csv(rows: list[tuple], path: str, digest: str) -> None:
    lines = ["# steerlab-diagnostics v1", f"# config_digest={digest}",
             "prompt_id,sample_index,t_index,cosine,base_norm,attr_norm"]
    for pid, s_i, t, cosine, nb, na in rows:
        lines.append(f"{pid},{s_i},{t},{cosine!r},{nb!r},{na!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _describe_target(target: dict[str, dict[str, float]]) -> str:
    return ";".join(
        f"{attr}=" + "|".join(f"{v}:{p:g}" for v, p in dist.items())
        for attr, dist in sorted(target.items())
    )


def sweep_targets(spec: ExperimentSpec, world: MixtureWorld) -> list[dict]:
    """Expand the config's sweep declaration into full target distributions."""
    if spec.sweep is None:
        raise ValueError("config has no sweep section")
    if isinstance(spec.sweep, list):
        return [dict(t) for t in spec.sweep]
    attr = spec.sweep["attribute"]
    value = spec.sweep["value"]
    proportions = spec.sweep["proportions"]
    values = world.schema.values_of(attr)
    if value not in values:
        raise ValueError(f"sweep value {value!r} not in attribute {attr!r}")
    others = [v for v in values if v != value]
    targets = []
    for p in proportions:
        dist = {value: float(p)}
        for v in others:
            dist[v] = (1.0 - float(p)) / len(others)
        targets.append({**spec.target, attr: dist})
    return targets


@dataclass
class ArmRow:
    arm: int
    label: str
    bias: float
    quality: float


@dataclass
class SweepResult:
    rows: list[ArmRow]
    avg_bias: float
    std_bias: float
    results: list[RunResult]


def run_sweep(spec: ExperimentSpec, out_dir: str | None = None) -> SweepResult:
    """One arm per sweep target, each with a fresh memory and derived seed."""
    world = load_world(spec.world_path)
    targets = sweep_targets(spec, world)
    rows: list[ArmRow] = []
    results: list[RunResult] = []
    for i, target in enumerate(targets):
        arm_spec = replace(
            spec, target=target, sweep=None, memory_path=None,
            seed=_child_seed(spec.seed, _ARM_NS, i),
        )
        arm_dir = os.path.join(out_dir, f"arm_{i:02d}") if out_dir else None
        result = run_generate(arm_spec, out_dir=arm_dir, world=world)
        if result.report is None:
            raise SteerlabError(f"sweep arm {i} produced no successful prompts")
        rows.append(ArmRow(i, _describe_target(target), result.report.combined,
                           result.report.quality))
        results.append(result)
    biases = np.array([r.bias for r in rows])
    avg = float(biases.mean())
    std = float(biases.std(ddof=1)) if len(biases) > 1 else 0.0
    if out_dir is not None:
        _write_arm_csv(rows, os.path.join(out_dir, "sweep.csv"), "steerlab-sweep",
                       spec.digest(), [f"# summary avg_bias={avg!r}",
                                       f"# summary std_bias={std!r}"])
    return SweepResult(rows, avg, std, results)


@dataclass
class AblationResult:
    rows: list[ArmRow]
    results: list[RunResult]


def run_window_ablation(spec: ExperimentSpec, out_dir: str | None = None) -> AblationResult:
    """One arm per guidance window (defaults: early, middle, late)."""
    world = load_world(spec.world_path)
    windows = [tuple(w) for w in (spec.windows or DEFAULT_ABLATION_WINDOWS)]
    rows: list[ArmRow] = []
    results: list[RunResult] = []
    for i, window in enumerate(windows):
        arm_spec = replace(
            spec, window=window, windows=None, memory_path=None,
            seed=_child_seed(spec.seed, _ARM_NS, i),
        )
        arm_dir = os.path.join(out_dir, f"arm_{i:02d}") if out_dir else None
        result = run_generate(arm_spec, out_dir=arm_dir, world=world)
        if result.report is None:
            raise SteerlabError(f"ablation arm {i} produced no successful prompts")
        rows.append(ArmRow(i, f"window={window[0]:g},{window[1]:g}",
                           result.report.combined, result.report.quality))
        results.append(result)
    if out_dir is not None:
        _write_arm_csv(rows, os.path.join(out_dir, "ablation.csv"), "steerlab-ablation",
                       spec.digest(), [])
    return AblationResult(rows, results)


def _write_arm_csv(rows: list[ArmRow], path: str, kind: str, digest: str,
                   summary: list[str]) -> None:
    lines = [f"# {kind} v1", f"# config_digest={digest}", "arm,label,bias,quality"]
    for r in rows:
        lines.append(f"{r.arm},{r.label},{r.bias!r},{r.quality!r}")
    lines.extend(summary)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def render_run_scatter(samples_csv: str, world: MixtureWorld, out_path: str,
                       attribute: str | None = None) -> None:
    points, labels, _ = load_samples_csv(samples_csv)
    render_scatter(points, labels, world, out_path, attribute=attribute)
