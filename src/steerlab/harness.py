"""Experiment orchestration: generation runs, target sweeps, window ablations.

A run walks its prompt list in order; each prompt instance gets a fresh
deterministic RNG stream per sample, derived from (master seed, global prompt
ordinal, sample index), so arms with the same seed share identical streams
and artifacts are byte-reproducible.  For every generation the harness asks
the controller for a plan, samples its trajectory with that plan's steering,
discriminates the outcome, and feeds it back into the memory — in that order.
The trajectories of a whole run are batched.  Steps before the guidance
window are the same under every plan, so all rows take them as one batch
(unsteered, that is the whole trajectory).  Samples are then decided in run
order.  The first time a sample chooses a plan, every row from it to the end
of the run finishes under that plan as one batch, each under its own
condition's edited mixtures; later samples that choose the plan take their
rows from that batch, and the other rows are discarded.  Rows share a batch
when their mixtures have one shape, and a long run is cut into chunks of
whole prompts that each hold under `_CHUNK_BYTES`.  Every row is computed as
if alone, so none of this changes a bit of output, and a row that fails (goes
non-finite, or cannot take a plan) fails only a prompt that chooses it.  A
prompt works on a copy of the memory and stages its rows; both are committed
only when all its samples succeed, so a failed prompt leaves memory and
artifacts as if it had not run, apart from the ordinal slot it used.

A persisted memory file carries the count of prompts already processed, so a
run that resumes from it continues the ordinal sequence exactly where the
previous run stopped; two chained runs replay identically to one combined
run.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
import numbers
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .controller import (
    POLICY_KINDS,
    IndicatorPolicy,
    MemoryModule,
    decide,
    default_match_threshold,
    record,
    restore_memory,
    snapshot_memory,
)
from .diffusion import (linear_schedule, mixture_log_density, noise_tapes, run_trajectories,
                        stack_steering)
from .errors import SteerlabError
from .evaluate import BiasReport, QualityScores, build_report, discriminate, write_csv, write_report_csv
from .guidance import (EMPTY_PLAN, GuidanceConfig, GuidancePlan, GuidanceProbe, resolve_steering,
                       window_mask)
from .world import Condition, MixtureWorld, TargetDistribution, conditional_components, make_condition
from .worldfile import load_world

log = logging.getLogger("steerlab.harness")

_POLICY_NS = 7919   # namespace constants keeping derived seed streams disjoint
_ARM_NS = 104729
_CHUNK_BYTES = 64 * 2**20  # bound on what one chunk of prompts holds

DEFAULT_ABLATION_WINDOWS = ((0.0, 0.25), (0.375, 0.625), (0.75, 1.0))


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))


def _is_target(v) -> bool:
    return isinstance(v, dict) and all(
        isinstance(d, dict) and all(map(_is_number, d.values())) for d in v.values())


def _is_sweep(v) -> bool:
    if isinstance(v, dict):
        return (set(v) == {"attribute", "value", "proportions"}
                and isinstance(v["proportions"], list) and all(map(_is_number, v["proportions"])))
    return v is None or isinstance(v, list) and all(map(_is_target, v))


# Config key -> (check, what the key must be); keys not listed take any value.
_KEY_CHECKS = {
    "world_path": (lambda v: isinstance(v, str), "a string"),
    "memory_path": (lambda v: v is None or isinstance(v, str), "a string"),
    "prompts": (lambda v: isinstance(v, list), "a list"),
    **dict.fromkeys(("record_intent", "diagnostics"), (lambda v: isinstance(v, bool), "a boolean")),
    **dict.fromkeys(("samples_per_prompt", "steps", "seed", "memory_budget"),
                    (_is_int, "an integer")),
    **dict.fromkeys(("beta_start", "beta_end", "gamma", "attribute_scale"),
                    (_is_number, "a number")),
    "jitter_scale": (lambda v: _is_number(v) and 0 <= v < math.inf, "a finite number >= 0"),
    "memory_tau": (lambda v: v is None or _is_number(v), "a number"),
    "window": (_is_pair, "a [lo, hi] pair of numbers"),
    "windows": (lambda v: v is None or isinstance(v, list) and all(map(_is_pair, v)),
                "a list of [lo, hi] pairs of numbers"),
    "target": (_is_target, "an object of {attribute: {value: proportion}}"),
    "static_pairs": (lambda v: v is None or isinstance(v, dict) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in v.values()),
        "an object of {attribute: [toward, away]}"),
    "sweep": (_is_sweep, "a list of targets or an object with exactly "
                         "'attribute', 'value' and 'proportions' (a list of numbers)"),
}


@dataclass
class PromptSpec:
    concept: str
    count: int = 1
    jitter_seed: int = 0
    constraints: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.concept, str):
            raise ValueError(f"concept must be a string, got {self.concept!r}")
        if not (_is_int(self.count) and self.count >= 1):
            raise ValueError(f"count must be an integer >= 1, got {self.count!r}")
        if not (_is_int(self.jitter_seed) and self.jitter_seed >= 0):
            raise ValueError(f"jitter_seed must be an integer >= 0, got {self.jitter_seed!r}")
        if not (isinstance(self.constraints, dict)
                and all(isinstance(x, str) for kv in self.constraints.items() for x in kv)):
            raise ValueError(f"constraints must map attribute names to values, "
                             f"got {self.constraints!r}")


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
        for key, value in data.items():
            check, what = _KEY_CHECKS.get(key, (None, ""))
            if check is not None and not check(value):
                raise ValueError(f"config key {key!r} must be {what}, got {value!r}")
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
        if spec.policy not in ("vanilla", *POLICY_KINDS):
            raise ValueError(f"unknown policy {spec.policy!r}")
        if spec.samples_per_prompt < 1:
            raise ValueError("samples_per_prompt must be >= 1")
        return spec

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls.from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))

    def digest(self) -> str:
        body = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
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


def _run_rows(world: MixtureWorld, schedule, conds: list[Condition], tapes: np.ndarray, rows,
              x: np.ndarray | None, start: int, stop: int, diagnostics: bool = False, steer=None
              ) -> tuple[np.ndarray, dict[int, str], dict[int, tuple[GuidanceProbe, int]]]:
    """Advance `rows` (indices into conds) from step `start` to `stop`, one
    `run_trajectories` batch per kernel shape (the component counts and
    covariance kinds of the base and edited mixtures).  steer(cond) gives a
    condition's steering, or None, and is called once per condition key.
    Returns every row's latents (NaN where not run or failed), each failed
    row's first message (rows whose condition cannot take the steering fail
    unrun), and each row's probe with its position in that probe's batch.
    """
    resolved: dict[tuple, tuple | str] = {}
    groups: dict[tuple, list[int]] = {}
    failed: dict[int, str] = {}
    for r in rows:
        key = conds[r].key()
        if key not in resolved:
            try:
                steering = steer(conds[r]) if steer else None
            except SteerlabError as exc:
                resolved[key] = str(exc)
            else:
                mixes = [conditional_components(world, conds[r])]
                mixes += [m for pair in steering.pairs for m in pair] if steering else []
                resolved[key] = steering, tuple((m.means.shape[0], m.identity_cov) for m in mixes)
        if isinstance(resolved[key], str):
            failed[r] = resolved[key]
        else:
            groups.setdefault(resolved[key][1], []).append(r)
    out = np.full((len(conds), world.dimension), np.nan)
    probes: dict[int, tuple[GuidanceProbe, int]] = {}
    for members in groups.values():
        # A run of consecutive rows is a view of the tapes, not a copy.
        sel = (slice(members[0], members[-1] + 1)
               if members == list(range(members[0], members[-1] + 1)) else np.array(members))
        batch = [conds[r] for r in members]
        steering = None
        if resolved[batch[0].key()][0] is not None:
            probe = GuidanceProbe() if diagnostics else None
            steering = stack_steering([resolved[c.key()][0] for c in batch], probe)
            if probe is not None:
                probes.update((r, (probe, j)) for j, r in enumerate(members))
        out[sel], fails = run_trajectories(world, schedule, batch, tapes[:, sel], steering,
                                           start, stop, None if x is None else x[sel])
        failed.update((members[b], message) for b, message in fails.items())
    return out, failed, probes


def run_generate(
    spec: ExperimentSpec, out_dir: str | None = None, world: MixtureWorld | None = None
) -> RunResult:
    """Execute one arm: decide, sample, discriminate, record — per generation.

    A failing prompt is logged and skipped with none of its state committed;
    the rest of the run continues and the failure list marks the run as partial.
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
    if policy is not None:
        policy.validate_for(schema)

    prompts_seen = 0
    memory: MemoryModule | None = None
    if policy is not None:
        tau = spec.memory_tau if spec.memory_tau is not None else default_match_threshold(world)
        if spec.memory_path and os.path.exists(spec.memory_path):
            memory, prompts_seen = restore_memory(spec.memory_path, schema, world.dimension)
        else:
            memory = MemoryModule(budget=spec.memory_budget, tau=tau)

    digest = spec.digest()
    samples: list[GeneratedSample] = []
    qualities: list[QualityScores] = []
    probe_rows: list[tuple] = []
    failures: list[list[str]] = []
    n = spec.samples_per_prompt
    active = window_mask(schedule, config)
    # Steps before the first steered one are the same under every plan, so
    # all rows take them as one batch; unsteered, that is every step.
    prefix = schedule.steps
    if policy is not None and config.gamma != 1.0 and active.any():
        prefix = schedule.steps - 1 - int(np.flatnonzero(active).max())

    instances = [(prompt, i) for prompt in spec.prompts for i in range(prompt.count)]
    # Per row a chunk holds its tapes and prefix latents, and in a batch the
    # mixtures gathered for it (base and two per attribute, K components each);
    # per row and plan the policy can choose, finished latents and probe rows.
    d, k = world.dimension, max(Counter(c.concept for c in world.components).values())
    row_bytes = 8 * d * (schedule.steps + 1) + 8 * (1 + 2 * len(schema.attributes)) * k * (
        d * d + 3 * d + 2)
    plan_bytes = 8 * (d + 3 * int(active.sum()) * spec.diagnostics)
    plans = 1 if policy is None or policy.kind == "static" else math.prod(
        len(a.values) * (len(a.values) - 1) for a in schema.attributes)
    per_chunk = max(1, _CHUNK_BYTES // (n * (row_bytes + plans * plan_bytes)))
    ordinal = prompts_seen
    for lo in range(0, len(instances), per_chunk):
        # Each prompt's condition and streams up front; rows are the streams of
        # the prompts whose condition was made, in run order.
        chunk = []
        conds: list[Condition] = []
        streams = []
        for prompt, instance in instances[lo:lo + per_chunk]:
            try:
                cond = make_condition(
                    world, prompt.concept, prompt.constraints,
                    jitter_seed=_child_seed(prompt.jitter_seed, instance),
                    jitter_scale=spec.jitter_scale,
                )
            except SteerlabError as exc:
                cond = exc
            else:
                conds += [cond] * n
                streams += [np.random.SeedSequence([spec.seed, ordinal, s_i]) for s_i in range(n)]
            chunk.append((prompt, f"{prompt.concept}-{ordinal:05d}", ordinal, cond, len(conds) - n))
            ordinal += 1
        tapes = noise_tapes([np.random.default_rng(s) for s in streams], schedule.steps, d)
        x, prefix_failed, _ = _run_rows(world, schedule, conds, tapes, range(len(conds)),
                                        None, 0, prefix)
        # Plan -> every row's latents, failures and probe rows, finished under
        # it from the first row to choose it to the end of the chunk.
        runs: dict[GuidancePlan, tuple[np.ndarray, dict[int, str], dict]] = {}
        for prompt, prompt_id, p_ordinal, cond, row0 in chunk:
            try:
                if not isinstance(cond, Condition):
                    raise cond
                marg_mix = conditional_components(
                    world, Condition(prompt.concept, {}, cond.embedding)
                )
                # Staged until the whole prompt succeeds, so a failure leaves no trace.
                staged_memory = copy.deepcopy(memory)
                rows: list[GeneratedSample] = []
                probes: list[tuple] = []
                hits = 0
                logdens = 0.0
                for s_i in range(n):
                    r = row0 + s_i
                    plan = EMPTY_PLAN
                    if policy is not None:  # decided on the records of the samples before it
                        rng = np.random.default_rng(
                            np.random.SeedSequence([spec.seed, _POLICY_NS, p_ordinal, s_i]))
                        plan = decide(staged_memory, cond, schema, target, policy, rng)
                    if plan not in runs:
                        finished, failed, traces = _run_rows(
                            world, schedule, conds, tapes,
                            [q for q in range(r, len(conds)) if q not in prefix_failed], x,
                            prefix, schedule.steps, spec.diagnostics,
                            lambda c: resolve_steering(world, c, plan, config, active))
                        runs[plan] = (finished, {**failed, **prefix_failed}, traces)
                    finished, failed, traces = runs[plan]
                    if r in failed:
                        raise SteerlabError(failed[r])
                    x0 = finished[r]
                    labels, concept_post = discriminate(world, x0)
                    if policy is not None:
                        outcome = ({a: e.target for a, e in plan.entries}
                                   if spec.record_intent else labels)
                        record(staged_memory, cond, outcome)
                    if r in traces:
                        probe, pos = traces[r]
                        probes.extend((prompt_id, s_i) + row for row in probe.stream(pos))
                    if max(concept_post, key=lambda c: concept_post[c]) == prompt.concept:
                        hits += 1
                    logdens += mixture_log_density(marg_mix, x0, 1.0)
                    rows.append(GeneratedSample(
                        prompt_id=prompt_id, prompt_ordinal=p_ordinal, sample_index=s_i,
                        stream_seed=int(streams[r].generate_state(1)[0]),
                        concept=prompt.concept, x=x0, labels=labels,
                    ))
            except SteerlabError as exc:
                log.warning("prompt %s failed: %s", prompt_id, exc)
                failures.append([prompt_id, str(exc)])
            else:
                memory = staged_memory
                samples.extend(rows)
                probe_rows.extend(probes)
                qualities.append(QualityScores(hits / n, logdens / n))

    report = None
    if qualities:
        report = build_report(samples, qualities, target, schema, spec.seed, digest)

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
            write_csv(os.path.join(out_dir, "diagnostics.csv"), "diagnostics",
                      {"config_digest": digest},
                      ["prompt_id", "sample_index", "t_index", "cosine", "base_norm", "attr_norm"],
                      probe_rows)
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
    header = ["prompt_id", "prompt_ordinal", "sample_index", "stream_seed", "concept"]
    header += [f"x{i}" for i in range(world.dimension)] + list(attrs)
    rows = (
        [s.prompt_id, s.prompt_ordinal, s.sample_index, s.stream_seed, s.concept]
        + [repr(float(v)) for v in s.x] + [s.labels[a] for a in attrs]
        for s in samples
    )
    meta = {"config_digest": spec.digest(), "world_digest": world.digest(),
            "master_seed": spec.seed}
    write_csv(path, "samples", meta, header, rows)


def load_samples_csv(path: str) -> tuple[np.ndarray, list[dict[str, str]], list[str]]:
    """Points, per-sample labels, and column names from a samples.csv file."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, 1)
                if not line.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no header row")
    header = rows[0][1].split(",")
    coord_idx = [i for i, h in enumerate(header) if h.startswith("x") and h[1:].isdigit()]
    attr_cols = header[max(coord_idx) + 1:] if coord_idx else []
    points = []
    labels = []
    for lineno, row in rows[1:]:
        if not row:
            continue
        cells = row.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: {len(cells)} cells under a "
                             f"{len(header)}-column header")
        try:
            points.append([float(cells[i]) for i in coord_idx])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        labels.append({a: cells[header.index(a)] for a in attr_cols})
    return np.array(points).reshape(len(labels), len(coord_idx)), labels, header


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
class ArmsResult:
    rows: list[ArmRow]
    avg_bias: float
    std_bias: float
    results: list[RunResult]


def _run_arms(spec: ExperimentSpec, world: MixtureWorld, arms: list[tuple[str, dict]],
              kind: str, out_dir: str | None) -> ArmsResult:
    """One arm per (label, spec overrides), each with a fresh memory and derived seed.

    Writes `<kind>.csv`; only a sweep's carries the avg/std summary lines.
    """
    rows: list[ArmRow] = []
    results: list[RunResult] = []
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


def run_sweep(spec: ExperimentSpec, out_dir: str | None = None) -> ArmsResult:
    """One arm per sweep target; writes sweep.csv."""
    world = load_world(spec.world_path)
    arms = [(_describe_target(t), {"target": t, "sweep": None})
            for t in sweep_targets(spec, world)]
    return _run_arms(spec, world, arms, "sweep", out_dir)


def run_window_ablation(spec: ExperimentSpec, out_dir: str | None = None) -> ArmsResult:
    """One arm per guidance window (defaults: early, middle, late); writes ablation.csv."""
    world = load_world(spec.world_path)
    arms = [(f"window={lo:g},{hi:g}", {"window": (lo, hi), "windows": None})
            for lo, hi in (spec.windows or DEFAULT_ABLATION_WINDOWS)]
    return _run_arms(spec, world, arms, "ablation", out_dir)
