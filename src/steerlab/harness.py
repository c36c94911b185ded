"""Experiment orchestration: generation runs, target sweeps, window ablations.

A run walks its prompt list in order; each prompt instance gets a fresh
deterministic RNG stream per sample, derived from (master seed, global prompt
ordinal, sample index), so arms with the same seed share identical streams
and artifacts are byte-reproducible.  For every generation the harness asks
the controller for a plan, samples its trajectory with that plan's steering,
discriminates the outcome, and feeds it back into the memory — in that order.
The trajectories of a whole run are batched, and so are those of all the arms
of a sweep or window ablation: each arm (its own seed, target, window, memory,
ordinals and artifacts) is a group of rows of one batch, and a single run is
the one-arm case.  Steps before an arm's guidance window are the same under
every plan, so its rows take them once, in one batch with the other arms'
(unsteered, that is the whole trajectory); the rows of arms whose windows
start later go on from where the others stopped.  Samples are then decided
in order, arm by arm.  The first time a sample chooses a plan, every row from
it to the end of the batch whose arm has the same window finishes under that
plan as one batch, each under its own condition's edited mixtures; later
samples, of that arm or a later one, that choose the plan take their rows
from that batch, and the other rows are discarded.  Rows of any conditions
share a batch, and a long run is cut into chunks of whole prompts, across
arms, that each hold under `_CHUNK_BYTES`.  Every row is
computed as if alone, so none of this changes a bit of output, and a row that
fails (goes non-finite, or cannot take a plan) fails only a prompt that
chooses it.  A prompt works on a copy of its arm's memory and stages its
rows; both are committed only when all its samples succeed, so a failed
prompt leaves memory and artifacts as if it had not run, apart from the
ordinal slot it used.  An arm writes its artifacts as soon as its last prompt
is decided, so a sweep that stops at a failed arm leaves what one run per arm
would have left.

A persisted memory file carries the count of prompts already processed, so a
run that resumes from it continues the ordinal sequence exactly where the
previous run stopped; two chained runs replay identically to one combined
run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .controller import (
    POLICY_KINDS,
    IndicatorPolicy,
    MemoryModule,
    _is_int,
    _is_number,
    decide,
    default_match_threshold,
    record,
    restore_memory,
    snapshot_memory,
)
from .diffusion import Steering, linear_schedule, mixture_log_density, noise_tapes, run_trajectories
from .errors import SteerlabError, WorldValidationError
from .evaluate import BiasReport, QualityScores, build_report, discriminate, write_csv, write_report_csv
from .guidance import EMPTY_PLAN, GuidanceConfig, GuidanceProbe, window_mask
from .world import Condition, MixtureWorld, TargetDistribution, conditional_components, make_condition
from .worldfile import load_world

log = logging.getLogger("steerlab.harness")

_POLICY_NS = 7919   # namespace constants keeping derived seed streams disjoint
_ARM_NS = 104729
_CHUNK_BYTES = 64 * 2**20  # bound on what one chunk of prompts holds

DEFAULT_ABLATION_WINDOWS = ((0.0, 0.25), (0.375, 0.625), (0.75, 1.0))


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))


def _is_target(v) -> bool:
    return isinstance(v, dict) and all(
        isinstance(d, dict) and all(map(_is_number, d.values())) for d in v.values())


def _is_sweep(v) -> bool:
    if isinstance(v, dict):
        return (set(v) == {"attribute", "value", "proportions"}
                and isinstance(v["attribute"], str) and isinstance(v["value"], str)
                and isinstance(v["proportions"], list)
                and all(_is_number(p) and 0 <= p <= 1 for p in v["proportions"]))
    return v is None or isinstance(v, list) and all(map(_is_target, v))


# Config key -> (check, what the key must be); `policy` is checked on its own.
_KEY_CHECKS = {
    "world_path": (lambda v: isinstance(v, str), "a string"),
    "memory_path": (lambda v: v is None or isinstance(v, str), "a string"),
    "prompts": (lambda v: isinstance(v, list), "a list"),
    **dict.fromkeys(("record_intent", "diagnostics"), (lambda v: isinstance(v, bool), "a boolean")),
    "samples_per_prompt": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "steps": (_is_int, "an integer"),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "memory_budget": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    **dict.fromkeys(("beta_start", "beta_end", "gamma", "attribute_scale"),
                    (_is_number, "a number")),
    "jitter_scale": (lambda v: _is_number(v) and 0 <= v < math.inf, "a finite number >= 0"),
    "memory_tau": (lambda v: v is None or _is_number(v) and v > 0, "a positive number"),
    "window": (_is_pair, "a [lo, hi] pair of numbers"),
    "windows": (lambda v: v is None or isinstance(v, list) and v != [] and all(
        _is_pair(w) and 0 <= w[0] < w[1] <= 1 for w in v),
        "null or a non-empty list of [lo, hi] pairs with 0 <= lo < hi <= 1"),
    "target": (_is_target, "an object of {attribute: {value: proportion}}"),
    "static_pairs": (lambda v: v is None or isinstance(v, dict) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in v.values()),
        "an object of {attribute: [toward, away]}"),
    "sweep": (_is_sweep, "a list of targets or an object with exactly 'attribute' and "
                         "'value' (strings) and 'proportions' (a list of numbers in [0, 1])"),
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

    def __post_init__(self):
        """Check every field, whether made from a config, in Python or by `replace`."""
        for key, (check, what) in _KEY_CHECKS.items():
            value = getattr(self, key)
            if not check(value):
                raise ValueError(f"config key {key!r} must be {what}, got {value!r}")
        for p in self.prompts:
            if not isinstance(p, PromptSpec):
                raise ValueError(f"config key 'prompts' holds a bad prompt entry {p!r}: "
                                 "not a PromptSpec")
        if self.policy not in ("vanilla", *POLICY_KINDS):
            raise ValueError(f"unknown policy {self.policy!r}")
        self.window = tuple(self.window)

    @classmethod
    def from_dict(cls, data: dict, base_dir: str = ".") -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "world_path" not in data or "prompts" not in data:
            raise ValueError("config needs at least 'world_path' and 'prompts'")
        data = dict(data)
        if isinstance(data["prompts"], list):
            prompts = []
            for p in data["prompts"]:
                try:
                    prompts.append(PromptSpec(**p))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"config key 'prompts' holds a bad prompt entry {p!r}: "
                                     f"{exc}") from None
            data["prompts"] = prompts
        if isinstance(data["world_path"], str) and not os.path.isabs(data["world_path"]):
            data["world_path"] = os.path.join(base_dir, data["world_path"])
        return cls(**data)

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "ExperimentSpec":
        """The config in the JSON file, with `overrides` replacing its keys."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: a config must be a JSON object")
        return cls.from_dict({**data, **(overrides or {})},
                             base_dir=os.path.dirname(os.path.abspath(path)))

    def digest(self) -> str:
        # vars() serializes nested dataclasses as asdict() would, without its deep copy.
        body = json.dumps(vars(self), sort_keys=True, separators=(",", ":"), default=vars)
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


def _advance(world: MixtureWorld, schedule, conds: list[Condition], tapes: np.ndarray,
             rows: list[int], x: np.ndarray | None, start: int, stop: int,
             steering: Steering | None = None, probe: GuidanceProbe | None = None
             ) -> tuple[np.ndarray, dict[int, str]]:
    """Advance `rows` (indices into conds) from step `start` to `stop` in one
    `run_trajectories` call.  Returns every row's latents (NaN where not run
    or failed) and each failed row's first message; the probe receives the
    rows in the order given."""
    out = np.full((len(conds), world.dimension), np.nan)
    if not rows:
        return out, {}
    # A run of consecutive rows is a view of the tapes, not a copy.
    sel = (slice(rows[0], rows[-1] + 1) if rows == list(range(rows[0], rows[-1] + 1))
           else np.array(rows))
    out[sel], failed = run_trajectories(world, schedule, [conds[r] for r in rows], tapes[:, sel],
                                        steering, start, stop, None if x is None else x[sel], probe)
    return out, {rows[b]: message for b, message in failed.items()}


@dataclass
class _Arm:
    """One arm of a batch: its settings, and the state and results its prompts build up."""

    spec: ExperimentSpec
    out_dir: str | None
    config: GuidanceConfig
    target: TargetDistribution
    policy: IndicatorPolicy | None
    active: np.ndarray  # the steps the arm blends: its window, or none unsteered
    prefix: int
    memory: MemoryModule | None
    ordinal: int
    digest: str
    todo: int  # prompt instances not yet decided
    samples: list[GeneratedSample] = field(default_factory=list)
    qualities: list[QualityScores] = field(default_factory=list)
    probe_rows: list[tuple] = field(default_factory=list)
    failures: list[list[str]] = field(default_factory=list)


def _open_arm(spec: ExperimentSpec, world: MixtureWorld, schedule, out_dir: str | None) -> _Arm:
    """Check the arm's settings against the world and set up its memory."""
    config = GuidanceConfig(spec.gamma, spec.window, spec.attribute_scale)
    target = TargetDistribution(spec.target)
    target.validate_for(world.schema)
    policy = _build_policy(spec)
    if policy is not None:
        policy.validate_for(world.schema)
    prompts_seen = 0
    memory: MemoryModule | None = None
    if policy is not None:
        tau = spec.memory_tau if spec.memory_tau is not None else default_match_threshold(world)
        path = spec.memory_path
        if path and os.path.exists(path):
            memory, prompts_seen = restore_memory(path, world.schema, world.dimension)
        else:
            # Refused before any row runs, not when the run's end writes it.
            if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise ValueError(f"config key 'memory_path': no directory to write {path!r} in")
            memory = MemoryModule(budget=spec.memory_budget, tau=tau)
    # The steps the arm blends: its window, or none when it has no policy, gamma is
    # 1 or the world has no attribute.  Those before the first are the same under
    # every plan, so they need running once per row; unsteered, that is every step.
    active = window_mask(schedule, config) & (
        policy is not None and config.gamma != 1.0 and bool(world.schema.attributes))
    prefix = schedule.steps
    if active.any():
        prefix = schedule.steps - 1 - int(np.flatnonzero(active).max())
    return _Arm(spec, out_dir, config, target, policy, active, prefix, memory, prompts_seen,
                spec.digest(), sum(prompt.count for prompt in spec.prompts))


def _close_arm(arm: _Arm, world: MixtureWorld, t_start: float) -> RunResult:
    """Write the arm's artifacts and memory; its result."""
    spec, out_dir, digest = arm.spec, arm.out_dir, arm.digest
    report = None
    if arm.qualities:
        report = build_report(arm.samples, arm.qualities, arm.target, world.schema, spec.seed,
                              digest)
    outputs: list[str] = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_samples_csv(arm.samples, world, os.path.join(out_dir, "samples.csv"), digest,
                          spec.seed)
        outputs.append("samples.csv")
        if report is not None:
            write_report_csv(report, os.path.join(out_dir, "report.csv"), world.schema)
            outputs.append("report.csv")
        if spec.diagnostics and arm.probe_rows:
            write_csv(os.path.join(out_dir, "diagnostics.csv"), "diagnostics",
                      {"config_digest": digest},
                      ["prompt_id", "sample_index", "t_index", "cosine", "base_norm", "attr_norm"],
                      arm.probe_rows)
            outputs.append("diagnostics.csv")
    if spec.memory_path and arm.memory is not None:
        snapshot_memory(arm.memory, spec.memory_path, world.schema, prompts_seen=arm.ordinal)
    manifest = RunManifest(
        config_digest=digest,
        master_seed=spec.seed,
        world_digest=world.digest(),
        outputs=outputs,
        failures=arm.failures,
        timings={"total_s": round(time.perf_counter() - t_start, 3)},
    )
    if out_dir is not None:
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest.__dict__, fh, indent=1, sort_keys=True)
    return RunResult(arm.samples, report, manifest, arm.failures, arm.memory, arm.ordinal)


def _run_batch(specs: list[ExperimentSpec], world: MixtureWorld,
               out_dirs: list[str | None]) -> Iterator[RunResult]:
    """Run arms as row groups of one batch, yielding each arm's result, in
    order, as soon as its last prompt is decided and its artifacts written.

    The arms differ only in seed, target and window, each checked when its
    spec was made, so every arm is set up before any row runs: an arm that
    cannot be set up raises before any arm has run.
    """
    t_start = time.perf_counter()
    base = specs[0]
    schema = world.schema
    schedule = linear_schedule(base.steps, base.beta_start, base.beta_end)
    arms = [_open_arm(spec, world, schedule, out_dir) for spec, out_dir in zip(specs, out_dirs)]
    n = base.samples_per_prompt
    instances = [(arm, prompt, i) for arm in arms for prompt in arm.spec.prompts
                 for i in range(prompt.count)]

    # Per row a chunk holds its tapes and prefix latents, and in a batch the
    # mixtures gathered for it (base and two per attribute, K components each);
    # per row and plan the policy can choose, finished latents and probe rows.
    d, k = world.dimension, max(Counter(c.concept for c in world.components).values())
    row_bytes = 8 * d * (schedule.steps + 1) + 8 * (1 + 2 * len(schema.attributes)) * k * (
        d * d + 3 * d + 2)
    plans = 1 if base.policy in ("vanilla", "static") else math.prod(
        len(a.values) * (len(a.values) - 1) for a in schema.attributes)
    per_chunk = max(1, _CHUNK_BYTES // max(
        (n * (row_bytes + plans * 8 * (d + 3 * int(arm.active.sum()) * base.diagnostics))
         for arm in arms)))
    # Each prompt instance's condition, or the error making it raised, keyed
    # by what it is made from, so that the arms share it.
    made: dict[tuple, Condition | SteerlabError] = {}
    for lo in range(0, len(instances), per_chunk):
        # Each prompt's condition and streams up front; rows are the streams of
        # the prompts whose condition was made, in run order.
        chunk = []
        conds: list[Condition] = []
        row_arms: list[_Arm] = []
        streams = []
        for arm, prompt, instance in instances[lo:lo + per_chunk]:
            key = (prompt.concept, tuple(sorted(prompt.constraints.items())), prompt.jitter_seed,
                   instance)
            if key not in made:
                try:
                    made[key] = make_condition(
                        world, prompt.concept, prompt.constraints,
                        jitter_seed=_child_seed(prompt.jitter_seed, instance),
                        jitter_scale=base.jitter_scale,
                    )
                except SteerlabError as exc:
                    made[key] = exc
            cond = made[key]
            if isinstance(cond, Condition):
                conds += [cond] * n
                row_arms += [arm] * n
                streams += [np.random.SeedSequence([arm.spec.seed, arm.ordinal, s_i])
                            for s_i in range(n)]
            chunk.append((arm, prompt, f"{prompt.concept}-{arm.ordinal:05d}", arm.ordinal, cond,
                          len(conds) - n))
            arm.ordinal += 1
        tapes = noise_tapes([np.random.default_rng(s) for s in streams], schedule.steps, d)
        # Every row runs its arm's prefix, and the arms share the steps their
        # prefixes have in common: rows whose prefix is longer go on from
        # where the shorter ones stopped.
        x = tapes[0].copy()
        prefix_failed: dict[int, str] = {}
        at = 0
        for stop in sorted({arm.prefix for arm in row_arms} - {0}):
            going = [r for r, arm in enumerate(row_arms)
                     if arm.prefix >= stop and r not in prefix_failed]
            latents, failed = _advance(world, schedule, conds, tapes, going, x, at, stop)
            x[going] = latents[going]
            prefix_failed.update(failed)
            at = stop
        # Arms with one config (window) share their finishes: the rows of each.
        members: dict[GuidanceConfig, list[int]] = {}
        for r, arm in enumerate(row_arms):
            if r not in prefix_failed:
                members.setdefault(arm.config, []).append(r)
        # (config, plan) -> every row's latents and failures, finished under it from
        # the first row to choose it to the end of the chunk, over the rows of the
        # arms with that config, and (with diagnostics) its probe and each row's place.
        runs: dict[tuple, tuple] = {}
        for arm, prompt, prompt_id, p_ordinal, cond, row0 in chunk:
            try:
                if not isinstance(cond, Condition):
                    raise cond
                marg_mix = conditional_components(
                    world, Condition(prompt.concept, {}, cond.embedding)
                )
                # Staged until the whole prompt succeeds, so a failure leaves no
                # trace; `record` replaces clusters, so a new list is a copy.
                staged_memory = arm.memory and replace(arm.memory,
                                                       clusters=list(arm.memory.clusters))
                rows: list[GeneratedSample] = []
                probes: list[tuple] = []
                hits = 0
                logdens = 0.0
                for s_i in range(n):
                    r = row0 + s_i
                    plan = EMPTY_PLAN
                    if arm.policy is not None:  # decided on the records of the samples before it
                        rng = None  # only the probabilistic policy draws
                        if arm.policy.kind == "probabilistic":
                            rng = np.random.default_rng(np.random.SeedSequence(
                                [arm.spec.seed, _POLICY_NS, p_ordinal, s_i]))
                        plan = decide(staged_memory, cond, schema, arm.target, arm.policy, rng)
                    key = arm.config, plan
                    if key not in runs:
                        going = [q for q in members.get(arm.config, ()) if q >= r]
                        probe = GuidanceProbe() if base.diagnostics else None
                        finished, failed = _advance(
                            world, schedule, conds, tapes, going, x, arm.prefix, schedule.steps,
                            Steering(arm.active, plan, arm.config.gamma, arm.config.attribute_scale)
                            if arm.active.any() else None, probe)
                        runs[key] = (finished, {**failed, **prefix_failed}, probe,
                                     {q: j for j, q in enumerate(going)} if probe else None)
                    finished, failed, probe, place = runs[key]
                    if r in failed:
                        raise SteerlabError(failed[r])
                    x0 = finished[r]
                    labels, concept_post = discriminate(world, x0)
                    if arm.policy is not None:
                        outcome = ({a: e.target for a, e in plan.entries}
                                   if base.record_intent else labels)
                        record(staged_memory, cond, outcome)
                    if probe is not None:
                        probes.extend((prompt_id, s_i) + row for row in probe.stream(place[r]))
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
                arm.failures.append([prompt_id, str(exc)])
            else:
                arm.memory = staged_memory
                arm.samples.extend(rows)
                arm.probe_rows.extend(probes)
                arm.qualities.append(QualityScores(hits / n, logdens / n))
            arm.todo -= 1
            if not arm.todo:
                yield _close_arm(arm, world, t_start)
                t_start = time.perf_counter()
    for arm in arms if not instances else ():  # no prompts at all
        yield _close_arm(arm, world, t_start)


def _load_world(spec: ExperimentSpec) -> MixtureWorld:
    """The world of the config; an unreadable file names the config key."""
    try:
        return load_world(spec.world_path)
    except OSError as exc:
        raise type(exc)(exc.errno, f"config key 'world_path': {exc.strerror}",
                        exc.filename) from None


def run_generate(
    spec: ExperimentSpec, out_dir: str | None = None, world: MixtureWorld | None = None
) -> RunResult:
    """Execute one arm: decide, sample, discriminate, record — per generation.

    A failing prompt is logged and skipped with none of its state committed;
    the rest of the run continues and the failure list marks the run as partial.
    This is the one-arm case of the batch that sweeps and ablations run.
    """
    if world is None:
        world = _load_world(spec)
    return next(_run_batch([spec], world, [out_dir]))


def write_samples_csv(samples: list[GeneratedSample], world: MixtureWorld, path: str,
                      config_digest: str, master_seed: int) -> None:
    attrs = world.schema.names()
    header = ["prompt_id", "prompt_ordinal", "sample_index", "stream_seed", "concept"]
    header += [f"x{i}" for i in range(world.dimension)] + list(attrs)
    rows = (
        [s.prompt_id, s.prompt_ordinal, s.sample_index, s.stream_seed, s.concept]
        + [repr(float(v)) for v in s.x] + [s.labels[a] for a in attrs]
        for s in samples
    )
    meta = {"config_digest": config_digest, "world_digest": world.digest(),
            "master_seed": master_seed}
    write_csv(path, "samples", meta, header, rows)


def load_samples_csv(path: str, attributes: Sequence[str]
                     ) -> tuple[np.ndarray, list[dict[str, str]], list[str]]:
    """Points, per-sample labels, and column names from a samples.csv file.

    The labels are the last columns, one per attribute given (the world's, in
    schema order), and the points are the `x<i>` columns before them."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, 1)
                if not line.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no header row")
    header, attributes = rows[0][1].split(","), list(attributes)
    first_attr = len(header) - len(attributes)
    if header[first_attr:] != attributes:
        raise ValueError(f"{path}: the header does not end with the world's attribute "
                         f"columns {attributes}")
    coord_idx = [i for i, h in enumerate(header[:first_attr])
                 if h.startswith("x") and h[1:].isdigit()]
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
        if not all(map(math.isfinite, points[-1])):
            raise ValueError(f"{path}:{lineno}: non-finite coordinate in {points[-1]}")
        labels.append(dict(zip(attributes, cells[first_attr:])))
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
    if not (spec.sweep if isinstance(spec.sweep, list) else spec.sweep["proportions"]):
        raise ValueError("config key 'sweep' holds no arm: give at least one target or proportion")
    if isinstance(spec.sweep, list):
        for i, t in enumerate(spec.sweep):  # refused before any arm runs
            try:
                TargetDistribution(t).validate_for(world.schema)
            except WorldValidationError as exc:
                raise WorldValidationError(f"config key 'sweep': target {i}: {exc}") from None
        return [dict(t) for t in spec.sweep]
    attr = spec.sweep["attribute"]
    value = spec.sweep["value"]
    proportions = spec.sweep["proportions"]
    if attr not in world.schema.names():
        raise WorldValidationError(f"config key 'sweep': unknown attribute {attr!r}")
    values = world.schema.values_of(attr)
    if value not in values:
        raise ValueError(f"config key 'sweep': value {value!r} not in attribute {attr!r}")
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
    """One arm per (label, spec overrides), each with a fresh memory and derived
    seed, all run as row groups of one batch.

    Writes `<kind>.csv`; only a sweep's carries the avg/std summary lines.
    """
    specs = [replace(spec, **overrides, memory_path=None, seed=_child_seed(spec.seed, _ARM_NS, i))
             for i, (_, overrides) in enumerate(arms)]
    out_dirs = [os.path.join(out_dir, f"arm_{i:02d}") if out_dir else None
                for i in range(len(arms))]
    rows: list[ArmRow] = []
    results: list[RunResult] = []
    for i, ((label, _), result) in enumerate(zip(arms, _run_batch(specs, world, out_dirs))):
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
    world = _load_world(spec)
    arms = [(_describe_target(t), {"target": t, "sweep": None})
            for t in sweep_targets(spec, world)]
    return _run_arms(spec, world, arms, "sweep", out_dir)


def run_window_ablation(spec: ExperimentSpec, out_dir: str | None = None) -> ArmsResult:
    """One arm per guidance window (defaults: early, middle, late); writes ablation.csv."""
    world = _load_world(spec)
    arms = [(f"window={lo:g},{hi:g}", {"window": (lo, hi), "windows": None})
            for lo, hi in (spec.windows or DEFAULT_ABLATION_WINDOWS)]
    return _run_arms(spec, world, arms, "ablation", out_dir)
