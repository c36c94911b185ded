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
the one-arm case.  A long batch is cut into chunks of whole prompts, across
arms, that each hold under `_CHUNK_BYTES`.  A chunk runs its rows' steps
before the window once, then finishes the rest of each window's rows in one
engine call under every plan the policy can decide (`controller.plan_space`),
so each sample's decision only picks its row under its plan.  A plan space
larger than those rows, or whose plans past the decided one would add more
than `_SPARE_ROWS` rows, is finished one decided plan at a time.
Every row is computed as if alone, so none of this changes a bit of output,
and a row that fails (goes non-finite, or cannot take a plan) fails only a
prompt that chooses that plan for it.  A prompt works on a copy of its arm's
memory and stages its rows; both are committed only when all its samples
succeed, so a failed prompt leaves memory and artifacts as if it had not
run, apart from the ordinal slot it used.  An arm writes its artifacts as
soon as its last prompt is decided, so a sweep that stops at a failed arm
leaves what one run per arm would have left.

A persisted memory file carries the count of prompts already processed, so a
run that resumes from it continues the ordinal sequence exactly where the
previous run stopped; two chained runs replay identically to one combined
run.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
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
    lookup,
    plan_space,
    record,
    restore_memory,
    snapshot_memory,
)
from .diffusion import Steering, linear_schedule, mixture_log_density, noise_tapes, run_trajectories
from .errors import SteerlabError, WorldValidationError
from .evaluate import BiasReport, QualityScores, build_report, discriminate, write_csv, write_report_csv
from .guidance import EMPTY_PLAN, GuidanceConfig, GuidancePlan, GuidanceProbe, window_mask
from .world import Condition, MixtureWorld, TargetDistribution, conditional_components, make_condition
from .worldfile import load_world

log = logging.getLogger("steerlab.harness")

_POLICY_NS = 7919   # namespace constants keeping derived seed streams disjoint
_ARM_NS = 104729
_CHUNK_BYTES = 64 * 2**20  # bound on what one chunk of prompts holds
# Rows a finish may run beyond its plan's to run every plan at once.  In runs
# on two-dimensional worlds of 2 to 36 plans, each such finish within 128
# spare rows beat one finish per decided plan by 1.06-2.21x; past that the
# results were mixed, and `deficit`, which decides fewest plans, lost from 396
# on (BENCH_pr23.json, `crossover`).
_SPARE_ROWS = 128

DEFAULT_ABLATION_WINDOWS = ((0.0, 0.25), (0.375, 0.625), (0.75, 1.0))


def _is_window(v) -> bool:
    return (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))
            and 0 <= v[0] < v[1] <= 1)


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
    "steps": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "memory_budget": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    **dict.fromkeys(("beta_start", "beta_end"),
                    (lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)")),
    "gamma": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "attribute_scale": (lambda v: _is_number(v) and 0 < v < math.inf,
                        "a positive finite number"),
    "jitter_scale": (lambda v: _is_number(v) and 0 <= v < math.inf, "a finite number >= 0"),
    "memory_tau": (lambda v: v is None or _is_number(v) and v > 0, "a positive number"),
    "window": (_is_window, "a [lo, hi] pair of numbers with 0 <= lo < hi <= 1"),
    "windows": (lambda v: v is None or isinstance(v, list) and v != [] and all(map(_is_window, v)),
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
        if self.beta_start > self.beta_end:
            raise ValueError(f"config key 'beta_end' must be >= beta_start {self.beta_start!r}, "
                             f"got {self.beta_end!r}")
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None
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
    """Advance `rows`, indices into conds, tapes and x that may repeat, from step
    `start` to `stop` in one `run_trajectories` call; the steering's plans and the
    probe's rows are theirs, in the order given.  Returns their latents in that
    order (NaN where failed) and each failed position's first message."""
    if not rows:
        return np.empty((0, world.dimension)), {}
    # A run of consecutive rows is a view of the tapes and latents, not a copy.
    sel = (slice(rows[0], rows[-1] + 1) if rows == list(range(rows[0], rows[-1] + 1))
           else np.array(rows))
    return run_trajectories(world, schedule, [conds[r] for r in rows], tapes[:, sel], steering,
                            start, stop, None if x is None else x[sel], probe)


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
    plans: tuple[GuidancePlan, ...]  # every plan `decide` can give, when the arm blends a step
    memory: MemoryModule | None
    ordinal: int
    digest: str
    todo: int  # prompt instances not yet decided
    samples: list[GeneratedSample] = field(default_factory=list)
    qualities: list[QualityScores] = field(default_factory=list)
    probe_rows: list[tuple] = field(default_factory=list)
    failures: list[list[str]] = field(default_factory=list)


def _open_arm(spec: ExperimentSpec, world: MixtureWorld, schedule, out_dir: str | None) -> _Arm:
    """Check the arm's settings against the world and any memory it resumes; set up its memory."""
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
            derived = "" if spec.memory_tau is not None else " (derived from the world)"
            for key, want, got, how in (("memory_budget", spec.memory_budget, memory.budget, ""),
                                        ("memory_tau", tau, memory.tau, derived)):
                if got != want:  # a resumed memory runs under the config's settings, or not at all
                    raise ValueError(f"config key {key!r} is {want!r}{how}, but memory file "
                                     f"{path!r} was written with {got!r}")
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
    prefix, plans = schedule.steps, ()
    if active.any():
        prefix = schedule.steps - 1 - int(np.flatnonzero(active).max())
        plans = plan_space(world.schema, policy)
    return _Arm(spec, out_dir, config, target, policy, active, prefix, plans, memory,
                prompts_seen, spec.digest(), sum(prompt.count for prompt in spec.prompts))


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
            fh.write(json.dumps(manifest.__dict__, indent=1, sort_keys=True))
    return RunResult(arm.samples, report, manifest, arm.failures, arm.memory, arm.ordinal)


class _Chunk:
    """The rows of a chunk of whole prompt instances, across arms, in run order:
    per sample of each instance whose condition could be made, its arm,
    condition, stream seed, noise tape and latent after its arm's prefix."""

    @classmethod
    def split(cls, world: MixtureWorld, schedule, arms: list[_Arm]) -> Iterator[_Chunk]:
        """The arms' prompt instances in chunks that each hold under `_CHUNK_BYTES`.
        A row holds its tape, its prefix latent and its base mixture gathered for
        the prefix (K components each).  For an arm that blends a step, a finish
        holds per (row, plan) it runs the row's gathered tape, per slot (the base
        and two per attribute) its gathered mixture and noise row, and its
        latents and probe rows, which it keeps.  A row keeps at most one finish
        per plan, and one finish runs at a time, over a chunk's rows and at most
        `spare` more: up to `_SPARE_ROWS`, out of half the bound."""
        d, steps, n = world.dimension, schedule.steps, arms[0].spec.samples_per_prompt
        k = max(Counter(c.concept for c in world.components).values())
        mixture = 8 * k * (d * d + 2 * d + 1)  # means, log weights, eigenvalues and eigenvectors
        slots = 1 + 2 * len(world.schema.attributes)

        def finish_bytes(arm: _Arm) -> tuple[int, int]:
            """What a finish holds per (row, plan) of the arm's, and what it keeps of that."""
            kept = 8 * d + 24 * int(arm.active.sum()) * arm.spec.diagnostics  # latent, probe rows
            return 8 * d * (steps + 1) + slots * (mixture + 8 * d) + 8 * 3 * d + kept, kept

        def instance_bytes(arm: _Arm) -> int:
            cell, kept = finish_bytes(arm)
            return n * (8 * d * (steps + 2) + mixture + bool(arm.plans) * cell
                        + len(arm.plans) * kept)
        cell = max((finish_bytes(arm)[0] for arm in arms if arm.plans), default=0)
        spare = min(_SPARE_ROWS, _CHUNK_BYTES // 2 // cell) if cell else 0
        per_chunk = max(1, (_CHUNK_BYTES - spare * cell) // max(map(instance_bytes, arms)))
        instances = [(arm, prompt, i) for arm in arms for prompt in arm.spec.prompts
                     for i in range(prompt.count)]
        made: dict[tuple, Condition | SteerlabError] = {}
        for lo in range(0, len(instances), per_chunk):
            yield cls(world, schedule, instances[lo:lo + per_chunk], made, spare)

    def __init__(self, world: MixtureWorld, schedule, instances: list[tuple],
                 made: dict[tuple, Condition | SteerlabError], spare: int):
        """Rows for `instances`, each (arm, prompt, instance index), which take
        their arms' next ordinals; `made` holds each instance's condition, or the
        error making it raised, keyed by what it is made from, so arms share it.
        A finish may run `spare` rows beyond its plan's to run every plan."""
        self.world, self.schedule, self.spare = world, schedule, spare
        self.prompts: list[tuple] = []  # (arm, prompt, prompt id, ordinal, condition, first row)
        self.conds: list[Condition] = []
        self.arms: list[_Arm] = []
        streams = []
        for arm, prompt, instance in instances:
            key = (prompt.concept, tuple(sorted(prompt.constraints.items())), prompt.jitter_seed,
                   instance)
            if key not in made:
                try:
                    seed = _child_seed(prompt.jitter_seed, instance)
                    made[key] = make_condition(world, prompt.concept, prompt.constraints,
                                               jitter_seed=seed, jitter_scale=arm.spec.jitter_scale)
                except SteerlabError as exc:
                    made[key] = exc
            cond, n = made[key], arm.spec.samples_per_prompt
            if isinstance(cond, Condition):
                self.conds += [cond] * n
                self.arms += [arm] * n
                streams += [np.random.SeedSequence([arm.spec.seed, arm.ordinal, s_i])
                            for s_i in range(n)]
            self.prompts.append((arm, prompt, f"{prompt.concept}-{arm.ordinal:05d}", arm.ordinal,
                                 cond, len(self.conds) - n))
            arm.ordinal += 1
        self.seeds = [int(s.generate_state(1)[0]) for s in streams]  # each row's stream seed
        self.tapes = noise_tapes([np.random.default_rng(s) for s in streams], schedule.steps,
                                 world.dimension)
        # Steps before an arm's window are the same under every plan; rows whose
        # prefix is longer go on from where the shorter ones stopped.
        self.x = self.tapes[0].copy()
        self.prefix_failed: dict[int, str] = {}
        for at, stop in itertools.pairwise([0, *sorted({arm.prefix for arm in self.arms} - {0})]):
            going = [r for r, arm in enumerate(self.arms)
                     if arm.prefix >= stop and r not in self.prefix_failed]
            latents, failed = _advance(world, schedule, self.conds, self.tapes, going, self.x,
                                       at, stop)
            self.x[going] = latents
            self.prefix_failed.update((going[j], message) for j, message in failed.items())
        # (config, plan) -> its finish's latents, failures, probe, rows' ranks, first position
        self.runs: dict[tuple, tuple] = {}

    def finish(self, arm: _Arm, plan, r: int) -> tuple[np.ndarray, list[tuple]]:
        """Row `r`'s clean latent under `plan` and `arm`'s config (window), a
        copy that keeps no chunk array alive, and its probe rows; a row that
        failed raises its message as a SteerlabError.

        An arm that blends no step has its latents from the prefix.  Otherwise
        the first row to need a (config, plan) finishes, as one batch, every
        row from it to the end of the chunk whose arm has that config, each
        under its own condition's edited mixtures.  The config's first finish
        runs every plan the arm's policy can decide, when those rows could
        decide each of them and the plans other than `plan` add at most
        `spare` rows; any other finish runs `plan` alone, since the plans that
        no row has needed yet are the ones the policy chooses least.  Later rows that
        need a (config, plan) it ran, of that arm or a later one, take theirs
        from it."""
        if r in self.prefix_failed:
            raise SteerlabError(self.prefix_failed[r])
        if not arm.plans:
            return self.x[r].copy(), []
        if (arm.config, plan) not in self.runs:
            going = [q for q in range(r, len(self.arms))
                     if self.arms[q].config == arm.config and q not in self.prefix_failed]
            first = not any((arm.config, p) in self.runs for p in arm.plans)
            every = (first and len(arm.plans) <= len(going)
                     and (len(arm.plans) - 1) * len(going) <= self.spare)
            plans = arm.plans if every else (plan,)
            probe = GuidanceProbe() if arm.spec.diagnostics else None
            steering = Steering(arm.active, tuple(p for p in plans for _ in going),
                                arm.config.gamma, arm.config.attribute_scale)
            finished, failed = _advance(self.world, self.schedule, self.conds, self.tapes,
                                        going * len(plans), self.x, arm.prefix,
                                        self.schedule.steps, steering, probe)
            rank = {q: i for i, q in enumerate(going)}
            for i, p in enumerate(plans):  # rows come plan by plan, each in `going` order
                self.runs[arm.config, p] = finished, failed, probe, rank, i * len(going)
        finished, failed, probe, rank, at = self.runs[arm.config, plan]
        j = at + rank[r]
        if j in failed:
            raise SteerlabError(failed[j])
        return finished[j].copy(), probe.stream(j) if probe else []


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
    schedule = linear_schedule(base.steps, base.beta_start, base.beta_end)
    arms = [_open_arm(spec, world, schedule, out_dir) for spec, out_dir in zip(specs, out_dirs)]
    n = base.samples_per_prompt
    for chunk in _Chunk.split(world, schedule, arms):
        for arm, prompt, prompt_id, p_ordinal, cond, row0 in chunk.prompts:
            try:
                if not isinstance(cond, Condition):
                    raise cond
                marg_mix = conditional_components(world,
                                                  Condition(prompt.concept, {}, cond.embedding))
                # Staged until the whole prompt succeeds, so a failure leaves no
                # trace; `record` replaces clusters, so a new list is a copy.
                memory = arm.memory and replace(arm.memory, clusters=list(arm.memory.clusters))
                rows: list[GeneratedSample] = []
                probes: list[tuple] = []
                hits, logdens = 0, 0.0
                for s_i in range(n):
                    plan, match = EMPTY_PLAN, None
                    if arm.policy is not None:  # decided on the records of the samples before it
                        rng = None  # only the probabilistic policy draws
                        if arm.policy.kind == "probabilistic":
                            rng = np.random.default_rng(np.random.SeedSequence(
                                [arm.spec.seed, _POLICY_NS, p_ordinal, s_i]))
                        match = lookup(memory, cond.embedding)  # `record` takes it too
                        plan = decide(memory, cond, world.schema, arm.target, arm.policy, rng,
                                      match=match)
                    x0, probe_rows = chunk.finish(arm, plan, row0 + s_i)
                    labels, concept_post = discriminate(world, x0)
                    if arm.policy is not None:
                        outcome = ({a: e.target for a, e in plan.entries}
                                   if base.record_intent else labels)
                        record(memory, cond, outcome, match=match)
                    probes.extend((prompt_id, s_i) + row for row in probe_rows)
                    if max(concept_post, key=lambda c: concept_post[c]) == prompt.concept:
                        hits += 1
                    logdens += mixture_log_density(marg_mix, x0, 1.0)
                    rows.append(GeneratedSample(
                        prompt_id=prompt_id, prompt_ordinal=p_ordinal, sample_index=s_i,
                        stream_seed=chunk.seeds[row0 + s_i],
                        concept=prompt.concept, x=x0, labels=labels))
            except SteerlabError as exc:
                log.warning("prompt %s failed: %s", prompt_id, exc)
                arm.failures.append([prompt_id, str(exc)])
            else:
                arm.memory = memory
                arm.samples.extend(rows)
                arm.probe_rows.extend(probes)
                arm.qualities.append(QualityScores(hits / n, logdens / n))
            arm.todo -= 1
            if not arm.todo:
                yield _close_arm(arm, world, t_start)
                t_start = time.perf_counter()
    for arm in arms if not base.prompts else ():  # no prompts at all
        yield _close_arm(arm, world, t_start)


def _load_world(spec: ExperimentSpec) -> MixtureWorld:
    """The world of the config; an unreadable file names the config key."""
    try:
        return load_world(spec.world_path)
    except OSError as exc:
        raise type(exc)(exc.errno, f"config key 'world_path': {exc.strerror}",
                        exc.filename) from None


def run_generate(spec: ExperimentSpec, out_dir: str | None = None) -> RunResult:
    """Execute one arm: decide, sample, discriminate, record — per generation.

    A failing prompt is logged and skipped with none of its state committed;
    the rest of the run continues and the failure list marks the run as partial.
    This is the one-arm case of the batch that sweeps and ablations run.
    """
    return next(_run_batch([spec], _load_world(spec), [out_dir]))


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        raise ValueError(f"{path}: no header row")
    # Parsed as `write_csv` quotes, one line a row: none of its cells holds a line break.
    rows = list(zip((n for n, _ in lines), csv.reader(line for _, line in lines)))
    header, attributes = rows[0][1], list(attributes)
    first_attr = len(header) - len(attributes)
    if header[first_attr:] != attributes:
        raise ValueError(f"{path}: the header does not end with the world's attribute "
                         f"columns {attributes}")
    coord_idx = [i for i, h in enumerate(header[:first_attr])
                 if h.startswith("x") and h[1:].isdigit()]
    points = []
    labels = []
    for lineno, cells in rows[1:]:
        if not cells:
            continue
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


def _run_arms(spec: ExperimentSpec, arms: list[tuple[str, dict]], kind: str,
              out_dir: str | None) -> ArmsResult:
    """One arm per (label, spec overrides), each with a fresh memory and derived
    seed, all run as row groups of one batch.

    Writes `<kind>.csv`; only a sweep's carries the avg/std summary lines.
    """
    world = _load_world(spec)
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
    arms = [(_describe_target(t), {"target": t, "sweep": None})
            for t in sweep_targets(spec, _load_world(spec))]
    return _run_arms(spec, arms, "sweep", out_dir)


def run_window_ablation(spec: ExperimentSpec, out_dir: str | None = None) -> ArmsResult:
    """One arm per guidance window (defaults: early, middle, late); writes ablation.csv."""
    arms = [(f"window={lo:g},{hi:g}", {"window": (lo, hi), "windows": None})
            for lo, hi in (spec.windows or DEFAULT_ABLATION_WINDOWS)]
    return _run_arms(spec, arms, "ablation", out_dir)
