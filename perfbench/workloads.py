"""The three benchmark workloads: inputs from a seed, one timed op, output checks.

Every input (world-file text, config dicts) is generated from the workload
seed and the op index, so a seed fixes the whole run.  steerlab is reached
only through its public entry points: `ExperimentSpec.from_dict`,
`run_generate`, `run_sweep`, `run_window_ablation`, `cli.main` and
`worldfile.load_world`.  Module attributes are looked up at call time, so the
tracer's wrappers are used whenever they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

# The acceptance suite's calibrated strong-steering settings.
STEER = {"steps": 200, "beta_end": 0.1, "gamma": 0.6, "attribute_scale": 4.0}
SWEEP_SHARES = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
ABLATION_ARMS = 3            # steerlab's default windows: early, middle, late
WARMUP_OP = 2**30            # op index of the untimed warm-up call in set-up

_TAGS = {"vanilla-bulk": 1, "steer-sweep": 2, "chained-links": 3}


def _rng(seed: int, workload: str, *parts: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[workload], *parts])


def _steerlab():
    """The steerlab modules as currently imported (fresh after each re-import)."""
    return sys.modules["steerlab.cli"], sys.modules["steerlab.harness"], \
        sys.modules["steerlab.worldfile"]


def digests(paths: list[str], root: str) -> tuple[str, str]:
    """(raw, portable) sha256 over the files' bytes, keyed by path relative to root.

    The portable digest drops `# config_digest=` lines: that hash covers the
    absolute world and memory paths, so it differs between checkouts.
    manifest.json is never passed in (it holds wall-clock timings).
    """
    raw, portable = hashlib.sha256(), hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            data = fh.read()
        name = os.path.relpath(path, root).encode() + b"\0"
        raw.update(name + data)
        portable.update(name + b"".join(
            line for line in data.splitlines(keepends=True)
            if not line.startswith(b"# config_digest=")))
    return raw.hexdigest(), portable.hexdigest()


def artifact_files(out_dir: str) -> list[str]:
    return [os.path.join(d, f) for d, _, files in os.walk(out_dir) for f in files
            if f != "manifest.json"]


def manifest_failures(out_dir: str) -> int:
    total = 0
    for d, _, files in os.walk(out_dir):
        if "manifest.json" in files:
            with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
                total += len(json.load(fh)["failures"])
    return total


def summary_value(path: str, key: str) -> float:
    """A `# summary key=value` number from a steerlab CSV artifact."""
    prefix = f"# summary {key}="
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(prefix):
                return float(line[len(prefix):])
    raise ValueError(f"{path}: no '{prefix}' line")


def read_samples(path: str) -> tuple[list[str], np.ndarray]:
    """Concept column and coordinates of a samples.csv, parsed independently."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    concept = header.index("concept")
    coords = [i for i, h in enumerate(header) if h.startswith("x") and h[1:].isdigit()]
    return [r[concept] for r in body], np.array([[float(r[i]) for i in coords] for r in body])


def count_samples(out_dir: str) -> int:
    """Sample rows over every samples.csv under out_dir."""
    return sum(len(read_samples(os.path.join(d, "samples.csv"))[0])
               for d, _, files in os.walk(out_dir) if "samples.csv" in files)


def arm_biases(path: str) -> list[float]:
    """The bias column of a sweep.csv or ablation.csv (labels may hold commas)."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    return [float(row.rsplit(",", 2)[1]) for row in rows]


@dataclass
class Op:
    """What one timed op produced; all but `seconds` filled in by `Workload.inspect`."""

    seconds: float
    samples: int = 0
    prompts: int = 0
    failed: int = 0
    bias: float = math.nan
    raw_digest: str = ""
    digest: str = ""


class Workload:
    """One workload: `setup` once, then `run(k)` (timed) and `inspect(k)` per op."""

    name = ""
    min_ops = 1      # ops every untraced run completes; bias and digest come from them
    trace_ops = 1    # ops run twice (untraced, traced) by the traced run

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.errors: list[str] = []

    def op_dir(self, k: int) -> str:
        return os.path.join(self.workdir, f"op_{k:05d}")

    def setup(self) -> None:
        raise NotImplementedError

    def restart(self) -> None:
        """Reset state carried between ops, so op 0 can run again identically."""

    def prepare(self, k: int) -> None:
        """Untimed work before op k, such as writing the config file a user would."""

    def run(self, k: int) -> None:
        raise NotImplementedError

    def inspect(self, k: int, op: Op) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run; append to self.errors."""

    def _record(self, k: int, op: Op, out_dir: str, extra: tuple[str, ...] = ()) -> None:
        """Check the sample count, add manifest failures, digest the artifacts."""
        op.samples = count_samples(out_dir)
        if op.samples != op.prompts * self.SAMPLES:
            self.errors.append(f"op {k}: {op.samples} samples written, "
                               f"expected {op.prompts * self.SAMPLES}")
        op.failed += manifest_failures(out_dir)
        op.raw_digest, op.digest = digests(artifact_files(out_dir) + list(extra),
                                           self.workdir)


class VanillaBulk(Workload):
    """run_generate on the packaged world, policy vanilla, 1000-step schedule."""

    name = "vanilla-bulk"
    min_ops = 20
    trace_ops = 3
    PROMPTS = ("engineer", "teacher")
    SAMPLES = 16
    STEPS = 1000
    # A one-sided target: the unsteered bias is then the female share (about
    # 0.5 over both concepts), large against its sampling noise.
    TARGET = {"gender": {"male": 0.0, "female": 1.0}}

    def config(self, k: int, samples: int | None = None, steps: int | None = None) -> dict:
        rng = _rng(self.seed, self.name, k)
        return {
            "world_path": self.world_path,
            "prompts": [{"concept": c, "count": 1, "jitter_seed": int(rng.integers(2**31))}
                        for c in self.PROMPTS],
            "target": self.TARGET, "policy": "vanilla",
            "samples_per_prompt": samples or self.SAMPLES, "steps": steps or self.STEPS,
            "seed": int(rng.integers(2**31)),
        }

    def setup(self) -> None:
        _, harness, worldfile = _steerlab()
        self.world_path = worldfile.default_world_path()
        world = worldfile.load_world(self.world_path)
        self.moments = {}
        for concept in self.PROMPTS:
            comps = [c for c in world.components if c.concept == concept]
            w = np.array([c.weight for c in comps]) / sum(c.weight for c in comps)
            mean = sum(wi * c.mean for wi, c in zip(w, comps))
            second = sum(wi * (c.covariance + np.outer(c.mean, c.mean))
                         for wi, c in zip(w, comps))
            self.moments[concept] = (mean, second - np.outer(mean, mean))
        self.points = {}     # op index -> (concepts, coordinates)
        harness.run_generate(
            harness.ExperimentSpec.from_dict(self.config(WARMUP_OP, samples=1, steps=20)),
            out_dir=os.path.join(self.workdir, "warmup"))

    def run(self, k: int) -> None:
        _, harness, _ = _steerlab()
        harness.run_generate(harness.ExperimentSpec.from_dict(self.config(k)),
                             out_dir=self.op_dir(k))

    def inspect(self, k: int, op: Op) -> None:
        out = self.op_dir(k)
        op.prompts = len(self.PROMPTS)
        op.bias = summary_value(os.path.join(out, "report.csv"), "bias_combined")
        self.points[k] = read_samples(os.path.join(out, "samples.csv"))
        self._record(k, op, out)

    def finish(self) -> None:
        """Per-concept sample moments within 5 standard errors of the analytic ones."""
        for concept, (mean, cov) in self.moments.items():
            x = np.array([x for concepts, points in self.points.values()
                          for c, x in zip(concepts, points) if c == concept])
            n = len(x)
            z_mean = (x.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / n)
            centered = x - x.mean(axis=0)
            products = centered[:, :, None] * centered[:, None, :]
            se_cov = products.std(axis=0) / math.sqrt(n)
            z_cov = (products.mean(axis=0) - cov) / se_cov
            if np.abs(z_mean).max() > 5 or np.abs(z_cov).max() > 5:
                self.errors.append(
                    f"{concept}: moments off (max |z| mean {np.abs(z_mean).max():.2f}, "
                    f"cov {np.abs(z_cov).max():.2f}, n={n})")


class SteerSweep(Workload):
    """run_sweep under deficit, probabilistic and vanilla, then run_window_ablation."""

    name = "steer-sweep"
    min_ops = 10
    trace_ops = 3
    POLICIES = ("deficit", "probabilistic", "vanilla")
    SAMPLES = 5

    def config(self, k: int, policy: str, shares=SWEEP_SHARES, samples: int | None = None,
               steps: int = STEER["steps"]) -> dict:
        rng = _rng(self.seed, self.name, k)
        return {
            "world_path": self.world_path,
            "prompts": [{"concept": c, "count": 1, "jitter_seed": int(rng.integers(2**31))}
                        for c in ("engineer", "teacher")],
            "target": {"gender": {"male": 0.5, "female": 0.5}}, "policy": policy,
            "samples_per_prompt": samples or self.SAMPLES, "seed": int(rng.integers(2**31)),
            "sweep": {"attribute": "gender", "value": "male", "proportions": list(shares)},
            **STEER, "steps": steps,
        }

    def setup(self) -> None:
        _, harness, worldfile = _steerlab()
        self.world_path = worldfile.default_world_path()
        worldfile.load_world(self.world_path)
        self.avg_bias = {p: {} for p in self.POLICIES}   # policy -> op index -> bias
        warm = self.config(WARMUP_OP, "deficit", shares=[0.5], samples=1, steps=20)
        harness.run_sweep(harness.ExperimentSpec.from_dict(warm),
                          out_dir=os.path.join(self.workdir, "warmup"))

    def run(self, k: int) -> None:
        _, harness, _ = _steerlab()
        out = self.op_dir(k)
        for policy in self.POLICIES:
            spec = harness.ExperimentSpec.from_dict(self.config(k, policy))
            harness.run_sweep(spec, out_dir=os.path.join(out, policy))
        spec = harness.ExperimentSpec.from_dict(self.config(k, "deficit"))
        harness.run_window_ablation(spec, out_dir=os.path.join(out, "ablation"))

    def inspect(self, k: int, op: Op) -> None:
        out = self.op_dir(k)
        arms = len(SWEEP_SHARES) * len(self.POLICIES) + ABLATION_ARMS
        op.prompts = 2 * arms
        deficit_arms = []
        for policy in self.POLICIES:
            path = os.path.join(out, policy, "sweep.csv")
            self.avg_bias[policy][k] = summary_value(path, "avg_bias")
            if policy == "deficit":
                deficit_arms += arm_biases(path)
        deficit_arms += arm_biases(os.path.join(out, "ablation", "ablation.csv"))
        if len(deficit_arms) != len(SWEEP_SHARES) + ABLATION_ARMS:
            self.errors.append(f"op {k}: {len(deficit_arms)} deficit arms written")
        op.bias = float(np.mean(deficit_arms))
        self._record(k, op, out)

    def finish(self) -> None:
        """Mean sweep bias orders deficit < probabilistic < vanilla (criterion-06)."""
        mean = {p: float(np.mean(list(v.values()))) for p, v in self.avg_bias.items()}
        if not mean["deficit"] < mean["probabilistic"] < mean["vanilla"]:
            self.errors.append(f"policy ordering broken: {mean}")


class ChainedLinks(Workload):
    """CLI generate --memory then render, link after link, on a seeded 2-attribute world."""

    name = "chained-links"
    min_ops = 240
    trace_ops = 30
    CONCEPTS = 6
    BUDGET = 4           # fewer clusters than concepts, so record consolidates
    PROMPTS = 3
    SAMPLES = 4
    STEPS = 50

    def world_text(self) -> str:
        """Six concepts on a ring, each with gender x age components of full covariance.

        The seed turns each concept's component layout and each covariance.
        Concepts sit evenly on the ring with equal weights, so which clusters
        the memory consolidates, and with it the bias, does not hinge on the seed.
        """
        rng = _rng(self.seed, self.name)
        lines = ["# chained-links benchmark world", "dimension 2",
                 "attribute gender male female", "attribute age young old"]
        for c in range(self.CONCEPTS):
            angle = 2 * math.pi * c / self.CONCEPTS
            center = 10.0 * np.array([math.cos(angle), math.sin(angle)])
            turn = rng.uniform(0, 2 * math.pi)
            u = np.array([math.cos(turn), math.sin(turn)])
            v = np.array([-u[1], u[0]])
            for gender, gs in (("male", 1), ("female", -1)):
                for age, ags in (("young", 1), ("old", -1)):
                    mean = center + 1.6 * gs * u + 1.6 * ags * v
                    theta = rng.uniform(0, math.pi)
                    rot = np.array([[math.cos(theta), -math.sin(theta)],
                                    [math.sin(theta), math.cos(theta)]])
                    cov = rot @ np.diag(rng.uniform(0.3, 0.8, 2)) @ rot.T
                    lines.append(
                        f"component concept{c} gender={gender} age={age} "
                        f"mean={mean[0]:.6f},{mean[1]:.6f} weight=1 "
                        f"cov={cov[0, 0]:.6f},{cov[0, 1]:.6f};{cov[0, 1]:.6f},{cov[1, 1]:.6f}")
        return "\n".join(lines) + "\n"

    def config(self, k: int, samples: int | None = None) -> dict:
        rng = _rng(self.seed, self.name, k)
        concepts = rng.choice(self.CONCEPTS, self.PROMPTS, replace=False)
        return {
            "world_path": self.world_path,
            "prompts": [{"concept": f"concept{c}", "count": 1,
                         "jitter_seed": int(rng.integers(2**31))} for c in concepts],
            "target": {"gender": {"male": 0.5, "female": 0.5},
                       "age": {"young": 0.5, "old": 0.5}},
            "policy": "deficit", "samples_per_prompt": samples or self.SAMPLES,
            "steps": self.STEPS,
            "beta_end": 0.3, "gamma": 0.6, "attribute_scale": 4.0,
            "memory_budget": self.BUDGET, "seed": int(rng.integers(2**31)),
        }

    def setup(self) -> None:
        cli, _, worldfile = _steerlab()
        self.world_path = os.path.join(self.workdir, "chained.world")
        with open(self.world_path, "w", encoding="utf-8") as fh:
            fh.write(self.world_text())
        worldfile.load_world(self.world_path)
        self.memory_path = os.path.join(self.workdir, "memory.json")
        self.restart()
        warm = os.path.join(self.workdir, "warmup")
        os.makedirs(warm, exist_ok=True)
        config = os.path.join(warm, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(self.config(WARMUP_OP, samples=1), fh)
        self._link(cli, config, warm, os.path.join(warm, "memory.json"))

    def restart(self) -> None:
        if os.path.exists(self.memory_path):
            os.remove(self.memory_path)

    def _config_path(self, k: int) -> str:
        return os.path.join(self.workdir, f"link_{k:05d}.json")

    def _link(self, cli, config: str, out_dir: str, memory: str) -> list[int]:
        """One link: `steerlab generate --memory` then `steerlab render`; exit codes."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return [
                cli.main(["generate", "--config", config, "--memory", memory,
                          "--out", out_dir]),
                cli.main(["render", "--samples", os.path.join(out_dir, "samples.csv"),
                          "--world", self.world_path,
                          "--out", os.path.join(out_dir, "scatter.svg")]),
            ]

    def prepare(self, k: int) -> None:
        with open(self._config_path(k), "w", encoding="utf-8") as fh:
            json.dump(self.config(k), fh)

    def run(self, k: int) -> None:
        cli, _, _ = _steerlab()
        self.codes = self._link(cli, self._config_path(k), self.op_dir(k), self.memory_path)

    def inspect(self, k: int, op: Op) -> None:
        out = self.op_dir(k)
        op.prompts = self.PROMPTS
        op.failed = sum(1 for c in self.codes if c != 0)
        if op.failed:
            self.errors.append(f"link {k}: exit codes {self.codes}")
        op.bias = summary_value(os.path.join(out, "report.csv"), "bias_combined")
        with open(self.memory_path, encoding="utf-8") as fh:
            memory = json.load(fh)
        if len(memory["clusters"]) > self.BUDGET or memory["budget"] != self.BUDGET:
            self.errors.append(f"link {k}: {len(memory['clusters'])} clusters in memory, "
                               f"budget {self.BUDGET}")
        if not os.path.getsize(os.path.join(out, "scatter.svg")):
            self.errors.append(f"link {k}: empty scatter.svg")
        self._record(k, op, out, extra=(self.memory_path,))
        os.remove(self._config_path(k))


WORKLOADS = {w.name: w for w in (VanillaBulk, SteerSweep, ChainedLinks)}
