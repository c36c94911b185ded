"""Fingerprint every artifact of a fixed CLI scenario, for byte-identity checks.

    python3 scripts/artifact_scenario.py --checkout . --work /tmp/steerlab-scenario --out after.txt
    python3 scripts/artifact_scenario.py --checkout ../parent --work /tmp/steerlab-scenario \\
        --out before.txt
    diff before.txt after.txt

Runs the steerlab CLI of one checkout (its `src/` on PYTHONPATH) through a
fixed list of commands, all from the same work directory, so that paths in
messages match between checkouts.  The list covers all four policies; the
config window, `--gamma 1.0` and an empty window; diagnostics, recorded
intent and a memory budget of 2; failing prompts; a `--memory` chain with
`inspect-memory`, to a file and to stdout; a `--memory` chain whose second
link changes the budget, and is refused; sweeps and window ablations;
render; a world with a 3-valued attribute, with a run of 30 prompts on it;
criterion-05's shape (50 prompts of one sample); a world whose concepts have
unequal component counts, with diagnostics; a world with no attributes, whose
plans are all empty, with diagnostics, a window ablation and render; and two
refused inputs, a world file holding a byte that is not UTF-8 and a config
cut short.  The output lists, one line each, the sha256 of every file left
in the work directory except `manifest.json` (it holds wall-clock time),
then each command's exit code.  Each command's stdout and stderr are kept as
files in the work directory, so they are in the list too.  The script prints
the list's own sha256 beside its file and command counts.

A refactor that must not move a bit of output should give the same list on
its parent and on itself.  The work directory is emptied first; it must be
absent, empty, or left by an earlier run of this script.  Takes about a
third of a minute.  `tests/test_artifacts.py` runs the same scenario in
process, through `cli.main`, and compares its list with
`tests/artifact_list.txt`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

MARKER = ".artifact-scenario"

TWO_ATTR_WORLD = """\
dimension 2
attribute gender male female
attribute age young old
component worker gender=male   age=young mean=0,0  weight=0.3 cov=1,0.3;0.3,0.8
component worker gender=male   age=old   mean=4,0  weight=0.2
component worker gender=female age=young mean=0,4  weight=0.2 cov=0.7,0;0,1.2
component worker gender=female age=old   mean=4,4  weight=0.3
component nurse  gender=male   age=young mean=9,0  weight=0.2
component nurse  gender=male   age=old   mean=13,0 weight=0.2
component nurse  gender=female age=young mean=9,4  weight=0.3
component nurse  gender=female age=old   mean=13,4 weight=0.3
"""

# No shade=c age=old component: steering an age=old prompt toward shade=c is infeasible.
THREE_VALUED_WORLD = """\
dimension 2
attribute shade a b c
attribute age young old
component worker shade=a age=young mean=0,0  weight=0.2
component worker shade=a age=old   mean=4,0  weight=0.2
component worker shade=b age=young mean=0,4  weight=0.2
component worker shade=b age=old   mean=4,4  weight=0.2
component worker shade=c age=young mean=-4,0 weight=0.2
"""

# Four components per nurse against three per worker (no male old worker), so
# a run's steps make one kernel call per concept's shape; an age=old worker
# steered toward gender=male is infeasible.
UNEQUAL_K_WORLD = """\
dimension 2
attribute gender male female
attribute age young old
component worker gender=male   age=young mean=0,0  weight=0.4
component worker gender=female age=young mean=0,4  weight=0.3
component worker gender=female age=old   mean=4,4  weight=0.3
component nurse  gender=male   age=young mean=9,0  weight=0.2
component nurse  gender=male   age=old   mean=13,0 weight=0.2
component nurse  gender=female age=young mean=9,4  weight=0.3
component nurse  gender=female age=old   mean=13,4 weight=0.3
"""

# No attributes: every plan is empty, samples.csv has no attribute column and
# report.csv no rows.
PLAIN_WORLD = """\
dimension 2
component origin mean=0,0  weight=0.3
component origin mean=3,1  weight=0.2 cov=1,0.3;0.3,0.8
component field  mean=-2,4 weight=0.5
"""

# Refused inputs: a Latin-1 byte on line 2 of a world file, and a config cut short.
LATIN1_WORLD = "dimension 2\nattribute g\xe9nder male female\n".encode("latin-1")
TRUNCATED_CONFIG = b'{"world_path": '

TWO_ATTR_TARGET = {"gender": {"male": 0.5, "female": 0.5}, "age": {"young": 0.3, "old": 0.7}}
THREE_VALUED_TARGET = {"shade": {"a": 0.2, "b": 0.3, "c": 0.5},
                       "age": {"young": 0.5, "old": 0.5}}
SMALL = {"steps": 60, "beta_end": 0.3, "gamma": 0.6, "attribute_scale": 4.0,
         "window": [0.2, 0.6], "samples_per_prompt": 5}

CONFIGS: dict[str, dict] = {
    "default": {
        "world_path": "default.world", "target": {"gender": {"male": 0.5, "female": 0.5}},
        "prompts": [{"concept": "engineer", "count": 3}, {"concept": "teacher", "count": 2}],
        "static_pairs": {"gender": ["female", "male"]}, "seed": 11,
        "sweep": {"attribute": "gender", "value": "male", "proportions": [0.2, 0.8]},
        **SMALL,
    },
    "two": {
        "world_path": "two.world", "target": TWO_ATTR_TARGET,
        "prompts": [{"concept": "worker", "count": 3},
                    {"concept": "nurse", "count": 2, "jitter_seed": 5},
                    {"concept": "astronaut", "count": 1},
                    {"concept": "worker", "count": 2, "constraints": {"age": "old"}}],
        "static_pairs": {"gender": ["female", "male"], "age": ["old", "young"]},
        "memory_budget": 2, "diagnostics": True, "seed": 4,
        "sweep": [TWO_ATTR_TARGET, {**TWO_ATTR_TARGET, "age": {"young": 0.9, "old": 0.1}}],
        "windows": [[0.0, 0.3], [0.5, 0.505], [0.6, 1.0]],  # the middle one holds no step
        **SMALL,
    },
    "three": {
        "world_path": "three.world", "target": THREE_VALUED_TARGET,
        "prompts": [{"concept": "worker", "count": 3},
                    {"concept": "worker", "count": 2, "constraints": {"age": "old"}},
                    {"concept": "worker", "count": 2, "jitter_seed": 2}],
        "static_pairs": {"shade": ["b", "a"], "age": ["young", "old"]},
        "memory_budget": 2, "diagnostics": True, "seed": 8,
        **SMALL, "samples_per_prompt": 8,
    },
    # Criterion-05's shape: many prompts of one condition, one sample each.
    "c05": {
        "world_path": "default.world", "target": {"gender": {"male": 0.5, "female": 0.5}},
        "prompts": [{"concept": "engineer", "count": 50}], "seed": 5,
        **SMALL, "samples_per_prompt": 1,
    },
    "unequal": {
        "world_path": "unequal.world", "target": TWO_ATTR_TARGET,
        "prompts": [{"concept": "worker", "count": 2},
                    {"concept": "nurse", "count": 2, "jitter_seed": 3},
                    {"concept": "worker", "count": 2, "constraints": {"age": "old"}},
                    {"concept": "nurse", "count": 1, "jitter_seed": 7}],
        "static_pairs": {"gender": ["male", "female"], "age": ["old", "young"]},
        "diagnostics": True, "seed": 6, **SMALL,
    },
    "plain": {
        "world_path": "plain.world", "target": {},
        "prompts": [{"concept": "origin", "count": 3},
                    {"concept": "field", "count": 2, "jitter_seed": 4}],
        "diagnostics": True, "seed": 3, "windows": [[0.0, 0.3], [0.2, 0.6]], **SMALL,
    },
}
for _name in ("two", "three"):
    CONFIGS[f"{_name}-intent"] = {**CONFIGS[_name], "record_intent": True}
# Resuming two.json's memory under another budget is refused, and leaves the file as it was.
CONFIGS["two-budget3"] = {**CONFIGS["two"], "memory_budget": 3}
# Many prompts on the 2 x 3-valued world: up to 12 plans, so many rows are
# finished under plans their samples do not choose.
CONFIGS["three-many"] = {**CONFIGS["three"], "samples_per_prompt": 10, "diagnostics": False,
                         "prompts": [{"concept": "worker", "count": 20},
                                     {"concept": "worker", "count": 10, "jitter_seed": 4,
                                      "constraints": {"age": "old"}}]}

POLICIES = ("vanilla", "deficit", "probabilistic", "static")


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in run order."""
    steps = []
    for cfg in ("default", "two", "three", "unequal"):
        for policy in POLICIES:
            steps.append((f"{cfg}-{policy}", ["generate", "--config", f"{cfg}.json",
                                              "--policy", policy, "--out", f"{cfg}-{policy}"]))
    for cfg in ("two", "three"):
        for policy in ("deficit", "probabilistic"):
            run = f"{cfg}-{policy}"
            base = ["generate", "--policy", policy]
            steps += [
                (f"{run}-gamma1", base + ["--config", f"{cfg}.json", "--gamma", "1.0",
                                          "--out", f"{run}-gamma1"]),
                (f"{run}-empty-window", base + ["--config", f"{cfg}.json", "--window", "0.5,0.505",
                                                "--out", f"{run}-empty-window"]),
                (f"{run}-intent", base + ["--config", f"{cfg}-intent.json",
                                          "--out", f"{run}-intent"]),
            ]
    for cfg, policy in (("c05", "deficit"), ("c05", "probabilistic"),
                        ("three-many", "probabilistic")):
        steps.append((f"{cfg}-{policy}", ["generate", "--config", f"{cfg}.json",
                                          "--policy", policy, "--out", f"{cfg}-{policy}"]))
    for link in range(3):
        steps.append((f"chain-{link}", ["generate", "--config", "two.json", "--seed",
                                        str(20 + link), "--memory", "chain-memory.json",
                                        "--out", f"chain-{link}"]))
    steps.append(("chain-inspect", ["inspect-memory", "--memory", "chain-memory.json",
                                    "--out", "chain-memory.csv"]))
    steps.append(("chain-inspect-stdout", ["inspect-memory", "--memory", "chain-memory.json"]))
    for link, cfg in enumerate(("two", "two-budget3")):
        steps.append((f"budget-chain-{link}", ["generate", "--config", f"{cfg}.json", "--memory",
                                               "budget-chain-memory.json",
                                               "--out", f"budget-chain-{link}"]))
    for cfg, policy in (("default", "deficit"), ("two", "probabilistic"), ("two", "vanilla")):
        steps.append((f"{cfg}-{policy}-sweep", ["sweep", "--config", f"{cfg}.json", "--policy",
                                                policy, "--out", f"{cfg}-{policy}-sweep"]))
    for cfg, policy in (("default", "probabilistic"), ("two", "deficit"), ("three", "static")):
        steps.append((f"{cfg}-{policy}-ablation",
                      ["ablate-window", "--config", f"{cfg}.json", "--policy", policy,
                       "--out", f"{cfg}-{policy}-ablation"]))
    for run, world, attr in (("default-deficit", None, None), ("two-static", "two.world", "age"),
                             ("three-probabilistic", "three.world", "shade")):
        args = ["render", "--samples", f"{run}/samples.csv", "--out", f"{run}.svg"]
        args += ["--world", world] if world else []  # else the packaged world
        args += ["--attribute", attr] if attr else []
        steps.append((f"render-{run}", args))
    steps += [
        ("plain-deficit", ["generate", "--config", "plain.json", "--policy", "deficit",
                           "--out", "plain-deficit"]),
        ("plain-deficit-ablation", ["ablate-window", "--config", "plain.json", "--policy",
                                    "deficit", "--out", "plain-deficit-ablation"]),
        ("render-plain-deficit", ["render", "--samples", "plain-deficit/samples.csv",
                                  "--world", "plain.world", "--out", "plain-deficit.svg"]),
        ("latin1-validate", ["validate-world", "--world", "latin1.world"]),
        ("truncated-generate", ["generate", "--config", "truncated.json", "--out", "truncated"]),
    ]
    return steps


def prepare(work: str, src: str) -> None:
    if os.path.isdir(work) and os.listdir(work):
        if not os.path.exists(os.path.join(work, MARKER)):
            sys.exit(f"error: {work} is not empty and was not made by this script")
        shutil.rmtree(work)
    os.makedirs(work, exist_ok=True)
    open(os.path.join(work, MARKER), "w").close()
    # A copy, so that no config names a path inside the checkout.
    shutil.copy(os.path.join(src, "steerlab", "worlds", "default.world"), work)
    for name, text in (("two.world", TWO_ATTR_WORLD), ("three.world", THREE_VALUED_WORLD),
                       ("unequal.world", UNEQUAL_K_WORLD), ("plain.world", PLAIN_WORLD)):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for name, data in (("latin1.world", LATIN1_WORLD), ("truncated.json", TRUNCATED_CONFIG)):
        with open(os.path.join(work, name), "wb") as fh:
            fh.write(data)
    for name, config in CONFIGS.items():
        with open(os.path.join(work, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--checkout", required=True, help="root of the checkout to run")
    parser.add_argument("--work", required=True, help="work directory (emptied first)")
    parser.add_argument("--out", required=True, help="file to write the list to")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isfile(os.path.join(src, "steerlab", "__init__.py")):
        print(f"error: no steerlab package under {src}", file=sys.stderr)
        return 2
    work = os.path.abspath(args.work)
    out = os.path.abspath(args.out)
    prepare(work, src)
    env = {**os.environ, "PYTHONPATH": src}
    codes = []
    for name, cli_args in commands():
        proc = subprocess.run([sys.executable, "-m", "steerlab.cli", *cli_args], cwd=work,
                              env=env, capture_output=True, text=True)
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(work, f"{name}.{stream}"), "w", encoding="utf-8") as fh:
                fh.write(text)
        codes.append(f"exit {proc.returncode}  {name}")
    lines = []
    for root, dirs, files in os.walk(work):
        dirs.sort()
        for name in sorted(files):
            if name in ("manifest.json", MARKER):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, work)}")
    text = "\n".join(lines + codes) + "\n"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {out}: {len(lines)} files, {len(codes)} commands, "
          f"sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
