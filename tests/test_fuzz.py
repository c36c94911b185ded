"""Mutation fuzz over every text or dict a user hands steerlab.

Each property starts from a valid input and applies a few mutations: drop or
duplicate a line, a token or a key; replace a value (or one number inside it)
with one of another type, a non-finite number or an unsafe name.  Whatever
comes out must either work or fail as a named input error, never escape as a
bare exception from deep inside the library.
"""

import contextlib
import copy
import functools
import io
import json
import os
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from steerlab import (ExperimentSpec, PromptSpec, SteerlabError, WorldFileError, run_generate,
                      run_sweep, run_window_ablation)
from steerlab.cli import main
from steerlab.worldfile import parse_world

# What a mutated value becomes: another type, a non-finite number, an unsafe name.
REPLACEMENTS = st.sampled_from([
    "x", "", "1,2", "1;2", "true", "[]", "0x1", "1.5", "-1", "0", "3", "1e-300", "1_0", "²",
    "nan", "inf", "-inf", "1e999", "NaN", "-0",
    "a,b", "a|b", "a:b", "a=b", "a;b", "é", "#", '"q"', "a b",
])

WORLD = """\
# two attributes, full covariance on some components
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

CONFIG = {
    "world_path": "fuzz.world",
    "prompts": [{"concept": "worker", "count": 2},
                {"concept": "nurse", "count": 1, "jitter_seed": 3,
                 "constraints": {"age": "old"}}],
    "target": {"gender": {"male": 0.5, "female": 0.5}, "age": {"young": 0.5, "old": 0.5}},
    "policy": "deficit",
    "samples_per_prompt": 2,
    "steps": 8,
    "beta_end": 0.3,
    "window": [0.25, 0.75],
    "seed": 4,
    "memory_budget": 2,
    "memory_path": "memory.json",
    "diagnostics": True,
    "sweep": {"attribute": "gender", "value": "male", "proportions": [0.25, 0.75]},
    "windows": [[0.0, 0.5], [0.5, 1.0]],
}

# Small ints only, so that no mutated count, step or sample total makes a long run.
JSON_VALUES = st.sampled_from([None, True, False, [], {}, [0.5], {"a": 1}, 0.5,
                               float("nan"), float("inf"), float("-inf")]) \
    | st.integers(-2, 8) | REPLACEMENTS


@contextlib.contextmanager
def fresh_cwd():
    """Run in an empty temporary directory, so that a mutated relative path
    (a memory file, an output directory) lands there."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def mutate_lines(data, lines: list[str], sep: str) -> list[str]:
    """Drop or duplicate a line or a `sep`-separated token, or replace one
    piece of a token (split at `,`, `;` and `=`)."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        op = data.draw(st.sampled_from(["drop-line", "dup-line", "drop-token", "dup-token",
                                        "replace"]), label="op")
        if op == "drop-line":
            del lines[i]
            continue
        if op == "dup-line":
            lines.insert(data.draw(st.integers(0, len(lines)), label="at"), lines[i])
            continue
        tokens = lines[i].split(sep)
        k = data.draw(st.integers(0, len(tokens) - 1), label="token")
        if op == "drop-token":
            del tokens[k]
        elif op == "dup-token":
            tokens.insert(k, tokens[k])
        else:
            pieces = re.split(r"([,;=])", tokens[k])
            j = data.draw(st.integers(0, len(pieces) // 2), label="piece") * 2
            pieces[j] = data.draw(REPLACEMENTS, label="value")
            tokens[k] = "".join(pieces)
        lines[i] = sep.join(tokens)
    return lines


def _paths(node, prefix=()):
    """Every key path into a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)) and v:
            yield from _paths(v, prefix + (k,))


def mutate_config(data, config: dict) -> tuple[dict, list[tuple]]:
    """Drop or duplicate a key or list item, or replace a value, anywhere in
    the tree; the mutated config and the key paths mutated."""
    config = copy.deepcopy(config)
    mutated = []
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = sorted(_paths(config), key=repr)
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        mutated.append(path)
        *parents, last = path
        node = config
        for part in parents:
            node = node[part]
        op = data.draw(st.sampled_from(["drop", "dup", "replace"]), label="op")
        if op == "drop":
            del node[last]
        elif op == "dup":
            if isinstance(node, list):
                node.insert(last, copy.deepcopy(node[last]))
            else:
                node[f"{last}_again"] = copy.deepcopy(node[last])
        else:
            node[last] = copy.deepcopy(data.draw(JSON_VALUES, label="value"))
    return config, mutated


@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_mutated_world_text_loads_or_names_file_and_line(data):
    lines = mutate_lines(data, WORLD.splitlines(), " ")
    text = "\n".join(lines) + "\n"
    try:
        parse_world(text, path="fuzz.world")
    except WorldFileError as exc:
        assert exc.path == "fuzz.world"
        assert 0 <= exc.line <= len(text.splitlines())
        assert str(exc).startswith("fuzz.world")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_config_runs_or_exits_2(data):
    """An exit 2 names a mutated key: a top-level key or one inside it."""
    config, mutated = mutate_config(data, CONFIG)
    command = data.draw(st.sampled_from(["generate", "sweep", "ablate-window"]), label="command")
    err = io.StringIO()
    with fresh_cwd(), contextlib.redirect_stderr(err):
        Path("fuzz.world").write_text(WORLD)
        Path("run.json").write_text(json.dumps(config))
        code = main([command, "--config", "run.json", "--out", "out"])
    assert code in (0, 1, 2)
    if code == 2:
        keys = {key for path in mutated for key in path if isinstance(key, str)}
        assert any(key in err.getvalue() for key in keys), (mutated, err.getvalue())


@functools.cache
def samples_csv() -> str:
    """samples.csv of one run of CONFIG."""
    with fresh_cwd():
        Path("fuzz.world").write_text(WORLD)
        Path("run.json").write_text(json.dumps(CONFIG))
        assert main(["generate", "--config", "run.json", "--out", "out"]) == 0
        return Path("out", "samples.csv").read_text()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_render_on_mutated_samples_exits_0_or_2(data):
    lines = mutate_lines(data, samples_csv().splitlines(), ",")
    attribute = data.draw(st.sampled_from([None, "gender", "age", "shade"]), label="attribute")
    with fresh_cwd():
        Path("fuzz.world").write_text(WORLD)
        Path("samples.csv").write_text("\n".join(lines) + "\n")
        args = ["render", "--samples", "samples.csv", "--world", "fuzz.world",
                "--out", "plot.svg"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(args + (["--attribute", attribute] if attribute else []))
    assert code in (0, 2)
    if code == 2:  # names the file or the attribute
        named = ["samples.csv"] + ([attribute] if attribute else [])
        assert any(name in err.getvalue() for name in named), err.getvalue()


_SPEC_RUNS = {"generate": run_generate, "sweep": run_sweep, "ablation": run_window_ablation}


def _run_spec(command: str, **fields_) -> None:
    """Run CONFIG as a spec built in Python, with `fields_` replaced, in a
    fresh directory holding its world."""
    with fresh_cwd():
        Path("fuzz.world").write_text(WORLD)
        spec = replace(ExperimentSpec.from_dict(CONFIG), **fields_)
        _SPEC_RUNS[command](spec, out_dir="out")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_spec_with_replaced_fields_runs_or_names_a_field(data):
    """A spec made in Python or by `replace` is checked as a config is: it
    runs, or fails as a named input error (an unreadable world file is an
    OSError naming `world_path`), never as a bare TypeError or
    ZeroDivisionError from deep inside the library."""
    names = data.draw(st.lists(st.sampled_from([f.name for f in fields(ExperimentSpec)]),
                               min_size=1, max_size=3, unique=True), label="fields")
    values = {name: copy.deepcopy(data.draw(JSON_VALUES, label=name)) for name in names}
    command = data.draw(st.sampled_from(sorted(_SPEC_RUNS)), label="command")
    try:
        _run_spec(command, **values)
    except (ValueError, SteerlabError, OSError) as exc:
        assert any(name in str(exc) for name in names), (values, exc)


@pytest.mark.parametrize("name, value", [
    ("samples_per_prompt", 0),
    ("samples_per_prompt", 2.0),
    ("prompts", [{"concept": "worker"}]),
    ("seed", -1),
])
def test_spec_field_the_run_cannot_use_raises_value_error_naming_it(name, value):
    with pytest.raises(ValueError, match=f"config key '{name}'"):
        _run_spec("generate", **{name: value})
    with pytest.raises(ValueError, match=f"config key '{name}'"):
        ExperimentSpec(**{"world_path": "fuzz.world", "prompts": [PromptSpec("worker")],
                          name: value})
