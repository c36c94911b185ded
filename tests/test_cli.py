import csv
import importlib
import importlib.util
import json
import os
import re
import shutil
import types

import pytest

import steerlab
from steerlab import cli, harness, worldfile
from steerlab.cli import _parse_target, _parse_window, main
from steerlab.controller import _container_checksum, default_match_threshold, restore_memory
from steerlab.diffusion import run_trajectories
from steerlab.worldfile import load_world

WORLD = """\
dimension 2
attribute gender male female
component engineer gender=male   mean=4,0 weight=0.325
component engineer gender=female mean=0,0 weight=0.175
component teacher  gender=male   mean=4,6 weight=0.175
component teacher  gender=female mean=0,6 weight=0.325
"""


def _write_memory(path, clusters) -> str:
    """A checksum-valid memory file of (centroid, counts) clusters, each of total 1."""
    payload = {"magic": "steerlab-memory", "version": 1, "schema": "", "budget": len(clusters),
               "tau": 1.0, "prompts_seen": len(clusters),
               "clusters": [{"centroid": centroid, "total": 1, "counts": counts}
                            for centroid, counts in clusters]}
    payload["checksum"] = _container_checksum(payload)
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "demo.world").write_text(WORLD)
    config = {
        "world_path": "demo.world",
        "prompts": [
            {"concept": "engineer", "count": 3},
            {"concept": "teacher", "count": 3},
        ],
        "target": {"gender": {"male": 0.5, "female": 0.5}},
        "policy": "deficit",
        "samples_per_prompt": 3,
        "steps": 30,
        "beta_end": 0.3,
        "seed": 9,
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    return tmp_path


class TestParsers:
    def test_parse_target(self):
        parsed = _parse_target("gender=male:0.6,female:0.4;age=young:1,old:0")
        assert parsed == {
            "gender": {"male": 0.6, "female": 0.4},
            "age": {"young": 1.0, "old": 0.0},
        }

    def test_parse_target_rejects_garbage(self):
        with pytest.raises(ValueError):
            _parse_target("gender")
        with pytest.raises(ValueError):
            _parse_target("gender=male")

    def test_parse_window(self):
        assert _parse_window("0.25,0.75") == (0.25, 0.75)
        with pytest.raises(ValueError):
            _parse_window("0.25")


class TestGenerateCommand:
    def test_successful_run(self, workspace, capsys):
        out = workspace / "out"
        code = main(["generate", "--config", str(workspace / "run.json"),
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "bias_combined=" in stdout
        assert (out / "samples.csv").exists()
        assert (out / "report.csv").exists()

    def test_override_flags_change_digest(self, workspace):
        out_a = workspace / "a"
        out_b = workspace / "b"
        main(["generate", "--config", str(workspace / "run.json"), "--out", str(out_a)])
        main(["generate", "--config", str(workspace / "run.json"), "--out", str(out_b),
              "--gamma", "0.9"])
        digest_a = json.loads((out_a / "manifest.json").read_text())["config_digest"]
        digest_b = json.loads((out_b / "manifest.json").read_text())["config_digest"]
        assert digest_a != digest_b

    def test_target_override(self, workspace, capsys):
        code = main(["generate", "--config", str(workspace / "run.json"),
                     "--target", "gender=male:0.9,female:0.1"])
        assert code == 0
        assert "bias_combined=" in capsys.readouterr().out

    def test_bad_target_override_exits_2(self, workspace, capsys):
        code = main(["generate", "--config", str(workspace / "run.json"),
                     "--target", "gender=male:0.9"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, workspace, capsys):
        code = main(["generate", "--config", str(workspace / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, workspace, capsys):
        cfg = workspace / "bad.json"
        data = json.loads((workspace / "run.json").read_text())
        data["verbose"] = True
        cfg.write_text(json.dumps(data))
        code = main(["generate", "--config", str(cfg)])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("samples_per_prompt", 2.5), ("samples_per_prompt", True), ("steps", "10"),
        ("gamma", "0.5"), ("seed", 1.5), ("memory_budget", "4"), ("memory_tau", "1"),
    ])
    def test_mistyped_numeric_key_exits_2(self, workspace, capsys, key, value):
        cfg = workspace / "typed.json"
        data = json.loads((workspace / "run.json").read_text())
        data[key] = value
        cfg.write_text(json.dumps(data))
        code = main(["generate", "--config", str(cfg)])
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, patch", [
        ("window", {"window": [0.1, "x"]}),
        ("windows", {"windows": [0.5]}),
        ("jitter_seed", {"prompts": [{"concept": "engineer", "jitter_seed": 1.5}]}),
        ("count", {"prompts": [{"concept": "engineer", "count": True}]}),
        ("constraints", {"prompts": [{"concept": "engineer", "constraints": ["gender"]}]}),
        ("target", {"target": {"gender": {"male": "0.5", "female": 0.5}}}),
        ("target", {"target": [{"gender": {"male": 0.5, "female": 0.5}}]}),
        ("sweep", {"sweep": {"value": "male", "proportions": [0.5]}}),
        # A list or object here used to escape as a TypeError under `sweep`.
        ("sweep", {"sweep": {"attribute": ["a"], "value": "", "proportions": [0.0, 1.0]}}),
        ("sweep", {"sweep": {"attribute": "gender", "value": {}, "proportions": [0.0, 1.0]}}),
        ("static_pairs", {"policy": "static", "static_pairs": {"gender": ["female"]}}),
        ("world_path", {"world_path": 5}),
        ("memory_path", {"memory_path": 5}),
        ("prompts", {"prompts": 5}),
        ("record_intent", {"record_intent": "no"}),
        ("concept must be a string", {"prompts": [{"concept": 5}]}),
        # Checked against the world once, before any prompt's decide.
        ("static_pairs value 'robot' is not a value of attribute 'gender'",
         {"policy": "static", "static_pairs": {"gender": ["female", "robot"]}}),
        ("static_pairs has no pair for attribute 'gender'",
         {"policy": "static", "static_pairs": {}}),
        ("static_pairs names unknown attribute 'age'",
         {"policy": "static", "static_pairs": {"gender": ["female", "male"], "age": ["a", "b"]}}),
        # Non-finite scales used to fail every prompt (exit 1); a negative jitter ran silently.
        ("attribute_scale", {"attribute_scale": float("inf")}),
        ("jitter_scale", {"jitter_scale": float("inf")}),
        ("jitter_scale", {"jitter_scale": -1.0}),
    ], ids=["window", "windows", "jitter_seed", "count", "constraints", "target-proportion",
            "target-list", "sweep", "sweep-attribute-list", "sweep-value-object", "static_pairs",
            "world_path", "memory_path", "prompts", "record_intent", "concept",
            "static_pairs-value", "static_pairs-missing", "static_pairs-attribute",
            "attribute_scale-infinite", "jitter_scale-infinite", "jitter_scale-negative"])
    def test_malformed_config_value_exits_2(self, workspace, capsys, key, patch):
        cfg = workspace / "shaped.json"
        data = json.loads((workspace / "run.json").read_text())
        data.update(patch)
        cfg.write_text(json.dumps(data))
        code = main(["generate", "--config", str(cfg)])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, patch, flags", [
        ("generate", "seed", {"seed": -1}, []),
        ("generate", "memory_budget", {"memory_budget": 0}, []),
        ("generate", "memory_tau", {"memory_tau": 0}, []),
        ("ablate-window", "windows", {"windows": [[0.0, 0.5], [0.6, 0.2]]}, []),
        ("sweep", "sweep", {"sweep": {"attribute": "gender", "value": "male",
                                      "proportions": [0.5, 1.5]}}, []),
        ("generate", "world_path", {"world_path": "missing.world"}, []),
        ("generate", "prompts", {"prompts": [None]}, []),
        ("generate", "seed", {}, ["--seed", "-1"]),
        ("generate", "target", {}, ["--target", "gender=male:x"]),
        ("generate", "target", {}, ["--target", "gender"]),
        ("generate", "window", {}, ["--window", "0.2,x"]),
        ("sweep", "window", {}, ["--window", "0.2"]),
        # Used to run the prefix pass first, then name no key.
        ("generate", "static_pairs", {"policy": "static",
                                      "static_pairs": {"gender": ["male", "male"]}}, []),
        # Used to warn about an empty mean, then fail writing sweep.csv.
        ("sweep", "sweep", {"sweep": {"attribute": "gender", "value": "male",
                                      "proportions": []}}, []),
        ("sweep", "sweep", {"sweep": []}, []),
        ("sweep", "sweep", {"sweep": {"attribute": "colour", "value": "red",
                                      "proportions": [0.5]}}, []),
        # Used to run the default windows, which only null asks for.
        ("ablate-window", "windows", {"windows": []}, []),
        # Listed targets that do not fit the world used to name 'target', the
        # third only after its first arm had run.
        ("sweep", "sweep", {"sweep": [{}]}, []),
        ("sweep", "sweep", {"sweep": [{"gender": {"male": 1.0}}]}, []),
        ("sweep", "sweep", {"sweep": [{"gender": {"male": 0.5, "female": 0.5}},
                                      {"colour": {"red": 1.0}}]}, []),
        ("sweep", "sweep", {"sweep": [{"gender": {"male": 0.5, "female": 0.4}}]}, []),
        # Each used to pass the spec and fail only once the world was loaded,
        # with no config key named.
        ("generate", "steps", {"steps": 0}, []),
        ("generate", "gamma", {"gamma": 5}, []),
        ("generate", "gamma", {}, ["--gamma", "5"]),
        ("generate", "attribute_scale", {"attribute_scale": 0}, []),
        ("generate", "window", {"window": [0.7, 0.2]}, []),
        ("generate", "beta_start", {"beta_start": 0}, []),
        ("generate", "beta_end", {"beta_end": 1.5}, []),
        ("generate", "beta_end", {"beta_start": 0.5, "beta_end": 0.2}, []),
    ], ids=["seed", "memory_budget", "memory_tau", "windows", "sweep", "world_path", "prompts",
            "--seed", "--target-proportion", "--target-fragment", "--window-number",
            "--window-pair", "static_pairs-equal", "sweep-no-proportions", "sweep-no-targets",
            "sweep-unknown-attribute", "windows-empty", "sweep-target-empty",
            "sweep-target-missing-value", "sweep-target-unknown-attribute",
            "sweep-target-sum", "steps-zero", "gamma-5", "--gamma-5", "attribute_scale-zero",
            "window-reversed", "beta_start-zero", "beta_end-1.5", "beta-reversed"])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_config_value_exits_2_naming_the_key(self, workspace, capsys, command,
                                                              key, patch, flags):
        """These used to exit 2 with a message that named no config key, or
        later than they could.  Override flags are checked as config keys, and
        a flag that does not parse is named.  No case warns."""
        data = json.loads((workspace / "run.json").read_text())
        data.update(patch)
        (workspace / "ranged.json").write_text(json.dumps(data))
        out = workspace / "out"
        assert main([command, "--config", str(workspace / "ranged.json"), "--out", str(out),
                     *flags]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err
        if flags and key in ("target", "window"):
            assert f"from {flags[0]}" in err
        assert not out.exists()  # so no arm_00/ either

    @pytest.mark.parametrize("text", ["[]", '[{"world_path": "demo.world"}]', '"run"'])
    def test_config_that_is_not_an_object_exits_2(self, workspace, capsys, text):
        (workspace / "list.json").write_text(text)
        assert main(["generate", "--config", str(workspace / "list.json")]) == 2
        assert "a config must be a JSON object" in capsys.readouterr().err

    def test_memory_path_in_missing_directory_exits_2_before_any_row(self, workspace, capsys,
                                                                       monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run_trajectories",
                            lambda *args: ran.append(1) or run_trajectories(*args))
        out = workspace / "out"
        memory = workspace / "missing" / "memory.json"
        assert main(["generate", "--config", str(workspace / "run.json"), "--out", str(out),
                     "--memory", str(memory)]) == 2
        assert "config key 'memory_path'" in capsys.readouterr().err
        assert not ran and not out.exists() and not memory.parent.exists()

    def test_memory_from_world_of_other_dimension_exits_2(self, workspace, capsys):
        (workspace / "cube.world").write_text(
            "dimension 3\nattribute gender male female\n"
            "component engineer gender=male mean=4,0,0 weight=0.5\n"
            "component engineer gender=female mean=0,0,0 weight=0.5\n")
        data = json.loads((workspace / "run.json").read_text())
        data["world_path"] = "cube.world"
        data["prompts"] = [{"concept": "engineer", "count": 1}]
        (workspace / "cube.json").write_text(json.dumps(data))
        mem = str(workspace / "memory.json")
        assert main(["generate", "--config", str(workspace / "cube.json"), "--memory", mem]) == 0
        capsys.readouterr()
        code = main(["generate", "--config", str(workspace / "run.json"), "--memory", mem])
        assert code == 2
        err = capsys.readouterr().err
        assert "memory.json" in err and "dimension" in err

    @pytest.mark.parametrize("first, then, message", [
        ({"memory_budget": 4}, {"memory_budget": 1},
         "config key 'memory_budget' is 1, but memory file {mem!r} was written with 4"),
        ({}, {"memory_tau": 0.001},
         "config key 'memory_tau' is 0.001, but memory file {mem!r} was written with {tau!r}"),
        ({"memory_tau": 0.5}, {}, "config key 'memory_tau' is {tau!r} (derived from the world), "
                                  "but memory file {mem!r} was written with 0.5"),
    ], ids=["budget", "tau", "derived-tau"])
    def test_memory_resumed_under_other_budget_or_tau_exits_2_before_any_row(
            self, workspace, capsys, monkeypatch, first, then, message):
        """A resumed memory used to keep the budget and tau it was written with,
        whatever the config asked for."""
        data = json.loads((workspace / "run.json").read_text())
        for name, patch in (("first", first), ("then", then)):
            (workspace / f"{name}.json").write_text(json.dumps({**data, **patch}))
        mem = workspace / "memory.json"
        first_run = ["generate", "--config", str(workspace / "first.json"), "--memory", str(mem)]
        assert main(first_run) == 0
        written = mem.read_bytes()
        capsys.readouterr()
        ran = []
        monkeypatch.setattr(harness, "run_trajectories",
                            lambda *args: ran.append(1) or run_trajectories(*args))
        out = workspace / "out"
        assert main(["generate", "--config", str(workspace / "then.json"), "--memory", str(mem),
                     "--out", str(out)]) == 2
        tau = default_match_threshold(load_world(str(workspace / "demo.world")))
        assert message.format(mem=str(mem), tau=tau) in capsys.readouterr().err
        assert not ran and not out.exists() and mem.read_bytes() == written
        # The config it was written under resumes it: a derived tau round-trips exactly.
        assert main(first_run) == 0 and ran

    def test_failed_prompts_exit_1(self, workspace, capsys):
        cfg = workspace / "partial.json"
        data = json.loads((workspace / "run.json").read_text())
        data["prompts"] = [{"concept": "engineer", "count": 1},
                           {"concept": "astronaut", "count": 1}]
        cfg.write_text(json.dumps(data))
        code = main(["generate", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed prompt" in captured.err
        assert "bias_combined=" in captured.out


class TestOtherCommands:
    def test_sweep_command(self, workspace, capsys):
        cfg = workspace / "sweep.json"
        data = json.loads((workspace / "run.json").read_text())
        data["sweep"] = {"attribute": "gender", "value": "male",
                         "proportions": [0.3, 0.7]}
        cfg.write_text(json.dumps(data))
        out = workspace / "sweep_out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "arm 0:" in stdout and "arm 1:" in stdout
        assert "avg_bias=" in stdout
        assert (out / "sweep.csv").exists()

    def test_ablate_window_command(self, workspace, capsys):
        cfg = workspace / "ablate.json"
        data = json.loads((workspace / "run.json").read_text())
        data["windows"] = [[0.0, 0.5], [0.5, 1.0]]
        cfg.write_text(json.dumps(data))
        code = main(["ablate-window", "--config", str(cfg),
                     "--out", str(workspace / "ablate_out")])
        assert code == 0
        assert "window=0,0.5" in capsys.readouterr().out
        assert (workspace / "ablate_out" / "ablation.csv").exists()

    def test_every_csv_written_parses_into_rows_of_its_header_width(self, workspace, capsys):
        """An ablation label holds a comma, and its cell used to be written bare,
        so that every data row of ablation.csv read one cell too wide."""
        data = json.loads((workspace / "run.json").read_text())
        data.update(diagnostics=True, windows=[[0.0, 0.5], [0.5, 1.0]], sweep={
            "attribute": "gender", "value": "male", "proportions": [0.3, 0.7]})
        (workspace / "all.json").write_text(json.dumps(data))
        for command in ("generate", "sweep", "ablate-window"):
            assert main([command, "--config", str(workspace / "all.json"),
                         "--out", str(workspace / command)]) == 0
        # inspect-memory used to sort centroid10 and centroid11 before centroid2.
        mem = _write_memory(workspace / "crafted.json", [
            ([float(k) for k in range(12)], {"a.b": {"x": 1}, "gender": {"male": 1}}),
            ([0.5] * 12, {"gender": {"female": 1}})])
        assert main(["inspect-memory", "--memory", mem,
                     "--out", str(workspace / "memory.csv")]) == 0
        written = sorted(p.relative_to(workspace).as_posix() for p in workspace.rglob("*.csv"))
        assert "ablate-window/ablation.csv" in written and "sweep/sweep.csv" in written
        assert "generate/diagnostics.csv" in written and "generate/report.csv" in written
        assert "memory.csv" in written
        tables = {}
        for name in written:
            with open(workspace / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(line for line in fh if not line.startswith("#")))
            tables[name] = rows
            assert len(rows) > 1, name
            assert {len(row) for row in rows[1:]} == {len(rows[0])}, name
        rows = tables["memory.csv"]
        assert rows[0] == ["cluster", "total", *(f"centroid{k}" for k in range(12)),
                           "a.b=x", "gender=female", "gender=male"]
        assert rows[2][-3:] == ["0", "1", "0"]

    def test_inspect_memory_command(self, workspace, capsys):
        mem = workspace / "memory.json"
        code = main(["generate", "--config", str(workspace / "run.json"),
                     "--memory", str(mem)])
        assert code == 0
        capsys.readouterr()
        assert main(["inspect-memory", "--memory", str(mem)]) == 0
        stdout = capsys.readouterr().out
        memory, seen = restore_memory(str(mem))
        lines = stdout.splitlines()
        assert lines[:4] == ["# steerlab-memory v1", f"# budget={memory.budget}",
                             f"# tau={memory.tau!r}", f"# prompts_seen={seen}"]
        assert lines[4].startswith("cluster,total,centroid0,centroid1,gender=")
        assert [line.split(",")[0] for line in lines[5:]] == \
            [str(i) for i in range(len(memory.clusters))]
        out = workspace / "memory.csv"
        assert main(["inspect-memory", "--memory", str(mem), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()

    def test_inspect_memory_of_centroids_of_two_lengths_exits_2_naming_the_key(
            self, workspace, capsys):
        """Such a memory used to load and print a `0` as cluster 0's centroid2."""
        mem = _write_memory(workspace / "ragged.json", [([0.0, 1.0], {}), ([0.0, 1.0, 2.0], {})])
        assert main(["inspect-memory", "--memory", mem]) == 2
        err = capsys.readouterr().err
        assert mem in err and "clusters[1].centroid must be" in err

    @pytest.mark.parametrize("counts", [
        {"a=b": {"c": 1}, "a": {"b=c": 1}},
        {"a,b": {"x": 1}},
    ], ids=["two-names-one-column", "comma"])
    def test_inspect_memory_of_a_name_no_world_file_holds_exits_2_naming_the_key(
            self, workspace, capsys, counts):
        """The first used to print one `a=b=c` column with a count of 1, the
        second an `a,b=x` column; world files allow neither name."""
        mem = _write_memory(workspace / "names.json", [([0.0, 1.0], counts)])
        assert main(["inspect-memory", "--memory", mem]) == 2
        err = capsys.readouterr().err
        assert mem in err and "clusters[0].counts must be counts of names matching" in err
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command, name, content, named", [
        ("inspect-memory", "memory.json", b'{"magic": "\xff"}', "unreadable memory file"),
        ("validate-world", "latin.world", b"dimension 2\nattribute g\xe9nder male female\n",
         "latin.world:2: not UTF-8 text"),
        ("generate", "cut.json", b'{"world_path": ', "cut.json: Expecting value"),
        ("generate", "latin.json", b'{"world_path": "\xe9"}', "latin.json: 'utf-8' codec"),
        ("render", "samples.csv", b"prompt_id,x0,x1,gender\np,0.5,0.5,m\xffle\n",
         "samples.csv: not UTF-8 text"),
    ], ids=["memory-not-utf8", "world-not-utf8", "config-cut-short", "config-not-utf8",
            "samples-not-utf8"])
    def test_unreadable_input_exits_2_naming_the_file(self, workspace, capsys, command, name,
                                                       content, named):
        """Each used to print a bare JSON or codec message that named no file."""
        path = workspace / name
        path.write_bytes(content)
        flag = {"inspect-memory": "--memory", "validate-world": "--world", "generate": "--config",
                "render": "--samples"}[command]
        extra = ["--world", str(workspace / "demo.world"), "--out", str(workspace / "p.svg")]
        assert main([command, flag, str(path), *(extra if command == "render" else [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and named in err
        assert not (workspace / "p.svg").exists()

    def test_inspect_memory_bad_file_exits_2(self, workspace, capsys):
        bad = workspace / "not_memory.json"
        bad.write_text("{}")
        code = main(["inspect-memory", "--memory", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("inspect-memory", "counts", [1, 2]),
        ("generate", "counts", {"gender": 5}),
        ("inspect-memory", "centroid", [[0, 0]]),
        ("generate", "prompts_seen", -5),
        ("inspect-memory", "budget", 2.5),
    ])
    def test_memory_field_of_wrong_type_exits_2_naming_file_and_key(
            self, workspace, capsys, command, key, value):
        """A container whose checksum is valid but whose field is of the wrong
        type or range exits 2 with the file and the key named, no traceback."""
        mem = workspace / "memory.json"
        assert main(["generate", "--config", str(workspace / "run.json"),
                     "--memory", str(mem)]) == 0
        capsys.readouterr()
        payload = json.loads(mem.read_text())
        del payload["checksum"]
        if key in payload:
            payload[key] = value
        else:
            payload["clusters"][0][key] = value
            key = f"clusters[0].{key}"
        payload["checksum"] = _container_checksum(payload)
        mem.write_text(json.dumps(payload))
        args = (["inspect-memory", "--memory", str(mem)] if command == "inspect-memory" else
                ["generate", "--config", str(workspace / "run.json"), "--memory", str(mem)])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(mem) in err and f"{key} must be" in err

    def test_memory_counts_off_their_total_exit_2(self, workspace, capsys):
        """A count of 7 under a total of 0, under a valid checksum, used to load
        and steer the run."""
        mem = workspace / "memory.json"
        run = ["generate", "--config", str(workspace / "run.json"), "--memory", str(mem)]
        assert main(run) == 0
        capsys.readouterr()
        payload = json.loads(mem.read_text())
        del payload["checksum"]
        payload["clusters"][0].update(total=0, counts={"gender": {"robot": 7}})
        payload["checksum"] = _container_checksum(payload)
        mem.write_text(json.dumps(payload))
        assert main(run) == 2
        err = capsys.readouterr().err
        assert str(mem) in err and "clusters[0].counts.gender must be" in err

    def test_render_command(self, workspace, capsys):
        out = workspace / "out"
        main(["generate", "--config", str(workspace / "run.json"), "--out", str(out)])
        capsys.readouterr()
        svg = workspace / "plot.svg"
        code = main(["render", "--samples", str(out / "samples.csv"),
                     "--world", str(workspace / "demo.world"), "--out", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg ")

    def test_one_parser_serves_a_sequence_of_commands_as_fresh_ones(self, workspace, capsys):
        """generate, render and a bad-config generate in one process give the
        exit codes, output and files of the same calls, each with a new parser."""
        (workspace / "bad.json").write_text(json.dumps({"world_path": "demo.world"}))

        def calls(tag):
            out, svg = workspace / f"out-{tag}", workspace / f"plot-{tag}.svg"
            return [
                ["generate", "--config", str(workspace / "run.json"), "--out", str(out)],
                ["render", "--samples", str(out / "samples.csv"),
                 "--world", str(workspace / "demo.world"), "--out", str(svg)],
                ["generate", "--config", str(workspace / "bad.json"), "--out", str(out)],
            ]

        def run(tag, fresh):
            seen = []
            for argv in calls(tag):
                if fresh:
                    cli.build_parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                seen.append((code, captured.out.replace(tag, ""), captured.err.replace(tag, "")))
            out = workspace / f"out-{tag}"
            files = {p: (out / p).read_bytes() for p in ("samples.csv", "report.csv")}
            return seen, files, (workspace / f"plot-{tag}.svg").read_bytes()

        shared = run("shared", fresh=False)
        assert [code for code, _, _ in shared[0]] == [0, 0, 2]
        assert "config needs at least 'world_path' and 'prompts'" in shared[0][2][2]
        assert shared == run("fresh", fresh=True)

    def test_chained_links_leave_the_same_bytes_whether_the_world_is_loaded_or_not(self, tmp_path):
        """Three links of `generate --memory` then `render` on a two-attribute
        full-covariance world leave the same files, memory included, with the
        loaded world shared by every link and with it parsed afresh per link."""
        (tmp_path / "two.world").write_text(
            "dimension 2\nattribute gender male female\nattribute age young old\n" + "".join(
                f"component {c} gender={g} age={a} mean={x + 3 * i},{y + 9 * j} weight=1 "
                f"cov=1,{0.2 * (i - j)};{0.2 * (i - j)},0.7\n"
                for j, c in enumerate(("nurse", "pilot", "clerk"))
                for i, (g, a, x, y) in enumerate((("male", "young", 0, 0),
                                                  ("male", "old", 0, 2),
                                                  ("female", "young", 2, 0),
                                                  ("female", "old", 2, 2)))))
        (tmp_path / "run.json").write_text(json.dumps({
            "world_path": "two.world",
            "prompts": [{"concept": c, "count": 1} for c in ("nurse", "pilot", "clerk")],
            "target": {"gender": {"male": 0.5, "female": 0.5}, "age": {"young": 0.7, "old": 0.3}},
            "samples_per_prompt": 3, "steps": 30, "beta_end": 0.3, "gamma": 0.6,
            "attribute_scale": 4.0, "memory_budget": 2, "seed": 4}))
        memory, out = tmp_path / "memory.json", tmp_path / "out"

        def links(fresh):
            files = {}
            for k in range(3):
                link = out / str(k)
                for argv in (["generate", "--config", str(tmp_path / "run.json"),
                              "--memory", str(memory), "--out", str(link)],
                             ["render", "--samples", str(link / "samples.csv"),
                              "--world", str(tmp_path / "two.world"),
                              "--out", str(link / "scatter.svg")]):
                    if fresh:
                        worldfile._LOADED.clear()
                    assert main(argv) == 0
                files.update({f"{k}/{p.name}": p.read_bytes() for p in link.iterdir()
                              if p.name != "manifest.json"})  # it holds wall-clock timings
                files[f"{k}/memory.json"] = memory.read_bytes()
            shutil.rmtree(out)
            memory.unlink()
            return files

        fresh = links(fresh=True)
        assert sorted(fresh) == sorted(f"{k}/{name}" for k in range(3) for name in (
            "memory.json", "report.csv", "samples.csv", "scatter.svg"))
        assert links(fresh=False) == fresh

    @pytest.mark.parametrize("row, named", [
        ("p,1.0", "2 cells under a 4-column header"),
        ("p,1.0,abc,male", "could not convert string to float: 'abc'"),
    ], ids=["short-row", "non-numeric-coordinate"])
    def test_render_malformed_samples_row_exits_2(self, workspace, capsys, row, named):
        """The error names the file and its line, comment lines counted."""
        samples = workspace / "bad.csv"
        samples.write_text(f"# steerlab-samples v1\n# a comment\nprompt_id,x0,x1,gender\n"
                           f"q,0.5,0.5,female\n{row}\n")
        code = main(["render", "--samples", str(samples),
                     "--world", str(workspace / "demo.world"), "--out", str(workspace / "p.svg")])
        assert code == 2
        assert f"bad.csv:5: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("coords, rows", [(3, 3), (3, 2), (1, 2)])
    def test_render_samples_of_another_dimension_exits_2_naming_the_file(
            self, workspace, capsys, coords, rows):
        """Against the packaged 2-D world these used to exit 2 with numpy's
        reshape message or `N points but M label rows`, naming no file."""
        header = ",".join(["prompt_id", *(f"x{i}" for i in range(coords)), "gender"])
        row = ",".join(["p", *["0.5"] * coords, "male"])
        samples = workspace / "samples.csv"
        samples.write_text("\n".join([header] + [row] * rows) + "\n")
        svg = workspace / "plot.svg"
        assert main(["render", "--samples", str(samples), "--out", str(svg)]) == 2
        assert (f"samples.csv: {coords} coordinate columns but the world has dimension 2"
                in capsys.readouterr().err)
        assert not svg.exists()

    @pytest.mark.parametrize("attribute", ["concept", "x2"])
    def test_render_reads_an_attribute_named_like_a_column(self, workspace, capsys, attribute):
        """Labels are read by position: `concept` used to colour every point by the
        concept column (all grey, no legend), and `x2` was read as a coordinate
        and exited 2 on the file the run had just written."""
        (workspace / "named.world").write_text(
            f"dimension 2\nattribute {attribute} a b\n"
            f"component worker {attribute}=a mean=0,0 weight=0.5\n"
            f"component worker {attribute}=b mean=4,0 weight=0.5\n")
        config = json.loads((workspace / "run.json").read_text())
        config.update(world_path="named.world", prompts=[{"concept": "worker", "count": 2}],
                      target={attribute: {"a": 0.5, "b": 0.5}})
        (workspace / "named.json").write_text(json.dumps(config))
        out, svg = workspace / "out", workspace / "plot.svg"
        assert main(["generate", "--config", str(workspace / "named.json"),
                     "--out", str(out)]) == 0
        assert main(["render", "--samples", str(out / "samples.csv"),
                     "--world", str(workspace / "named.world"), "--out", str(svg)]) == 0
        capsys.readouterr()
        labels = [line.rsplit(",", 1)[1] for line in (out / "samples.csv").read_text().splitlines()
                  if not line.startswith("#")][1:]
        assert len(labels) == 6
        colour = {"a": "#1f77b4", "b": "#d62728"}
        text = svg.read_text()
        assert re.findall(r'<circle [^>]*fill="([^"]+)"', text) == [colour[v] for v in labels]
        assert re.findall(r">(\S+=\S+)</text>", text) == [
            f"{attribute}={v}" for v in ("a", "b") if v in labels]

    def test_render_samples_of_other_attributes_exits_2_naming_the_file(self, workspace, capsys):
        """Rendered against a world of other attributes, every point used to be grey."""
        out = workspace / "out"
        assert main(["generate", "--config", str(workspace / "run.json"), "--out", str(out)]) == 0
        (workspace / "age.world").write_text(
            "dimension 2\nattribute age young old\n"
            "component worker age=young mean=0,0 weight=0.5\n"
            "component worker age=old   mean=4,0 weight=0.5\n")
        svg = workspace / "plot.svg"
        assert main(["render", "--samples", str(out / "samples.csv"),
                     "--world", str(workspace / "age.world"), "--out", str(svg)]) == 2
        assert ("samples.csv: the header does not end with the world's attribute columns "
                "['age']" in capsys.readouterr().err)
        assert not svg.exists()

    def test_render_non_finite_coordinate_exits_2(self, workspace, capsys):
        """An `inf` coordinate used to be drawn as `nan` into the SVG with exit 0."""
        out = workspace / "out"
        assert main(["generate", "--config", str(workspace / "run.json"), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "samples.csv").read_text().splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cells = lines[header + 2].split(",")
        cells[lines[header].split(",").index("x1")] = "inf"
        lines[header + 2] = ",".join(cells)
        (out / "samples.csv").write_text("".join(lines))
        svg = workspace / "plot.svg"
        code = main(["render", "--samples", str(out / "samples.csv"),
                     "--world", str(workspace / "demo.world"), "--out", str(svg)])
        assert code == 2
        assert f"samples.csv:{header + 3}: non-finite coordinate" in capsys.readouterr().err
        assert not svg.exists()

    def test_memory_whose_centroid_overflows_is_never_written(self, workspace, capsys):
        """A huge but finite centroid loads; the prompts whose record would
        overflow it fail, and the memory written after them loads again."""
        mem = workspace / "memory.json"
        config = json.loads((workspace / "run.json").read_text())
        (workspace / "budget1.json").write_text(json.dumps({**config, "memory_budget": 1}))
        run = ["generate", "--config", str(workspace / "budget1.json"), "--memory", str(mem)]
        assert main(run) == 0
        payload = json.loads(mem.read_text())
        del payload["checksum"]
        payload.update(budget=1, prompts_seen=0, clusters=[
            {"centroid": [1e308, 0.0], "total": 2, "counts": {"gender": {"male": 2}}}])
        payload["checksum"] = _container_checksum(payload)
        mem.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(run) == 1
        err = capsys.readouterr().err
        assert err.count("merged cluster centroid overflows") == 6
        memory, seen = restore_memory(str(mem))
        assert seen == 6
        assert [(c.centroid.tolist(), c.total, c.counts) for c in memory.clusters] == \
            [([1e308, 0.0], 2, {"gender": {"male": 2}})]
        assert main(["inspect-memory", "--memory", str(mem)]) == 0

    def test_validate_world_command(self, workspace, capsys):
        code = main(["validate-world", "--world", str(workspace / "demo.world")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("ok:")
        assert "digest=" in stdout

    def test_validate_world_rejects_broken_file(self, workspace, capsys):
        bad = workspace / "broken.world"
        bad.write_text("dimension 2\ncomponent a mean=0 weight=1\n")
        code = main(["validate-world", "--world", str(bad)])
        assert code == 2
        assert "broken.world:2:" in capsys.readouterr().err

    def test_policy_override_to_vanilla(self, workspace, capsys):
        code = main(["generate", "--config", str(workspace / "run.json"),
                     "--policy", "vanilla", "--seed", "77"])
        assert code == 0
        assert "bias_combined=" in capsys.readouterr().out


def test_package_root_exports_the_names_the_readme_lists():
    """The package root's public names are those of the README's Python API
    section; everything else is imported from its module."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Python API", 1)[1].split("\n## ", 1)[0]
    paragraph = section[section.index("The package root"):].split("\n\n", 1)[0]
    listed = set(re.findall(r"`(\w+)`", paragraph)) - {"steerlab"}
    exported = {name for name, value in vars(steerlab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported | {"__version__"} == listed


def test_every_name_perfbench_traces_is_bound_in_its_module():
    """perfbench, which is outside the test paths, times `<layer>.<function>`
    names; a name gone from its module is reported absent and its metrics go
    missing, so a change to `src/` must keep every one bound."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    unbound = []
    for name in tracer.FUNCTIONS:
        layer, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"steerlab.{layer}"), function, None)):
            unbound.append(name)
    assert not unbound
