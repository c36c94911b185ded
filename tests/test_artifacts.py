"""Byte-identity gate: the artifact scenario of `scripts/artifact_scenario.py`,
run in-process through `cli.main`, against the list in `artifact_list.txt`.

The list has one line per file the scenario leaves (`manifest.json` aside,
as in the script), the sha256 of its bytes without its `# config_digest=`
lines, and then each command's exit code.  Those lines are dropped because
the config digest still hashes the absolute world path, so it differs
between work directories.  Each command's stdout and stderr are kept as
files, as the script keeps them.

The list pins the float bits of the numpy it was made with (2.4.6).  A
change that moves artifact bytes on purpose regenerates it with

    PYTHONPATH=src python tests/test_artifacts.py

and says in CHANGES.md which files moved and why.
"""

import contextlib
import hashlib
import importlib.util
import io
import logging
import os
import sys
import tempfile
from pathlib import Path

import steerlab
from steerlab import cli

ROOT = Path(__file__).resolve().parent.parent
LIST = Path(__file__).with_name("artifact_list.txt")


def _scenario():
    """scripts/artifact_scenario.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "artifact_scenario", ROOT / "scripts" / "artifact_scenario.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(args: list[str], stdout: io.StringIO, stderr: io.StringIO) -> int:
    """cli.main(args) with its output in the given streams.  The `steerlab`
    logger stops at itself for the run, so its warnings reach stderr through
    logging's last-resort handler, as in a process of its own, and not
    pytest's handlers on the root logger."""
    logger = logging.getLogger("steerlab")
    propagate, logger.propagate = logger.propagate, False
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            return cli.main(args)
    finally:
        logger.propagate = propagate


def scenario_list(work: str) -> str:
    """The scenario's list for a run in the empty or absent directory `work`."""
    scenario = _scenario()
    scenario.prepare(work, str(Path(steerlab.__file__).parent.parent))
    codes = []
    with contextlib.chdir(work):
        for name, args in scenario.commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            code = _run(args, stdout, stderr)
            for stream, text in (("stdout", stdout), ("stderr", stderr)):
                with open(f"{name}.{stream}", "w", encoding="utf-8") as fh:
                    fh.write(text.getvalue())
            codes.append(f"exit {code}  {name}")
    lines = []
    for root, dirs, files in os.walk(work):
        dirs.sort()
        for name in sorted(files):
            if name in ("manifest.json", scenario.MARKER):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                kept = b"".join(line for line in fh if not line.startswith(b"# config_digest="))
            lines.append(f"{hashlib.sha256(kept).hexdigest()}  {os.path.relpath(path, work)}")
    return "\n".join(lines + codes) + "\n"


def test_the_scenario_leaves_the_listed_bytes_and_exit_codes(tmp_path):
    actual = scenario_list(str(tmp_path / "work")).splitlines()
    assert actual == LIST.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = scenario_list(os.path.join(tmp, "work"))
    LIST.write_text(text, encoding="utf-8")
    print(f"wrote {LIST}: {text.count(chr(10))} lines", file=sys.stderr)
