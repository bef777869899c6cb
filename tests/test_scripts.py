"""The experiment scripts resolve a relative ``inner`` path against the
circuit file, as the CLI does, not against the working directory, and
report bad input as the CLI does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GHZ3 = "family prod\nqubits 3\nmeasure 3\ngate H 0\ngate CNOT 0 1\ngate CNOT 1 2\n"


@pytest.fixture
def encoded_file(tmp_path):
    circuits = tmp_path / "circuits"
    circuits.mkdir()
    (circuits / "ghz3.qc").write_text(GHZ3)
    path = circuits / "enc.qc"
    path.write_text("family encoded\ninner ghz3.qc\n")
    return path


def run_script(script, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("script,extra", [
    ("run_distinguish.py", ["--bob", "exact", "--trials", "1000"]),
    ("run_sparsity_profile.py", ["--eps", "0.0", "0.5"]),
])
def test_relative_inner_path_from_other_cwd(tmp_path, encoded_file, script,
                                            extra):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    r = run_script(script, ["--circuit", os.path.relpath(encoded_file, elsewhere)]
                   + extra, elsewhere)
    assert r.returncode == 0, r.stderr
    json.loads(r.stdout.splitlines()[-1])


def test_bad_input_exits_2_with_one_error_line(tmp_path, encoded_file):
    r = run_script("run_distinguish.py",
                   ["--circuit", str(encoded_file), "--trials", "200"], tmp_path)
    assert r.returncode == 2
    assert r.stdout == ""
    [line] = r.stderr.splitlines()
    assert line.startswith("error: ") and "trials" in line
