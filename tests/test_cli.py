"""Command-line interface: output format, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bornbox import circuits, cli, experiments, oracle, polybox, samplers
from bornbox.cli import format_float, run_command, to_json
from bornbox.samplers import heavy_prefixes

from helpers import random_iqp_circuit, random_prod_circuit, serialize_circuit

GHZ3 = "family prod\nqubits 3\nmeasure 3\ngate H 0\ngate CNOT 0 1\ngate CNOT 1 2\n"


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz3.qc"
    path.write_text(GHZ3)
    return str(path)


def run_json(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out.splitlines()[0]), captured


def test_draw_counts_count_each_big_endian_index():
    counts = cli.draw_counts(["101", "000", "101", "111"], 3)
    assert counts.tolist() == [1, 0, 0, 0, 0, 2, 0, 1]
    assert cli.draw_counts([], 2).tolist() == [0, 0, 0, 0]


def test_format_float():
    assert format_float(0.5) == "0.5"
    assert format_float(1.0) == "1"
    # 17 significant digits round-trip every double
    assert float(format_float(0.1)) == 0.1
    assert float(format_float(2 / 3)) == 2 / 3
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_to_json():
    doc = to_json({"b": True, "i": 2, "f": 0.5, "s": "x", "n": None,
                   "l": [1, 2]})
    assert doc == '{"b":true,"i":2,"f":0.5,"s":"x","n":null,"l":[1,2]}'
    assert json.loads(doc) == {"b": True, "i": 2, "f": 0.5, "s": "x",
                               "n": None, "l": [1, 2]}
    # bools must not be serialized as integers
    assert to_json(True) == "true"
    with pytest.raises(TypeError):
        to_json(object())


def test_oracle_pattern_is_exact(capsys, ghz_file):
    doc, _ = run_json(capsys, ["oracle", "--circuit", ghz_file,
                               "--pattern", "111"])
    assert doc["command"] == "oracle"
    assert doc["payload"]["probability"] == 0.5
    assert "threads" not in doc["parameters"]


def test_oracle_full_distribution(capsys, ghz_file):
    doc, _ = run_json(capsys, ["oracle", "--circuit", ghz_file])
    assert doc["payload"]["k"] == 3
    probs = doc["payload"]["probs"]
    assert probs[0] == 0.5
    assert probs[7] == 0.5
    assert sum(probs) == 1.0


def test_estimate(capsys, ghz_file):
    doc, captured = run_json(capsys, [
        "estimate", "--circuit", ghz_file, "--pattern", "111",
        "--eps", "0.05", "--delta", "0.01", "--seed", "7"])
    assert doc["seed"] == 7
    assert doc["payload"]["samples_used"] == 4239
    assert abs(doc["payload"]["value"] - 0.5) <= 0.05
    assert doc["parameters"]["pattern"] == "111"
    assert "wall_time_s=" in captured.err


def test_sample_stream_format(capsys, ghz_file):
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--count", "5", "--eps-prime", "0.13", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    header = json.loads(lines[0])
    assert header["payload"] == {"k": 3, "count": 5}
    outcomes = [json.loads(ln)["outcome"] for ln in lines[1:]]
    assert len(outcomes) == 5
    assert set(outcomes) <= {"000", "111"}


def test_sample_cdf_and_chain(capsys, ghz_file):
    for method in ("cdf", "chain"):
        code = run_command(["sample", "--circuit", ghz_file, "--method",
                            method, "--count", "8", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        outcomes = [json.loads(ln)["outcome"]
                    for ln in captured.out.splitlines()[1:]]
        assert set(outcomes) <= {"000", "111"}


def test_sample_sampling_estimator_coarse(capsys, ghz_file):
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--estimator", "sampling", "--eps-prime", "1.3",
                        "--count", "2", "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 0
    outcomes = [json.loads(ln)["outcome"]
                for ln in captured.out.splitlines()[1:]]
    assert len(outcomes) == 2


def test_experiment_sparsity(capsys, ghz_file):
    doc, _ = run_json(capsys, ["experiment", "sparsity", "--circuit", ghz_file,
                               "--eps-grid", "0.0,0.5,1.9"])
    table = doc["payload"]["table"]
    assert [row["t"] for row in table] == [2, 2, 1]


def test_experiment_distinguish(capsys, ghz_file):
    doc, _ = run_json(capsys, ["experiment", "distinguish", "--circuit",
                               ghz_file, "--bob", "corrupted", "--trials",
                               "2000", "--seed", "2"])
    metric = doc["payload"]["metrics"][0]
    assert metric["name"] == "p_correct"
    assert metric["bound"] == 0.6
    assert metric["pass"]


def test_experiment_anticoncentration(capsys):
    doc, _ = run_json(capsys, ["experiment", "anticoncentration", "--n", "3",
                               "--trials", "150", "--seed", "4"])
    names = [m["name"] for m in doc["payload"]["metrics"]]
    assert names[-2:] == ["mean_px", "mean_px_sq"]


def test_selftest_all_pass(capsys):
    doc, _ = run_json(capsys, ["selftest"])
    assert doc["payload"]["failed"] == 0
    assert doc["payload"]["passed"] == len(doc["payload"]["checks"])
    assert doc["payload"]["expected_failures"] == []


def test_selftest_roundtrip_fails_when_the_sweep_drops_a_step(capsys,
                                                              monkeypatch):
    sweep = cli.synthesis_steps

    def drop_one(*args):
        steps = sweep(*args)
        del steps[next(i for i, step in enumerate(steps) if step[3].any())]
        return steps
    monkeypatch.setattr(cli, "synthesis_steps", drop_one)
    doc, _ = run_json(capsys, ["selftest"])
    names = {c["check"]: c["pass"] for c in doc["payload"]["checks"]}
    assert names["clifford-synthesis-roundtrip"] is False
    assert doc["payload"]["failed"] == 1


def test_selftest_injection_expected_failure(capsys):
    doc, _ = run_json(capsys, ["selftest", "--inject-corrupted-bob"])
    assert doc["payload"]["expected_failures"] == ["scheduled-advantage-cap"]
    assert doc["payload"]["failed"] == 1
    names = {c["check"]: c["pass"] for c in doc["payload"]["checks"]}
    assert names["scheduled-advantage-cap"] is False


def test_exit_codes(capsys, ghz_file, tmp_path):
    assert run_command(["oracle", "--circuit", ghz_file,
                        "--pattern", "2*"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_command(["oracle", "--circuit", ghz_file,
                        "--pattern", "11"]) == 2
    capsys.readouterr()
    assert run_command(["oracle", "--circuit", str(tmp_path / "nope.qc")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.qc"
    bad.write_text("family prod\ngate H 0\n")
    assert run_command(["oracle", "--circuit", str(bad)]) == 2
    capsys.readouterr()
    # argparse failure is converted to a return code, not an exception
    assert run_command(["estimate"]) == 2
    capsys.readouterr()


# each subcommand with a complete argument list, so an option added after it
# reaches the top-level parser
COMPLETE = {"estimate": ["--circuit", "x", "--pattern", "0"],
            "sample": ["--circuit", "x", "--method", "chain"],
            "oracle": ["--circuit", "x"],
            "experiment": ["anticoncentration", "--n", "2"],
            "selftest": []}


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["experiment"], ["experiment", "bogus"],
    *([sub, "-h"] for sub in COMPLETE),
    *([sub, *args, "--bogus", "1"] for sub, args in COMPLETE.items()),
    ["estimate", "--circuit", "x"],
    ["sample", "--method", "foo"],
    ["experiment", "anticoncentration", "--n"],
], ids=lambda argv: " ".join(argv) or "no-args")
def test_argument_errors_and_help_match_the_full_parser(capsys, ghz_file,
                                                        argv):
    """run_command parses with the one cached parser; what it prints and
    returns is what a freshly built parser gives, also after that parser
    has run a successful command."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser.__wrapped__().parse_args(argv)
    fresh = (exc.value.code, *capsys.readouterr())
    for _ in range(2):
        assert (run_command(argv), *capsys.readouterr()) == fresh
        run_json(capsys, ["oracle", "--circuit", ghz_file])
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, message", [
    ([], "error: the following arguments are required: subcommand"),
    (["bogus"], "error: argument subcommand: invalid choice: 'bogus'"),
], ids=["no-args", "bogus"])
def test_subcommand_errors_name_the_subcommand(capsys, argv, message):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["estimate", "--circuit", "{missing}", "--pattern", "000"],
    ["estimate", "--circuit", "{ghz}", "--pattern", "0x1"],
    ["estimate", "--circuit", "{ghz}", "--pattern", "00"],
    ["estimate", "--circuit", "{ghz}", "--pattern", "000", "--eps", "0"],
    ["estimate", "--circuit", "{ghz}", "--pattern", "000", "--eps", "-0.1"],
    ["sample", "--circuit", "{ghz}", "--method", "chain", "--count", "-1"],
    ["estimate", "--circuit", "{ghz}", "--pattern", "000", "--eps", "1e-6"],
    ["experiment", "distinguish", "--circuit", "{ghz}", "--trials", "200"],
    ["sample", "--circuit", "{ghz}", "--method", "cdf", "--m", "1100"],
    ["sample", "--circuit", "{ghz}", "--method", "cdf", "--m", "0",
     "--count", "0"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "oracle", "--eps-prime", "3"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--eps-prime", "3", "--count", "0"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--sparsity", "0"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--sparsity", "0",
     "--count", "0"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "0"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "0", "--count", "0"],
    ["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "scheduled",
     "--delta", "0.9"],
    ["experiment", "anticoncentration", "--n", "2", "--trials", "100",
     "--alphas", "0.5,2"],
    ["experiment", "anticoncentration", "--n", "2", "--trials", "100",
     "--alphas=-0.1"],
    ["experiment", "anticoncentration", "--n", "2", "--trials", "100",
     "--alphas", "nan"],
    ["estimate", "--circuit", "{encoded}", "--pattern", "0000",
     "--delta=-0.5"],
    ["estimate", "--circuit", "{encoded}", "--pattern", "0000", "--delta", "7"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "oracle", "--sparsity", "inf"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "oracle", "--sparsity", "1e400"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "oracle", "--sparsity", "nan"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "oracle", "--eps-prime", "1e-320"],
    # a finite bound sp(k/eps) whose threshold eps/(2t) leaves 2/threshold
    # above the largest double
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "oracle", "--sparsity", "1e300,1e300,1e300", "--eps-prime", "0.05"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "inf"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "1e400"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "nan"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--eps-prime", "1e-320"],
    # a finite bound sp(k/eps) whose threshold eps/(2t) leaves 2/threshold
    # above the largest double
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "1e300,1e300,1e300", "--eps-prime", "0.05"],
    # the threshold eps/(2t) is 0
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "1e308"],
    ["estimate", "--circuit", "{ghz}", "--pattern", "000", "--eps", "1e-200"],
    ["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "scheduled",
     "--delta", "nan"],
    ["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "exact",
     "--delta", "nan"],
    ["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "exact",
     "--delta", "inf"],
    ["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "exact",
     "--delta=-1"],
    ["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "corrupted",
     "--delta=-1"],
    ["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "corrupted",
     "--delta", "0"],
    # 2/threshold is finite, but the survivor cap, about twice it, is not
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "oracle", "--sparsity", "2.5e305"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "2.5e305"],
    # the survivor cap is finite, but the union bound's 2*k*cap is not
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "oracle", "--sparsity", "1e305"],
    ["sample", "--circuit", "{ghz}", "--method", "sparse", "--estimator",
     "sampling", "--sparsity", "1e305"],
], ids=["missing-file", "malformed-pattern", "pattern-length", "eps-zero",
        "eps-negative", "negative-count", "over-draw-budget",
        "distinguish-trials", "cdf-m-too-large", "cdf-m-zero-count-0",
        "sparse-eps-prime-oracle", "sparse-eps-prime-count-0",
        "sparse-zero-sparsity", "sparse-zero-sparsity-count-0",
        "sparse-zero-sparsity-sampling",
        "sparse-zero-sparsity-sampling-count-0", "distinguish-scheduled-delta",
        "anticoncentration-alpha-above-1", "anticoncentration-alpha-negative",
        "anticoncentration-alpha-nan", "encoded-delta-negative",
        "encoded-delta-above-1",
        "sparsity-inf-oracle", "sparsity-1e400-oracle", "sparsity-nan-oracle",
        "eps-prime-1e-320-oracle", "sparsity-cap-overflow-oracle",
        "sparsity-inf-sampling", "sparsity-1e400-sampling",
        "sparsity-nan-sampling", "eps-prime-1e-320-sampling",
        "sparsity-cap-overflow-sampling", "sparsity-threshold-zero-sampling",
        "eps-square-underflows",
        "distinguish-scheduled-delta-nan", "distinguish-exact-delta-nan",
        "distinguish-exact-delta-inf", "distinguish-exact-delta-negative",
        "distinguish-corrupted-delta-negative",
        "distinguish-corrupted-delta-zero",
        "survivor-cap-overflow-oracle", "survivor-cap-overflow-sampling",
        "union-bound-overflow-oracle", "union-bound-overflow-sampling"])
def test_error_paths_exit_2_with_empty_stdout(capsys, ghz_file, encoded_file,
                                              tmp_path, argv):
    argv = [a.format(ghz=ghz_file, encoded=encoded_file,
                     missing=str(tmp_path / "nope.qc"))
            for a in argv]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")
    if argv[1] == "anticoncentration":
        assert "alpha" in line
    if "--delta" in " ".join(argv):
        assert "delta" in line


@pytest.mark.parametrize("command", [["oracle"], ["estimate", "--pattern", "0"]])
def test_register_above_the_cap_is_refused_before_any_qubit_state(
        capsys, monkeypatch, tmp_path, command):
    def refuse(*args):
        raise AssertionError("per-qubit state built")
    monkeypatch.setattr(circuits, "ProductState", refuse)
    path = tmp_path / "wide.qc"
    path.write_text(f"family prod\nqubits {circuits.MAX_QUBITS + 1}\n"
                    "measure 1\ngate H 0\n")
    code = run_command([command[0], "--circuit", str(path)] + command[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: line 2: qubit count "
                            f"{circuits.MAX_QUBITS + 1} exceeds the limit of "
                            f"{circuits.MAX_QUBITS}\n")


@pytest.mark.parametrize("method", ["sparse", "cdf", "chain"])
def test_count_above_the_draw_limit_is_refused_before_any_work(
        capsys, monkeypatch, ghz_file, method):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the count check")
    for name in ("exact_distribution", "epsilon_simulate", "OraclePolyBox",
                 "auto_polybox"):
        monkeypatch.setattr(cli, name, refuse)
    code = run_command(["sample", "--circuit", ghz_file, "--method", method,
                        "--count", "100000001"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: --count must be at most 1e+08, "
                            "got 100000001\n")


class WorkStarted(Exception):
    pass


def _refuse_experiment_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise WorkStarted
    for name in ("_chunked_map", "OraclePolyBox", "exact_distribution"):
        monkeypatch.setattr(experiments, name, refuse)


@pytest.mark.parametrize("argv", [
    ["experiment", "anticoncentration", "--n", "3"],
    ["experiment", "distinguish", "--circuit", "{ghz}"],
], ids=["anticoncentration", "distinguish"])
def test_trials_above_the_draw_limit_are_refused_before_any_work(
        capsys, monkeypatch, ghz_file, argv):
    _refuse_experiment_work(monkeypatch)
    code = run_command([a.format(ghz=ghz_file) for a in argv]
                       + ["--trials", "100000000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: trials must be at most 1e+08, "
                            "got 100000000000\n")


def test_rounds_times_trials_above_the_draw_limit_are_refused_before_any_work(
        capsys, monkeypatch, ghz_file):
    _refuse_experiment_work(monkeypatch)
    code = run_command(["experiment", "distinguish", "--circuit", ghz_file,
                        "--bob", "scheduled", "--trials", "1000",
                        "--rounds", "100001"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: rounds * trials must be at most 1e+08, "
                            "got 100001000\n")
    with pytest.raises(WorkStarted):
        experiments.run_hypothesis_test(cli.ghz_circuit(3), "scheduled", 0.05,
                                        1000, 0, rounds=100000)


@pytest.mark.parametrize("bob", ["exact", "corrupted", "scheduled"])
@pytest.mark.parametrize("l1", ["nan", "inf"])
def test_non_finite_corruption_is_refused_before_any_work(
        capsys, monkeypatch, ghz_file, bob, l1):
    _refuse_experiment_work(monkeypatch)
    code = run_command(["experiment", "distinguish", "--circuit", ghz_file,
                        "--bob", bob, "--corruption-l1", l1])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: corruption_l1 must be finite, got {l1}\n"


@pytest.mark.parametrize("bob", ["exact", "corrupted", "scheduled"])
@pytest.mark.parametrize("l1", ["3.0", "-1.0", "2.0000001"])
def test_corruption_outside_its_range_is_refused_before_the_oracle_build(
        capsys, monkeypatch, ghz_file, bob, l1):
    builds = []
    build = experiments.OraclePolyBox
    monkeypatch.setattr(experiments, "OraclePolyBox",
                        lambda circuit: builds.append(circuit) or build(circuit))
    code = run_command(["experiment", "distinguish", "--circuit", ghz_file,
                        "--bob", bob, f"--corruption-l1={l1}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: corruption_l1 must lie in [0, 2], got {l1}\n"
    assert builds == []


@pytest.mark.parametrize("eps", ["3", "-0.1", "nan"])
def test_bad_eps_grid_is_refused_before_the_oracle_build(
        capsys, monkeypatch, ghz_file, eps):
    builds = []
    build = experiments.exact_distribution
    monkeypatch.setattr(experiments, "exact_distribution",
                        lambda circuit: builds.append(circuit) or build(circuit))
    code = run_command(["experiment", "sparsity", "--circuit", ghz_file,
                        f"--eps-grid=0.1,{eps}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: eps must lie in [0, 2]\n"
    assert builds == []


def test_trials_at_the_draw_limit_reach_the_work(monkeypatch):
    _refuse_experiment_work(monkeypatch)
    with pytest.raises(WorkStarted):
        experiments.anticoncentration_report(3, 10 ** 8, (0.5,),
                                             cli.ProductState.zero(3), 0)
    with pytest.raises(WorkStarted):
        experiments.run_hypothesis_test(cli.ghz_circuit(3), "exact", 0.1,
                                        10 ** 8, 0)


def test_count_at_the_draw_limit_is_accepted(capsys, monkeypatch, ghz_file):
    monkeypatch.setattr(cli, "epsilon_simulate",
                        lambda est, sp, circuit, eps_prime, count, rng: ["000"])
    doc, _ = run_json(capsys, ["sample", "--circuit", ghz_file, "--method",
                               "sparse", "--count", "100000000"])
    assert doc["parameters"]["count"] == 10 ** 8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["experiment", "anticoncentration", "--n", "2", "--trials", "100",
      "--bloch", "nan,0,0"], "Bloch components must be finite"),
    (["oracle", "--circuit", "{nan_prep}"],
     "line 4: bad bloch component 'nan'"),
    (["estimate", "--circuit", "{ghz}", "--pattern", "000", "--eps", "nan"],
     "eps must be finite"),
    (["estimate", "--circuit", "{ghz}", "--pattern", "000", "--eps", "inf"],
     "eps must be finite"),
    (["estimate", "--circuit", "{ghz}", "--pattern", "000", "--delta", "nan"],
     "delta must be finite"),
    (["estimate", "--circuit", "{ghz}", "--pattern", "000", "--delta", "inf"],
     "delta must be finite"),
    (["estimate", "--circuit", "{encoded}", "--pattern", "0000", "--delta",
      "nan"], "delta must be finite"),
    # the schedule's eps_1 makes k/eps overflow, so sp(k/eps) is not finite
    (["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "scheduled",
      "--delta", "1e-320", "--rounds", "2"],
     "error: delta=1e-320 gives the scheduled imposter no sparse budget in "
     "round 1: eps_prime="),
    # the schedule's eps_1 leaves a survivor cap above the largest double
    (["experiment", "distinguish", "--circuit", "{ghz}", "--bob", "scheduled",
      "--delta", "3e-307"],
     "error: delta=3e-307 gives the scheduled imposter no sparse budget in "
     "round 1: heavy-prefix threshold"),
], ids=["anticoncentration-bloch-nan", "prep-bloch-nan", "eps-nan", "eps-inf",
        "delta-nan", "delta-inf", "encoded-delta-nan",
        "scheduled-delta-underflows", "scheduled-delta-cap-overflows"])
def test_non_finite_inputs_exit_2_naming_them(capsys, ghz_file, encoded_file,
                                              tmp_path, argv, message):
    nan_prep = tmp_path / "nan.qc"
    nan_prep.write_text("family prod\nqubits 1\nmeasure 1\n"
                        "prep 0 bloch nan 0 0\n")
    argv = [a.format(ghz=ghz_file, encoded=encoded_file, nan_prep=nan_prep)
            for a in argv]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize("argv, message", [
    (["--alphas", "x"], "bad float list 'x'"),
    (["--alphas", ","], "empty float list ','"),
    (["--bloch", "1,0"], "--bloch needs exactly rx,ry,rz"),
], ids=["alphas-not-a-float", "alphas-empty", "bloch-two-components"])
def test_malformed_lists_exit_2_naming_them(capsys, argv, message):
    code = run_command(["experiment", "anticoncentration", "--n", "2",
                        "--trials", "100", *argv])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == "error: " + message


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["estimate", "--circuit", "{ghz}", "--pattern", "000"],
    ["experiment", "anticoncentration", "--n", "3", "--trials", "100"],
], ids=["estimate", "anticoncentration"])
def test_threads_below_one_exit_2(capsys, ghz_file, argv, threads):
    argv = [a.format(ghz=ghz_file) for a in argv]
    assert run_command(argv + ["--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "--threads" in line


@pytest.mark.parametrize("argv", [
    ["estimate", "--circuit", "{ghz}", "--pattern", "000"],
    ["experiment", "anticoncentration", "--n", "3", "--trials", "100"],
], ids=["estimate", "anticoncentration"])
def test_threads_above_the_cap_exit_2_before_any_work(capsys, monkeypatch,
                                                      ghz_file, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the --threads check")
    monkeypatch.setattr(cli, "auto_polybox", refuse)
    monkeypatch.setattr(experiments, "_chunked_map", refuse)
    argv = [a.format(ghz=ghz_file) for a in argv]
    assert run_command(argv + ["--threads", "65"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --threads must lie in [1, 64], got 65\n"
    monkeypatch.undo()  # one chunk of work: the cap itself starts no pool
    assert run_command(argv + ["--threads", "64"]) == 0
    capsys.readouterr()


def test_anticoncentration_above_oracle_limit_draws_nothing(capsys,
                                                             monkeypatch):
    def refuse(n, count, rng):
        raise AssertionError("random_clifford_words called")
    monkeypatch.setattr(experiments, "random_clifford_words", refuse)
    code = run_command(["experiment", "anticoncentration", "--n", "21",
                        "--trials", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "limit" in line


def test_delta_above_one_is_refused_before_any_draw(capsys, monkeypatch,
                                                     ghz_file):
    def refuse(*args):
        raise AssertionError("draw kernel entered")
    monkeypatch.setattr(polybox, "_batched_sums", refuse)
    code = run_command(["estimate", "--circuit", ghz_file, "--pattern", "0**",
                        "--eps", "0.0002", "--delta", "1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: delta must lie in [0, 1); 0 only for "
                            "deterministic estimators\n")


@pytest.fixture
def encoded_file(tmp_path):
    circuits = tmp_path / "circuits"
    circuits.mkdir()
    (circuits / "ghz3.qc").write_text(GHZ3)
    path = circuits / "enc.qc"
    path.write_text("family encoded\ninner ghz3.qc\n")
    return path


@pytest.mark.parametrize("argv", [
    ["distinguish", "--bob", "exact", "--trials", "1000"],
    ["sparsity", "--eps-grid", "0.0,0.5"],
], ids=["distinguish", "sparsity"])
def test_relative_inner_path_from_other_cwd(capsys, monkeypatch, tmp_path,
                                            encoded_file, argv):
    """A relative ``inner`` path resolves against the circuit file, not the
    working directory."""
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    doc, _ = run_json(capsys, ["experiment", argv[0], "--circuit",
                               os.path.relpath(encoded_file, elsewhere)]
                      + argv[1:])
    assert doc["command"] == "experiment"


GHZ6 = ("family prod\nqubits 6\nmeasure 6\ngate H 0\n"
        + "".join(f"gate CNOT 0 {q}\n" for q in range(1, 6)))


@pytest.fixture
def ghz6_above_oracle_limit(tmp_path, monkeypatch):
    monkeypatch.setenv("BORNBOX_ORACLE_LIMIT", "4")
    path = tmp_path / "ghz6.qc"
    path.write_text(GHZ6)
    return str(path)


SAMPLING = ["--method", "sparse", "--estimator", "sampling", "--eps-prime",
            "1.0", "--count", "2", "--seed", "4"]


def test_default_sparsity_above_oracle_limit_asks_for_sparsity(
        capsys, ghz6_above_oracle_limit):
    code = run_command(["sample", "--circuit", ghz6_above_oracle_limit]
                       + SAMPLING)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: pass --sparsity")
    assert "BORNBOX_ORACLE_LIMIT" not in line


def test_sampling_estimator_with_sparsity_never_builds_the_oracle(
        capsys, monkeypatch, ghz6_above_oracle_limit):
    def refuse(circuit):
        raise AssertionError("exact_distribution called")
    for module in (oracle, cli, polybox):
        monkeypatch.setattr(module, "exact_distribution", refuse)
    code = run_command(["sample", "--circuit", ghz6_above_oracle_limit,
                        "--sparsity", "2"] + SAMPLING)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    outcomes = [json.loads(ln)["outcome"] for ln in captured.out.splitlines()[1:]]
    assert len(outcomes) == 2 and set(outcomes) <= {"000000", "111111"}


def test_oracle_sparse_sample_builds_the_distribution_once(
        capsys, monkeypatch, ghz_file):
    calls = []

    def counting(circuit):
        calls.append(circuit)
        return oracle.exact_distribution(circuit)
    for module in (cli, polybox):
        monkeypatch.setattr(module, "exact_distribution", counting)
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--estimator", "oracle", "--count", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert len(calls) == 1


def test_encoded_sparse_search_builds_the_inner_oracle_once(
        capsys, monkeypatch, tmp_path):
    """The frozen encoded run: one inner build serves both the default
    sparsity's exact distribution and the search's whole full level of 8
    candidates."""
    calls = []
    build = oracle.exact_distribution

    def counting(circuit):
        calls.append(circuit)
        return build(circuit)
    monkeypatch.setattr(oracle, "exact_distribution", counting)
    (tmp_path / "enc.qc").write_text(ENCODED_INLINE)
    code = run_command(["sample", "--circuit", str(tmp_path / "enc.qc"),
                        "--count", "25", "--seed", "11", "--method", "sparse",
                        "--estimator", "sampling"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert len(calls) == 1
    assert all(c.family == "prod" for c in calls)


def test_all_exact_sampling_search_runs_once_per_command(
        capsys, monkeypatch, ghz_file):
    searches = []

    def counting(*args, **kwargs):
        searches.append(args)
        return heavy_prefixes(*args, **kwargs)
    monkeypatch.setattr(samplers, "heavy_prefixes", counting)
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--estimator", "sampling", "--eps-prime", "1",
                        "--count", "50", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    outcomes = [json.loads(ln)["outcome"]
                for ln in captured.out.splitlines()[1:]]
    assert len(outcomes) == 50 and set(outcomes) == {"000", "111"}
    assert len(searches) == 1


def test_all_exact_sampling_search_is_not_refused_at_the_draw_limit(
        capsys, ghz_file):
    """At eps' = 0.001 one sampled GHZ-3 query would need 5.24e11 draws,
    but its three levels enumerate 2, 4 and 4 selections, so nothing is
    sampled and nothing is refused."""
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--estimator", "sampling", "--eps-prime", "0.001",
                        "--count", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out.splitlines()[1])["outcome"] in ("000",
                                                                   "111")


def test_sampled_search_level_is_refused_at_the_draw_limit(capsys, tmp_path):
    """GHZ-27 at eps' = 0.001: level 27 would enumerate 2^27 > 10^8
    selections, so it is sampled, and its Hoeffding count is refused
    before the first level."""
    path = tmp_path / "ghz27.qc"
    path.write_text("family prod\nqubits 27\ngate H 0\n"
                    + "".join(f"gate CNOT {q - 1} {q}\n" for q in range(1, 27)))
    code = run_command(["sample", "--circuit", str(path), "--method",
                        "sparse", "--estimator", "sampling", "--sparsity", "2",
                        "--eps-prime", "0.001", "--count", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert ("needs 5.71e+11 draws per query, above the limit of 1e+08"
            in captured.err)


# sha256 of the stdout, recorded before the selftest took its GHZ, pattern
# and X-program builders from the ones the test suite shares
SELFTEST_GOLDEN = [
    pytest.param([],
                 "07ea82310b36313e89f4dd20c21e3019078f98188f831599352356dea746d796",
                 id="honest"),
    pytest.param(["--inject-corrupted-bob"],
                 "32450acf0ab33e652185c03013f533e71f8e74b7cf89925af017c59e5751c38c",
                 id="inject"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("flags, digest", SELFTEST_GOLDEN)
def test_selftest_stdout_is_frozen(capsys, flags, digest, threads):
    code = run_command(["selftest", "--seed", "3", "--threads", threads]
                       + flags)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# sha256 of the stdout, recorded before the Clifford decode moved to packed
# ints and the oracle to one array for all branches
ANTICONCENTRATION_GOLDEN = [
    pytest.param(
        ["--n", "3", "--trials", "300", "--seed", "17"],
        "43ec81274d6a57c48d28c4e5b1ec4d7a65a8dab57ac00854fe262c342d513d09",
        id="n3-pure"),
    pytest.param(
        ["--n", "4", "--trials", "200", "--seed", "5", "--bloch", "0.3,0.2,0.5"],
        "e869a22b63d3bad9c41d7c31cabfb1dd83397dfb8f645dbdb2f23d61b4d4b9a9",
        id="n4-mixed"),
    # recorded before the chunk was drawn, swept and evolved as arrays:
    # 64 branches, so 16-list sub-batches
    pytest.param(
        ["--n", "6", "--trials", "100", "--seed", "3", "--bloch", "0.3,0.2,0.5"],
        "48d2baeffd4186c77401887c00e33e3f5e1d101dda0f9daa6b601122ed083d24",
        id="n6-mixed-sub-batched"),
    pytest.param(
        ["--n", "1", "--trials", "300", "--seed", "9"],
        "9127ee0471010fa12e5c32c28ae464b62b8db663360bb5aa31765f0f5827e627",
        id="n1-pure"),
    # the last chunk holds one trial
    pytest.param(
        ["--n", "8", "--trials", "257", "--seed", "4"],
        "16303f5bb24862147aac1dc581163b1d54a9b52bd14e6285a029376ca504c92d",
        id="n8-one-trial-chunk"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, digest", ANTICONCENTRATION_GOLDEN)
def test_anticoncentration_stdout_is_frozen(capsys, argv, digest, threads):
    code = run_command(["experiment", "anticoncentration"] + argv
                       + ["--threads", threads])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


MIXED_PROD = ("family prod\nqubits 4\nmeasure 3\n"
              "prep 0 bloch 0.6 0.0 0.0\nprep 2 bloch 0.0 0.3 -0.4\n"
              "gate H 0\ngate CNOT 0 1\ngate S 1\ngate H 2\ngate CZ 2 3\n"
              "gate CNOT 3 1\n")
IQP3 = "family iqp\nqubits 3\nmeasure 3\nxrow 1 1 0\nxrow 0 1 1\nxrow 1 0 1\n"
ENCODED_INLINE = ("family encoded\ninner\n  family prod\n  qubits 3\n"
                  "  measure 2\n  prep 1 bloch 0.0 0.6 0.0\n  gate H 0\n"
                  "  gate CNOT 0 1\n  gate S 1\n  gate CNOT 1 2\n")
GHZ16 = ("family prod\nqubits 16\ngate H 0\n"
         + "".join(f"gate CNOT {q - 1} {q}\n" for q in range(1, 16)))
IQP16 = "family iqp\nqubits 16\nxrow" + " 1" * 16 + "\n"
H8 = "family prod\nqubits 8\n" + "".join(f"gate H {q}\n" for q in range(8))
IQP6 = ("family iqp\nqubits 6\nxrow 1 0 0 0 1 1\nxrow 0 0 0 1 0 1\n"
        "xrow 1 1 0 0 1 0\n")

# sha256 of the stdout, recorded before the samplers took the exact
# distribution itself as their prefix-marginal handle
SAMPLER_GOLDEN = [
    pytest.param("mixed.qc", ["cdf"],
                 "5c2d22c4047eb9e7c715565ed22b473cb162ce1cc743645a6550692cc3c769da",
                 id="mixed-cdf"),
    pytest.param("mixed.qc", ["chain"],
                 "5083039243d38797d5accfb9817a1aafee8113b5f09d7d487a77dd5d26e4172b",
                 id="mixed-chain"),
    pytest.param("mixed.qc", ["sparse", "--estimator", "oracle"],
                 "09090d2d9b61a74555ca071fff9d21df4853d08821a0262f537179ec59b1e677",
                 id="mixed-sparse"),
    pytest.param("iqp.qc", ["cdf"],
                 "62c7f414f85b28a809941380eedaa076bc38893b0be637c4707fe21364e743b6",
                 id="iqp-cdf"),
    pytest.param("iqp.qc", ["chain"],
                 "8bbf7a6f89ababce006aef9985b21be7a61b3464aa8126fe84c07bcd94ec8b44",
                 id="iqp-chain"),
    pytest.param("iqp.qc", ["sparse", "--estimator", "oracle"],
                 "32e20c2ff1f4841298b0c43978957abd4d69d556565e5efea9a62bbcdfff5cd4",
                 id="iqp-sparse"),
    # recorded before the sparse converter drew both regimes in one loop:
    # every level of mixed.qc and iqp.qc is enumerated, so one table serves
    # all draws, and the encoded handle is deterministic
    pytest.param("mixed.qc", ["sparse", "--estimator", "sampling"],
                 "37d8de2ca325832db7dc63cc5b6ad3709e9b57a2bb078850efbc63ed7bd35c82",
                 id="mixed-sparse-sampling"),
    pytest.param("iqp.qc", ["sparse", "--estimator", "sampling"],
                 "4e2a51011e2bcf9ac3d70d55f1e2c7c57273912ee5be490acca606f58ed4f2b2",
                 id="iqp-sparse-sampling"),
    pytest.param("enc.qc", ["sparse", "--estimator", "sampling"],
                 "7c12a27448cdd192064feb915b1f4041f01e4c739de6ab6f789e9a36bba4ecd6",
                 id="encoded-sparse-sampling"),
    # GHZ-16 at eps' = 2 enumerates levels 1-15 and samples level 16, so
    # each draw runs its own search
    pytest.param("ghz16.qc", ["sparse", "--estimator", "sampling",
                              "--eps-prime", "2", "--sparsity", "2",
                              "--count", "3"],
                 "b529bc0faf9a8b722569c89db54e3070377d4f4caebdb19dff36073d0587e496",
                 id="ghz16-sparse-sampled-level"),
    # recorded before the heavy-prefix search kept its levels as bit
    # matrices: the 16-qubit X-program samples its last level like GHZ-16,
    # and all 256 outcomes of H on 8 qubits tie at 1/256, so the top-t cut
    # keeps the first 100 in lexicographic order
    pytest.param("iqp16.qc", ["sparse", "--estimator", "sampling",
                              "--eps-prime", "2", "--sparsity", "2",
                              "--count", "3"],
                 "c177b93b74c6ae20a89ab66d6513702328aab616da6a58291fa6793789f64b8d",
                 id="iqp16-sparse-sampled-level"),
    pytest.param("h8.qc", ["sparse", "--estimator", "oracle",
                           "--sparsity", "100"],
                 "1095c1804de7cfd3473392e28c340604dccfcb417f2f694afcd53139928814b8",
                 id="h8-sparse-lexicographic-ties"),
    # recorded before the cdf and chain samplers drew level by level: 20000
    # draws span three chunks of 8192; summing each prefix's cells instead
    # of reading the cumulative table changes the 6-qubit X-program's digest
    pytest.param("iqp6.qc", ["cdf", "--m", "7", "--count", "20000"],
                 "f2266ed2ee88dec7b99de829e625d594827ee512305c07f1a8a5d31f0c2a1c5e",
                 id="iqp6-cdf-m7-three-chunks"),
    pytest.param("mixed.qc", ["chain", "--count", "20000"],
                 "8c9ff0cbfd7854ad25e556db1da7f915b116d45da2cefd7ef661ba09eb5b8aee",
                 id="mixed-chain-three-chunks"),
    pytest.param("mixed.qc", ["cdf", "--count", "20000"],
                 "18f55b7d56e2d882c7f6fabf28a9eb081f7da7f7f1baa94b3445b661660b2ce0",
                 id="mixed-cdf-three-chunks"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("circuit, method, digest", SAMPLER_GOLDEN)
def test_sampler_stdout_is_frozen(capsys, monkeypatch, tmp_path, circuit,
                                  method, digest, threads):
    # a relative path, since the circuit path is part of the header line
    (tmp_path / "mixed.qc").write_text(MIXED_PROD)
    (tmp_path / "iqp.qc").write_text(IQP3)
    (tmp_path / "enc.qc").write_text(ENCODED_INLINE)
    (tmp_path / "ghz16.qc").write_text(GHZ16)
    (tmp_path / "iqp16.qc").write_text(IQP16)
    (tmp_path / "h8.qc").write_text(H8)
    (tmp_path / "iqp6.qc").write_text(IQP6)
    monkeypatch.chdir(tmp_path)
    # flags given with the method override the ones before it
    code = run_command(["sample", "--circuit", circuit, "--count", "25",
                        "--seed", "11", "--threads", threads, "--method"]
                       + method)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# sha256 of the stdout, recorded before the distinguish and anticoncentration
# harnesses returned their payload dicts in place of report objects
DISTINGUISH_GOLDEN = [
    pytest.param("exact", "1",
                 "732e639e93834a4acec6cc8b70a9e942b780a42af83451669f7c58c3c43eeb7a",
                 id="exact-1"),
    pytest.param("exact", "3",
                 "3b72d5ac60eab3c9764be5dbca6e3188c08f4919ff2a4f7d6b2bd94b31c53882",
                 id="exact-3"),
    pytest.param("corrupted", "1",
                 "6933ffc089bb75520f6bf7a50b206b8b2444199c68e26fc47b7739d316c7ce16",
                 id="corrupted-1"),
    pytest.param("corrupted", "3",
                 "3e094a9e4d3566a60748ce2bfc12d583b29f70b414d94ca9fa7c337e083b43d5",
                 id="corrupted-3"),
    pytest.param("scheduled", "1",
                 "6b35afce494d3ada21926827e151ea920f63efb38dd8b82292b4bee80621a1cc",
                 id="scheduled-1"),
    pytest.param("scheduled", "3",
                 "af9554be99a697ccd59003ade3b7b0199a446e79165762fc3000624d6d375f48",
                 id="scheduled-3"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("bob, rounds, digest", DISTINGUISH_GOLDEN)
def test_distinguish_stdout_is_frozen(capsys, monkeypatch, tmp_path, bob,
                                      rounds, digest, threads):
    (tmp_path / "mixed.qc").write_text(MIXED_PROD)
    monkeypatch.chdir(tmp_path)
    code = run_command(["experiment", "distinguish", "--circuit", "mixed.qc",
                        "--bob", bob, "--rounds", rounds, "--trials", "2000",
                        "--seed", "13", "--threads", threads])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# sha256 of the stdout at the default --eps-grid, recorded at the same point
# as DISTINGUISH_GOLDEN
SPARSITY_GOLDEN = [
    pytest.param("mixed.qc",
                 "735ed46eb20d384a9a7c2c1aebfed3da06c254f095d71d6a913581b5cd95ba7f",
                 id="prod"),
    pytest.param("iqp.qc",
                 "3c7a05ca67cad8e184e02a7c7d8b98ae38f1115333911dddfae90a8a7b8626e3",
                 id="iqp"),
    pytest.param("enc.qc",
                 "a22ac306bcaa350affed62f2f5c3b7def6bb9141a95f02f3a5db3f8c89cce7fd",
                 id="encoded"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("circuit, digest", SPARSITY_GOLDEN)
def test_sparsity_stdout_is_frozen(capsys, monkeypatch, tmp_path, circuit,
                                   digest, threads):
    (tmp_path / "mixed.qc").write_text(MIXED_PROD)
    (tmp_path / "iqp.qc").write_text(IQP3)
    (tmp_path / "enc.qc").write_text(ENCODED_INLINE)
    monkeypatch.chdir(tmp_path)
    code = run_command(["experiment", "sparsity", "--circuit", circuit,
                        "--threads", threads])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# a deep product-input circuit: 30 qubits, all mixed inputs, 300 gates
DEEP_PROD = serialize_circuit(
    random_prod_circuit(np.random.default_rng(30), 30, 300))
DEEP_PATTERN = "".join({3: "0", 8: "1", 12: "1", 19: "0", 24: "1",
                        28: "0"}.get(i, "*") for i in range(30))
# sha256 of the stdout, recorded before the measured Z's were pulled back
# through the gate list in one pass
ESTIMATE_GOLDEN = (
    "5a63846077219d36eef7d8a22916789b3b34e0891b2b435b025bec790db7a1e4")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_estimate_stdout_is_frozen(capsys, monkeypatch, tmp_path, threads):
    """At eps = 0.01 the 105967 draws span 13 chunks."""
    (tmp_path / "deep.qc").write_text(DEEP_PROD)
    monkeypatch.chdir(tmp_path)
    code = run_command(["estimate", "--circuit", "deep.qc", "--pattern",
                        DEEP_PATTERN, "--eps", "0.01", "--seed", "5",
                        "--threads", threads])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out)["payload"]["samples_used"] == 105967
    assert hashlib.sha256(captured.out.encode()).hexdigest() == ESTIMATE_GOLDEN


# a 12-qubit X-program with 16 rows
IQP12 = serialize_circuit(random_iqp_circuit(np.random.default_rng(11), 12, 16))
# sha256 of the stdout, recorded before each draw was read from a table of
# the kernel's 2^f distinct draws: an X-program estimate whose 26492 draws
# span 4 chunks and read the 2^9-row table, and a product-input one whose
# 12 fixed bits (2^12 > 1060 draws) run the kernel on every draw
TABLE_ESTIMATE_GOLDEN = [
    ("iqp.qc", IQP12, "10*1101*10*0", "0.02",
     "f17e46490d4f644b4e029e49be6f18fb3f56e90327bb5c6ae9284e12df4de898"),
    ("deep.qc", DEEP_PROD, "0101*1010*0101" + "*" * 16, "0.1",
     "f888ee885a8d3b0961c3810a607d2dc7c44e1a32db961b2c35b215c6efb9a797"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name, text, pattern, eps, digest",
                         TABLE_ESTIMATE_GOLDEN, ids=["iqp-table", "prod-per-draw"])
def test_estimate_stdout_is_frozen_on_both_kernel_paths(
        capsys, monkeypatch, tmp_path, name, text, pattern, eps, digest,
        threads):
    (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = run_command(["estimate", "--circuit", name, "--pattern", pattern,
                        "--eps", eps, "--seed", "7", "--threads", threads])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_out_flag(capsys, ghz_file, tmp_path):
    target = tmp_path / "result.json"
    code = run_command(["oracle", "--circuit", ghz_file, "--pattern", "000",
                        "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text().splitlines()[0])
    assert doc["payload"]["probability"] == 0.5


@pytest.mark.parametrize("target", [".", "missing/result.json"],
                         ids=["directory", "missing-directory"])
def test_unwritable_out_exits_2(capsys, ghz_file, tmp_path, target):
    code = run_command(["oracle", "--circuit", ghz_file,
                        "--out", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(tmp_path) in line


def test_byte_identical_across_threads(ghz_file):
    cases = [
        ["oracle", "--circuit", ghz_file],
        ["estimate", "--circuit", ghz_file, "--pattern", "11*",
         "--eps", "0.2", "--delta", "0.1", "--seed", "9"],
        ["sample", "--circuit", ghz_file, "--method", "cdf", "--count", "4",
         "--seed", "9"],
        ["experiment", "distinguish", "--circuit", ghz_file, "--bob", "exact",
         "--trials", "1000", "--seed", "9"],
        ["sample", "--circuit", ghz_file, "--method", "sparse", "--estimator",
         "sampling", "--eps-prime", "1.3", "--count", "2", "--seed", "9"],
    ]
    for argv in cases:
        outs = []
        for threads in ("1", "2", "8"):
            r = subprocess.run(
                [sys.executable, "-m", "bornbox.cli"] + argv
                + ["--threads", threads],
                capture_output=True, timeout=300)
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1] == outs[2], argv
