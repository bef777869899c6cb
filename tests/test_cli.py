"""Command-line interface: output format, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornbox import circuits, cli, experiments, oracle, polybox, samplers
from bornbox.cli import format_float, run_command, to_json

from conftest import DENSE, WorkStarted
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
    ["sample", *COMPLETE["sample"], "--", "--count", "3"],
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


# a fresh parser, the reference the direct path is compared with
FULL = cli.build_parser.__wrapped__()


def subparsers(parser) -> dict:
    [sub] = parser._subparsers._group_actions
    return sub.choices


def same_namespace(a, b) -> bool:
    """Equal namespaces, a nan equal to a nan."""
    a, b = vars(a), vars(b)
    return a.keys() == b.keys() and all(
        type(a[k]) is type(b[k])
        and (a[k] == b[k] or (a[k] != a[k] and b[k] != b[k])) for k in a)


def good_value(action):
    """Values the full parser accepts for action, none starting with -."""
    if action.choices:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(0, 10 ** 6).map(str)
    if action.type is float:
        return st.floats(0.0, 1e6).map(repr)
    return st.text("ab0.,*/_", min_size=1)


# values the full parser may refuse or read apart from a good one; it
# reads --out=-- as out=[], so -- is drawn most
ODD_VALUES = st.sampled_from(["--"] * 8 + [
    "-1", "-0.5", "-3,0,1", "--x", "-", "", "nan", "inf", "1e400", "x",
    "0x10", " 3", "1_0", "1 2", "a=b", "-h", "--seed"])


@pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_subcommand_parse_gives_the_full_parsers_namespace(subcommand, data):
    """Wherever the direct path reads an argv, its namespace is the one
    the full parser gives, over the leaf parsers' options in well-formed
    argvs and in perturbed ones: abbreviations, ``=`` forms, separate and
    ``=`` values starting with - or --, repeated options, flags, -h, a
    missing required option, bad types and choices and a ``--`` token.  A
    well-formed argv always takes the direct path."""
    names, leaf = [subcommand], subparsers(FULL)[subcommand]
    if leaf._subparsers is not None:
        names.append(data.draw(st.sampled_from(list(subparsers(leaf)))))
        leaf = subparsers(leaf)[names[-1]]
    actions = [a for a in leaf._actions if a.option_strings]
    required = [a for a in actions if a.required]
    chosen = data.draw(st.lists(st.sampled_from(actions), max_size=6))
    if data.draw(st.integers(0, 9)):
        chosen = required + chosen
    well_formed = (len(set(chosen)) == len(chosen)
                   and set(required) <= set(chosen))
    argv = list(names)
    for action in chosen:
        option = data.draw(st.sampled_from(action.option_strings))
        if not data.draw(st.integers(0, 9)):
            option = option[:data.draw(st.integers(2, len(option)))]
        well_formed &= option.startswith("--") and action.nargs is None
        well_formed &= leaf._option_string_actions.get(option) is action
        if action.nargs == 0:
            argv.append(option)
            continue
        odd = not data.draw(st.integers(0, 3))
        value = data.draw(ODD_VALUES if odd else good_value(action))
        well_formed &= not odd
        if data.draw(st.booleans()):
            argv.append(f"{option}={value}")
        else:
            argv += [option, value]
    if not data.draw(st.integers(0, 9)):
        argv.insert(data.draw(st.integers(0, len(argv))), "--")
        well_formed = False
    direct = cli._parse_direct(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            full = FULL.parse_args(argv)
    except SystemExit:
        full = None
    if direct is not None:
        assert full is not None and same_namespace(direct, full), argv
    assert direct is not None or not well_formed, argv


def test_no_string_default_has_a_type():
    """argparse passes a string default through its action's type at the
    end of a parse; the direct path keeps every default as it is, which
    is the same only while no store action has both."""
    parsers, typed = [FULL], []
    while parsers:
        parser = parsers.pop()
        parsers += subparsers(parser).values() if parser._subparsers else []
        typed += [action.dest for action in parser._actions
                  if type(action) is argparse._StoreAction
                  and isinstance(action.default, str)
                  and action.type is not None]
    assert typed == []


@pytest.mark.parametrize("argv, message", [
    ([], "error: the following arguments are required: subcommand"),
    (["bogus"], "error: argument subcommand: invalid choice: 'bogus'"),
], ids=["no-args", "bogus"])
def test_subcommand_errors_name_the_subcommand(capsys, argv, message):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()[-1]


# ---------------------------------------------------------------------------
# Refusals: exit 2, one error line, nothing on stdout, and no work first
# ---------------------------------------------------------------------------

GHZ5 = ("family prod\nqubits 5\nmeasure 5\ngate H 0\ngate CNOT 0 1\n"
        "gate CNOT 1 2\ngate CNOT 2 3\ngate CNOT 3 4\n")


def mixed_qubits(n: int) -> str:
    """n qubits, every one mixed: 2^n pure branches of 2^n amplitudes."""
    return (f"family prod\nqubits {n}\n"
            + "".join(f"prep {q} bloch 0.3 0.2 0.5\n" for q in range(n))
            + "gate H 0\ngate CNOT 0 1\n")


# a 3-qubit circuit with two mixed inputs, whose heaviest outcome holds less
# than the default corruption's 0.2
MIXED3 = ("family prod\nqubits 3\nmeasure 3\nprep 0 bloch 0.3 0.2 0.5\n"
          "prep 2 bloch 0 0.6 -0.6\ngate H 1\ngate CNOT 0 1\ngate S 1\n"
          "gate CZ 1 2\ngate H 2\n")


def gate_line(line: str) -> str:
    return f"family prod\nqubits 3\ngate H 0\ngate {line}\n"


# the circuit files of the table, named relative to the directory it runs in
REFUSAL_FILES = {
    "ghz3.qc": GHZ3,
    "circuits/ghz3.qc": GHZ3,
    "circuits/enc.qc": "family encoded\ninner ghz3.qc\n",
    "nan.qc": "family prod\nqubits 1\nmeasure 1\nprep 0 bloch nan 0 0\n",
    "ghz27.qc": ("family prod\nqubits 27\ngate H 0\n"
                 + "".join(f"gate CNOT {q - 1} {q}\n" for q in range(1, 27))),
    # the files of the second block of rows
    "ghz5.qc": GHZ5,
    "iqp3.qc": "family iqp\nqubits 3\nxrow 1 0 1\nxrow 0 1 1\n",
    "inline.qc": ("family encoded\n# c\n\ninner\n  family prod\n  qubits 1\n"
                  "  gate H 5\n"),
    "wide.qc": "family prod\nqubits 100000000\nmeasure 1\ngate H 0\n",
    "mixed11.qc": mixed_qubits(11),
    "mixed3.qc": MIXED3,
    "gate-h3.qc": gate_line("H 3"),
    "gate-neg.qc": gate_line("H -1"),
    "gate-cnot11.qc": gate_line("CNOT 1 1"),
    "gate-q0.qc": gate_line("Q 0"),
    # a circuit file is read as UTF-8 bytes; 0xff starts no UTF-8 sequence
    "not-utf8.qc": b"family prod\nqubits 1\n\xff\n",
    "enc-not-utf8.qc": "family encoded\ninner not-utf8.qc\n",
}


@pytest.fixture
def refusal_files(tmp_path, monkeypatch):
    (tmp_path / "circuits").mkdir()
    for name, text in REFUSAL_FILES.items():
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
    monkeypatch.chdir(tmp_path)


def refused(row_id: str, argv: str, message: str, builds=0):
    """A row of the table: argv, split at spaces, exits 2 with the one
    stderr line "error: " + message (a message ending in "..." is a prefix,
    the OS supplying the rest) after at most `builds` dense builds and no
    other work; builds=None allows any work."""
    return pytest.param(argv.split(), message, builds, id=row_id)


GHZ = "--circuit ghz3.qc"
ENC = "--circuit circuits/enc.qc --pattern 0000"
SPARSE = f"sample {GHZ} --method sparse"
DIST = f"experiment distinguish {GHZ}"
ANTI = "experiment anticoncentration --n 2 --trials 100"
DRAWS = "draws per query, above the limit of 1e+08"
CAP = "is too small for a finite survivor cap"
UNION = "3.84615e-308 is too small for a finite union bound over"
UNBOUNDED = "gives a non-finite sparsity bound sp(k/eps) = nan"
SCHEDULED = "gives the scheduled imposter no sparse budget in round 1:"
LIMIT = ("exceeds the exact-simulation limit of 20; set "
         "BORNBOX_ORACLE_LIMIT to override")
ZERO_T = "eps_prime=0.1 gives t = ceil(sp(k/eps)) = 0; t must be >= 1"

REFUSALS = [
    refused("missing-file", "estimate --circuit nope.qc --pattern 000",
            "[Errno 2] ..."),
    refused("circuit-not-utf8", "estimate --circuit not-utf8.qc --pattern 0",
            "'utf-8' codec can't decode byte 0xff in position 21: invalid "
            "start byte"),
    # the message goes on with the inner file's absolute path and the
    # decode error, which test_circuits.py checks whole
    refused("inner-circuit-not-utf8",
            "estimate --circuit enc-not-utf8.qc --pattern 00",
            "line 2: cannot read inner circuit ..."),
    refused("circuit-is-a-directory", "estimate --circuit . --pattern 000",
            "[Errno 21] ..."),
    refused("malformed-pattern", f"estimate {GHZ} --pattern 0x1",
            "pattern '0x1' must be over 0, 1, *"),
    refused("pattern-length", f"estimate {GHZ} --pattern 00",
            "pattern length 2 != measured count 3"),
    refused("oracle-pattern-length", f"oracle {GHZ} --pattern 00",
            "pattern length 2 != measured count 3"),
    refused("eps-zero", f"estimate {GHZ} --pattern 000 --eps 0",
            "eps must be positive"),
    refused("eps-negative", f"estimate {GHZ} --pattern 000 --eps -0.1",
            "eps must be positive"),
    refused("eps-nan", f"estimate {GHZ} --pattern 000 --eps nan",
            "eps must be finite, got nan"),
    refused("eps-inf", f"estimate {GHZ} --pattern 000 --eps inf",
            "eps must be finite, got inf"),
    refused("delta-nan", f"estimate {GHZ} --pattern 000 --delta nan",
            "delta must be finite, got nan"),
    refused("delta-inf", f"estimate {GHZ} --pattern 000 --delta inf",
            "delta must be finite, got inf"),
    refused("over-draw-budget", f"estimate {GHZ} --pattern 000 --eps 1e-6",
            f"eps=1e-06, delta=0.01 needs 1.06e+13 {DRAWS}"),
    refused("eps-square-underflows",
            f"estimate {GHZ} --pattern 000 --eps 1e-200",
            f"eps=1e-200, delta=0.01 needs inf {DRAWS}"),
    refused("delta-above-1-draws-nothing",
            f"estimate {GHZ} --pattern 0** --eps 0.0002 --delta 1.5",
            "delta must lie in [0, 1); 0 only for deterministic estimators"),
    refused("encoded-delta-negative", f"estimate {ENC} --delta=-0.5",
            "delta must lie in [0, 1), got -0.5"),
    refused("encoded-delta-above-1", f"estimate {ENC} --delta 7",
            "delta must lie in [0, 1), got 7.0"),
    refused("encoded-delta-nan", f"estimate {ENC} --delta nan",
            "delta must be finite, got nan"),
    refused("encoded-eps-nan", f"estimate {ENC} --eps nan",
            "eps must be finite, got nan"),
    refused("prep-bloch-nan", "oracle --circuit nan.qc",
            "line 4: bad bloch component 'nan'"),
    *(refused(f"threads-{threads}-{command}", f"{argv} --threads {threads}",
              f"--threads must lie in [1, 64], got {threads}")
      for threads in ("0", "-3", "65")
      for command, argv in (
          ("estimate", f"estimate {GHZ} --pattern 000"),
          ("anticoncentration",
           "experiment anticoncentration --n 3 --trials 100"))),
    # an --out path only shows up as bad when it is opened, after the work
    refused("out-directory", f"oracle {GHZ} --out .", "[Errno 21] ...",
            builds=None),
    refused("out-missing-directory",
            f"oracle {GHZ} --out missing/result.json", "[Errno 2] ...",
            builds=None),
    # sample
    refused("negative-count", f"sample {GHZ} --method chain --count -1",
            "--count must be nonnegative"),
    *(refused(f"count-above-the-draw-limit-{method}",
              f"sample {GHZ} --method {method} --count 100000001",
              "--count must be at most 1e+08, got 100000001")
      for method in ("sparse", "cdf", "chain")),
    refused("cdf-m-too-large", f"sample {GHZ} --method cdf --m 1100",
            "m must lie in [1, 53], got 1100"),
    refused("cdf-m-zero-count-0", f"sample {GHZ} --method cdf --m 0 --count 0",
            "m must lie in [1, 53], got 0"),
    refused("sparse-eps-prime-oracle",
            f"{SPARSE} --estimator oracle --eps-prime 3",
            "eps_prime must lie in (0, 13/6], got 3"),
    refused("sparse-eps-prime-count-0",
            f"{SPARSE} --estimator sampling --eps-prime 3 --count 0",
            "eps_prime must lie in (0, 13/6], got 3"),
    refused("sparse-zero-sparsity", f"{SPARSE} --sparsity 0", ZERO_T),
    refused("sparse-zero-sparsity-count-0",
            f"{SPARSE} --sparsity 0 --count 0", ZERO_T),
    refused("sparse-zero-sparsity-sampling",
            f"{SPARSE} --estimator sampling --sparsity 0", ZERO_T),
    refused("sparse-zero-sparsity-sampling-count-0",
            f"{SPARSE} --estimator sampling --sparsity 0 --count 0", ZERO_T),
    *(row for est in ("oracle", "sampling") for row in (
        refused(f"sparsity-inf-{est}",
                f"{SPARSE} --estimator {est} --sparsity inf",
                "coefficients must be finite, got (inf,)"),
        refused(f"sparsity-1e400-{est}",
                f"{SPARSE} --estimator {est} --sparsity 1e400",
                "coefficients must be finite, got (inf,)"),
        refused(f"sparsity-nan-{est}",
                f"{SPARSE} --estimator {est} --sparsity nan",
                "coefficients must be finite, got (nan,)"),
        # the error reports sp(k/eps) of the default sparsity, the support
        # size
        refused(f"eps-prime-1e-320-{est}",
                f"{SPARSE} --estimator {est} --eps-prime 1e-320",
                f"eps_prime=9.99989e-321 {UNBOUNDED}", builds=1),
        # a finite bound sp(k/eps) whose threshold eps/(2t) leaves
        # 2/threshold above the largest double
        refused(f"sparsity-cap-overflow-{est}",
                f"{SPARSE} --estimator {est} --sparsity 1e300,1e300,1e300 "
                "--eps-prime 0.05",
                f"heavy-prefix threshold 3.15682e-309 {CAP}"),
        # 2/threshold is finite, but the survivor cap, about twice it, is not
        refused(f"survivor-cap-overflow-{est}",
                f"{SPARSE} --estimator {est} --sparsity 2.5e305",
                f"heavy-prefix threshold 1.53846e-308 {CAP}"),
        # the survivor cap is finite, but the union bound's 2*k*cap is not
        refused(f"union-bound-overflow-{est}",
                f"{SPARSE} --estimator {est} --sparsity 1e305",
                f"heavy-prefix threshold {UNION} 3 levels"),
        # the plan is built before anything is drawn, at every count
        refused(f"union-bound-overflow-{est}-count-0",
                f"{SPARSE} --estimator {est} --sparsity 1e305 --count 0",
                f"heavy-prefix threshold {UNION} 3 levels"),
        # the threshold eps/(2t) is 0, refused by the cap before its range
        refused(f"sparsity-threshold-zero-{est}",
                f"{SPARSE} --estimator {est} --sparsity 1e308",
                f"heavy-prefix threshold 0 {CAP}"))),
    # GHZ-27 at eps' = 0.001: level 27 would enumerate 2^27 > 10^8
    # selections, so it is sampled, and its Hoeffding count is refused
    # before the first level
    refused("sampled-level-above-the-draw-limit",
            "sample --circuit ghz27.qc --method sparse --estimator sampling "
            "--sparsity 2 --eps-prime 0.001 --count 1",
            f"eps=9.61538e-06, delta=6.8485e-12 needs 5.71e+11 {DRAWS}"),
    # at eps' = 1e-200 the per-query confidence underflows to 0, which needs
    # unbounded draws, so the sampled level 27 is refused in the same way
    refused("sampled-level-at-an-underflowed-confidence",
            "sample --circuit ghz27.qc --method sparse --estimator sampling "
            "--sparsity 2 --eps-prime 1e-200 --count 1",
            f"eps=9.61538e-203, delta=0 needs inf {DRAWS}"),
    # experiment anticoncentration
    refused("anticoncentration-alpha-above-1", f"{ANTI} --alphas 0.5,2",
            "alpha must lie in [0, 1], got 2"),
    refused("anticoncentration-alpha-negative", f"{ANTI} --alphas=-0.1",
            "alpha must lie in [0, 1], got -0.1"),
    refused("anticoncentration-alpha-nan", f"{ANTI} --alphas nan",
            "alpha must lie in [0, 1], got nan"),
    refused("alphas-not-a-float", f"{ANTI} --alphas x",
            "bad float list 'x'"),
    refused("alphas-empty", f"{ANTI} --alphas ,", "empty float list ','"),
    refused("bloch-two-components", f"{ANTI} --bloch 1,0",
            "--bloch needs exactly rx,ry,rz"),
    refused("anticoncentration-bloch-nan", f"{ANTI} --bloch nan,0,0",
            "Bloch components must be finite"),
    refused("trials-above-the-draw-limit-anticoncentration",
            "experiment anticoncentration --n 3 --trials 100000000000",
            "trials must be at most 1e+08, got 100000000000"),
    refused("anticoncentration-above-the-oracle-limit",
            "experiment anticoncentration --n 21 --trials 100",
            f"21 qubits {LIMIT}"),
    refused("anticoncentration-n-zero", "experiment anticoncentration --n 0",
            "n must be positive"),
    refused("anticoncentration-n-negative-threads-4",
            "experiment anticoncentration --n -2 --trials 1000 --threads 4",
            "n must be positive"),
    # experiment sparsity: the whole grid before the oracle build
    *(refused(f"eps-grid-{eps}",
              f"experiment sparsity {GHZ} --eps-grid=0.1,{eps}",
              "eps must lie in [0, 2]")
      for eps in ("3", "-0.1", "nan")),
    # experiment distinguish
    refused("distinguish-trials", f"{DIST} --trials 200",
            "trials must be >= 1000"),
    refused("trials-above-the-draw-limit-distinguish",
            f"{DIST} --trials 100000000000",
            "trials must be at most 1e+08, got 100000000000"),
    refused("rounds-times-trials-above-the-draw-limit",
            f"{DIST} --bob scheduled --trials 1000 --rounds 100001",
            "rounds * trials must be at most 1e+08, got 100001000"),
    refused("distinguish-scheduled-delta",
            f"{DIST} --bob scheduled --delta 0.9",
            "delta must be at most 13*pi^2/144 = 0.891006 for the scheduled "
            "imposter, got 0.9"),
    refused("distinguish-scheduled-delta-nan",
            f"{DIST} --bob scheduled --delta nan",
            "delta must be finite, got nan"),
    refused("distinguish-exact-delta-nan", f"{DIST} --bob exact --delta nan",
            "delta must be finite, got nan"),
    refused("distinguish-exact-delta-inf", f"{DIST} --bob exact --delta inf",
            "delta must be finite, got inf"),
    refused("distinguish-exact-delta-negative",
            f"{DIST} --bob exact --delta=-1",
            "delta must be positive, got -1"),
    refused("distinguish-corrupted-delta-negative",
            f"{DIST} --bob corrupted --delta=-1",
            "delta must be positive, got -1"),
    refused("distinguish-corrupted-delta-zero",
            f"{DIST} --bob corrupted --delta 0",
            "delta must be positive, got 0"),
    # the scheduled imposter's budget depends on the support size
    refused("scheduled-delta-underflows",
            f"{DIST} --bob scheduled --delta 1e-320 --rounds 2",
            f"delta=1e-320 {SCHEDULED} eps_prime=2.43179e-320 {UNBOUNDED}",
            builds=1),
    refused("scheduled-delta-cap-overflows",
            f"{DIST} --bob scheduled --delta 3e-307",
            f"delta=3e-307 {SCHEDULED} heavy-prefix threshold 1.40291e-308 "
            f"{CAP}", builds=1),
    # moving l1/2 of mass off the heaviest outcome needs its probability
    refused("corruption-above-the-heaviest-outcome",
            f"{DIST} --bob corrupted --corruption-l1 1.5",
            "corruption_l1 must be at most 1.0, twice the mass 0.5 of the "
            "heaviest outcome, got 1.5", builds=1),
    refused("corruption-default-above-the-heaviest-outcome",
            "experiment distinguish --circuit mixed3.qc --bob corrupted "
            "--trials 2000",
            "corruption_l1 must be at most 0.37499999999999994, twice the "
            "mass 0.18749999999999997 of the heaviest outcome, got 0.4",
            builds=1),
    *(refused(f"corruption-{l1}-{bob}",
              f"{DIST} --bob {bob} --corruption-l1={l1}",
              f"corruption_l1 must be finite, got {l1}" if l1 in ("nan", "inf")
              else f"corruption_l1 must lie in [0, 2], got {l1}")
      for l1 in ("nan", "inf", "3.0", "-1.0", "2.0000001")
      for bob in ("exact", "corrupted", "scheduled")),
]

# refusals on more circuit files: a 5-qubit GHZ, whose union bound runs
# over 5 levels, an X-program, an inline block, a register above the cap,
# gate lines the canonical pass does not take and eleven mixed qubits.
# Most rows began as a copy of a CI shell step, and keep its ci- ids; the
# sparse rows are the only cap and union-bound rows over 5 levels.
FIVE = "--circuit ghz5.qc"
FIVE_SPARSE = f"sample {FIVE} --method sparse"
FIVE_DIST = f"experiment distinguish {FIVE}"
REFUSALS += [
    *(row for est in ("oracle", "sampling") for row in (
        refused(f"{est}-sparsity-1e300,1e300,1e300",
                f"{FIVE_SPARSE} --estimator {est} --sparsity 1e300,1e300,1e300",
                f"heavy-prefix threshold 9.08932e-309 {CAP}"),
        refused(f"{est}-sparsity-1e305",
                f"{FIVE_SPARSE} --estimator {est} --sparsity 1e305",
                f"heavy-prefix threshold {UNION} 5 levels"))),
    refused("ci-estimate-eps-1e-200",
            f"estimate {FIVE} --pattern 00000 --eps 1e-200",
            f"eps=1e-200, delta=0.01 needs inf {DRAWS}"),
    refused("ci-iqp-eps-1e-200",
            "estimate --circuit iqp3.qc --pattern 000 --eps 1e-200",
            f"eps=1e-200, delta=0.01 needs inf {DRAWS}"),
    refused("ci-exact-delta-nan", f"{FIVE_DIST} --bob exact --delta nan",
            "delta must be finite, got nan"),
    refused("ci-exact-delta-inf", f"{FIVE_DIST} --bob exact --delta inf",
            "delta must be finite, got inf"),
    refused("ci-exact-delta--1", f"{FIVE_DIST} --bob exact --delta=-1",
            "delta must be positive, got -1"),
    refused("ci-corrupted-delta--1", f"{FIVE_DIST} --bob corrupted --delta=-1",
            "delta must be positive, got -1"),
    refused("ci-corrupted-delta-0", f"{FIVE_DIST} --bob corrupted --delta 0",
            "delta must be positive, got 0"),
    refused("ci-trials-1e11", f"{FIVE_DIST} --trials 100000000000",
            "trials must be at most 1e+08, got 100000000000"),
    refused("ci-rounds-times-trials",
            f"{FIVE_DIST} --trials 1000 --rounds 100001",
            "rounds * trials must be at most 1e+08, got 100001000"),
    refused("ci-threads-65", f"estimate {FIVE} --pattern 00000 --threads 65",
            "--threads must lie in [1, 64], got 65"),
    *(refused(f"ci-count-1e11-{method}",
              f"sample {FIVE} --method {method} --count 100000000000",
              "--count must be at most 1e+08, got 100000000000")
      for method in ("sparse", "cdf", "chain")),
    refused("ci-eps-grid-3", f"experiment sparsity {FIVE} --eps-grid 0.1,3",
            "eps must lie in [0, 2]"),
    refused("ci-eps-grid-nan", f"experiment sparsity {FIVE} --eps-grid nan",
            "eps must lie in [0, 2]"),
    refused("inline-gate-out-of-range", "oracle --circuit inline.qc",
            "line 7: gate qubit out of range"),
    refused("register-above-the-cap", "oracle --circuit wide.qc",
            "line 2: qubit count 100000000 exceeds the limit of 4194304"),
    refused("ci-out-directory", f"oracle {FIVE} --out .", "[Errno 21] ...",
            builds=None),
    refused("gate-h3", "oracle --circuit gate-h3.qc",
            "line 4: gate qubit out of range"),
    refused("gate-neg", "oracle --circuit gate-neg.qc",
            "line 4: negative qubit index"),
    refused("gate-cnot11", "oracle --circuit gate-cnot11.qc",
            "line 4: gate CNOT qubits must be distinct"),
    refused("gate-q0", "oracle --circuit gate-q0.qc",
            "line 4: unknown gate 'Q'"),
    # every qubit mixed counts twice against the oracle limit
    refused("oracle-11-mixed", "oracle --circuit mixed11.qc",
            f"11 qubits with 11 mixed, each counted twice, {LIMIT}"),
    refused("anticoncentration-11-mixed",
            "experiment anticoncentration --n 11 --trials 100 "
            "--bloch 0.3,0.2,0.5",
            f"11 qubits with 11 mixed, each counted twice, {LIMIT}"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message, builds", REFUSALS)
def test_error_paths_exit_2_with_empty_stdout(capsys, refusal_files, work,
                                              argv, message, builds):
    """The one refusal table: every refused command exits 2 with one
    ``error:`` line on stderr and nothing on stdout, before any costly
    entry ran beyond the row's allowance."""
    code = run_command(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    if message.endswith("..."):
        assert line.startswith("error: " + message[:-3])
    else:
        assert line == "error: " + message
    if builds is not None:
        assert len(work) <= builds and set(work) <= DENSE, work


def test_ten_mixed_qubits_are_within_the_oracle_limit(capsys, tmp_path):
    """Ten mixed qubits count 20 against the limit of 20: 2^10 pure
    branches of 2^10 amplitudes."""
    path = tmp_path / "mixed10.qc"
    path.write_text(mixed_qubits(10))
    doc, _ = run_json(capsys, ["oracle", "--circuit", str(path)])
    assert len(doc["payload"]["probs"]) == 1 << 10


def test_gate_indices_that_int_reads_are_accepted(capsys, tmp_path):
    """A qubit index spelled another way that int() reads: 007 is qubit 7."""
    path = tmp_path / "padded.qc"
    path.write_text("family prod\nqubits 8\ngate H 007\ngate CNOT 007 0\n")
    doc, _ = run_json(capsys, ["oracle", "--circuit", str(path)])
    probs = doc["payload"]["probs"]
    assert {i: p for i, p in enumerate(probs) if p} == {0: 0.5, 129: 0.5}


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


def test_anticoncentration_above_the_word_size_is_refused_before_any_draw(
        capsys, monkeypatch, work):
    """With the oracle limit raised to 40, n = 33 passes it and is refused
    at the 32 qubits that the Clifford draws hold in 64-bit words, before
    any draw or pool."""
    monkeypatch.setenv("BORNBOX_ORACLE_LIMIT", "40")
    code = run_command(["experiment", "anticoncentration", "--n", "33"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: 33 qubits exceeds the 32 that Clifford "
                            "draws and synthesis hold in 64-bit words\n")
    assert work == []


def test_trials_at_the_draw_limit_reach_the_work(work):
    work.stop = True
    with pytest.raises(WorkStarted):
        experiments.anticoncentration_report(3, 10 ** 8, (0.5,),
                                             cli.ProductState.zero(3), 0)
    with pytest.raises(WorkStarted):
        experiments.run_hypothesis_test(cli.ghz_circuit(3), "exact", 0.1,
                                        10 ** 8, 0)
    # rounds * trials at the limit
    with pytest.raises(WorkStarted):
        experiments.run_hypothesis_test(cli.ghz_circuit(3), "scheduled", 0.05,
                                        1000, 0, rounds=100000)


def test_count_at_the_draw_limit_is_accepted(capsys, monkeypatch, ghz_file):
    monkeypatch.setattr(cli, "epsilon_simulate",
                        lambda est, sp, circuit, eps_prime, count, rng: ["000"])
    doc, _ = run_json(capsys, ["sample", "--circuit", ghz_file, "--method",
                               "sparse", "--count", "100000000"])
    assert doc["parameters"]["count"] == 10 ** 8


@pytest.mark.parametrize("argv", [
    ["estimate", "--circuit", "{ghz}", "--pattern", "000"],
    ["experiment", "anticoncentration", "--n", "3", "--trials", "100"],
], ids=["estimate", "anticoncentration"])
def test_threads_at_the_cap_are_accepted(capsys, ghz_file, argv):
    """One chunk of work: the cap itself starts no pool."""
    argv = [a.format(ghz=ghz_file) for a in argv]
    assert run_command(argv + ["--threads", "64"]) == 0
    capsys.readouterr()


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


def test_missing_relative_inner_file_names_its_absolute_path(
        capsys, monkeypatch, tmp_path):
    """An ``inner`` path is taken relative to the circuit file's directory
    and, when it cannot be read, named as an absolute path, however the
    circuit file itself was named."""
    (tmp_path / "circuits").mkdir()
    (tmp_path / "circuits" / "enc.qc").write_text(
        "family encoded\ninner nope.qc\n")
    monkeypatch.chdir(tmp_path)
    code = run_command(["oracle", "--circuit", "circuits/enc.qc"])
    captured = capsys.readouterr()
    missing = tmp_path / "circuits" / "nope.qc"
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: line 2: cannot read inner circuit {missing}: [Errno 2] No "
        f"such file or directory: '{missing}'"]


# the commented GHZ-3 of the line-ending tests, with LF endings
COMMENTED_GHZ3 = ("# a GHZ state on three qubits\nfamily prod\nqubits 3\n"
                  "measure 3\n\ngate H 0  # the one superposition\n"
                  "gate CNOT 0 1\ngate CNOT 1 2\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_circuit_line_endings_sample_alike(capsys, tmp_path, newline):
    """A circuit file with CRLF or CR line endings samples the outcomes of
    its LF copy, and a bad line in it is refused under the same line
    number."""
    outcomes, errors = [], []
    for name, end in (("lf", "\n"), ("other", newline)):
        good, bad = tmp_path / f"{name}.qc", tmp_path / f"{name}-bad.qc"
        good.write_bytes(COMMENTED_GHZ3.replace("\n", end).encode())
        bad.write_bytes((COMMENTED_GHZ3 + "gate Q 0\n").replace(
            "\n", end).encode())
        _, captured = run_json(capsys, [
            "sample", "--circuit", str(good), "--method", "sparse",
            "--estimator", "sampling", "--count", "20", "--seed", "5"])
        outcomes.append(captured.out.splitlines()[1:])
        assert run_command(["oracle", "--circuit", str(bad)]) == 2
        errors.append(capsys.readouterr().err)
    assert len(outcomes[0]) == 20 and outcomes[0] == outcomes[1]
    assert errors[0] == errors[1] == "error: line 9: unknown gate 'Q'\n"


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


# an encoding of an encoding of GHZ-2: 2 qubits, 4 measured bits
NESTED_GHZ2 = ("family encoded\ninner\n  family encoded\n  inner\n"
               "    family prod\n    qubits 2\n    gate H 0\n"
               "    gate CNOT 0 1\n")
NESTED_LIMIT = ("an encoded circuit of 4 measured bits exceeds the "
                "exact-simulation limit of 2 + 1; set BORNBOX_ORACLE_LIMIT "
                "to override")


@pytest.mark.parametrize("argv, message", [
    (["oracle"], NESTED_LIMIT),
    (["sample", "--method", "cdf"], NESTED_LIMIT),
    (["sample", "--method", "chain"], NESTED_LIMIT),
    (["sample", "--method", "sparse", "--estimator", "oracle",
      "--sparsity", "2"], NESTED_LIMIT),
    *[(["sample", "--method", "sparse", "--estimator", est],
       "pass --sparsity: its default, the exact support size, needs the "
       "dense oracle, which is limited to 3 measured bits for an encoded "
       "circuit (this circuit has 4)") for est in ("oracle", "sampling")],
    (["experiment", "sparsity"], NESTED_LIMIT),
    (["experiment", "distinguish"], NESTED_LIMIT),
], ids=["oracle", "cdf", "chain", "sparse-oracle-sparsity", "sparse-oracle",
        "sparse-sampling", "experiment-sparsity", "experiment-distinguish"])
def test_nested_encoding_above_the_oracle_limit_is_refused_before_any_build(
        capsys, monkeypatch, tmp_path, argv, message):
    """An encoded circuit measuring more than limit + 1 bits, which only a
    nested encoding of a circuit within the limit does, is refused before
    its inner marginal or any of its 2^k outcomes is computed."""
    monkeypatch.setenv("BORNBOX_ORACLE_LIMIT", "2")

    def never(*args):
        raise AssertionError("dense encoded work ran")
    for module in (oracle, polybox):
        monkeypatch.setattr(module, "encoded_first_bit", never)
        monkeypatch.setattr(module, "encoded_probabilities", never)
    path = tmp_path / "nested.qc"
    path.write_text(NESTED_GHZ2)
    code = run_command(argv + ["--circuit", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


def test_single_encoding_at_the_oracle_limit_is_accepted(capsys, monkeypatch,
                                                         tmp_path):
    """An encoding of a circuit within the limit measures at most
    limit + 1 bits, so its dense build is accepted."""
    monkeypatch.setenv("BORNBOX_ORACLE_LIMIT", "2")
    path = tmp_path / "enc.qc"
    path.write_text("family encoded\ninner\n  family prod\n  qubits 2\n"
                    "  gate H 0\n  gate CNOT 0 1\n")
    doc, _ = run_json(capsys, ["oracle", "--circuit", str(path)])
    assert doc["payload"]["probs"] == [0.125] * 8


def test_sampling_estimator_with_sparsity_never_builds_the_oracle(
        capsys, work, ghz6_above_oracle_limit):
    code = run_command(["sample", "--circuit", ghz6_above_oracle_limit,
                        "--sparsity", "2"] + SAMPLING)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    outcomes = [json.loads(ln)["outcome"] for ln in captured.out.splitlines()[1:]]
    assert len(outcomes) == 2 and set(outcomes) <= {"000000", "111111"}
    assert work.builds() == []


def test_oracle_sparse_sample_builds_the_distribution_once(capsys, work,
                                                           ghz_file):
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--estimator", "oracle", "--count", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert work.builds() == ["oracle.prod_probabilities_many"]


def test_encoded_sparse_search_builds_the_inner_oracle_once(capsys, work,
                                                            tmp_path):
    """The frozen encoded run: one inner build serves both the default
    sparsity's exact distribution and the search's whole full level of 8
    candidates."""
    (tmp_path / "enc.qc").write_text(ENCODED_INLINE)
    code = run_command(["sample", "--circuit", str(tmp_path / "enc.qc"),
                        "--count", "25", "--seed", "11", "--method", "sparse",
                        "--estimator", "sampling"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert work.builds() == ["oracle.prod_probabilities_many"]


def test_all_exact_sampling_search_runs_once_per_command(capsys, work,
                                                         ghz_file):
    """One search of three exact levels serves the 50 draws, and its levels
    read one kernel table: one kernel setup over the three positions and
    one pull-back, where a setup per level would make 3 and a search per
    draw 150."""
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--estimator", "sampling", "--eps-prime", "1",
                        "--count", "50", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    outcomes = [json.loads(ln)["outcome"]
                for ln in captured.out.splitlines()[1:]]
    assert len(outcomes) == 50 and set(outcomes) == {"000", "111"}
    assert work.count("ProdPolyBox.values") == 1
    assert work.count("stabcore.pull_back_words") == 1


@pytest.fixture
def plans(monkeypatch):
    """The search plans built and the searches run, as two lists; every
    plan passes through ``samplers.search_plan``.  Setting ``plans.levels``
    caps each plan's exact levels."""
    build, search = samplers.search_plan, samplers.heavy_prefixes
    built, searches = [], []

    def capped(*args):
        plan = build(*args)
        built.append(plan)
        return dataclasses.replace(
            plan, exact_levels=min(plan.exact_levels, plans.levels))
    plans = argparse.Namespace(built=built, searches=searches, levels=64)
    monkeypatch.setattr(samplers, "search_plan", capped)
    monkeypatch.setattr(samplers, "heavy_prefixes",
                        lambda *args: searches.append(1) or search(*args))
    return plans


@pytest.mark.parametrize("count", [0, 1, 4])
@pytest.mark.parametrize("estimator, levels", [
    ("oracle", 3), ("sampling", 3), ("sampling", 1)])
def test_sparse_op_builds_one_search_plan(capsys, plans, ghz_file, count,
                                          estimator, levels):
    """A sparse op builds one plan before anything is drawn, with either
    estimator and at every count.  One search serves every draw of the
    oracle handle or of an all-exact plan; with the exact levels capped at
    1, each draw runs its own search; count 0 runs none."""
    plans.levels = levels
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--estimator", estimator, "--eps-prime", "1",
                        "--sparsity", "2", "--count", str(count),
                        "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert len(captured.out.splitlines()) == 1 + count
    assert len(plans.built) == 1
    per_draw = estimator == "sampling" and levels == 1
    assert len(plans.searches) == (count if per_draw else min(count, 1))


def test_scheduled_imposter_builds_one_plan_per_round(capsys, monkeypatch,
                                                      plans, ghz_file):
    """Each round's budget eps_j gets its own plan and search, and the
    support size behind the sparsity is computed once per run."""
    supports = []
    min_sparsity = experiments.min_sparsity
    monkeypatch.setattr(experiments, "min_sparsity", lambda *args:
                        supports.append(1) or min_sparsity(*args))
    run_json(capsys, ["experiment", "distinguish", "--circuit", ghz_file,
                      "--bob", "scheduled", "--rounds", "3", "--trials",
                      "1000"])
    assert len(plans.built) == len(plans.searches) == 3
    assert supports == [1]
    assert [plan.t for plan in plans.built] == [2] * 3


@pytest.mark.parametrize("eps_prime", ["0.001", "1e-200"])
def test_all_exact_sampling_search_is_not_refused_at_the_draw_limit(
        capsys, ghz_file, eps_prime):
    """At eps' = 0.001 one sampled GHZ-3 query would need 5.24e11 draws,
    and at eps' = 1e-200 its confidence underflows to 0, which needs
    unbounded draws; but the three levels enumerate 2, 4 and 8 selections
    (2, 4 and 4 candidates), so nothing is sampled and nothing is
    refused."""
    code = run_command(["sample", "--circuit", ghz_file, "--method", "sparse",
                        "--estimator", "sampling", "--eps-prime", eps_prime,
                        "--count", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out.splitlines()[1])["outcome"] in ("000",
                                                                   "111")


def test_oracle_sparse_op_at_count_0_makes_no_dense_build(
        capsys, work, ghz_file, ghz6_above_oracle_limit):
    """With --sparsity given, a count-0 oracle op draws nothing, so it
    builds nothing, and above the oracle limit it is not refused."""
    for path in (ghz_file, ghz6_above_oracle_limit):
        code = run_command(["sample", "--circuit", path, "--method", "sparse",
                            "--estimator", "oracle", "--sparsity", "2",
                            "--count", "0"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)["payload"]["count"] == 0
    assert work == []


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
# a deep product-input circuit: 30 qubits, all mixed inputs, 300 gates
DEEP_PROD = serialize_circuit(
    random_prod_circuit(np.random.default_rng(30), 30, 300))
DEEP_PATTERN = "".join({3: "0", 8: "1", 12: "1", 19: "0", 24: "1",
                        28: "0"}.get(i, "*") for i in range(30))
# a 12-qubit X-program with 16 rows
IQP12 = serialize_circuit(random_iqp_circuit(np.random.default_rng(11), 12, 16))
IQP4 = "family iqp\nqubits 4\nxrow 1 0 1 1\nxrow 0 1 1 0\nxrow 1 1 0 1\n"
# a 14-qubit X-program with 2000 rows
IQP14 = serialize_circuit(random_iqp_circuit(np.random.default_rng(7), 14, 2000))

# the files the sample and sparsity rows read; the path is part of the
# header line, so it is relative, and each row writes its own files, since
# iqp.qc is IQP3 here and IQP12 in the estimate rows
CIRCUIT_FILES = {"mixed.qc": MIXED_PROD, "iqp.qc": IQP3,
                 "enc.qc": ENCODED_INLINE, "ghz16.qc": GHZ16,
                 "iqp16.qc": IQP16, "h8.qc": H8, "iqp6.qc": IQP6}


def frozen(row_id: str, argv: str, files: dict, digest: str) -> tuple:
    """A row of the frozen-stdout table: argv, split at spaces, run in a
    directory holding `files` (name: text), prints the stdout whose sha256
    is `digest`. An empty `row_id` leaves only --threads in the case id."""
    return row_id, argv.split(), files, digest


def sampled(row_id: str, circuit: str, method: str, digest: str) -> tuple:
    """A sample row: 25 draws at seed 11 from the named file of
    CIRCUIT_FILES, by `method` and its flags, which override the ones
    before them."""
    return frozen(row_id,
                  f"sample --circuit {circuit} --count 25 --seed 11 "
                  f"--method {method}", {circuit: CIRCUIT_FILES[circuit]},
                  digest)


# test name: its rows
FROZEN = {
    # recorded before the selftest took its GHZ, pattern and X-program
    # builders from the ones the test suite shares
    "test_selftest_stdout_is_frozen": [
        frozen("honest", "selftest --seed 3", {},
               "07ea82310b36313e89f4dd20c21e3019078f98188f831599352356dea746d796"),
        frozen("inject", "selftest --seed 3 --inject-corrupted-bob", {},
               "32450acf0ab33e652185c03013f533e71f8e74b7cf89925af017c59e5751c38c"),
    ],
    # recorded before the Clifford decode moved to packed ints and the
    # oracle to one array for all branches
    "test_anticoncentration_stdout_is_frozen": [
        frozen("n3-pure",
               "experiment anticoncentration --n 3 --trials 300 --seed 17", {},
               "43ec81274d6a57c48d28c4e5b1ec4d7a65a8dab57ac00854fe262c342d513d09"),
        frozen("n4-mixed",
               "experiment anticoncentration --n 4 --trials 200 --seed 5 "
               "--bloch 0.3,0.2,0.5", {},
               "e869a22b63d3bad9c41d7c31cabfb1dd83397dfb8f645dbdb2f23d61b4d4b9a9"),
        # recorded before the chunk was drawn, swept and evolved as arrays:
        # 64 branches, so 16-list sub-batches
        frozen("n6-mixed-sub-batched",
               "experiment anticoncentration --n 6 --trials 100 --seed 3 "
               "--bloch 0.3,0.2,0.5", {},
               "48d2baeffd4186c77401887c00e33e3f5e1d101dda0f9daa6b601122ed083d24"),
        frozen("n1-pure",
               "experiment anticoncentration --n 1 --trials 300 --seed 9", {},
               "9127ee0471010fa12e5c32c28ae464b62b8db663360bb5aa31765f0f5827e627"),
        # the last chunk holds one trial
        frozen("n8-one-trial-chunk",
               "experiment anticoncentration --n 8 --trials 257 --seed 4", {},
               "16303f5bb24862147aac1dc581163b1d54a9b52bd14e6285a029376ca504c92d"),
        # recorded before CI's 1-vs-2-thread comparisons moved into this
        # table: all 7 qubits mixed give 128 branches, so 4-list
        # sub-batches; 79 chunks at n = 3 make two full groups of 32 and a
        # partial one; at n = 9 a group holds one chunk
        frozen("n7-mixed-sub-batches-of-4",
               "experiment anticoncentration --n 7 --trials 100 --seed 1 "
               "--bloch 0.3,0.2,0.5", {},
               "e275a03a930897abffc3b86bdb523b476ec5ae16e4771d4cb0176726184668aa"),
        frozen("n3-79-chunks",
               "experiment anticoncentration --n 3 --trials 20000 --seed 2", {},
               "055326798888e5f7f4a81331a4fd4fa0619bf2e05a77cba7f87ea192e97f587f"),
        frozen("n9-one-chunk-per-group",
               "experiment anticoncentration --n 9 --trials 300 --seed 2", {},
               "1afb0b79c6b3e2178e26e3bf0cd08695b77618a788ee0d89a97230eafdaed96d"),
    ],
    # recorded before the samplers took the exact distribution itself as
    # their prefix-marginal handle
    "test_sampler_stdout_is_frozen": [
        sampled("mixed-cdf", "mixed.qc", "cdf",
                "5c2d22c4047eb9e7c715565ed22b473cb162ce1cc743645a6550692cc3c769da"),
        sampled("mixed-chain", "mixed.qc", "chain",
                "5083039243d38797d5accfb9817a1aafee8113b5f09d7d487a77dd5d26e4172b"),
        sampled("mixed-sparse", "mixed.qc", "sparse --estimator oracle",
                "09090d2d9b61a74555ca071fff9d21df4853d08821a0262f537179ec59b1e677"),
        sampled("iqp-cdf", "iqp.qc", "cdf",
                "62c7f414f85b28a809941380eedaa076bc38893b0be637c4707fe21364e743b6"),
        sampled("iqp-chain", "iqp.qc", "chain",
                "8bbf7a6f89ababce006aef9985b21be7a61b3464aa8126fe84c07bcd94ec8b44"),
        sampled("iqp-sparse", "iqp.qc", "sparse --estimator oracle",
                "32e20c2ff1f4841298b0c43978957abd4d69d556565e5efea9a62bbcdfff5cd4"),
        # recorded before the sparse converter drew both regimes in one loop:
        # every level of mixed.qc and iqp.qc is enumerated, so one table serves
        # all draws, and the encoded handle is deterministic
        sampled("mixed-sparse-sampling", "mixed.qc", "sparse --estimator sampling",
                "37d8de2ca325832db7dc63cc5b6ad3709e9b57a2bb078850efbc63ed7bd35c82"),
        sampled("iqp-sparse-sampling", "iqp.qc", "sparse --estimator sampling",
                "4e2a51011e2bcf9ac3d70d55f1e2c7c57273912ee5be490acca606f58ed4f2b2"),
        sampled("encoded-sparse-sampling", "enc.qc", "sparse --estimator sampling",
                "7c12a27448cdd192064feb915b1f4041f01e4c739de6ab6f789e9a36bba4ecd6"),
        # GHZ-16 at eps' = 2 enumerates levels 1-15 and samples level 16, so
        # each draw runs its own search
        sampled("ghz16-sparse-sampled-level", "ghz16.qc",
                "sparse --estimator sampling --eps-prime 2 --sparsity 2 --count 3",
                "b529bc0faf9a8b722569c89db54e3070377d4f4caebdb19dff36073d0587e496"),
        # recorded before the heavy-prefix search kept its levels as bit
        # matrices: the 16-qubit X-program samples its last level like GHZ-16,
        # and all 256 outcomes of H on 8 qubits tie at 1/256, so the top-t cut
        # keeps the first 100 in lexicographic order
        sampled("iqp16-sparse-sampled-level", "iqp16.qc",
                "sparse --estimator sampling --eps-prime 2 --sparsity 2 --count 3",
                "c177b93b74c6ae20a89ab66d6513702328aab616da6a58291fa6793789f64b8d"),
        sampled("h8-sparse-lexicographic-ties", "h8.qc",
                "sparse --estimator oracle --sparsity 100",
                "1095c1804de7cfd3473392e28c340604dccfcb417f2f694afcd53139928814b8"),
        # recorded before the cdf and chain samplers drew level by level: 20000
        # draws span three chunks of 8192; summing each prefix's cells instead
        # of reading the cumulative table changes the 6-qubit X-program's digest
        sampled("iqp6-cdf-m7-three-chunks", "iqp6.qc", "cdf --m 7 --count 20000",
                "f2266ed2ee88dec7b99de829e625d594827ee512305c07f1a8a5d31f0c2a1c5e"),
        sampled("mixed-chain-three-chunks", "mixed.qc", "chain --count 20000",
                "8c9ff0cbfd7854ad25e556db1da7f915b116d45da2cefd7ef661ba09eb5b8aee"),
        sampled("mixed-cdf-three-chunks", "mixed.qc", "cdf --count 20000",
                "18f55b7d56e2d882c7f6fabf28a9eb081f7da7f7f1baa94b3445b661660b2ce0"),
    ],
    # recorded before the distinguish and anticoncentration harnesses
    # returned their payload dicts in place of report objects
    "test_distinguish_stdout_is_frozen": [
        frozen(f"{bob}-{rounds}",
               f"experiment distinguish --circuit mixed.qc --bob {bob} "
               f"--rounds {rounds} --trials 2000 --seed 13",
               {"mixed.qc": MIXED_PROD}, digest)
        for bob, rounds, digest in (
            ("exact", "1",
             "732e639e93834a4acec6cc8b70a9e942b780a42af83451669f7c58c3c43eeb7a"),
            ("exact", "3",
             "3b72d5ac60eab3c9764be5dbca6e3188c08f4919ff2a4f7d6b2bd94b31c53882"),
            ("corrupted", "1",
             "6933ffc089bb75520f6bf7a50b206b8b2444199c68e26fc47b7739d316c7ce16"),
            ("corrupted", "3",
             "3e094a9e4d3566a60748ce2bfc12d583b29f70b414d94ca9fa7c337e083b43d5"),
            ("scheduled", "1",
             "6b35afce494d3ada21926827e151ea920f63efb38dd8b82292b4bee80621a1cc"),
            ("scheduled", "3",
             "af9554be99a697ccd59003ade3b7b0199a446e79165762fc3000624d6d375f48"))
    ],
    # at the default --eps-grid, recorded at the same point as distinguish
    "test_sparsity_stdout_is_frozen": [
        frozen(row_id, f"experiment sparsity --circuit {name}",
               {name: CIRCUIT_FILES[name]}, digest)
        for row_id, name, digest in (
            ("prod", "mixed.qc",
             "735ed46eb20d384a9a7c2c1aebfed3da06c254f095d71d6a913581b5cd95ba7f"),
            ("iqp", "iqp.qc",
             "3c7a05ca67cad8e184e02a7c7d8b98ae38f1115333911dddfae90a8a7b8626e3"),
            ("encoded", "enc.qc",
             "a22ac306bcaa350affed62f2f5c3b7def6bb9141a95f02f3a5db3f8c89cce7fd"))
    ],
    # recorded before the measured Z's were pulled back through the gate
    # list in one pass; at eps = 0.01 the 105967 draws span 13 chunks
    "test_estimate_stdout_is_frozen": [
        frozen("",
               f"estimate --circuit deep.qc --pattern {DEEP_PATTERN} "
               "--eps 0.01 --seed 5", {"deep.qc": DEEP_PROD},
               "5a63846077219d36eef7d8a22916789b3b34e0891b2b435b025bec790db7a1e4"),
    ],
    # recorded before each draw was read from a table of the kernel's 2^f
    # distinct draws: an X-program estimate whose 26492 draws span 4 chunks
    # and read the 2^9-row table (iqp.qc is IQP12 here), and a product-input
    # one whose 12 fixed bits (2^12 > 1060 draws) run the kernel on every
    # draw
    "test_estimate_stdout_is_frozen_on_both_kernel_paths": [
        frozen("iqp-table",
               "estimate --circuit iqp.qc --pattern 10*1101*10*0 --eps 0.02 "
               "--seed 7", {"iqp.qc": IQP12},
               "f17e46490d4f644b4e029e49be6f18fb3f56e90327bb5c6ae9284e12df4de898"),
        frozen("prod-per-draw",
               "estimate --circuit deep.qc --pattern 0101*1010*0101"
               + "*" * 16 + " --eps 0.1 --seed 7", {"deep.qc": DEEP_PROD},
               "f888ee885a8d3b0961c3810a607d2dc7c44e1a32db961b2c35b215c6efb9a797"),
        # recorded at the same point as the anticoncentration rows n7, n3 and
        # n9: a product-input estimate whose 18445 draws span three chunks,
        # a 2000-row X-program, and two patterns that fix nothing, whose
        # draws all read the table of the one empty selection
        *(frozen(row_id, f"estimate --circuit {name} --pattern {pattern} "
                 "--eps 0.02 --delta 0.05 --seed 5", {name: text}, digest)
          for row_id, name, text, pattern, digest in (
              ("prod-table-three-chunks", "mixed3.qc", MIXED3, "01*",
               "4707cc13f8b06a38a1988e7139fc7c9b25690f42c25918a8d6371f9b2e0bf2a9"),
              ("iqp-2000-rows", "iqp14.qc", IQP14, "01010101010101",
               "5b64769f2bade37f1acca9f72f115e729531032ecc9cf0545ef93253221044a4"),
              ("prod-no-fixed-bits", "mixed3.qc", MIXED3, "***",
               "870c0e2046a3f3011cede65276e6ca5e8be288ac18a322762b8ba27267fcb9ef"),
              ("iqp-no-fixed-bits", "iqp4.qc", IQP4, "****",
               "8bd40a0c8b117de5b09396f654b231a2a6a7a0b09a2e1eb4ca6e50817e8026d7"))),
    ],
}


def frozen_stdout_test(rows: list):
    """The test that runs each of `rows` at --threads 1 and 2: a fixed argv
    and --seed print the same bytes at any --threads."""
    @pytest.mark.parametrize("argv, files, digest, threads", [
        pytest.param(argv, files, digest, threads,
                     id="-".join(filter(None, (row_id, threads))))
        for row_id, argv, files, digest in rows for threads in ("1", "2")])
    def test(capsys, monkeypatch, tmp_path, argv, files, digest, threads):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code = run_command(argv + ["--threads", threads])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    return test


for _name, _rows in FROZEN.items():
    globals()[_name] = frozen_stdout_test(_rows)


# the argv shapes of the benchmark's workloads
WORKLOAD_ARGVS = {
    "estimate-deep": "estimate --circuit /work/op3.qc --pattern **0*1***0*1 "
                     "--eps 0.1 --delta 0.05 --seed 1804289383 --threads 1",
    "sparse-search": "sample --circuit /work/op4.qc --method sparse "
                     "--estimator sampling --eps-prime 1.0 --count 1 "
                     "--sparsity 2 --seed 846930886 --threads 1",
    "sparse-search-default": "sample --circuit op5.qc --method sparse "
                             "--estimator sampling --eps-prime 1.0 --count 1 "
                             "--seed 0 --threads 1",
    "anticoncentration": "experiment anticoncentration --n 3 --trials 300 "
                         "--seed 5 --threads 1",
    "anticoncentration-mixed": "experiment anticoncentration --n 6 "
                               "--trials 100 --bloch=-0.3,0.4,0.5 --seed 7 "
                               "--threads 1",
}


@pytest.mark.parametrize("argv", [
    *(pytest.param(text.split(), id=name)
      for name, text in WORKLOAD_ARGVS.items()),
    *(pytest.param(argv + ["--threads", "1"], id=f"{test}-{row_id}")
      for test, rows in FROZEN.items() for row_id, argv, _, _ in rows)])
def test_well_formed_argvs_never_reach_argparse(monkeypatch, argv):
    """Every workload-shaped argv, and every frozen-stdout argv whose
    options are distinct and take one value, gets the full parser's
    namespace with argparse's parse made to raise; the frozen argvs that
    repeat --count or give a flag reach argparse."""
    expected = vars(FULL.parse_args(argv))

    def refuse(*args, **kwargs):
        raise WorkStarted("argparse")
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    names = [token for token in argv if token.startswith("--")]
    if len(set(names)) == len(names) and "--inject-corrupted-bob" not in names:
        assert vars(cli._parse_args(argv)) == expected
    else:
        with pytest.raises(WorkStarted):
            cli._parse_args(argv)


def test_out_flag(capsys, ghz_file, tmp_path):
    target = tmp_path / "result.json"
    code = run_command(["oracle", "--circuit", ghz_file, "--pattern", "000",
                        "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text().splitlines()[0])
    assert doc["payload"]["probability"] == 0.5


def test_inner_file_parses_under_an_ascii_locale(tmp_path):
    """An inner circuit file is decoded as UTF-8 whatever the locale, as
    the top-level file is: under LC_ALL=POSIX without UTF-8 mode, a
    comment spelled café in the inner file parses."""
    (tmp_path / "inner.qc").write_bytes(
        "family prod\nqubits 1\n# café\ngate X 0\n".encode("utf-8"))
    (tmp_path / "enc.qc").write_text("family encoded\ninner inner.qc\n")
    r = subprocess.run(
        [sys.executable, "-m", "bornbox.cli", "oracle", "--circuit",
         str(tmp_path / "enc.qc")],
        env=dict(os.environ, LC_ALL="POSIX", PYTHONUTF8="0"),
        capture_output=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["payload"]["probs"] == [0.0, 0.5, 0.5, 0.0]


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
