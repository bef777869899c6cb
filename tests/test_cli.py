"""Command-line interface: output format, exit codes, determinism."""

import functools
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bornbox import (circuits, cli, experiments, oracle, polybox, samplers,
                     stabcore)
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


# ---------------------------------------------------------------------------
# Refusals: exit 2, one error line, nothing on stdout, and no work first
# ---------------------------------------------------------------------------

class WorkStarted(Exception):
    pass


class Work(list):
    """The names of the costly entries that ran, in order."""

    stop = False


# The costly entries, by the module that defines them: the dense builds,
# which every build through exact_distribution, exact_probability and
# encoded_first_bit reaches, the estimator's pull-back, the Clifford draws
# and the pools.  The kernels are the handles' ``values``.
COSTLY = [(oracle, "prod_probabilities_many"), (oracle, "iqp_statevector"),
          (stabcore, "pull_back_words"), (stabcore, "random_clifford_words"),
          (polybox, "_chunked_map")]
DENSE = {"oracle.prod_probabilities_many", "oracle.iqp_statevector"}
KERNELS = [polybox.ProdPolyBox, polybox.IqpPolyBox]
MODULES = [circuits, cli, experiments, oracle, polybox, samplers, stabcore]


@pytest.fixture
def work(monkeypatch):
    """The costly entries that ran, listed as each call returns.  Each
    entry is wrapped in every bornbox module that binds its name, and the
    wrapper calls through, so allowed work runs; a call that raises is not
    listed, so an entry whose own guard refuses first, as the oracle limit
    does at the top of ``prod_probabilities_many``, ran no work.  With
    ``work.stop`` set, reaching an entry raises WorkStarted instead."""
    ran = Work()

    def spy(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if ran.stop:
                raise WorkStarted(name)
            result = fn(*args, **kwargs)
            ran.append(name)
            return result
        return recorded

    for home, attr in COSTLY:
        fn = getattr(home, attr)
        wrapped = spy(f"{home.__name__.removeprefix('bornbox.')}.{attr}", fn)
        for module in MODULES:
            if getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, wrapped)
    for cls in KERNELS:
        monkeypatch.setattr(cls, "values", staticmethod(
            spy(f"{cls.__name__}.values", cls.values)))
    return ran


GHZ5 = ("family prod\nqubits 5\nmeasure 5\ngate H 0\ngate CNOT 0 1\n"
        "gate CNOT 1 2\ngate CNOT 2 3\ngate CNOT 3 4\n")


def mixed_qubits(n: int) -> str:
    """n qubits, every one mixed: 2^n pure branches of 2^n amplitudes."""
    return (f"family prod\nqubits {n}\n"
            + "".join(f"prep {q} bloch 0.3 0.2 0.5\n" for q in range(n))
            + "gate H 0\ngate CNOT 0 1\n")


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
    # the files of CI's refusal step
    "ghz5.qc": GHZ5,
    "iqp3.qc": "family iqp\nqubits 3\nxrow 1 0 1\nxrow 0 1 1\n",
    "inline.qc": ("family encoded\n# c\n\ninner\n  family prod\n  qubits 1\n"
                  "  gate H 5\n"),
    "wide.qc": "family prod\nqubits 100000000\nmeasure 1\ngate H 0\n",
    "mixed11.qc": mixed_qubits(11),
    "gate-h3.qc": gate_line("H 3"),
    "gate-neg.qc": gate_line("H -1"),
    "gate-cnot11.qc": gate_line("CNOT 1 1"),
    "gate-q0.qc": gate_line("Q 0"),
}


@pytest.fixture
def refusal_files(tmp_path, monkeypatch):
    (tmp_path / "circuits").mkdir()
    for name, text in REFUSAL_FILES.items():
        (tmp_path / name).write_text(text)
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
                f"heavy-prefix threshold {UNION} 3 levels"))),
    # the threshold eps/(2t) is 0
    refused("sparsity-threshold-zero-sampling",
            f"{SPARSE} --estimator sampling --sparsity 1e308",
            f"heavy-prefix threshold 0 {CAP}"),
    # GHZ-27 at eps' = 0.001: level 27 would enumerate 2^27 > 10^8
    # selections, so it is sampled, and its Hoeffding count is refused
    # before the first level
    refused("sampled-level-above-the-draw-limit",
            "sample --circuit ghz27.qc --method sparse --estimator sampling "
            "--sparsity 2 --eps-prime 0.001 --count 1",
            f"eps=9.61538e-06, delta=6.8485e-12 needs 5.71e+11 {DRAWS}"),
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
            "heaviest outcome is lighter than l1/2", builds=1),
    *(refused(f"corruption-{l1}-{bob}",
              f"{DIST} --bob {bob} --corruption-l1={l1}",
              f"corruption_l1 must be finite, got {l1}" if l1 in ("nan", "inf")
              else f"corruption_l1 must lie in [0, 2], got {l1}")
      for l1 in ("nan", "inf", "3.0", "-1.0", "2.0000001")
      for bob in ("exact", "corrupted", "scheduled")),
]

# CI's refusal step, row for row, on its circuit files
CI = "--circuit ghz5.qc"
CI_SPARSE = f"sample {CI} --method sparse"
CI_DIST = f"experiment distinguish {CI}"
REFUSALS += [
    *(row for est in ("oracle", "sampling") for row in (
        refused(f"ci-{est}-sparsity-inf",
                f"{CI_SPARSE} --estimator {est} --sparsity inf",
                "coefficients must be finite, got (inf,)"),
        refused(f"ci-{est}-sparsity-1e400",
                f"{CI_SPARSE} --estimator {est} --sparsity 1e400",
                "coefficients must be finite, got (inf,)"),
        refused(f"ci-{est}-sparsity-nan",
                f"{CI_SPARSE} --estimator {est} --sparsity nan",
                "coefficients must be finite, got (nan,)"),
        refused(f"ci-{est}-sparsity-1e300,1e300,1e300",
                f"{CI_SPARSE} --estimator {est} --sparsity 1e300,1e300,1e300",
                f"heavy-prefix threshold 9.08932e-309 {CAP}"),
        refused(f"ci-{est}-eps-prime-1e-320",
                f"{CI_SPARSE} --estimator {est} --eps-prime 1e-320",
                f"eps_prime=9.99989e-321 {UNBOUNDED}", builds=1),
        refused(f"ci-{est}-sparsity-2.5e305",
                f"{CI_SPARSE} --estimator {est} --sparsity 2.5e305",
                f"heavy-prefix threshold 1.53846e-308 {CAP}"),
        refused(f"ci-{est}-sparsity-1e305",
                f"{CI_SPARSE} --estimator {est} --sparsity 1e305",
                f"heavy-prefix threshold {UNION} 5 levels"))),
    refused("ci-estimate-eps-1e-200",
            f"estimate {CI} --pattern 00000 --eps 1e-200",
            f"eps=1e-200, delta=0.01 needs inf {DRAWS}"),
    refused("ci-iqp-eps-1e-200",
            "estimate --circuit iqp3.qc --pattern 000 --eps 1e-200",
            f"eps=1e-200, delta=0.01 needs inf {DRAWS}"),
    refused("ci-scheduled-delta-nan", f"{CI_DIST} --bob scheduled --delta nan",
            "delta must be finite, got nan"),
    refused("ci-exact-delta-nan", f"{CI_DIST} --bob exact --delta nan",
            "delta must be finite, got nan"),
    refused("ci-exact-delta-inf", f"{CI_DIST} --bob exact --delta inf",
            "delta must be finite, got inf"),
    refused("ci-exact-delta--1", f"{CI_DIST} --bob exact --delta=-1",
            "delta must be positive, got -1"),
    refused("ci-corrupted-delta--1", f"{CI_DIST} --bob corrupted --delta=-1",
            "delta must be positive, got -1"),
    refused("ci-corrupted-delta-0", f"{CI_DIST} --bob corrupted --delta 0",
            "delta must be positive, got 0"),
    refused("ci-scheduled-delta-1e-320",
            f"{CI_DIST} --bob scheduled --delta 1e-320",
            f"delta=1e-320 {SCHEDULED} eps_prime=2.43179e-320 {UNBOUNDED}",
            builds=1),
    refused("ci-scheduled-delta-3e-307",
            f"{CI_DIST} --bob scheduled --delta 3e-307",
            f"delta=3e-307 {SCHEDULED} heavy-prefix threshold 1.40291e-308 "
            f"{CAP}", builds=1),
    refused("ci-trials-1e11", f"{CI_DIST} --trials 100000000000",
            "trials must be at most 1e+08, got 100000000000"),
    refused("ci-rounds-times-trials",
            f"{CI_DIST} --trials 1000 --rounds 100001",
            "rounds * trials must be at most 1e+08, got 100001000"),
    refused("ci-threads-65", f"estimate {CI} --pattern 00000 --threads 65",
            "--threads must lie in [1, 64], got 65"),
    *(refused(f"ci-count-1e11-{method}",
              f"sample {CI} --method {method} --count 100000000000",
              "--count must be at most 1e+08, got 100000000000")
      for method in ("sparse", "cdf", "chain")),
    refused("ci-eps-grid-3", f"experiment sparsity {CI} --eps-grid 0.1,3",
            "eps must lie in [0, 2]"),
    refused("ci-eps-grid-nan", f"experiment sparsity {CI} --eps-grid nan",
            "eps must lie in [0, 2]"),
    refused("ci-inline-gate-out-of-range", "oracle --circuit inline.qc",
            "line 7: gate qubit out of range"),
    refused("ci-register-above-the-cap", "oracle --circuit wide.qc",
            "line 2: qubit count 100000000 exceeds the limit of 4194304"),
    refused("ci-out-directory", f"oracle {CI} --out .", "[Errno 21] ...",
            builds=None),
    refused("ci-corruption-nan", f"{CI_DIST} --corruption-l1 nan",
            "corruption_l1 must be finite, got nan"),
    *(row for bob in ("exact", "corrupted", "scheduled") for row in (
        refused(f"ci-corruption-3-{bob}",
                f"{CI_DIST} --bob {bob} --corruption-l1 3",
                "corruption_l1 must lie in [0, 2], got 3.0"),
        refused(f"ci-corruption--1-{bob}",
                f"{CI_DIST} --bob {bob} --corruption-l1=-1",
                "corruption_l1 must lie in [0, 2], got -1.0"))),
    refused("ci-gate-h3", "oracle --circuit gate-h3.qc",
            "line 4: gate qubit out of range"),
    refused("ci-gate-neg", "oracle --circuit gate-neg.qc",
            "line 4: negative qubit index"),
    refused("ci-gate-cnot11", "oracle --circuit gate-cnot11.qc",
            "line 4: gate CNOT qubits must be distinct"),
    refused("ci-gate-q0", "oracle --circuit gate-q0.qc",
            "line 4: unknown gate 'Q'"),
    # every qubit mixed counts twice against the oracle limit
    refused("ci-oracle-11-mixed", "oracle --circuit mixed11.qc",
            f"11 qubits with 11 mixed, each counted twice, {LIMIT}"),
    refused("ci-anticoncentration-11-mixed",
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
