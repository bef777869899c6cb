"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil

import numpy as np
import pytest

import env

env.use_checkout_source()

from bornbox.circuits import IqpCircuit, ProdCircuit  # noqa: E402
from bornbox.oracle import exact_distribution  # noqa: E402
from bornbox.stabcore import (GATE_ARITY, GateApp, ProductState,  # noqa: E402
                              pauli_expansion_probability, tableau_from_gates)

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import RunChecks, hoeffding_count  # noqa: E402
from reference import Reference, clifford_tableau  # noqa: E402
from workloads import (WORKLOADS, Workload, bloch_vector,  # noqa: E402
                       deep_circuit, drawn_pattern, estimate_op, make_op,
                       sparse_op)


@pytest.fixture
def workdir(monkeypatch):
    """A scratch directory inside the checkout, as the benchmark uses."""
    monkeypatch.chdir(env.ROOT)
    path = env.WORK / f"test-p{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def test_self_times_subtract_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
        ["c", 6.0, 8.0, 0, 0],      # overlaps b: the union covers 5..8
        ["d", 9.5, 11.0, 0, 0],     # runs past the parent's end: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 3.0 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def test_layer_metrics_on_synthetic_tree():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.run_command", 0.0, 10.0, -1, 0],
        ["polybox.evaluate", 1.0, 9.0, 0, 0],
        ["stabcore.tableau_from_gates", 2.0, 5.0, 1, 0],
        ["cli.to_json", 9.0, 9.5, 0, 0],
    ]
    tracer.counts["polybox.draws"] = 60
    m = tracing.layer_metrics(tracer)
    assert m["polybox.query_s"] == 8.0
    assert m["polybox.self_s"] == 5.0
    assert m["polybox.draws_per_s"] == 12.0
    assert m["stabcore.tableau_calls"] == 1 and m["stabcore.tableau_s"] == 3.0
    assert m["cli.self_s"] == pytest.approx(1.5 + 0.5)
    assert m["cli.emit_s"] == 0.5


def random_prod_circuit(rng, n: int, gate_count: int, k: int,
                        mixed: bool) -> ProdCircuit:
    """Uniformly random gates over every gate kind, on random Bloch inputs."""
    names = sorted(GATE_ARITY)
    gates = []
    for _ in range(gate_count):
        name = names[int(rng.integers(len(names)))]
        qubits = rng.choice(n, size=GATE_ARITY[name], replace=False)
        gates.append(GateApp(name, tuple(int(q) for q in qubits)))
    state = ProductState(tuple(bloch_vector(rng, mixed) for _ in range(n)))
    return ProdCircuit(n, k, state, tuple(gates))


def test_reference_route_matches_oracle_and_tableau():
    rng = np.random.default_rng(7)
    for i in range(12):
        n = 2 + i % 5
        c = random_prod_circuit(rng, n, 15, int(rng.integers(1, n + 1)),
                                bool(i % 2))
        assert clifford_tableau(n, c.gates) == tableau_from_gates(n, c.gates)
        np.testing.assert_allclose(Reference(c).distribution(),
                                   exact_distribution(c).probs, atol=1e-12)
    for n in (2, 3, 4):
        rows = tuple(tuple(int(b) for b in rng.integers(0, 2, size=n))
                     for _ in range(5))
        c = IqpCircuit(n, n - 1, rows)
        np.testing.assert_allclose(Reference(c).distribution(),
                                   exact_distribution(c).probs, atol=1e-12)
    # past the oracle's reach, against the program's own Pauli expansion
    for n in (20, 33):
        c = deep_circuit(rng, n, 10 * n)
        ref = Reference(c)
        pattern = drawn_pattern(rng, ref, 6)
        assert ref.probability(pattern) == pytest.approx(
            pauli_expansion_probability(tableau_from_gates(n, c.gates),
                                        c.state, pattern), abs=1e-12)


def test_checker_flags_wrong_output(workdir):
    op = estimate_op(6, 6)(np.random.default_rng(3), 1, workdir)
    rc, out, _ = run.run_op(op.argv)
    assert rc == 0 and RunChecks().check(op, rc, out) == []
    line = json.loads(out)
    line["payload"]["samples_used"] += 1
    problems = RunChecks().check(op, 0, json.dumps(line) + "\n")
    assert len(problems) == 1 and "samples_used" in problems[0]
    assert RunChecks().check(op, 2, "") == ["op 1 (estimate-n6): exit code 2"]
    assert RunChecks().check(op, 0, "{not json\n")
    assert RunChecks().check(op, 0, out + out)


def test_checker_flags_replay_that_differs(workdir, monkeypatch):
    op = estimate_op(6, 6)(np.random.default_rng(4), 0, workdir)
    real = run.run_command
    assert run.checked_op(op, RunChecks())[3] == []

    def drifting(argv):
        rc = real(argv)
        if argv[argv.index("--threads") + 1] == "2":
            print(" ")
        return rc

    monkeypatch.setattr(run, "run_command", drifting)
    problems = run.checked_op(op, RunChecks())[3]
    assert len(problems) == 1 and "--threads 2 replay" in problems[0]


def test_calibrated_time_is_at_reference_speed(workdir, monkeypatch):
    op = estimate_op(6, 6)(np.random.default_rng(4), 0, workdir)
    # the kernel reads twice its nominal time: the machine runs at half speed
    readings = iter([1.5 * calibrate.NOMINAL_S, 2.5 * calibrate.NOMINAL_S])
    monkeypatch.setattr(calibrate, "speed", lambda: next(readings))
    elapsed, raw, _, problems = run.checked_op(op, RunChecks(), calibrated=True)
    assert problems == [] and elapsed == pytest.approx(raw / 2.0)


def test_run_verdict_applies_three_sigma_rules():
    checks = RunChecks()
    checks.estimate_delta = 0.05
    checks.estimate_misses = [False] * 90 + [True] * 10
    # 400 trials at n=3 with the pure-state variance 2/72 - 1/64
    variance = 400 * (2.0 / 72.0 - 1.0 / 64.0)
    checks.anti_means = {3: [400 * 0.125, variance, 400]}
    checks.flags = [("a", True)] * 17 + [("b", False)]
    assert checks.verdict() == []
    checks.estimate_misses = [False] * 80 + [True] * 20
    checks.anti_means = {3: [400 * 0.155, variance, 400]}
    checks.flags = [("a", True)] * 16 + [("b", False)] * 2
    problems = checks.verdict()
    assert len(problems) == 3
    assert "estimate miss rate" in problems[0]
    assert "2 of 18 experiment pass flags" in problems[1]
    assert "n=3" in problems[2]


def _fake_stdout(op, payload, lines=()):
    seed = int(op.argv[op.argv.index("--seed") + 1])
    head = {"command": op.argv[0], "parameters": {}, "seed": seed,
            "payload": payload}
    return "".join(json.dumps(line) + "\n" for line in (head, *lines))


def _sparse_verdict(ops, pick):
    checks = RunChecks()
    for op in ops:
        outcome = pick(op)
        out = _fake_stdout(op, {"k": op.circuit.k, "count": 1},
                           [{"outcome": outcome}])
        assert checks.check(op, 0, out) == []
    return checks.verdict()


def test_sparse_gate_fails_samplers_that_leave_the_support(workdir):
    w = WORKLOADS["sparse-search"]
    rng = np.random.default_rng(11)
    ops = [make_op(w, 21, i, workdir) for i in range(16)]

    def from_target(op):
        probs = Reference(op.circuit).distribution()
        return format(int(rng.choice(len(probs), p=probs)), f"0{op.circuit.k}b")

    def uniform(op):
        return format(int(rng.integers(1 << op.circuit.k)), f"0{op.circuit.k}b")

    assert _sparse_verdict(ops, from_target) == []
    problems = _sparse_verdict(ops, uniform)
    assert len(problems) == 1 and "outside the support" in problems[0]
    problems = _sparse_verdict(ops, lambda op: "0" * op.circuit.k)
    assert len(problems) == 1 and "outside the support" in problems[0]


def test_estimate_gate_fails_constant_estimates(workdir):
    w = Workload("deep", "", (estimate_op(10, 16),), estimate_op(8, 8),
                 rate=1.0, trace_ops=1)
    ops = [make_op(w, 5, i, workdir) for i in range(35)]
    truths = [Reference(op.circuit).probability(op.patterns[0]) for op in ops]
    draws = hoeffding_count(0.1, 0.05)
    noise = np.random.default_rng(2).normal(0.0, draws ** -0.5, size=len(ops))

    def verdict(values):
        checks = RunChecks()
        for op, value in zip(ops, values):
            out = _fake_stdout(op, {"value": float(value), "eps": 0.1,
                                    "delta": 0.05, "samples_used": draws})
            assert checks.check(op, 0, out) == []
        return checks.verdict()

    # the patterns reach both likely and unlikely outcomes
    assert min(truths) < 0.05 and max(truths) > 0.5
    assert verdict(np.array(truths) + noise) == []
    for constant in (0.0, 2.0 ** -6, 0.5):
        problems = verdict([constant] * len(ops))
        assert problems and all("estimate" in p for p in problems)
    # every probability off by a little more than eps
    problems = verdict(np.array(truths) + noise + 0.12)
    assert problems and all("estimate" in p for p in problems)


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(30)]
    assert run.tail(lat) == (19.0, pytest.approx(100 * 20 / 30), 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 2)


def test_traced_counts_repeat_for_a_seed(workdir):
    small = Workload("small", "", (sparse_op("ghz", 2, None), estimate_op(6, 8),
                                   sparse_op("ghz", 2, 2)),
                     estimate_op(6, 6), rate=1.0, trace_ops=3)
    names = ("polybox.queries", "polybox.draws", "samplers.queries_per_search",
             "oracle.builds")
    counts = []
    for _ in range(2):
        metrics, attempted, failed, problems, _ = run.traced_run(small, 5, workdir)
        assert (failed, problems) == (0, [])
        counts.append({name: metrics[name][0] for name in names})
    assert counts[0] == counts[1]
    assert counts[0]["oracle.builds"] == 1 and counts[0]["polybox.queries"] > 4


def test_ops_depend_only_on_seed_and_index(workdir):
    w = WORKLOADS["estimate-deep"]
    ops = []
    for sub in ("a", "b"):
        (workdir / sub).mkdir()
        ops.append(make_op(w, 9, 4, workdir / sub))
    a, b = ops
    assert a.argv[3:] == b.argv[3:] and a.circuit == b.circuit
    assert ((workdir / "a" / "op4.qc").read_text()
            == (workdir / "b" / "op4.qc").read_text())


def test_benchmark_json_matches_code():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())
    layer_names = set(tracing.layer_metrics(tracing.Tracer())) | {
        "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit_of(name) for name in layer_names}
