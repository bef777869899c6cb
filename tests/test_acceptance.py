"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts, so the suite both reports and enforces the criteria.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from bornbox.circuits import (EncodedCircuit, IqpCircuit, OutcomePattern,
                              ProdCircuit)
from bornbox.experiments import (bob_epsilon_schedule,
                                 clifford_output_probabilities,
                                 run_hypothesis_test)
from bornbox.oracle import (ExactDistribution, exact_distribution,
                            exact_probability, l1_distance, min_sparsity)
from bornbox.polybox import (CePolyBox, IqpPolyBox, OraclePolyBox,
                             ProdPolyBox, _iqp_values, hoeffding_samples)
from bornbox.samplers import (cdf_bitwise_sample, cdf_outcomes_for_r,
                              chain_sample, search_plan,
                              survivor_distribution)
from bornbox.stabcore import GateApp, ProductState

from helpers import (drawn_tableau, ghz_circuit, pattern_draws,
                     random_iqp_circuit, random_pattern, random_prod_circuit,
                     synthesized_gates)


def report(index: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{index}/9] {name}: {status} ({detail})", flush=True)


def chi2_pvalue(draws, probs) -> float:
    counts = np.zeros(len(probs))
    for bits in draws:
        counts[int(bits, 2)] += 1
    expected = np.asarray(probs, float) * len(draws)
    zero = expected == 0
    if counts[zero].any():
        return 0.0
    return float(stats.chisquare(counts[~zero], expected[~zero]).pvalue)


def empirical(draw_indices, size, total):
    counts = np.bincount(draw_indices, minlength=size)
    return counts / total


def test_prod_estimator_coverage():
    eps, delta, reps = 0.05, 0.01, 200
    assert hoeffding_samples(eps, delta) == 4239
    rng = np.random.default_rng(20250816)
    start = time.perf_counter()
    sigma = math.sqrt(delta * (1 - delta) / reps)
    worst = 0.0
    pooled = 0
    for _ in range(50):
        c = random_prod_circuit(rng, 4, 30)
        pat = random_pattern(rng, 4)
        p = exact_probability(c, pat)
        box = ProdPolyBox(c)
        violations = 0
        for _ in range(reps):
            est = box.estimate(pat, eps, delta, rng)
            assert est.samples_used == 4239
            if abs(est.value - p) >= eps:
                violations += 1
        rate = violations / reps
        worst = max(worst, rate)
        pooled += violations
        assert rate <= delta + 3 * sigma, (rate, pat.trits)
    elapsed = time.perf_counter() - start
    ok = worst <= delta + 3 * sigma and elapsed <= 300
    report(1, "prod estimator coverage", ok,
           f"worst rate {worst:.4f} <= {delta + 3 * sigma:.4f}, "
           f"pooled {pooled}/10000, {elapsed:.1f}s")
    assert ok


def test_iqp_estimator_coverage_and_unbiasedness():
    eps, delta, reps = 0.05, 0.01, 200
    rng = np.random.default_rng(20250817)
    start = time.perf_counter()
    sigma = math.sqrt(delta * (1 - delta) / reps)
    worst = 0.0
    for _ in range(20):
        c = random_iqp_circuit(rng, 4, 6)
        pat = random_pattern(rng, 4)
        p = exact_probability(c, pat)
        box = IqpPolyBox(c)
        violations = sum(
            1 for _ in range(reps)
            if abs(box.estimate(pat, eps, delta, rng).value - p) >= eps)
        rate = violations / reps
        worst = max(worst, rate)
        assert rate <= delta + 3 * sigma, (rate, c.rows, pat.trits)

    c = random_iqp_circuit(np.random.default_rng(101), 4, 6)
    pat = OutcomePattern("01*1")
    p = exact_probability(c, pat)
    sel = np.random.default_rng(777).integers(
        0, 2, size=(100000, len(pat.fixed)), dtype=np.int64)
    vals = pattern_draws(_iqp_values, c, pat, sel)
    se = max(float(vals.std(ddof=1)) / math.sqrt(vals.size), 1e-15)
    bias = abs(float(vals.mean()) - p)
    elapsed = time.perf_counter() - start
    ok = worst <= delta + 3 * sigma and bias <= 5 * se
    report(2, "iqp estimator coverage and unbiasedness", ok,
           f"worst rate {worst:.4f}, single-draw bias {bias:.2e} <= 5se="
           f"{5 * se:.2e}, {elapsed:.1f}s")
    assert ok


def test_encoded_estimator_error_bounds():
    rng = np.random.default_rng(20250818)
    start = time.perf_counter()
    worst_marginal = 0.0
    worst_slack = -1.0
    for n in range(1, 9):
        inner = random_prod_circuit(rng, n, 2 * n + 4, mixed=False)
        inner = ProdCircuit(n, n, ProductState.zero(n), inner.gates)
        enc = EncodedCircuit(inner)
        limit_full = 2.0 ** -(n + 1)
        for eps in (0.3, 2.0 ** -(n + 1), 2.0 ** -(n + 3)):
            for idx in range(3 ** (n + 1)):
                digits = []
                v = idx
                for _ in range(n + 1):
                    digits.append("01*"[v % 3])
                    v //= 3
                pat = OutcomePattern("".join(digits))
                est = CePolyBox(enc).estimate(pat, eps)
                err = abs(est.value - exact_probability(enc, pat))
                if pat.is_full:
                    bound = min(limit_full, eps)
                    assert err <= bound, (n, eps, pat.trits, err)
                    worst_slack = max(worst_slack, err - bound)
                else:
                    assert err == 0.0, (n, eps, pat.trits, err)
                    worst_marginal = max(worst_marginal, err)
    elapsed = time.perf_counter() - start
    ok = worst_marginal == 0.0 and worst_slack <= 0.0
    report(3, "encoded estimator error bounds", ok,
           f"marginal error {worst_marginal}, full-pattern slack "
           f"{worst_slack:.2e}, exhaustive n<=8, {elapsed:.1f}s")
    assert ok


def sparse_support_instance(rng):
    """k=6 stabilizer circuit whose support is an affine subspace of
    dimension <= 3, i.e. at most 8 of 64 outcomes."""
    gates = [GateApp("H", (int(q),))
             for q in rng.choice(6, size=int(rng.integers(1, 4)), replace=False)]
    for _ in range(int(rng.integers(4, 12))):
        name = ("X", "Z", "CNOT", "CZ")[int(rng.integers(4))]
        if name in ("X", "Z"):
            gates.append(GateApp(name, (int(rng.integers(6)),)))
        else:
            a, b = rng.choice(6, size=2, replace=False)
            gates.append(GateApp(name, (int(a), int(b))))
    c = ProdCircuit(6, 6, ProductState.zero(6), tuple(gates))
    d = exact_distribution(c)
    assert min_sparsity(d, 0.0) <= 8
    return c, d


def test_sparse_simulator_l1():
    eps, delta, draws_n = 0.05, 0.01, 100000
    bound = 12 * eps + delta
    allowance = 3 * math.sqrt(2 ** 6 / draws_n)
    rng = np.random.default_rng(20250819)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        c, d = sparse_support_instance(rng)
        # the survivor table is deterministic for the exact-answer handle,
        # so categorical draws from it induce the same law as per-draw
        # sparse sampling (equivalence covered in the sampler tests)
        box = OraclePolyBox(c)
        outcomes, probs = survivor_distribution(
            box, c, search_plan(box, c.k, 8, eps / (2 * 8), delta), None)
        idx = rng.choice(len(outcomes), size=draws_n, p=probs)
        emp = np.zeros(64)
        counts = np.bincount(idx, minlength=len(outcomes))
        for i, bits in enumerate(outcomes):
            emp[int(bits, 2)] = counts[i] / draws_n
        dist = l1_distance(emp, d.probs)
        worst = max(worst, dist)
        assert dist <= bound + allowance, dist
    elapsed = time.perf_counter() - start
    ok = worst <= bound + allowance
    report(4, "sparse simulator L1", ok,
           f"worst L1 {worst:.4f} <= {bound:.2f}+{allowance:.4f}, "
           f"10 instances, {elapsed:.1f}s")
    assert ok


def gof_instances():
    rng = np.random.default_rng(20250820)
    yield "hand", ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    yield "ghz3", exact_distribution(ghz_circuit(3))
    gates = synthesized_gates(drawn_tableau(4, rng))
    cliff = ProdCircuit(4, 4, ProductState.zero(4), gates)
    yield "clifford4", exact_distribution(cliff)
    biased = ProdCircuit(3, 3, ProductState(((0.0, 0.0, 0.5),) * 3), ())
    yield "biased3", exact_distribution(biased)


def test_cdf_sampler_gof():
    hand = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    assert cdf_outcomes_for_r(hand, [0.25, 0.5]) == ["01", "10"]
    start = time.perf_counter()
    pvals = {}
    for name, strong in gof_instances():
        rng = np.random.default_rng(int.from_bytes(name.encode(), "big"))
        draws = cdf_bitwise_sample(strong, 40, 100000, rng)
        pvals[name] = chi2_pvalue(draws, strong.probs)
        assert pvals[name] > 0.01, (name, pvals[name])
    elapsed = time.perf_counter() - start
    ok = all(p > 0.01 for p in pvals.values())
    detail = ", ".join(f"{k} p={v:.3f}" for k, v in pvals.items())
    report(5, "cdf sampler goodness of fit", ok,
           f"hand pairs exact; {detail}; {elapsed:.1f}s")
    assert ok


def test_chain_sampler_gof():
    start = time.perf_counter()
    pvals = {}
    for name, strong in gof_instances():
        rng = np.random.default_rng(int.from_bytes(name.encode(), "big") + 7)
        draws = chain_sample(strong, 100000, rng)
        pvals[name] = chi2_pvalue(draws, strong.probs)
        assert pvals[name] > 0.01, (name, pvals[name])
    elapsed = time.perf_counter() - start
    ok = all(p > 0.01 for p in pvals.values())
    detail = ", ".join(f"{k} p={v:.3f}" for k, v in pvals.items())
    report(6, "chain sampler goodness of fit", ok, f"{detail}; {elapsed:.1f}s")
    assert ok


def test_anticoncentration_moments():
    start = time.perf_counter()
    details = []
    ok = True
    for n, seed in ((3, 17), (4, 18), (5, 19)):
        px = clifford_output_probabilities(n, 2000, ProductState.zero(n), seed)
        for alpha in (0.25, 0.5, 0.75):
            frac = float((px >= alpha / 2 ** n).mean())
            bound = (1 - alpha) ** 2 / 2
            sigma = math.sqrt(bound * (1 - bound) / 2000)
            assert frac > bound - 3 * sigma, (n, alpha, frac, bound)
        mean = float(px.mean())
        se1 = float(px.std(ddof=1)) / math.sqrt(px.size)
        assert abs(mean - 2.0 ** -n) <= 3 * se1, (n, mean)
        sq = px ** 2
        mean2 = float(sq.mean())
        target2 = 2.0 / (2 ** n * (2 ** n + 1))
        se2 = float(sq.std(ddof=1)) / math.sqrt(px.size)
        assert abs(mean2 - target2) <= 3 * se2, (n, mean2, target2)
        details.append(f"n={n} mean={mean:.5f} mean2={mean2:.6f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 600
    report(7, "anticoncentration moments", ok,
           "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


def test_distinguishing_game():
    trials = 100000
    ghz = ghz_circuit(2)
    start = time.perf_counter()

    res = run_hypothesis_test(ghz, "exact", 0.05, trials, seed=2)
    p_exact = res["metrics"][0]["value"]
    s_exact = math.sqrt(0.25 / trials)
    assert abs(p_exact - 0.5) <= 3 * s_exact, p_exact

    res = run_hypothesis_test(ghz, "corrupted", 0.05, trials, seed=3)
    assert abs(res["metrics"][0]["bound"] - 0.6) < 1e-12
    p_cor = res["metrics"][0]["value"]
    s_cor = math.sqrt(0.6 * 0.4 / trials)
    assert abs(p_cor - 0.6) <= 3 * s_cor, p_cor

    res = run_hypothesis_test(ghz, "scheduled", 0.05, trials, seed=4)
    p_sched = res["metrics"][0]["value"]
    cap = 0.55 + 3 * math.sqrt(0.55 * 0.45 / trials)
    assert p_sched <= cap, p_sched

    partial = 0.0
    max_partial = 0.0
    for j in range(1, 10 ** 4 + 1):
        partial += bob_epsilon_schedule(j, 0.05)
        max_partial = max(max_partial, partial)
    assert max_partial <= 4 * 0.05

    elapsed = time.perf_counter() - start
    ok = True
    report(8, "distinguishing game", ok,
           f"exact {p_exact:.4f}~0.5, corrupted {p_cor:.4f}~0.6, "
           f"scheduled {p_sched:.4f}<= {cap:.4f}, schedule sum "
           f"{max_partial:.10f}<=0.2; {elapsed:.1f}s")
    assert ok


def test_cli_determinism(tmp_path):
    ghz = tmp_path / "ghz3.qc"
    ghz.write_text("family prod\nqubits 3\nmeasure 3\ngate H 0\n"
                   "gate CNOT 0 1\ngate CNOT 1 2\n")
    cases = [
        ["oracle", "--circuit", str(ghz)],
        ["estimate", "--circuit", str(ghz), "--pattern", "111",
         "--eps", "0.1", "--delta", "0.05", "--seed", "3"],
        ["sample", "--circuit", str(ghz), "--method", "sparse",
         "--count", "6", "--eps-prime", "0.13", "--seed", "3"],
        ["sample", "--circuit", str(ghz), "--method", "cdf",
         "--count", "6", "--seed", "3"],
        ["sample", "--circuit", str(ghz), "--method", "chain",
         "--count", "6", "--seed", "3"],
        ["experiment", "sparsity", "--circuit", str(ghz)],
        ["experiment", "distinguish", "--circuit", str(ghz),
         "--bob", "scheduled", "--trials", "1000", "--seed", "3"],
        ["experiment", "anticoncentration", "--n", "3", "--trials", "150",
         "--seed", "3"],
        ["selftest", "--seed", "3"],
    ]
    start = time.perf_counter()
    for argv in cases:
        outs = []
        for threads in ("1", "8", "1"):
            r = subprocess.run(
                [sys.executable, "-m", "bornbox.cli"] + argv
                + ["--threads", threads],
                capture_output=True, timeout=600)
            assert r.returncode == 0, (argv, r.stderr)
            outs.append(r.stdout)
        assert outs[0] == outs[1] == outs[2], argv
    elapsed = time.perf_counter() - start
    report(9, "cli determinism", True,
           f"{len(cases)} invocations byte-identical at 1 and 8 workers "
           f"(and on repeat); {elapsed:.1f}s")
