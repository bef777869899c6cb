"""Experiment drivers: anticoncentration survey and the distinguishing game."""

import math

import numpy as np
import pytest
from scipy import stats

from bornbox import experiments, oracle
from bornbox.circuits import ProdCircuit
from bornbox.experiments import (advantage_cap, anticoncentration_bound,
                                 anticoncentration_report,
                                 bob_epsilon_schedule,
                                 clifford_output_probabilities,
                                 corrupted_distribution,
                                 optimal_single_round_pcorrect,
                                 run_hypothesis_test,
                                 scheduled_bob_distribution, sparsity_profile)
from bornbox.oracle import (ExactDistribution, exact_distribution,
                            l1_distance, min_sparsity)
from bornbox.polybox import OraclePolyBox
from bornbox.samplers import (SparsityPolynomial, sparse_plan,
                              survivor_distribution)
from bornbox.stabcore import GateApp, ProductState

from helpers import ghz_circuit
from reference import (reference_clifford_output_probabilities,
                       transcript_l1)


def test_anticoncentration_bound():
    assert anticoncentration_bound(0.5) == 0.125
    assert anticoncentration_bound(0.25) == 0.28125
    assert anticoncentration_bound(1.0) == 0.0


def test_bob_epsilon_schedule():
    assert abs(bob_epsilon_schedule(1, 0.1) - 24 * 0.1 / math.pi ** 2) < 1e-15
    with pytest.raises(ValueError):
        bob_epsilon_schedule(0, 0.1)
    with pytest.raises(ValueError):
        bob_epsilon_schedule(1, 0.0)


def test_schedule_partial_sums_stay_under_budget():
    total = sum(bob_epsilon_schedule(j, 0.05) for j in range(1, 10 ** 4))
    assert total <= 4 * 0.05
    seq = [bob_epsilon_schedule(j, 0.05) for j in range(1, 11)]
    assert all(a > b for a, b in zip(seq, seq[1:]))


def test_anticoncentration_moments_small():
    d = anticoncentration_report(3, 800, (0.25, 0.5, 0.75),
                                 ProductState.zero(3), seed=17)
    assert d["experiment"] == "anticoncentration"
    assert d["parameters"] == {"n": 3, "trials": 800,
                               "alphas": [0.25, 0.5, 0.75], "seed": 17}
    metrics = d["metrics"]
    assert [m["name"] for m in metrics] == [
        "exceedance(alpha=0.25)", "exceedance(alpha=0.5)",
        "exceedance(alpha=0.75)", "mean_px", "mean_px_sq"]
    for m in metrics:
        assert list(m) == ["name", "value", "bound", "tolerance", "pass"]
        if m["pass"] is not None:
            assert m["pass"], m
    mean_px, mean_px_sq = metrics[-2]["value"], metrics[-1]["value"]
    se2 = math.sqrt(mean_px_sq / 800)
    assert abs(mean_px - 1 / 8) < 3 * se2 + 1e-3
    # a pure input: (purity + 1) / (d (d + 1)) with purity 1 and d = 8
    assert metrics[-1]["bound"] == 2 / 72


def test_output_probability_translation_invariance():
    # uniform Clifford conjugation makes p_x identically distributed in x
    px0 = clifford_output_probabilities(3, 400, ProductState.zero(3), 5)
    px5 = reference_clifford_output_probabilities(3, 400, ProductState.zero(3),
                                                  6, 5)
    assert stats.ks_2samp(px0, px5).pvalue > 0.01


def test_output_probabilities_thread_invariant():
    pa = clifford_output_probabilities(3, 300, ProductState.zero(3), 9,
                                       threads=1)
    pb = clifford_output_probabilities(3, 300, ProductState.zero(3), 9,
                                       threads=8)
    assert np.array_equal(pa, pb)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, bloch, trials, batch, sweeps", [
    # 2321 trials are 10 chunks: groups of 4, 4 and 2 at 4096 amplitudes
    (2, (0.0, 0.0, 1.0), 2321, 4096, {1: 3, 2: 3}),
    # two mixed qubits of three: 32 amplitudes a list, one chunk a group
    (3, (0.3, -0.4, 0.5), 600, 8192, {1: 3, 2: 3}),
    # at the default cap the two chunks are one group, or one per thread
    (3, (0.0, 0.0, 1.0), 300, oracle._BATCH_AMPLITUDES, {1: 1, 2: 2}),
])
def test_grouped_trials_equal_the_per_chunk_reference(
        monkeypatch, threads, n, bloch, trials, batch, sweeps):
    state = ProductState((bloch, (0.0, 0.0, 1.0)) + (bloch,) * (n - 2))
    monkeypatch.setattr(oracle, "_BATCH_AMPLITUDES", batch)
    want = reference_clifford_output_probabilities(n, trials, state, 7)
    swept = []
    sweep = experiments.synthesis_steps

    def counting(n, xs, *words):
        swept.append(len(xs))
        return sweep(n, xs, *words)
    monkeypatch.setattr(experiments, "synthesis_steps", counting)
    got = clifford_output_probabilities(n, trials, state, 7, threads)
    assert (got == want).all()
    assert len(swept) == sweeps[threads] and sum(swept) == trials


def test_anticoncentration_validation():
    with pytest.raises(ValueError):
        anticoncentration_report(3, 50, (0.5,), ProductState.zero(3), seed=0)
    with pytest.raises(ValueError):
        clifford_output_probabilities(3, 0, ProductState.zero(3), 0)


@pytest.mark.parametrize("n, state_n", [(3, 2), (2, 3)],
                         ids=["smaller", "larger"])
@pytest.mark.parametrize("run", [
    lambda n, state: clifford_output_probabilities(n, 10, state, 0),
    lambda n, state: anticoncentration_report(n, 100, (0.5,), state, 0),
], ids=["output-probabilities", "report"])
def test_a_state_of_another_size_is_refused_before_any_draw(monkeypatch, run,
                                                            n, state_n):
    """A gate on qubit 2 of a two-qubit state would index another trial's
    cells, so the p_0 values would be garbage (2.914 at n = 3), and the
    report of a three-qubit state at n = 2 would read a pass."""
    def never(*args):
        raise AssertionError("drew or built for a refused state")
    monkeypatch.setattr(experiments, "random_clifford_words", never)
    monkeypatch.setattr(experiments, "prod_probabilities_many", never)
    with pytest.raises(ValueError, match=f"^the input state has {state_n} "
                                         f"qubits, not n = {n}$"):
        run(n, ProductState.zero(state_n))


def test_sparsity_profile():
    ghz = ghz_circuit(2)
    prof = sparsity_profile(ghz, [0.0, 0.5, 1.9, 2.0])
    assert [t for _, t in prof] == [2, 2, 1, 1]
    u = ProdCircuit(2, 2, ProductState.zero(2),
                    (GateApp("H", (0,)), GateApp("H", (1,))))
    prof = sparsity_profile(u, [0.0, 0.5, 1.0])
    assert [t for _, t in prof] == [4, 3, 2]


def test_optimal_single_round_pcorrect():
    d = exact_distribution(ghz_circuit(2))
    assert optimal_single_round_pcorrect(d, d) == 0.5
    pm0 = ExactDistribution(1, np.array([1.0, 0.0]))
    pm1 = ExactDistribution(1, np.array([0.0, 1.0]))
    assert optimal_single_round_pcorrect(pm0, pm1) == 1.0


def test_corrupted_distribution():
    d = exact_distribution(ghz_circuit(2))
    dc = corrupted_distribution(d, 0.4)
    assert abs(l1_distance(d, dc) - 0.4) < 1e-15
    assert abs(optimal_single_round_pcorrect(d, dc) - 0.6) < 1e-15
    with pytest.raises(ValueError):
        corrupted_distribution(d, -0.1)
    with pytest.raises(ValueError):
        corrupted_distribution(d, 2.5)
    with pytest.raises(ValueError):
        corrupted_distribution(ExactDistribution(1, np.array([0.5, 0.5])), 1.5)
    with pytest.raises(ValueError, match="at least two outcomes"):
        corrupted_distribution(ExactDistribution(0, np.array([1.0])), 0.4)


def support(box: OraclePolyBox) -> SparsityPolynomial:
    """The scheduled imposter's sparsity: the support size, which
    ``run_hypothesis_test`` computes once per run."""
    return SparsityPolynomial.constant(min_sparsity(box.dist, 0.0))


def test_scheduled_bob_matches_sparse_stabilizer_target(work):
    box = OraclePolyBox(ghz_circuit(2))
    sb = scheduled_bob_distribution(box, 1, 0.05, support(box))
    assert work.builds() == ["oracle.prod_probabilities_many"]
    assert l1_distance(sb, exact_distribution(box.circuit)) < 1e-12


def test_scheduled_bob_respects_budget_rounds():
    ghz = ghz_circuit(2)
    d = exact_distribution(ghz)
    box = OraclePolyBox(ghz)
    for j in (1, 2, 5):
        sb = scheduled_bob_distribution(box, j, 0.05, support(box))
        assert l1_distance(sb, d) <= bob_epsilon_schedule(j, 0.05) + 1e-12


def test_scheduled_bob_undersized_sparsity_truncates():
    # forcing t=1 on a 2-sparse target truncates to the single heaviest
    ghz = ghz_circuit(2)
    box = OraclePolyBox(ghz)
    plan = sparse_plan(box, SparsityPolynomial.constant(1), ghz.k,
                       bob_epsilon_schedule(1, 0.05))
    assert plan.t == 1
    outcomes, probs = survivor_distribution(box, ghz, plan, None)
    assert len(outcomes) == 1
    assert list(probs) == [1.0]


def test_scheduled_bob_refuses_a_first_round_budget_above_13_6():
    # eps_1 = 24*delta/pi^2 exceeds 13/6 once delta > 13*pi^2/144
    box = OraclePolyBox(ghz_circuit(2))
    limit = 13 * math.pi ** 2 / 144
    scheduled_bob_distribution(box, 1, limit * (1 - 1e-9), support(box))
    with pytest.raises(ValueError, match="eps_prime"):
        scheduled_bob_distribution(box, 1, limit * (1 + 1e-6), support(box))


def test_scheduled_bob_names_delta_when_its_budget_underflows():
    # eps_1 = 24*delta/pi^2 makes k/eps overflow, so sp(k/eps) is not finite
    box = OraclePolyBox(ghz_circuit(2))
    with pytest.raises(ValueError, match=r"^delta=1e-320 .* in round 1: "
                       r"eps_prime=.* non-finite sparsity bound"):
        scheduled_bob_distribution(box, 1, 1e-320, support(box))
    with pytest.raises(ValueError, match=r"^delta=1e-310 .* in round 3: "):
        scheduled_bob_distribution(box, 3, 1e-310, support(box))


def test_hypothesis_test_refuses_delta_above_the_schedule_limit(work):
    work.stop = True
    limit = 13 * math.pi ** 2 / 144
    with pytest.raises(ValueError, match=r"delta must be at most "
                       r"13\*pi\^2/144 = 0\.891006 .* got 0\.9$"):
        run_hypothesis_test(ghz_circuit(2), "scheduled", 0.9, 1000, seed=0)
    with pytest.raises(ValueError, match="delta"):
        run_hypothesis_test(ghz_circuit(2), "scheduled", limit * (1 + 1e-9),
                            1000, seed=0)
    work.stop = False
    run_hypothesis_test(ghz_circuit(2), "scheduled", limit, 1000, seed=0)


def test_transcript_l1():
    ghz = ghz_circuit(2)
    d = exact_distribution(ghz)
    assert transcript_l1([d], [d]) == 0.0
    box = OraclePolyBox(ghz)
    bobs = [scheduled_bob_distribution(box, j, 0.05, support(box))
            for j in (1, 2)]
    budget = sum(bob_epsilon_schedule(j, 0.05) for j in (1, 2))
    assert transcript_l1([d, d], bobs) <= budget
    with pytest.raises(ValueError):
        transcript_l1([d], [d, d])


def test_hypothesis_exact_bob_is_coin_flip():
    d = run_hypothesis_test(ghz_circuit(2), "exact", 0.05, 20000, seed=2)
    assert d["experiment"] == "distinguish"
    assert d["parameters"] == {"bob_mode": "exact", "delta": 0.05,
                               "trials": 20000, "rounds": 1, "seed": 2}
    [metric] = d["metrics"]
    assert list(metric) == ["name", "value", "bound", "tolerance", "pass"]
    assert metric["name"] == "p_correct"
    assert metric["bound"] == 0.5
    assert abs(metric["value"] - 0.5) <= 3 * math.sqrt(0.25 / 20000)
    assert metric["pass"]


def test_hypothesis_corrupted_bob():
    [metric] = run_hypothesis_test(ghz_circuit(2), "corrupted", 0.05, 20000,
                                   seed=3)["metrics"]
    assert abs(metric["bound"] - 0.6) < 1e-12
    assert abs(metric["value"] - 0.6) <= 3 * math.sqrt(0.24 / 20000)


def test_hypothesis_scheduled_bob_capped():
    d = run_hypothesis_test(ghz_circuit(2), "scheduled", 0.05, 20000, seed=4)
    p_correct = d["metrics"][0]["value"]
    assert p_correct <= 0.55 + 3 * math.sqrt(0.55 * 0.45 / 20000)
    names = [m["name"] for m in d["metrics"]]
    assert names == ["p_correct", "advantage_cap"]
    assert d["metrics"][1]["bound"] == 0.55
    assert d["metrics"][1]["pass"]
    assert d["metrics"][1] == advantage_cap(p_correct, 20000, 0.05)


def test_advantage_cap_uses_the_standard_error_of_p_correct():
    cap = advantage_cap(0.6, 10000, 0.05)
    assert cap == {"name": "advantage_cap", "value": 0.6, "bound": 0.55,
                   "tolerance": 3.0 * math.sqrt(0.6 * 0.4 / 10000),
                   "pass": False}
    assert advantage_cap(0.56, 10000, 0.05)["pass"]


def test_scheduled_rounds_share_one_oracle_build(work):
    run_hypothesis_test(ghz_circuit(3), "scheduled", 0.05, 1000, seed=4,
                        rounds=3)
    assert work.builds() == ["oracle.prod_probabilities_many"]


def test_hypothesis_multi_round_improves():
    [metric] = run_hypothesis_test(ghz_circuit(2), "corrupted", 0.05, 20000,
                                   seed=5, rounds=3)["metrics"]
    assert metric["bound"] is None and metric["pass"] is None
    assert metric["value"] > 0.6


def test_hypothesis_validation(work):
    ghz = ghz_circuit(2)
    with pytest.raises(ValueError):
        run_hypothesis_test(ghz, "exact", 0.05, 500, seed=0)
    with pytest.raises(ValueError):
        run_hypothesis_test(ghz, "exact", 0.05, 1000, seed=0, rounds=0)
    work.stop = True
    with pytest.raises(ValueError, match="^unknown bob_mode 'weird'$"):
        run_hypothesis_test(ghz, "weird", 0.05, 1000, seed=0)
    for mode in ("exact", "corrupted", "scheduled"):
        for delta in (-1.0, 0.0, -0.0):
            with pytest.raises(ValueError,
                               match=r"^delta must be positive, got (-?0|-1)$"):
                run_hypothesis_test(ghz, mode, delta, 1000, seed=0)


def test_hypothesis_seed_determinism():
    a = run_hypothesis_test(ghz_circuit(2), "corrupted", 0.05, 1000, seed=11)
    b = run_hypothesis_test(ghz_circuit(2), "corrupted", 0.05, 1000, seed=11)
    assert a == b
