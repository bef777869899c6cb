"""Experiment drivers: anticoncentration survey and the distinguishing game."""

import math

import numpy as np
import pytest
from scipy import stats

from bornbox import experiments, polybox
from bornbox.circuits import ProdCircuit
from bornbox.experiments import (AntiConcentrationReport,
                                 anticoncentration_bound,
                                 anticoncentration_report,
                                 bob_epsilon_schedule,
                                 clifford_output_probabilities,
                                 corrupted_distribution,
                                 optimal_single_round_pcorrect,
                                 run_hypothesis_test,
                                 scheduled_bob_distribution, sparsity_profile)
from bornbox.oracle import ExactDistribution, exact_distribution, l1_distance
from bornbox.polybox import OraclePolyBox
from bornbox.samplers import (SparsityPolynomial, sparse_budget,
                              survivor_distribution)
from bornbox.stabcore import GateApp, ProductState

from helpers import ghz_circuit
from reference import transcript_l1


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
    rep = anticoncentration_report(3, 800, (0.25, 0.5, 0.75),
                                   ProductState.zero(3), seed=17)
    assert rep.n == 3
    assert rep.trials == 800
    for m in rep.metrics():
        if m["pass"] is not None:
            assert m["pass"], m
    se2 = math.sqrt(rep.mean_px_sq / 800)
    assert abs(rep.mean_px - 1 / 8) < 3 * se2 + 1e-3
    d = rep.report_dict(seed=17)
    assert d["experiment"] == "anticoncentration"
    assert d["parameters"]["seed"] == 17
    assert len(d["metrics"]) == len(rep.alphas) + 2


def test_output_probability_translation_invariance():
    # uniform Clifford conjugation makes p_x identically distributed in x
    px0 = clifford_output_probabilities(3, 400, ProductState.zero(3), 5, 0)
    px5 = clifford_output_probabilities(3, 400, ProductState.zero(3), 6, 5)
    assert stats.ks_2samp(px0, px5).pvalue > 0.01


def test_output_probabilities_thread_invariant():
    pa = clifford_output_probabilities(3, 300, ProductState.zero(3), 9, 0,
                                       threads=1)
    pb = clifford_output_probabilities(3, 300, ProductState.zero(3), 9, 0,
                                       threads=8)
    assert np.array_equal(pa, pb)


def test_anticoncentration_validation():
    with pytest.raises(ValueError):
        anticoncentration_report(3, 50, (0.5,), ProductState.zero(3), seed=0)
    with pytest.raises(ValueError):
        clifford_output_probabilities(3, 0, ProductState.zero(3), 0)
    with pytest.raises(ValueError):
        AntiConcentrationReport(3, 100, (0.5,), (1.5,), (0.125,), 0.1, 0.01)


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


def test_scheduled_bob_matches_sparse_stabilizer_target(monkeypatch):
    ghz = ghz_circuit(2)
    d = exact_distribution(ghz)
    builds = []

    def counting(circuit):
        builds.append(circuit)
        return exact_distribution(circuit)
    for module in (experiments, polybox):
        monkeypatch.setattr(module, "exact_distribution", counting)
    sb = scheduled_bob_distribution(OraclePolyBox(ghz), 1, 0.05)
    assert l1_distance(sb, d) < 1e-12
    assert len(builds) == 1


def test_scheduled_bob_respects_budget_rounds():
    ghz = ghz_circuit(2)
    d = exact_distribution(ghz)
    box = OraclePolyBox(ghz)
    for j in (1, 2, 5):
        sb = scheduled_bob_distribution(box, j, 0.05)
        assert l1_distance(sb, d) <= bob_epsilon_schedule(j, 0.05) + 1e-12


def test_scheduled_bob_undersized_sparsity_truncates():
    # forcing t=1 on a 2-sparse target truncates to the single heaviest
    ghz = ghz_circuit(2)
    t, eps = sparse_budget(SparsityPolynomial.constant(1), ghz.k,
                           bob_epsilon_schedule(1, 0.05))
    assert t == 1
    outcomes, probs = survivor_distribution(OraclePolyBox(ghz), ghz, t, eps,
                                            eps, None)
    assert len(outcomes) == 1
    assert list(probs) == [1.0]


def test_scheduled_bob_refuses_a_first_round_budget_above_13_6():
    # eps_1 = 24*delta/pi^2 exceeds 13/6 once delta > 13*pi^2/144
    box = OraclePolyBox(ghz_circuit(2))
    limit = 13 * math.pi ** 2 / 144
    scheduled_bob_distribution(box, 1, limit * (1 - 1e-9))
    with pytest.raises(ValueError, match="eps_prime"):
        scheduled_bob_distribution(box, 1, limit * (1 + 1e-6))


def test_transcript_l1():
    ghz = ghz_circuit(2)
    d = exact_distribution(ghz)
    assert transcript_l1([d], [d]) == 0.0
    box = OraclePolyBox(ghz)
    bobs = [scheduled_bob_distribution(box, j, 0.05) for j in (1, 2)]
    budget = sum(bob_epsilon_schedule(j, 0.05) for j in (1, 2))
    assert transcript_l1([d, d], bobs) <= budget
    with pytest.raises(ValueError):
        transcript_l1([d], [d, d])


def test_hypothesis_exact_bob_is_coin_flip():
    res = run_hypothesis_test(ghz_circuit(2), "exact", 0.05, 20000, seed=2)
    assert res.analytic == 0.5
    assert abs(res.p_correct - 0.5) <= 3 * math.sqrt(0.25 / 20000)
    assert res.bob_mode == "exact"


def test_hypothesis_corrupted_bob():
    res = run_hypothesis_test(ghz_circuit(2), "corrupted", 0.05, 20000, seed=3)
    assert abs(res.analytic - 0.6) < 1e-12
    assert abs(res.p_correct - 0.6) <= 3 * math.sqrt(0.24 / 20000)


def test_hypothesis_scheduled_bob_capped():
    res = run_hypothesis_test(ghz_circuit(2), "scheduled", 0.05, 20000, seed=4)
    assert res.p_correct <= 0.55 + 3 * math.sqrt(0.55 * 0.45 / 20000)
    d = res.report_dict(seed=4)
    names = [m["name"] for m in d["metrics"]]
    assert names == ["p_correct", "advantage_cap"]
    assert d["metrics"][1]["bound"] == 0.55
    assert d["metrics"][1]["pass"]


def test_scheduled_rounds_share_one_oracle_build(monkeypatch):
    builds = []

    def counting(circuit):
        builds.append(circuit)
        return exact_distribution(circuit)
    for module in (experiments, polybox):
        monkeypatch.setattr(module, "exact_distribution", counting)
    run_hypothesis_test(ghz_circuit(3), "scheduled", 0.05, 1000, seed=4,
                        rounds=3)
    assert len(builds) == 1


def test_hypothesis_multi_round_improves():
    res = run_hypothesis_test(ghz_circuit(2), "corrupted", 0.05, 20000,
                              seed=5, rounds=3)
    assert res.analytic is None
    assert res.p_correct > 0.6


def test_hypothesis_validation():
    ghz = ghz_circuit(2)
    with pytest.raises(ValueError):
        run_hypothesis_test(ghz, "exact", 0.05, 500, seed=0)
    with pytest.raises(ValueError):
        run_hypothesis_test(ghz, "exact", 0.05, 1000, seed=0, rounds=0)
    with pytest.raises(ValueError):
        run_hypothesis_test(ghz, "weird", 0.05, 1000, seed=0)
    from bornbox.experiments import HypothesisTestResult
    with pytest.raises(ValueError):
        HypothesisTestResult(1000, 1.5, None, 0.05, 1, "exact")


def test_hypothesis_seed_determinism():
    a = run_hypothesis_test(ghz_circuit(2), "corrupted", 0.05, 1000, seed=11)
    b = run_hypothesis_test(ghz_circuit(2), "corrupted", 0.05, 1000, seed=11)
    assert a.p_correct == b.p_correct
