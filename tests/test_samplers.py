"""Samplers built over the poly-box interface."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bornbox import samplers
from bornbox.circuits import OutcomePattern, ProdCircuit
from bornbox.oracle import (ExactDistribution, exact_distribution, l1_distance,
                            min_sparsity)
from bornbox.polybox import (Estimate, IqpPolyBox, OraclePolyBox, ProdPolyBox,
                             hoeffding_samples)
from bornbox.samplers import (SparsityPolynomial, cdf_bitwise_sample,
                              cdf_outcome_for_r, chain_outcome,
                              epsilon_simulate, heavy_prefixes,
                              sparse_budget, survivor_cap,
                              survivor_distribution)
from bornbox.stabcore import GateApp, ProductState

from helpers import (NoSpawnRng, empirical_distribution, ghz_circuit,
                     random_bloch, random_iqp_circuit, random_prod_circuit)


class ZeroBox:
    deterministic = True

    def estimate(self, pattern, eps, delta=0.0, rng=None):
        return Estimate(0.0, eps, 0.0, 1)

    def estimate_many(self, patterns, eps, delta=0.0, rng=None):
        return [self.estimate(p, eps, delta, rng) for p in patterns]


def point_circuit():
    return ProdCircuit(2, 2, ProductState.zero(2), (GateApp("X", (0,)),))


def test_sparsity_polynomial():
    sp = SparsityPolynomial((1.0, 0.5, 0.25))
    assert sp(2.0) == 3.0
    assert SparsityPolynomial.constant(8)(123.0) == 8.0
    with pytest.raises(ValueError):
        SparsityPolynomial(())
    with pytest.raises(ValueError):
        SparsityPolynomial((1.0, -0.5))
    with pytest.raises(ValueError):
        sp(-1.0)
    for coeffs in ((math.nan,), (1.0, math.inf), (-math.inf,)):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SparsityPolynomial(coeffs)


def test_survivor_cap():
    assert survivor_cap(0.25) == 18
    assert survivor_cap(1.0) == 6
    # 2/threshold is finite at 2e-308 and 1.5e-308, but twice it is not
    for threshold in (0.0, 5e-324, 1e-308, 1.5e-308, 2e-308):
        with pytest.raises(ValueError, match="finite survivor cap"):
            survivor_cap(threshold)
    assert survivor_cap(2.3e-308) == 2 * math.ceil(2 / 2.3e-308) + 2


def test_search_budget_refuses_an_infinite_union_bound():
    """The cap at threshold 5e-308 is finite, but 2*k*cap queries are not,
    which would leave every query a confidence of 0."""
    ghz3 = ghz_circuit(3)
    for box in (OraclePolyBox(ghz3), ProdPolyBox(ghz3)):
        with pytest.raises(ValueError, match="threshold 5e-308 is too small "
                           "for a finite union bound over 3 levels"):
            samplers._search_budget(box, 3, 5e-308, 0.01)
    cap, per_eps, per_delta, exact_levels = samplers._search_budget(
        ProdPolyBox(ghz3), 3, 0.25, 0.2)
    assert (cap, per_eps, per_delta) == (18, 0.125, 0.2 / (2.0 * 3 * 18))
    assert exact_levels == 3


def test_heavy_prefixes_ghz_sampling_estimator():
    ghz3 = ghz_circuit(3)
    est = ProdPolyBox(ghz3)
    surv = heavy_prefixes(est, ghz3, 0.25, 0.2, np.random.default_rng(42))
    assert sorted(p for p, _ in surv) == ["000", "111"]
    for _, v in surv:
        assert abs(v - 0.5) <= 0.25 / 2


class CountingBox(ProdPolyBox):
    """Records the size and route of every batch; a per-candidate query
    fails."""

    def __init__(self, circuit):
        super().__init__(circuit)
        self.batches = []
        self.routes = []

    def estimate(self, pattern, eps, delta, rng=None):
        raise AssertionError("per-candidate estimate call")

    def estimate_many(self, patterns, eps, delta, rng=None):
        self.batches.append(len(patterns))
        self.routes.append("sampled")
        return super().estimate_many(patterns, eps, delta, rng)

    def exact_many(self, patterns):
        self.batches.append(len(patterns))
        self.routes.append("exact")
        return super().exact_many(patterns)


def test_heavy_prefixes_one_batch_per_level():
    ghz3 = ghz_circuit(3)
    box = CountingBox(ghz3)
    # every level is exact here, so the search draws nothing
    surv = heavy_prefixes(box, ghz3, 0.25, 0.2, NoSpawnRng())
    assert sorted(p for p, _ in surv) == ["000", "111"]
    # level 1 scores 0 and 1; then both survive and each has two extensions
    assert box.batches == [2, 4, 4]
    assert box.routes == ["exact"] * 3
    assert [v for _, v in surv] == [0.5, 0.5]


def test_heavy_prefixes_samples_past_the_crossover():
    point6 = ProdCircuit(6, 6, ProductState.zero(6),
                         (GateApp("X", (0,)), GateApp("X", (3,))))
    threshold, delta = 0.9, 0.5
    # one query's Hoeffding count lies in [2^5, 2^6): levels 1-5 enumerate
    # their 2^level selections, level 6 samples
    count = hoeffding_samples(threshold / 2,
                              delta / (2 * 6 * survivor_cap(threshold)))
    assert 2 ** 5 <= count < 2 ** 6
    box = CountingBox(point6)
    surv = heavy_prefixes(box, point6, threshold, delta,
                          np.random.default_rng(0))
    assert surv == [("100100", 1.0)]
    assert box.batches == [2] * 6
    assert box.routes == ["exact"] * 5 + ["sampled"]


def test_heavy_prefixes_stay_exact_when_a_query_eps_squares_to_zero():
    # one sampled query at precision threshold/2 would need inf draws, but
    # every level of GHZ-3 is enumerated, so the search draws nothing
    ghz3 = ghz_circuit(3)
    box = CountingBox(ghz3)
    surv = heavy_prefixes(box, ghz3, 1e-163, 0.01, NoSpawnRng())
    assert sorted(p for p, _ in surv) == ["000", "111"]
    assert box.routes == ["exact"] * 3


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(("prod", "mixed-prod", "iqp")),
       n=st.integers(1, 5), eps=st.sampled_from((0.01, 0.1, 0.125, 1 / 6)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_all_exact_search_meets_the_l1_bound(family, n, eps, seed):
    """With t = min_sparsity(dist, eps) and every level exact, the survivor
    table is within L1 12*eps of the target, with no failure chance."""
    rng = np.random.default_rng(seed)
    c = (random_iqp_circuit(rng, n, n + 2) if family == "iqp" else
         random_prod_circuit(rng, n, 3 * n, mixed=family == "mixed-prod"))
    dist = exact_distribution(c)
    t = min_sparsity(dist, eps)
    box = IqpPolyBox(c) if family == "iqp" else ProdPolyBox(c)
    outcomes, probs = survivor_distribution(box, c, t, eps, eps, NoSpawnRng())
    table = np.zeros(1 << c.k)
    table[[int(o, 2) for o in outcomes]] = probs
    assert l1_distance(table, dist.probs) <= 12 * eps


def sample_past_level_one(monkeypatch):
    """Caps the exact levels of every heavy-prefix search at 1, so that each
    later level samples from one shared draw matrix."""
    budget = samplers._search_budget

    def capped(est, k, threshold, delta):
        cap, per_eps, per_delta, exact_levels = budget(est, k, threshold,
                                                       delta)
        return cap, per_eps, per_delta, min(exact_levels, 1)
    monkeypatch.setattr(samplers, "_search_budget", capped)


def sparse_circuit(rng: np.random.Generator, family: str):
    """A circuit on 4-6 qubits with at most 4 outcomes: up to two H's (one
    when a qubit is mixed) before CNOT/CZ/S/X/Z on |0...0>, one random mixed
    qubit for mixed-prod, or an X-program of two rows."""
    n = int(rng.integers(4, 7))
    if family == "iqp":
        return random_iqp_circuit(rng, n, 2)
    bloch = [(0.0, 0.0, 1.0)] * n
    heads = 2
    if family == "mixed-prod":
        bloch[int(rng.integers(n))] = random_bloch(rng)
        heads = 1
    gates = [GateApp("H", (int(q),)) for q in
             rng.choice(n, size=int(rng.integers(0, heads + 1)), replace=False)]
    for _ in range(2 * n):
        name = str(rng.choice(["CNOT", "CZ", "S", "X", "Z"]))
        qubits = rng.choice(n, size=2 if name in ("CNOT", "CZ") else 1,
                            replace=False)
        gates.append(GateApp(name, tuple(int(q) for q in qubits)))
    return ProdCircuit(n, n, ProductState(tuple(bloch)), tuple(gates))


@pytest.mark.parametrize("family", ["prod", "mixed-prod", "iqp"])
def test_sampled_search_meets_the_l1_bound(family, monkeypatch):
    """With t = min_sparsity(dist, eps) and every level past the first
    sampled, survivor tables more than 12*eps from the target in L1 occur
    at a rate within delta (3 sigma over the searches).  eps = 0.08 keeps
    12*eps below 1, the L1 of a table that holds half the wrong mass."""
    sample_past_level_one(monkeypatch)
    eps, delta, searches = 0.08, 0.05, 8
    rng = np.random.default_rng(20261018)
    far = 0
    for _ in range(searches):
        c = sparse_circuit(rng, family)
        dist = exact_distribution(c)
        box = IqpPolyBox(c) if family == "iqp" else ProdPolyBox(c)
        outcomes, probs = survivor_distribution(
            box, c, min_sparsity(dist, eps), eps, delta, rng)
        table = np.zeros(1 << c.k)
        table[[int(o, 2) for o in outcomes]] = probs
        far += l1_distance(table, dist.probs) > 12 * eps
    sigma = math.sqrt(delta * (1 - delta) / searches)
    assert far / searches <= delta + 3 * sigma


def test_heavy_prefixes_point_mass():
    point = point_circuit()
    surv = heavy_prefixes(OraclePolyBox(point), point, 0.25, 0.0)
    assert surv == [("10", 1.0)]


def test_heavy_prefixes_validation_and_empty():
    ghz3 = ghz_circuit(3)
    with pytest.raises(ValueError):
        heavy_prefixes(OraclePolyBox(ghz3), ghz3, 0.0, 0.1)
    with pytest.raises(ValueError):
        heavy_prefixes(OraclePolyBox(ghz3), ghz3, 1.0, 0.1)
    assert heavy_prefixes(ZeroBox(), ghz3, 0.5, 0.0) == []


def test_survivor_distribution():
    ghz3 = ghz_circuit(3)
    outcomes, probs = survivor_distribution(OraclePolyBox(ghz3), ghz3, 2,
                                            0.1, 0.0, None)
    assert outcomes == ["000", "111"]
    assert np.allclose(probs, [0.5, 0.5])
    with pytest.warns(UserWarning, match="sparsity promise"):
        outcomes, probs = survivor_distribution(ZeroBox(), ghz3, 2, 0.1, 0.0,
                                                None)
    assert outcomes == ["000"]
    assert list(probs) == [1.0]


def test_sparse_budget_splits_and_refuses():
    sp = SparsityPolynomial((1.0, 0.5))
    t, eps = sparse_budget(sp, 3, 1.3)
    assert eps == 0.1 and t == math.ceil(sp(30.0)) == 16
    assert sparse_budget(sp, 3, 13 / 6)[1] == pytest.approx(1 / 6)
    for eps_prime in (0.0, -0.1, 13 / 6 + 1e-6, 3.0):
        with pytest.raises(ValueError, match="eps_prime"):
            sparse_budget(sp, 3, eps_prime)
    # k/eps overflows, and Horner's 0 * inf makes even a constant nan
    with pytest.raises(ValueError, match="eps_prime=.* gives a non-finite"):
        sparse_budget(SparsityPolynomial.constant(2), 5, 1e-320)
    # refused before any search, on both paths and at any count
    ghz3 = ghz_circuit(3)
    for box in (OraclePolyBox(ghz3), ProdPolyBox(ghz3)):
        for count in (0, 2):
            with pytest.raises(ValueError, match="eps_prime"):
                epsilon_simulate(box, SparsityPolynomial.constant(2), ghz3,
                                 3.0, count, np.random.default_rng(0))


def test_sparse_sample_point_mass():
    point = point_circuit()
    outcomes, probs = survivor_distribution(OraclePolyBox(point), point, 1,
                                            0.1, 0.01, np.random.default_rng(0))
    assert outcomes == ["10"] and list(probs) == [1.0]


def test_sparse_sample_validation():
    point = point_circuit()
    box = OraclePolyBox(point)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        survivor_distribution(box, point, 0, 0.1, 0.01, rng)
    with pytest.raises(ValueError):
        survivor_distribution(box, point, 1, 0.3, 0.01, rng)
    with pytest.raises(ValueError):
        survivor_distribution(box, point, 1, 0.0, 0.01, rng)


def test_sparse_sample_ghz_l1():
    ghz3 = ghz_circuit(3)
    dist = exact_distribution(ghz3)
    rng = np.random.default_rng(7)
    outcomes, probs = survivor_distribution(OraclePolyBox(ghz3), ghz3, 2,
                                            0.05, 0.01, rng)
    draws = [outcomes[i] for i in rng.choice(len(outcomes), size=2000, p=probs)]
    emp = empirical_distribution(draws, 3)
    assert l1_distance(emp, dist.probs) <= 12 * 0.05 + 0.01


def test_epsilon_simulate_per_draw_ghz_l1(monkeypatch):
    """Each draw runs its own search, whose second level is sampled; a
    table that puts half its weight off the support of GHZ-2 is 1 away
    in L1, beyond eps_prime."""
    sample_past_level_one(monkeypatch)
    ghz2 = ghz_circuit(2)
    box = CountingBox(ghz2)
    eps_prime, count = 0.9, 60
    draws = epsilon_simulate(box, SparsityPolynomial.constant(2), ghz2,
                             eps_prime, count, np.random.default_rng(7))
    assert box.routes == ["exact", "sampled"] * count
    emp = empirical_distribution(draws, 2)
    assert l1_distance(emp, exact_distribution(ghz2).probs) <= eps_prime


def test_sparse_sample_empty_survivors_warns():
    ghz3 = ghz_circuit(3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes, probs = survivor_distribution(ZeroBox(), ghz3, 2, 0.1, 0.01,
                                                np.random.default_rng(0))
    assert outcomes == ["000"] and list(probs) == [1.0]
    assert caught and "sparsity promise" in str(caught[0].message)


def test_epsilon_simulate_budget_and_support():
    ghz3 = ghz_circuit(3)
    dist = exact_distribution(ghz3)
    eps_prime = 0.26
    assert abs(12 * (eps_prime / 13) + eps_prime / 13 - eps_prime) < 1e-15
    outs = epsilon_simulate(OraclePolyBox(ghz3), SparsityPolynomial.constant(2),
                            ghz3, eps_prime, 50000, np.random.default_rng(3))
    assert set(outs) == {"000", "111"}
    emp = empirical_distribution(outs, 3)
    assert l1_distance(emp, dist.probs) <= eps_prime
    outs2 = epsilon_simulate(OraclePolyBox(ghz3), SparsityPolynomial.constant(2),
                             ghz3, eps_prime, 50000, np.random.default_rng(3))
    assert outs == outs2


def test_epsilon_simulate_validation_and_empty():
    ghz3 = ghz_circuit(3)
    sp = SparsityPolynomial.constant(2)
    with pytest.raises(ValueError):
        epsilon_simulate(OraclePolyBox(ghz3), sp, ghz3, 0.0, 1,
                         np.random.default_rng(0))
    with pytest.raises(ValueError):
        epsilon_simulate(OraclePolyBox(ghz3), sp, ghz3, 0.1, -1,
                         np.random.default_rng(0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outs = epsilon_simulate(ZeroBox(), sp, ghz3, 0.26, 5,
                                np.random.default_rng(0))
    assert outs == ["000"] * 5
    assert caught


def test_exact_prefix_estimator():
    hand = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    assert hand.k == 2
    assert abs(hand.prefix_probability("0") - 0.3) < 1e-15
    assert abs(hand.prefix_probability("1") - 0.7) < 1e-15
    assert abs(hand.prefix_probability("01") - 0.2) < 1e-15
    assert abs(hand.prefix_probability("11") - 0.4) < 1e-15
    with pytest.raises(ValueError):
        hand.prefix_probability("")
    with pytest.raises(ValueError):
        hand.prefix_probability("010")
    with pytest.raises(ValueError):
        hand.prefix_probability("0x")


def test_cdf_hand_pairs():
    hand = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    assert cdf_outcome_for_r(hand, 2, 0.25) == "01"
    assert cdf_outcome_for_r(hand, 2, 0.5) == "10"
    assert cdf_outcome_for_r(hand, 2, 0.0) == "00"
    assert cdf_outcome_for_r(hand, 2, 0.95) == "11"


def test_cdf_partition_matches_cumulative_cells():
    hand = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    for r in np.arange(0.005, 1.0, 0.01):
        cell = 0 if r < 0.1 else 1 if r < 0.3 else 2 if r < 0.6 else 3
        assert cdf_outcome_for_r(hand, 2, float(r)) == format(cell, "02b")


@pytest.mark.parametrize("m", [1, 7, 40, 53])
def test_cdf_draw_reads_its_bits_most_significant_first(monkeypatch, m):
    seen = []
    monkeypatch.setattr(samplers, "cdf_outcome_for_r",
                        lambda strong, k, r: seen.append(r) or "0")
    hand = ExactDistribution(1, np.array([0.5, 0.5]))
    cdf_bitwise_sample(hand, m, np.random.default_rng(m))
    v = 0
    for b in np.random.default_rng(m).integers(0, 2, size=m):
        v = (v << 1) | int(b)
    assert seen == [v / float(1 << m)]


def test_cdf_config_validation():
    hand = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        cdf_bitwise_sample(hand, 0, rng)
    # above 53 bits r would no longer be the exact m-bit value
    with pytest.raises(ValueError):
        cdf_bitwise_sample(hand, 54, rng)


def test_cdf_and_chain_chi_square_on_ghz():
    ghz3 = ghz_circuit(3)
    strong = exact_distribution(ghz3)
    rng = np.random.default_rng(11)
    draws = [cdf_bitwise_sample(strong, 40, rng) for _ in range(20000)]
    counts = Counter(draws)
    assert set(counts) == {"000", "111"}
    assert stats.chisquare([counts["000"], counts["111"]],
                           [10000, 10000]).pvalue > 0.01
    rng = np.random.default_rng(12)
    draws = [chain_outcome(strong, rng) for _ in range(20000)]
    counts = Counter(draws)
    assert set(counts) == {"000", "111"}
    assert stats.chisquare([counts["000"], counts["111"]],
                           [10000, 10000]).pvalue > 0.01


def test_chain_skewed_distribution():
    skew = ExactDistribution(2, np.array([0.7, 0.0, 0.05, 0.25]))
    rng = np.random.default_rng(5)
    draws = [chain_outcome(skew, rng) for _ in range(40000)]
    emp = empirical_distribution(draws, 2)
    assert l1_distance(emp, np.array([0.7, 0.0, 0.05, 0.25])) < 0.02
    assert emp[1] == 0.0


def test_chain_point_mass_zero_prefix():
    pm = ExactDistribution(2, np.array([0.0, 0.0, 0.0, 1.0]))
    rng = np.random.default_rng(9)
    assert all(chain_outcome(pm, rng) == "11" for _ in range(50))


def test_cdf_error_bound_with_perturbed_queries():
    # prefix queries off by at most eps keep the sampled law within
    # 2^k (2 eps + 2^-m) of the target when delta = 0
    base = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    eps = 0.01

    class Perturbed:
        k = 2

        def prefix_probability(self, bits):
            q = base.prefix_probability(bits)
            # deterministic off-center perturbation, alternating sign
            shift = eps if bits.count("1") % 2 else -eps
            return min(max(q + shift, 0.0), 1.0)

    rng = np.random.default_rng(21)
    draws = [cdf_bitwise_sample(Perturbed(), 30, rng) for _ in range(30000)]
    emp = empirical_distribution(draws, 2)
    bound = (1 << 2) * (2 * eps + 2.0 ** -30)
    sampling_allowance = 3 * math.sqrt(4 / 30000)
    assert l1_distance(emp, base.probs) <= bound + sampling_allowance
