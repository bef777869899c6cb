"""Samplers built over the poly-box interface."""

import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from bornbox import polybox, samplers
from bornbox.circuits import OutcomePattern, ProdCircuit
from bornbox.oracle import (ExactDistribution, exact_distribution, l1_distance,
                            min_sparsity)
from bornbox.polybox import (Estimate, IqpPolyBox, OraclePolyBox, ProdPolyBox,
                             hoeffding_samples)
from bornbox.samplers import (SparsityPolynomial, cdf_bitwise_sample,
                              cdf_outcomes_for_r, chain_sample,
                              epsilon_simulate, heavy_prefixes,
                              search_plan, sparse_plan, survivor_cap,
                              survivor_distribution)
from bornbox.stabcore import GateApp, ProductState

import reference
from helpers import (NoSpawnRng, empirical_distribution, ghz_circuit,
                     random_bloch, random_iqp_circuit, random_prod_circuit)


class ZeroBox:
    deterministic = True

    def estimate(self, pattern, eps, delta=0.0, rng=None):
        return Estimate(0.0, eps, 0.0, 1)

    def prefixes(self, bits, eps, delta=0.0, rng=None):
        return np.zeros(len(bits))


def point_circuit():
    return ProdCircuit(2, 2, ProductState.zero(2), (GateApp("X", (0,)),))


def top_plan(box, k: int, t: int, eps: float, delta: float):
    """The plan of a search for the top t outcomes at threshold eps/(2t),
    read through the module so that a patched ``search_plan`` applies."""
    return samplers.search_plan(box, k, t, eps / (2 * t), delta)


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


def test_search_plan_refuses_an_infinite_union_bound():
    """The cap at threshold 5e-308 is finite, but 2*k*cap queries are not,
    which would leave every query a confidence of 0."""
    ghz3 = ghz_circuit(3)
    for box in (OraclePolyBox(ghz3), ProdPolyBox(ghz3)):
        with pytest.raises(ValueError, match="threshold 5e-308 is too small "
                           "for a finite union bound over 3 levels"):
            search_plan(box, 3, 1, 5e-308, 0.01)
    plan = search_plan(ProdPolyBox(ghz3), 3, 1, 0.25, 0.2)
    assert (plan.cap, plan.per_eps, plan.per_delta) == (
        18, 0.125, 0.2 / (2.0 * 3 * 18))
    assert plan.exact_levels == 3


def test_heavy_prefixes_ghz_sampling_estimator():
    ghz3 = ghz_circuit(3)
    est = ProdPolyBox(ghz3)
    surv = heavy_prefixes(est, ghz3, search_plan(est, 3, 1, 0.25, 0.2),
                          np.random.default_rng(42))
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

    def prefixes(self, bits, eps, delta, rng=None):
        self.batches.append(len(bits))
        self.routes.append("sampled")
        return super().prefixes(bits, eps, delta, rng)

    def exact_prefixes(self, bits):
        self.batches.append(len(bits))
        self.routes.append("exact")
        return super().exact_prefixes(bits)


def test_heavy_prefixes_one_batch_per_level():
    ghz3 = ghz_circuit(3)
    box = CountingBox(ghz3)
    # every level is exact here, so the search draws nothing
    surv = heavy_prefixes(box, ghz3, search_plan(box, 3, 1, 0.25, 0.2),
                          NoSpawnRng())
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
    surv = heavy_prefixes(box, point6,
                          search_plan(box, 6, 1, threshold, delta),
                          np.random.default_rng(0))
    assert surv == [("100100", 1.0)]
    assert box.batches == [2] * 6
    assert box.routes == ["exact"] * 5 + ["sampled"]


def test_heavy_prefixes_stay_exact_when_a_query_eps_squares_to_zero():
    # one sampled query at precision threshold/2 would need inf draws, but
    # every level of GHZ-3 is enumerated, so the search draws nothing
    ghz3 = ghz_circuit(3)
    box = CountingBox(ghz3)
    surv = heavy_prefixes(box, ghz3, search_plan(box, 3, 1, 1e-163, 0.01),
                          NoSpawnRng())
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
    outcomes, probs = survivor_distribution(box, c,
                                            top_plan(box, c.k, t, eps, eps),
                                            NoSpawnRng())
    table = np.zeros(1 << c.k)
    table[[int(o, 2) for o in outcomes]] = probs
    assert l1_distance(table, dist.probs) <= 12 * eps


def sample_past_level_one(monkeypatch):
    """Caps the exact levels of every search plan at 1, so that each later
    level of a heavy-prefix search samples from one shared draw matrix."""
    build = samplers.search_plan

    def capped(*args):
        plan = build(*args)
        return dataclasses.replace(plan,
                                   exact_levels=min(plan.exact_levels, 1))
    monkeypatch.setattr(samplers, "search_plan", capped)


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
            box, c, top_plan(box, c.k, min_sparsity(dist, eps), eps, delta),
            rng)
        table = np.zeros(1 << c.k)
        table[[int(o, 2) for o in outcomes]] = probs
        far += l1_distance(table, dist.probs) > 12 * eps
    sigma = math.sqrt(delta * (1 - delta) / searches)
    assert far / searches <= delta + 3 * sigma


class TieBox:
    """Scores prefix b of level j as table[j][int(b, 2)], drawn from four
    values so that ties are common; three of them pass threshold 0.9."""

    deterministic = True

    def __init__(self, k, rng):
        self.table = [rng.choice([0.5, 0.9, 0.95, 1.0], size=1 << j)
                      for j in range(k + 1)]

    def value(self, prefix):
        return float(self.table[len(prefix)][int(prefix, 2)])

    def prefixes(self, bits, eps, delta=0.0, rng=None):
        return np.array([self.value("".join(map(str, row)))
                         for row in bits.tolist()])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_heavy_prefixes_break_ties_lexicographically(k, seed):
    """Survivors come heaviest first and, among equal values, in bit-string
    order, and the cap of 8 at threshold 0.9 keeps the first ones in that
    order, as a search over strings does."""
    box = TieBox(k, np.random.default_rng(seed))
    threshold = 0.9
    cap = survivor_cap(threshold)
    assert cap == 8
    scored = [("", 1.0)]
    for _ in range(k):
        candidates = [p + b for p, _ in scored for b in "01"]
        scored = sorted(((c, box.value(c)) for c in candidates
                         if box.value(c) >= threshold),
                        key=lambda cv: (-cv[1], cv[0]))[:cap]
    surv = heavy_prefixes(box, ghz_circuit(k),
                          search_plan(box, k, 1, threshold, 0.1))
    assert surv == sorted(surv, key=lambda cv: (-cv[1], cv[0]))
    assert surv == scored


def test_heavy_prefixes_point_mass():
    point = point_circuit()
    box = OraclePolyBox(point)
    surv = heavy_prefixes(box, point, search_plan(box, 2, 1, 0.25, 0.0))
    assert surv == [("10", 1.0)]


def test_heavy_prefixes_validation_and_empty():
    """A threshold outside (0, 1) is refused as the plan is built, 0 by the
    survivor cap, which is checked first."""
    ghz3 = ghz_circuit(3)
    with pytest.raises(ValueError, match="finite survivor cap"):
        search_plan(OraclePolyBox(ghz3), 3, 1, 0.0, 0.1)
    with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\)"):
        search_plan(OraclePolyBox(ghz3), 3, 1, 1.0, 0.1)
    box = ZeroBox()
    assert heavy_prefixes(box, ghz3, search_plan(box, 3, 1, 0.5, 0.0)) == []


def test_survivor_distribution():
    ghz3 = ghz_circuit(3)
    box = OraclePolyBox(ghz3)
    outcomes, probs = survivor_distribution(box, ghz3,
                                            top_plan(box, 3, 2, 0.1, 0.0), None)
    assert outcomes == ["000", "111"]
    assert np.allclose(probs, [0.5, 0.5])
    with pytest.warns(UserWarning, match="sparsity promise"):
        outcomes, probs = survivor_distribution(
            ZeroBox(), ghz3, top_plan(ZeroBox(), 3, 2, 0.1, 0.0), None)
    assert outcomes == ["000"]
    assert list(probs) == [1.0]


def test_sparse_plan_splits_and_refuses():
    """eps = delta = eps'/13, t = ceil(sp(k/eps)) and threshold eps/(2t)."""
    sp = SparsityPolynomial((1.0, 0.5))
    ghz3 = ghz_circuit(3)
    box = OraclePolyBox(ghz3)
    plan = sparse_plan(box, sp, 3, 1.3)
    assert plan.threshold == 0.1 / 32 and plan.t == math.ceil(sp(30.0)) == 16
    plan = sparse_plan(box, sp, 3, 13 / 6)
    assert 2 * plan.t * plan.threshold == pytest.approx(1 / 6)
    for eps_prime in (0.0, -0.1, 13 / 6 + 1e-6, 3.0):
        with pytest.raises(ValueError, match="eps_prime"):
            sparse_plan(box, sp, 3, eps_prime)
    # k/eps overflows, and Horner's 0 * inf makes even a constant nan
    with pytest.raises(ValueError, match="eps_prime=.* gives a non-finite"):
        sparse_plan(box, SparsityPolynomial.constant(2), 5, 1e-320)
    # a bound of 0, even a signed one, gives t = 0
    for zero in (0.0, -0.0):
        with pytest.raises(ValueError, match="t = ceil.* = 0; t must be >= 1"):
            sparse_plan(box, SparsityPolynomial((zero, 0.0)), 3, 1.3)
    assert sparse_plan(box, SparsityPolynomial.constant(1e-300), 3,
                       1.3).t == 1
    # refused before any search, on both paths and at any count
    for box in (OraclePolyBox(ghz3), ProdPolyBox(ghz3)):
        for count in (0, 2):
            with pytest.raises(ValueError, match="eps_prime"):
                epsilon_simulate(box, SparsityPolynomial.constant(2), ghz3,
                                 3.0, count, np.random.default_rng(0))
            with pytest.raises(ValueError, match="t must be >= 1"):
                epsilon_simulate(box, SparsityPolynomial.constant(0), ghz3,
                                 1.3, count, np.random.default_rng(0))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 200),
       eps_prime=st.floats(0.0, 13 / 6, exclude_min=True),
       coefficients=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 1e-3)))
@example(k=14, eps_prime=13 / 6, coefficients=(1.0, 0.0))
def test_sparse_plans_enumerate_the_whole_exact_table(k, eps_prime,
                                                      coefficients):
    """Every sparse plan a sampling handle accepts enumerates at least
    min(k, log2 _CHUNK) levels, so its search reads all of the handle's
    exact-level table; eps' = 13/6, t = 1 and k = 14 give exactly 13."""
    box = ProdPolyBox(ghz_circuit(2))
    try:
        plan = sparse_plan(box, SparsityPolynomial(coefficients), k,
                           eps_prime)
    except ValueError:
        assume(False)
    width = polybox._CHUNK.bit_length() - 1
    assert plan.exact_levels >= min(k, width)
    if (k, eps_prime, plan.t) == (14, 13 / 6, 1):
        assert plan.exact_levels == width == 13


def test_sparse_sample_point_mass():
    point = point_circuit()
    box = OraclePolyBox(point)
    outcomes, probs = survivor_distribution(box, point,
                                            top_plan(box, 2, 1, 0.1, 0.01),
                                            np.random.default_rng(0))
    assert outcomes == ["10"] and list(probs) == [1.0]


def test_sparse_sample_validation():
    """t = 0, eps = 0.3 and eps = 0 are refused as the plan is built."""
    point = point_circuit()
    box = OraclePolyBox(point)
    with pytest.raises(ValueError):
        sparse_plan(box, SparsityPolynomial.constant(0), 2, 13 * 0.1)
    with pytest.raises(ValueError):
        sparse_plan(box, SparsityPolynomial.constant(1), 2, 13 * 0.3)
    with pytest.raises(ValueError):
        sparse_plan(box, SparsityPolynomial.constant(1), 2, 13 * 0.0)


def test_sparse_sample_ghz_l1():
    ghz3 = ghz_circuit(3)
    dist = exact_distribution(ghz3)
    rng = np.random.default_rng(7)
    box = OraclePolyBox(ghz3)
    outcomes, probs = survivor_distribution(box, ghz3,
                                            top_plan(box, 3, 2, 0.05, 0.01),
                                            rng)
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
        outcomes, probs = survivor_distribution(
            ZeroBox(), ghz3, top_plan(ZeroBox(), 3, 2, 0.1, 0.01),
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
    q = hand.prefixes(np.array([[0], [1]]))
    assert abs(q[0] - 0.3) < 1e-15
    assert abs(q[1] - 0.7) < 1e-15
    q = hand.prefixes(np.array([[0, 1], [1, 1]]))
    assert abs(q[0] - 0.2) < 1e-15
    assert abs(q[1] - 0.4) < 1e-15
    with pytest.raises(ValueError):
        hand.prefixes(np.zeros((1, 0), dtype=np.int64))
    with pytest.raises(ValueError):
        hand.prefixes(np.array([[0, 1, 0]]))


def test_cdf_hand_pairs():
    hand = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    assert (cdf_outcomes_for_r(hand, [0.25, 0.5, 0.0, 0.95])
            == ["01", "10", "00", "11"])


def test_cdf_partition_matches_cumulative_cells():
    hand = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    rs = np.arange(0.005, 1.0, 0.01)
    cells = [0 if r < 0.1 else 1 if r < 0.3 else 2 if r < 0.6 else 3
             for r in rs]
    assert cdf_outcomes_for_r(hand, rs) == [format(c, "02b") for c in cells]


@pytest.mark.parametrize("m", [1, 7, 40, 53])
def test_cdf_draw_reads_its_bits_most_significant_first(monkeypatch, m):
    seen = []
    monkeypatch.setattr(samplers, "cdf_outcomes_for_r",
                        lambda strong, r: seen.extend(r) or ["0"] * len(r))
    hand = ExactDistribution(1, np.array([0.5, 0.5]))
    cdf_bitwise_sample(hand, m, 1, np.random.default_rng(m))
    v = 0
    for b in np.random.default_rng(m).integers(0, 2, size=m):
        v = (v << 1) | int(b)
    assert seen == [v / float(1 << m)]


def test_cdf_config_validation():
    hand = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        cdf_bitwise_sample(hand, 0, 1, rng)
    # above 53 bits r would no longer be the exact m-bit value
    with pytest.raises(ValueError):
        cdf_bitwise_sample(hand, 54, 1, rng)


def test_cdf_and_chain_chi_square_on_ghz():
    ghz3 = ghz_circuit(3)
    strong = exact_distribution(ghz3)
    rng = np.random.default_rng(11)
    draws = cdf_bitwise_sample(strong, 40, 20000, rng)
    counts = Counter(draws)
    assert set(counts) == {"000", "111"}
    assert stats.chisquare([counts["000"], counts["111"]],
                           [10000, 10000]).pvalue > 0.01
    rng = np.random.default_rng(12)
    draws = chain_sample(strong, 20000, rng)
    counts = Counter(draws)
    assert set(counts) == {"000", "111"}
    assert stats.chisquare([counts["000"], counts["111"]],
                           [10000, 10000]).pvalue > 0.01


def test_chain_skewed_distribution():
    skew = ExactDistribution(2, np.array([0.7, 0.0, 0.05, 0.25]))
    rng = np.random.default_rng(5)
    draws = chain_sample(skew, 40000, rng)
    emp = empirical_distribution(draws, 2)
    assert l1_distance(emp, np.array([0.7, 0.0, 0.05, 0.25])) < 0.02
    assert emp[1] == 0.0


def test_chain_point_mass_zero_prefix():
    pm = ExactDistribution(2, np.array([0.0, 0.0, 0.0, 1.0]))
    rng = np.random.default_rng(9)
    assert chain_sample(pm, 50, rng) == ["11"] * 50


class AllZeroRng:
    """Every ``random`` draw is 0.0, so every chain r = 1 - draw is 1."""

    def random(self, shape=None):
        return 0.0 if shape is None else np.zeros(shape)


def test_chain_ratio_one_takes_the_zero_branch_at_r_one():
    pm = ExactDistribution(2, np.array([1.0, 0.0, 0.0, 0.0]))
    per_draw = [reference.chain_outcome(reference.PerPrefix(pm), AllZeroRng())
                for _ in range(3)]
    assert chain_sample(pm, 3, AllZeroRng()) == per_draw == ["00"] * 3


def test_cdf_error_bound_with_perturbed_queries():
    # prefix queries off by at most eps keep the sampled law within
    # 2^k (2 eps + 2^-m) of the target when delta = 0
    base = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    eps = 0.01

    class Perturbed:
        k = 2

        def prefixes(self, bits):
            q = base.prefixes(bits)
            # deterministic off-center perturbation, alternating sign
            shift = np.where(bits.sum(axis=1) % 2, eps, -eps)
            return np.clip(q + shift, 0.0, 1.0)

    rng = np.random.default_rng(21)
    draws = cdf_bitwise_sample(Perturbed(), 30, 30000, rng)
    emp = empirical_distribution(draws, 2)
    bound = (1 << 2) * (2 * eps + 2.0 ** -30)
    sampling_allowance = 3 * math.sqrt(4 / 30000)
    assert l1_distance(emp, base.probs) <= bound + sampling_allowance


class NanAt:
    """An exact handle that answers NaN for one prefix, in both query
    forms: ``prefixes`` for the samplers, ``prefix_probability`` for the
    per-draw references."""

    def __init__(self, dist, prefix: str):
        self.k, self.dist, self.prefix = dist.k, dist, prefix
        self.per_prefix = reference.PerPrefix(dist)

    def prefixes(self, bits):
        hit = ["".join(map(str, row)) == self.prefix for row in bits.tolist()]
        return np.where(hit, np.nan, self.dist.prefixes(bits))

    def prefix_probability(self, bits):
        return (math.nan if bits == self.prefix
                else self.per_prefix.prefix_probability(bits))


@st.composite
def prefix_handles(draw):
    """(level-wise handle, per-draw handle, distribution) over a random
    distribution on k <= 4 bits: dense, with zero cells, a point mass, or
    with one prefix answered NaN."""
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dense", "zeros", "point", "nan"]))
    weights = rng.random(1 << k)
    if kind == "zeros":
        weights *= rng.random(1 << k) < 0.5
    if kind == "point" or not weights.any():
        weights = np.eye(1 << k)[rng.integers(1 << k)]
    dist = ExactDistribution(k, weights / weights.sum())
    if kind != "nan":
        return dist, reference.PerPrefix(dist), dist
    j = int(rng.integers(1, k + 1))
    handle = NanAt(dist, format(int(rng.integers(1 << j)), f"0{j}b"))
    return handle, handle, dist


@settings(max_examples=25, deadline=None)
@given(handles=prefix_handles(), m=st.sampled_from([1, 7, 40, 53]),
       count=st.sampled_from([0, 1, 8191, 8192, 8193]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_level_wise_samplers_equal_the_per_draw_references(handles, m, count,
                                                            seed):
    """Same outcomes, and the same rng words read, as one per-draw call
    after another on the same handle."""
    handle, per_draw, _ = handles
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert (cdf_bitwise_sample(handle, m, count, rng)
            == [reference.cdf_bitwise_sample(per_draw, m, ref)
                for _ in range(count)])
    assert (chain_sample(handle, count, rng)
            == [reference.chain_outcome(per_draw, ref) for _ in range(count)])
    assert rng.random() == ref.random()


@settings(max_examples=40, deadline=None)
@given(handles=prefix_handles(), seed=st.integers(0, 2 ** 32 - 1))
def test_cdf_inversion_equals_the_per_draw_reference_on_cell_edges(handles,
                                                                    seed):
    """Every edge of the cumulative table, and the doubles next to it, go
    to the same cell as in the per-draw inversion."""
    handle, per_draw, dist = handles
    cum = reference.PerPrefix(dist).cum
    rs = np.concatenate((cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0),
                         np.random.default_rng(seed).random(64)))
    assert (cdf_outcomes_for_r(handle, rs)
            == [reference.cdf_outcome_for_r(per_draw, handle.k, float(r))
                for r in rs])
