"""Additive Born-probability estimators for the three circuit families."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornbox import polybox
from bornbox.circuits import IqpCircuit, OutcomePattern, ProdCircuit, ce_encode
from bornbox.oracle import exact_distribution, exact_probability
from bornbox.polybox import (MAX_SAMPLES, CePolyBox, Estimate, IqpPolyBox,
                             OraclePolyBox, ProdPolyBox, _batched_sums,
                             _iqp_values, _prod_values, auto_polybox,
                             hoeffding_samples)
from bornbox.stabcore import (CliffordTableau, GateApp, ProductState,
                              tableau_from_gates)

from helpers import (NoSpawnRng, ghz_circuit, pattern_draws,
                     random_constrained_pattern, random_gates,
                     random_iqp_circuit, random_pattern, random_prod_circuit)
from reference import (alpha_weight_enumerator, frequency_polybox,
                       odd_overlap_rows, prod_single_sample, sample_outcomes)


class SeqRng:
    def __init__(self, seq):
        self.seq = list(seq)

    def integers(self, lo, hi):
        return self.seq.pop(0)


def test_hoeffding_frozen():
    assert hoeffding_samples(0.1, 0.05) == 738
    assert hoeffding_samples(1, 2 * math.exp(-2)) == 4
    assert hoeffding_samples(0.1, 3.0) == 1
    assert hoeffding_samples(0.05, 0.01) == 4239
    with pytest.raises(ValueError):
        hoeffding_samples(0.0, 0.1)
    with pytest.raises(ValueError):
        hoeffding_samples(0.1, 0.0)


@given(st.floats(0.001, 1.0), st.floats(0.001, 1.0))
def test_hoeffding_guarantee_shape(eps, delta):
    s = hoeffding_samples(eps, delta)
    # s draws of range-2 values give additive eps with failure prob <= delta
    assert 2 * math.exp(-s * eps * eps / 2.0) <= delta + 1e-12


def test_hoeffding_budget_boundary():
    delta = 0.01
    # the count is 2 / eps^2 * log(2 / delta) for range-2 draws
    eps_at_cap = math.sqrt(2.0 * math.log(2.0 / delta) / MAX_SAMPLES)
    assert hoeffding_samples(eps_at_cap * (1 + 1e-9), delta) == MAX_SAMPLES
    with pytest.raises(ValueError, match=r"eps=.* delta=0\.01 .* limit"):
        hoeffding_samples(eps_at_cap * (1 - 1e-9), delta)


@pytest.mark.parametrize("box", [ProdPolyBox(ghz_circuit(3)),
                                 IqpPolyBox(IqpCircuit(3, 3, ((1, 1, 0),)))],
                         ids=["prod", "iqp"])
def test_over_budget_query_is_refused_before_drawing(box):
    with pytest.raises(ValueError, match="eps=1e-06, delta=0.01"):
        box.estimate(OutcomePattern("0**"), 1e-6, 0.01, NoSpawnRng())


def test_prod_subset_average_is_exactly_unbiased():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(1, 5))
        c = random_prod_circuit(rng, n, int(rng.integers(0, 14)))
        pat = random_constrained_pattern(rng, n)
        f = len(pat.fixed)
        sel = np.array(list(itertools.product((0, 1), repeat=f)), dtype=np.int64)
        vals = pattern_draws(_prod_values, c, pat, sel)
        p = exact_probability(c, pat)
        assert abs(vals.mean() - p) < 1e-9
        assert np.all(np.abs(vals) <= 1 + 1e-12)


def test_prod_all_wild_draws_ones():
    box = ProdPolyBox(ghz_circuit(2))
    assert box.exact_many([OutcomePattern("**")]) == [1.0]


def test_prod_scalar_path_matches_vectorized():
    rng = np.random.default_rng(12)
    for trial in range(12):
        n = int(rng.integers(1, 4))
        c = random_prod_circuit(rng, n, int(rng.integers(0, 10)))
        pat = random_constrained_pattern(rng, n)
        sel = np.array(list(itertools.product((0, 1), repeat=len(pat.fixed))),
                       dtype=np.int64)
        vals = pattern_draws(_prod_values, c, pat, sel)
        for subset, want in zip(sel.tolist(), vals):
            got = prod_single_sample(c, pat, SeqRng(subset))
            assert abs(want - got) < 1e-12


def test_prod_estimate_coverage_and_thread_invariance():
    rng = np.random.default_rng(13)
    c = random_prod_circuit(rng, 3, 12)
    pat = OutcomePattern("01*")
    p = exact_probability(c, pat)
    box = ProdPolyBox(c)
    est = box.estimate(pat, 0.05, 0.01, np.random.default_rng(5))
    assert est.samples_used == 4239
    assert abs(est.value - p) < 0.05
    est8 = ProdPolyBox(c, threads=8).estimate(pat, 0.05, 0.01,
                                              np.random.default_rng(5))
    assert est8.value == est.value
    est_again = box.estimate(pat, 0.05, 0.01, np.random.default_rng(5))
    assert est_again.value == est.value


def test_prod_estimate_never_builds_a_tableau(monkeypatch):
    """The product-input estimator pulls the Z's back through the gate list;
    at n=64 with 640 gates the tableau route would cost O(G n^2) Python
    steps, so any tableau construction fails the test."""
    def refuse(self, *args):
        raise AssertionError("tableau built on the polynomial path")

    # every tableau, from rows or from words, is built through _set_words
    monkeypatch.setattr(CliffordTableau, "_set_words", refuse)
    with pytest.raises(AssertionError):
        tableau_from_gates(2, ())
    rng = np.random.default_rng(64)
    n = 64
    c = ProdCircuit(n, n, ProductState.zero(n), random_gates(rng, n, 10 * n))
    pat = OutcomePattern("01" * 3 + "*" * (n - 6))
    est = ProdPolyBox(c).estimate(pat, 0.1, 0.05, np.random.default_rng(3))
    assert est.samples_used == hoeffding_samples(0.1, 0.05)
    assert -1.0 <= est.value <= 1.0


def test_iqp_subset_average_and_enumerator_identity():
    rng = np.random.default_rng(14)
    for trial in range(25):
        n = int(rng.integers(1, 5))
        c = random_iqp_circuit(rng, n, int(rng.integers(0, 7)),
                               k=int(rng.integers(1, n + 1)))
        pat = random_constrained_pattern(rng, c.k)
        f = len(pat.fixed)
        sel = np.array(list(itertools.product((0, 1), repeat=f)), dtype=np.int64)
        vals = pattern_draws(_iqp_values, c, pat, sel)
        p = exact_probability(c, pat)
        assert abs(vals.mean() - p) < 1e-9

        pm = c.row_matrix().astype(np.int64)
        positions = [pos for pos, _ in pat.fixed]
        sbits = np.array([bit for _, bit in pat.fixed])
        for row_sel, value in zip(sel, vals):
            r = np.zeros(n, dtype=np.int64)
            r[positions] = row_sel
            sub, count = odd_overlap_rows(pm, r)
            alpha = alpha_weight_enumerator(sub, math.pi / 2)
            ref = ((-1.0) ** int(row_sel @ sbits) * (1j ** count) * alpha).real
            assert abs(value - ref) < 1e-9


def test_alpha_weight_enumerator():
    assert alpha_weight_enumerator(np.zeros((3, 2)), 0.7) == 1.0
    a = alpha_weight_enumerator([[1]], math.pi / 4)
    assert abs(a - (0.5 - 0.5j)) < 1e-15
    m = np.array([[1, 0, 1], [1, 1, 0]])
    direct = 0j
    for v in itertools.product((0, 1), repeat=3):
        w = int(((m @ np.array(v)) % 2).sum())
        direct += np.exp(-2j * 0.9 * w)
    direct /= 8
    assert abs(alpha_weight_enumerator(m, 0.9) - direct) < 1e-12
    with pytest.raises(ValueError):
        alpha_weight_enumerator(np.zeros((1, 30)), 0.5, column_limit=24)


def test_iqp_estimate():
    c = IqpCircuit(1, 1, ((1,),))
    est = IqpPolyBox(c).estimate(OutcomePattern("0"), 0.05, 0.01,
                                 np.random.default_rng(3))
    assert abs(est.value - 0.5) < 0.05
    c = IqpCircuit(2, 2, ())
    est = IqpPolyBox(c).estimate(OutcomePattern("00"), 0.5, 0.5,
                                 np.random.default_rng(3))
    assert est.value == 1.0


def test_ce_estimate_exhaustive_bounds():
    for n in (1, 2, 3):
        inner = ProdCircuit(n, n, ProductState.zero(n), (GateApp("H", (0,)),))
        enc = ce_encode(inner)
        for eps in (0.3, 2.0 ** -(n + 1), 2.0 ** -(n + 3)):
            for trits in itertools.product("01*", repeat=n + 1):
                pat = OutcomePattern("".join(trits))
                est = CePolyBox(enc).estimate(pat, eps)
                err = abs(est.value - exact_probability(enc, pat))
                if not pat.is_full:
                    assert err == 0.0
                else:
                    assert err <= min(2.0 ** -(n + 1), eps)
                assert est.delta == 0.0
                assert est.samples_used == 1


def test_frequency_polybox():
    ghz = ghz_circuit(2)
    dist = exact_distribution(ghz)

    def oracle_sampler(circuit, eps_internal, count, rng):
        return sample_outcomes(dist, rng, count)

    est = frequency_polybox(oracle_sampler, ghz, OutcomePattern("0*"), 0.1,
                            0.05, np.random.default_rng(8))
    # range-1 frequencies at eps/2 need the range-2 count at eps
    assert est.samples_used == hoeffding_samples(0.1, 0.05)
    assert abs(est.value - 0.5) < 0.1
    est = frequency_polybox(oracle_sampler, ghz, OutcomePattern("**"), 0.1,
                            0.05, np.random.default_rng(8))
    assert est.value == 1.0


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(0.5, 0.1, 0.1, 0)
    with pytest.raises(ValueError):
        Estimate(0.5, 0.0, 0.1, 1)
    with pytest.raises(ValueError):
        Estimate(0.5, 0.1, 1.0, 1)
    Estimate(0.5, 0.1, 0.0, 1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("eps, delta, message", [
    (NAN, 0.1, "eps must be finite"),
    (INF, 0.1, "eps must be finite"),
    (0.1, NAN, "delta must be finite"),
    (0.1, INF, "delta must be finite"),
    (-INF, 0.1, "eps must be positive"),
    (0.1, -INF, "delta must be positive"),
    (1e-200, 0.1, "needs inf draws per query"),
], ids=["eps-nan", "eps-inf", "delta-nan", "delta-inf", "eps-minus-inf",
        "delta-minus-inf", "eps-square-underflows"])
def test_hoeffding_refuses_non_finite_eps_and_delta(eps, delta, message):
    with pytest.raises(ValueError, match=message):
        hoeffding_samples(eps, delta)
    with pytest.raises(ValueError, match=message):
        ProdPolyBox(ghz_circuit(2)).estimate(OutcomePattern("00"), eps, delta,
                                            np.random.default_rng(0))


@pytest.mark.parametrize("eps, delta, message, ce_message", [
    (NAN, 0.0, "eps must be finite", "eps must be finite"),
    (INF, 0.0, "eps must be finite", "eps must be finite"),
    (0.1, NAN, r"delta must lie in \[0, 1\)", "delta must be finite"),
    (0.1, INF, r"delta must lie in \[0, 1\)", "delta must be finite"),
    (0.1, -0.5, r"delta must lie in \[0, 1\)", r"delta must lie in \[0, 1\)"),
    (0.1, 7.0, r"delta must lie in \[0, 1\)", r"delta must lie in \[0, 1\)"),
    (0.0, 0.0, "eps must be positive", "eps must be positive"),
], ids=["eps-nan", "eps-inf", "delta-nan", "delta-inf", "delta-negative",
        "delta-above-1", "eps-zero"])
def test_deterministic_answers_refuse_non_finite_eps_and_delta(
        eps, delta, message, ce_message):
    with pytest.raises(ValueError, match=message):
        Estimate(0.5, eps, delta, 1)
    with pytest.raises(ValueError, match=ce_message):
        CePolyBox(ce_encode(ghz_circuit(1))).estimate(OutcomePattern("0*"),
                                                      eps, delta)


@pytest.mark.parametrize("box", [
    ProdPolyBox(ghz_circuit(2)),
    IqpPolyBox(IqpCircuit(2, 2, ((1, 1),))),
    CePolyBox(ce_encode(ghz_circuit(1))),
    OraclePolyBox(ghz_circuit(2)),
], ids=["prod", "iqp", "encoded", "oracle"])
def test_query_validation(box):
    assert box.circuit.k == 2
    for pattern in (OutcomePattern("0"), OutcomePattern("0*1")):
        with pytest.raises(ValueError, match="pattern length"):
            box.estimate(pattern, 0.1, 0.1, np.random.default_rng(0))


def test_handles():
    ghz = ghz_circuit(2)
    box = auto_polybox(ghz)
    assert isinstance(box, ProdPolyBox)
    assert not box.deterministic
    with pytest.raises(ValueError, match="needs an rng"):
        box.estimate(OutcomePattern("0*"), 0.1, 0.1)
    iqp = IqpCircuit(1, 1, ((1,),))
    assert isinstance(auto_polybox(iqp), IqpPolyBox)
    with pytest.raises(ValueError, match="needs an rng"):
        auto_polybox(iqp).estimate(OutcomePattern("0"), 0.1, 0.1)
    enc = ce_encode(ghz)
    cebox = auto_polybox(enc)
    assert isinstance(cebox, CePolyBox)
    assert cebox.deterministic
    assert cebox.estimate(OutcomePattern("0**"), 0.25).value == 0.5
    oracle = OraclePolyBox(ghz)
    assert oracle.deterministic
    # only the sampling handles enumerate; the others answer without drawing
    assert not hasattr(cebox, "exact_many")
    assert not hasattr(oracle, "exact_many")
    est = oracle.estimate(OutcomePattern("11"), 0.1)
    assert est.value == 0.5
    assert est.delta == 0.0
    assert est.samples_used == 1
    with pytest.raises(TypeError):
        auto_polybox("nope")


def test_evaluate_routes_by_family():
    est = auto_polybox(ghz_circuit(2)).estimate(
        OutcomePattern("11"), 0.1, 0.05, np.random.default_rng(2))
    assert abs(est.value - 0.5) < 0.1
    assert est.samples_used == hoeffding_samples(0.1, 0.05)
    enc = ce_encode(ghz_circuit(2))
    est = auto_polybox(enc).estimate(OutcomePattern("00*"), 0.1)
    assert est.value == 0.25


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_estimates_live_in_unit_interval_shifted(seed):
    rng = np.random.default_rng(seed)
    c = random_prod_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(0, 8)))
    pat = random_pattern(rng, c.k)
    est = ProdPolyBox(c).estimate(pat, 0.5, 0.5, rng)
    assert -1.0 - 1e-9 <= est.value <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Batched queries: one shared draw matrix for patterns sharing fixed positions
# ---------------------------------------------------------------------------

KERNELS = {"prod": _prod_values, "iqp": _iqp_values}
BOXES = {"prod": ProdPolyBox, "iqp": IqpPolyBox}


@st.composite
def circuits(draw, family, max_n=6):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "prod":
        return random_prod_circuit(rng, n, draw(st.integers(0, 30)), k=k)
    return random_iqp_circuit(rng, n, draw(st.integers(1, 8)), k=k)


@st.composite
def batches(draw, family):
    """(circuit, patterns): up to 12 patterns, repeats allowed, that fix the
    same positions of a circuit on at most 6 qubits."""
    c = draw(circuits(family))
    fixed = draw(st.lists(st.booleans(), min_size=c.k, max_size=c.k))
    patterns = []
    for _ in range(draw(st.integers(1, 12))):
        bits = iter(draw(st.text("01", min_size=sum(fixed),
                                 max_size=sum(fixed))))
        patterns.append(OutcomePattern(
            "".join(next(bits) if f else "*" for f in fixed)))
    return c, patterns


@pytest.mark.parametrize("family", ["prod", "iqp"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_rows_match_single_pattern_kernel(family, data):
    c, patterns = data.draw(batches(family))
    count = data.draw(st.integers(1, 40))
    f = len(patterns[0].fixed)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sel = rng.integers(0, 2, size=(count, f), dtype=np.int64)
    # small blocks, so that batches of up to 12 patterns span several
    with mock.patch.object(polybox, "_BLOCK", 5):
        sums, f_batch = _batched_sums(KERNELS[family], c, patterns)
        # a one-row sum is that row's draw, up to the sign of a zero
        rows = np.array([sums(sel[i:i + 1]) for i in range(count)]).T
    assert f_batch == f
    assert rows.shape == (len(patterns), count)
    for row, pattern in zip(rows, patterns):
        assert (row == pattern_draws(KERNELS[family], c, pattern, sel)).all()


@pytest.mark.parametrize("family", ["prod", "iqp"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_estimate_many_matches_single_queries(family, data):
    c, patterns = data.draw(batches(family))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    box = BOXES[family](c, threads=data.draw(st.sampled_from((1, 2))))
    # 12323 draws: two chunks, so chunk spawning and the sums are covered
    eps, delta = 0.015, 0.5

    def rng():
        return np.random.default_rng(seed)
    many = box.estimate_many(patterns, eps, delta, rng())
    assert box.estimate_many(patterns[:1], eps, delta, rng()) == [
        box.estimate(patterns[0], eps, delta, rng())]
    for pattern, est in zip(patterns, many):
        assert est.samples_used == hoeffding_samples(eps, delta) == 12323
        assert est == box.estimate(pattern, eps, delta, rng())


@pytest.mark.parametrize("family", ["prod", "iqp"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_level_candidates_within_hoeffding_tolerance(family, data):
    c = data.draw(circuits(family))
    level = data.draw(st.integers(1, c.k))
    patterns = [OutcomePattern(format(i, f"0{level}b") + "*" * (c.k - level))
                for i in range(1 << level)]
    # delta = 1e-9 per candidate keeps the whole test's failure chance
    # below 1e-5 while eps = 0.1 needs only 4286 draws
    eps, delta = 0.1, 1e-9
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    dist = exact_distribution(c)
    for pattern, est in zip(patterns, BOXES[family](c).estimate_many(
            patterns, eps, delta, rng)):
        assert abs(est.value - dist.probability(pattern)) < eps


def test_batch_needs_shared_fixed_positions():
    box = ProdPolyBox(ghz_circuit(3))
    with pytest.raises(ValueError, match="share their fixed positions"):
        box.estimate_many([OutcomePattern("0**"), OutcomePattern("*1*")],
                          0.1, 0.1, np.random.default_rng(0))


@pytest.mark.parametrize("family", ["prod", "iqp"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_many_matches_oracle_prefix_marginals(family, data):
    c = data.draw(circuits(family))
    level = data.draw(st.integers(1, c.k))
    prefixes = [format(i, f"0{level}b") for i in range(1 << level)]
    # 8-row chunks, so that levels of up to 64 selections span several
    with mock.patch.object(polybox, "_CHUNK", 8):
        values = BOXES[family](c).exact_many(
            [OutcomePattern(b + "*" * (c.k - level)) for b in prefixes])
    dist = exact_distribution(c)
    for bits, value in zip(prefixes, values):
        assert abs(value - dist.prefix_probability(bits)) <= 1e-12
