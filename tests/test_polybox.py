"""Additive Born-probability estimators for the three circuit families."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornbox.circuits import IqpCircuit, OutcomePattern, ProdCircuit, ce_encode
from bornbox.oracle import exact_distribution, exact_probability
from bornbox.polybox import (CePolyBox, Estimate, IqpPolyBox, OraclePolyBox,
                             PolyBoxQuery, ProdPolyBox, _conjugated_factors,
                             _iqp_draw_values, _prod_draw_values,
                             alpha_weight_enumerator,
                             auto_polybox, ce_estimate, evaluate,
                             frequency_polybox, hoeffding_samples,
                             iqp_estimate, odd_overlap_rows, prod_estimate,
                             prod_single_sample)
from bornbox.stabcore import (CliffordTableau, GateApp, PauliOperator,
                              ProductState, conjugate_pauli, tableau_from_gates)

from helpers import (MIXED_GATES, S_HEAVY_GATES, gate_lists, ghz_circuit,
                     random_gates, random_iqp_circuit, random_pattern,
                     random_prod_circuit)


class FakeRng:
    """Feeds a preset subset-selection matrix to a draw closure."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.int64)

    def integers(self, lo, hi, size=None, dtype=None):
        assert (lo, hi) == (0, 2)
        assert tuple(size) == self.matrix.shape
        return self.matrix


class SeqRng:
    def __init__(self, seq):
        self.seq = list(seq)

    def integers(self, lo, hi):
        return self.seq.pop(0)


def test_hoeffding_frozen():
    assert hoeffding_samples(0.1, 0.05, 2) == 738
    assert hoeffding_samples(1, 2 * math.exp(-2), 2) == 4
    assert hoeffding_samples(0.1, 3.0, 2) == 1
    assert hoeffding_samples(0.05, 0.01, 2) == 4239
    with pytest.raises(ValueError):
        hoeffding_samples(0.0, 0.1)
    with pytest.raises(ValueError):
        hoeffding_samples(0.1, 0.0)
    with pytest.raises(ValueError):
        hoeffding_samples(0.1, 0.1, 0.0)


@given(st.floats(0.001, 1.0), st.floats(0.001, 1.0))
def test_hoeffding_guarantee_shape(eps, delta):
    s = hoeffding_samples(eps, delta, 2.0)
    # s draws of range-2 values give additive eps with failure prob <= delta
    assert 2 * math.exp(-s * eps * eps / 2.0) <= delta + 1e-12


def test_prod_subset_average_is_exactly_unbiased():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(1, 5))
        c = random_prod_circuit(rng, n, int(rng.integers(0, 14)))
        pat = random_pattern(rng, n, allow_all_wild=False)
        f = len(pat.fixed)
        draw = _prod_draw_values(c, pat)
        sel = np.array(list(itertools.product((0, 1), repeat=f)), dtype=np.int64)
        vals = draw(FakeRng(sel), sel.shape[0])
        p = exact_probability(c, pat)
        assert abs(vals.mean() - p) < 1e-9
        assert np.all(np.abs(vals) <= 1 + 1e-12)


def test_prod_all_wild_draws_ones():
    c = ghz_circuit(2)
    draw = _prod_draw_values(c, OutcomePattern("**"))
    vals = draw(np.random.default_rng(0), 6)
    assert np.all(vals == 1.0)


def test_prod_scalar_path_matches_vectorized():
    rng = np.random.default_rng(12)
    for trial in range(12):
        n = int(rng.integers(1, 4))
        c = random_prod_circuit(rng, n, int(rng.integers(0, 10)))
        pat = random_pattern(rng, n, allow_all_wild=False)
        f = len(pat.fixed)
        draw = _prod_draw_values(c, pat)
        for subset in itertools.product((0, 1), repeat=f):
            want = draw(FakeRng(np.array([subset])), 1)[0]
            got = prod_single_sample(c, pat, SeqRng(subset))
            assert abs(want - got) < 1e-12


def test_prod_estimate_coverage_and_thread_invariance():
    rng = np.random.default_rng(13)
    c = random_prod_circuit(rng, 3, 12)
    pat = OutcomePattern("01*")
    p = exact_probability(c, pat)
    est = prod_estimate(c, pat, 0.05, 0.01, np.random.default_rng(5))
    assert est.samples_used == 4239
    assert abs(est.value - p) < 0.05
    est8 = prod_estimate(c, pat, 0.05, 0.01, np.random.default_rng(5), threads=8)
    assert est8.value == est.value
    est_again = prod_estimate(c, pat, 0.05, 0.01, np.random.default_rng(5))
    assert est_again.value == est.value


@pytest.mark.parametrize("pool", [MIXED_GATES, S_HEAVY_GATES],
                         ids=["mixed", "s-heavy"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_conjugated_factors_match_tableau_route(pool, data):
    n, gates = data.draw(gate_lists(pool))
    c = ProdCircuit(n, n, ProductState.zero(n), gates)
    pat = OutcomePattern(data.draw(st.text(alphabet="01*", min_size=n,
                                           max_size=n)))
    t = tableau_from_gates(n, gates)
    want = [conjugate_pauli(t, PauliOperator.single_z(n, pos, 1 - 2 * bit))
            for pos, bit in pat.fixed]
    assert _conjugated_factors(c, pat) == want


def test_prod_estimate_never_builds_a_tableau(monkeypatch):
    """The product-input estimator pulls the Z's back through the gate list;
    at n=64 with 640 gates the tableau route would cost O(G n^2) Python
    steps, so any tableau construction fails the test."""
    def refuse(self):
        raise AssertionError("tableau built on the polynomial path")

    monkeypatch.setattr(CliffordTableau, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        tableau_from_gates(2, ())
    rng = np.random.default_rng(64)
    n = 64
    c = ProdCircuit(n, n, ProductState.zero(n), random_gates(rng, n, 10 * n))
    pat = OutcomePattern("01" * 3 + "*" * (n - 6))
    est = prod_estimate(c, pat, 0.1, 0.05, np.random.default_rng(3))
    assert est.samples_used == hoeffding_samples(0.1, 0.05)
    assert -1.0 <= est.value <= 1.0


def test_iqp_subset_average_and_enumerator_identity():
    rng = np.random.default_rng(14)
    for trial in range(25):
        n = int(rng.integers(1, 5))
        c = random_iqp_circuit(rng, n, int(rng.integers(0, 7)),
                               k=int(rng.integers(1, n + 1)))
        pat = random_pattern(rng, c.k, allow_all_wild=False)
        f = len(pat.fixed)
        draw = _iqp_draw_values(c, pat)
        sel = np.array(list(itertools.product((0, 1), repeat=f)), dtype=np.int64)
        vals = draw(FakeRng(sel), sel.shape[0])
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
    est = iqp_estimate(c, OutcomePattern("0"), 0.05, 0.01,
                       np.random.default_rng(3))
    assert abs(est.value - 0.5) < 0.05
    c = IqpCircuit(2, 2, ())
    est = iqp_estimate(c, OutcomePattern("00"), 0.5, 0.5,
                       np.random.default_rng(3))
    assert est.value == 1.0


def test_ce_estimate_exhaustive_bounds():
    for n in (1, 2, 3):
        inner = ProdCircuit(n, n, ProductState.zero(n), (GateApp("H", (0,)),))
        enc = ce_encode(inner)
        for eps in (0.3, 2.0 ** -(n + 1), 2.0 ** -(n + 3)):
            for trits in itertools.product("01*", repeat=n + 1):
                pat = OutcomePattern("".join(trits))
                est = ce_estimate(enc, pat, eps)
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
        return dist.sample_outcomes(rng, count)

    est = frequency_polybox(oracle_sampler, ghz, OutcomePattern("0*"), 0.1,
                            0.05, np.random.default_rng(8))
    assert est.samples_used == hoeffding_samples(0.05, 0.05, 1.0)
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


def test_query_validation():
    with pytest.raises(ValueError, match="pattern length"):
        PolyBoxQuery(ghz_circuit(2), OutcomePattern("0"), 0.1, 0.1)


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
    est = oracle.estimate(OutcomePattern("11"), 0.1)
    assert est.value == 0.5
    assert est.delta == 0.0
    assert est.samples_used == 1
    with pytest.raises(TypeError):
        auto_polybox("nope")


def test_evaluate_routes_by_family():
    q = PolyBoxQuery(ghz_circuit(2), OutcomePattern("11"), 0.1, 0.05)
    est = evaluate(q, rng=np.random.default_rng(2))
    assert abs(est.value - 0.5) < 0.1
    assert est.samples_used == hoeffding_samples(0.1, 0.05)
    enc = ce_encode(ghz_circuit(2))
    est = evaluate(PolyBoxQuery(enc, OutcomePattern("00*"), 0.1, 0.0))
    assert est.value == 0.25


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_estimates_live_in_unit_interval_shifted(seed):
    rng = np.random.default_rng(seed)
    c = random_prod_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(0, 8)))
    pat = random_pattern(rng, c.k)
    est = prod_estimate(c, pat, 0.5, 0.5, rng)
    assert -1.0 - 1e-9 <= est.value <= 1.0 + 1e-9
