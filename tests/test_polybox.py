"""Additive Born-probability estimators for the three circuit families."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornbox import oracle, polybox
from bornbox.circuits import (EncodedCircuit, IqpCircuit, OutcomePattern,
                              ProdCircuit)
from bornbox.oracle import (ExactDistribution, exact_distribution,
                            exact_probability)
from bornbox.polybox import (MAX_SAMPLES, CePolyBox, Estimate, IqpPolyBox,
                             OraclePolyBox, ProdPolyBox, _batched_sums,
                             _iqp_values, _prod_values, auto_polybox,
                             hoeffding_samples)
from bornbox.samplers import heavy_prefixes, search_plan
from bornbox.stabcore import (CliffordTableau, GateApp, ProductState,
                              tableau_from_gates)

from helpers import (NoSpawnRng, ghz_circuit, pattern_draws,
                     random_constrained_pattern, random_gates,
                     random_iqp_circuit, random_pattern, random_prod_circuit)
from reference import (alpha_weight_enumerator, frequency_polybox,
                       odd_overlap_rows, per_draw_sampled,
                       per_level_exact_prefixes, prod_single_sample,
                       reference_iqp_values, reference_prod_quad,
                       sample_outcomes)


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
    none = np.zeros((1, 0), dtype=np.int64)
    assert ProdPolyBox(ghz_circuit(2)).exact_prefixes(none).tolist() == [1.0]
    iqp = IqpPolyBox(IqpCircuit(3, 2, ((1, 1, 0), (0, 1, 1))))
    assert iqp.exact_prefixes(none).tolist() == [1.0]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("box_type, circuit", [
    (ProdPolyBox, random_prod_circuit(np.random.default_rng(4), 3, 12)),
    (IqpPolyBox, IqpCircuit(3, 3, ((1, 1, 0), (0, 1, 1))))],
    ids=["prod", "iqp"])
def test_all_wild_estimate_is_exactly_one(box_type, circuit, threads):
    """A pattern that fixes nothing reads its draws from the table of the
    one empty selection: every draw is 1.0, at the full Hoeffding count."""
    est = box_type(circuit, threads).estimate(
        OutcomePattern("***"), 0.01, 0.05, np.random.default_rng(1))
    assert est.value == 1.0
    assert est.samples_used == hoeffding_samples(0.01, 0.05)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("box_type, values, circuit", [
    (ProdPolyBox, _prod_values, ghz_circuit(300)),
    (IqpPolyBox, _iqp_values,
     random_iqp_circuit(np.random.default_rng(6), 300, 4))],
    ids=["prod", "iqp"])
def test_kernel_calls_stay_within_the_row_budget(monkeypatch, box_type, values,
                                                 circuit, threads):
    """At n = 300 the budget is 3495 rows, below an 8192-row chunk, so the
    per-draw path, the table path and the exact levels all run in blocks."""
    budget = polybox._KERNEL_CELLS // circuit.n
    rows = []

    def spy(circuit, positions):
        kernel = values(circuit, positions)

        def value(sel):
            rows.append(len(sel))
            return kernel(sel)
        return value
    monkeypatch.setattr(box_type, "values", staticmethod(spy))
    box = box_type(circuit, threads)
    rng = np.random.default_rng(3)
    s = hoeffding_samples(0.02, 0.05)
    for fixed in (14, 13):  # 2^14 > s draws each; a table of 2^13
        box.estimate(OutcomePattern("0" * fixed + "*" * (circuit.k - fixed)),
                     0.02, 0.05, rng)
    box.exact_prefixes(np.zeros((1, 13), dtype=np.int64))
    assert max(rows) == budget
    assert sum(rows) == s + 2 * (1 << 13)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), iqp=st.booleans(),
       cells=st.integers(1, 64), tabulate=st.booleans())
def test_kernel_row_blocks_give_the_unblocked_sums(seed, iqp, cells, tabulate):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    if iqp:
        values = _iqp_values
        circuit = random_iqp_circuit(rng, n, int(rng.integers(1, 6)))
    else:
        values = _prod_values
        circuit = random_prod_circuit(rng, n, int(rng.integers(0, 20)))
    f = int(rng.integers(0, n + 1))
    positions = sorted(rng.choice(n, size=f, replace=False).tolist())
    bits = rng.integers(0, 2, size=(int(rng.integers(1, 4)), f))
    sel = rng.integers(0, 2, size=(int(rng.integers(1, 200)), f))
    whole = _batched_sums(values, circuit, positions, bits, tabulate)(sel)
    with mock.patch.object(polybox, "_KERNEL_CELLS", cells):
        blocked = _batched_sums(values, circuit, positions, bits,
                                tabulate)(sel)
    assert blocked.tolist() == whole.tolist()


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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 11), st.integers(0, 40), st.data())
def test_iqp_kernel_equals_the_per_row_reference(n, m, data):
    """The linear + Z4 form draws the floats of the kernel that finds each
    selection's hit rows among the m program rows (m = 0 included), under
    == (a zero may come out as -0.0), at prefix and scattered positions.
    The rows repeat a pool of up to 40, so that hit rows often cancel and
    draw +-1, not 0."""
    k = data.draw(st.integers(1, n))
    f = data.draw(st.integers(0, k))
    if data.draw(st.booleans()):
        positions = list(range(f))
    else:
        positions = sorted(data.draw(st.lists(
            st.integers(0, k - 1), min_size=f, max_size=f, unique=True)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.integers(0, 2, size=(data.draw(st.integers(1, 40)), n))
    c = IqpCircuit(n, k, pool[rng.integers(0, len(pool), size=m)])
    sel = rng.integers(0, 2, size=(300, f), dtype=np.int64)
    assert (_iqp_values(c, positions)(sel)
            == reference_iqp_values(c, positions)(sel)).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(256, 700), st.data())
def test_iqp_kernel_wraps_counts_past_a_byte(n, m, data):
    """The setup's uint8 products wrap counts at 256, which keeps a
    parity and a value mod 4: with more program rows than a byte counts,
    the draws still equal the per-row reference's under ==."""
    k = data.draw(st.integers(1, n))
    f = data.draw(st.integers(0, k))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.integers(0, 2, size=(data.draw(st.integers(1, 6)), n))
    c = IqpCircuit(n, k, pool[rng.integers(0, len(pool), size=m)])
    sel = rng.integers(0, 2, size=(200, f), dtype=np.int64)
    assert (_iqp_values(c, range(f))(sel)
            == reference_iqp_values(c, range(f))(sel)).all()


def test_iqp_setup_does_not_widen_the_program():
    """At m = 32000 program rows, n = f = 14, the setup's tracemalloc peak
    stays under 2 MB: it reads the uint8 row matrix and widens only its
    (f, n) and (f, f) results, where int64 copies of the program peaked
    at about 7 MB."""
    c = random_iqp_circuit(np.random.default_rng(9), 14, 32000)
    tracemalloc.start()
    try:
        _iqp_values(c, range(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prod_quad_equals_the_triu_diag_reference(mixed, data):
    """The Z4 form that ``_prod_values`` hands the draw kernel is, under
    ==, the int64 matrix diag(kappa) + 2 triu(pair, 1) of the reference,
    at prefix and scattered positions."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(1, 8))
    c = random_prod_circuit(rng, n, data.draw(st.integers(0, 5 * n)),
                            mixed=mixed)
    positions = sorted(data.draw(st.lists(st.integers(0, n - 1),
                                          max_size=n, unique=True)))
    forms = []

    def spy(fx, fz, quad, weights):
        forms.append(quad)
        return form(fx, fz, quad, weights)
    form = polybox._form_values
    with mock.patch.object(polybox, "_form_values", spy):
        _prod_values(c, positions)
    [quad] = forms
    want = reference_prod_quad(c, positions)
    assert quad.dtype == want.dtype and (quad == want).all()


def test_iqp_kernel_memory_does_not_grow_with_the_rows():
    """At n = 14 with 14 fixed bits, building the kernel for 1000 program
    rows and drawing 2048 selections stays under 2 MB: the per-row reference
    kernel peaks at 16 MB here, and 4x that at 4000 rows."""
    c = random_iqp_circuit(np.random.default_rng(9), 14, 1000)
    sel = np.random.default_rng(10).integers(0, 2, size=(2048, 14),
                                             dtype=np.int64)
    tracemalloc.start()
    try:
        _iqp_values(c, range(14))(sel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


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
        enc = EncodedCircuit(inner)
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
        CePolyBox(EncodedCircuit(ghz_circuit(1))).estimate(OutcomePattern("0*"),
                                                      eps, delta)


@pytest.mark.parametrize("box", [
    ProdPolyBox(ghz_circuit(2)),
    IqpPolyBox(IqpCircuit(2, 2, ((1, 1),))),
    CePolyBox(EncodedCircuit(ghz_circuit(1))),
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
    enc = EncodedCircuit(ghz)
    cebox = auto_polybox(enc)
    assert isinstance(cebox, CePolyBox)
    assert cebox.deterministic
    assert cebox.estimate(OutcomePattern("0**"), 0.25).value == 0.5
    oracle = OraclePolyBox(ghz)
    assert oracle.deterministic
    # only the sampling handles enumerate; the others answer without drawing
    assert not hasattr(cebox, "exact_prefixes")
    assert not hasattr(oracle, "exact_prefixes")
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
    enc = EncodedCircuit(ghz_circuit(2))
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
# Batched queries: one shared draw matrix for rows over the same positions
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
def batches(draw, family, prefixes=False):
    """(circuit, patterns): up to 12 patterns, repeats allowed, that fix the
    same positions of a circuit on at most 6 qubits, or the same prefix."""
    c = draw(circuits(family))
    if prefixes:
        level = draw(st.integers(0, c.k))
        fixed = [True] * level + [False] * (c.k - level)
    else:
        fixed = draw(st.lists(st.booleans(), min_size=c.k, max_size=c.k))
    patterns = []
    for _ in range(draw(st.integers(1, 12))):
        bits = iter(draw(st.text("01", min_size=sum(fixed),
                                 max_size=sum(fixed))))
        patterns.append(OutcomePattern(
            "".join(next(bits) if f else "*" for f in fixed)))
    return c, patterns


def bit_matrix(patterns):
    """(positions, bits): the fixed positions the patterns share, and one
    row of their bits per pattern."""
    positions = [pos for pos, _ in patterns[0].fixed]
    bits = np.array([[bit for _, bit in p.fixed] for p in patterns],
                    dtype=np.int64).reshape(len(patterns), len(positions))
    return positions, bits


@pytest.mark.parametrize("family", ["prod", "iqp"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_rows_match_single_pattern_kernel(family, data):
    c, patterns = data.draw(batches(family))
    count = data.draw(st.integers(1, 40))
    positions, bits = bit_matrix(patterns)
    f = len(positions)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sel = rng.integers(0, 2, size=(count, f), dtype=np.int64)
    # small blocks, so that batches of up to 12 patterns span several
    with mock.patch.object(polybox, "_BLOCK", 5):
        sums = _batched_sums(KERNELS[family], c, positions, bits)
        # a one-row sum is that row's draw, up to the sign of a zero
        rows = np.array([sums(sel[i:i + 1]) for i in range(count)]).T
    assert rows.shape == (len(patterns), count)
    for row, pattern in zip(rows, patterns):
        assert (row == pattern_draws(KERNELS[family], c, pattern, sel)).all()


@pytest.mark.parametrize("family", ["prod", "iqp"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_estimate_many_matches_single_queries(family, data):
    """One ``prefixes`` call over a level gives each prefix the value of its
    own ``estimate``, from the same stream."""
    c, patterns = data.draw(batches(family, prefixes=True))
    _, bits = bit_matrix(patterns)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    box = BOXES[family](c, threads=data.draw(st.sampled_from((1, 2))))
    # 12323 draws: two chunks, so chunk spawning and the sums are covered
    eps, delta = 0.015, 0.5

    def rng():
        return np.random.default_rng(seed)
    many = box.prefixes(bits, eps, delta, rng())
    assert box.prefixes(bits[:1], eps, delta, rng()).tolist() == [
        box.estimate(patterns[0], eps, delta, rng()).value]
    for pattern, value in zip(patterns, many):
        est = box.estimate(pattern, eps, delta, rng())
        assert est.samples_used == hoeffding_samples(eps, delta) == 12323
        assert value == est.value


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
    for pattern, value in zip(patterns, BOXES[family](c).prefixes(
            bit_matrix(patterns)[1], eps, delta, rng)):
        assert abs(value - dist.probability(pattern)) < eps


@pytest.mark.parametrize("family", ["prod", "iqp"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_many_matches_oracle_prefix_marginals(family, data):
    """``exact_prefixes`` over a whole level gives each prefix marginal."""
    c = data.draw(circuits(family))
    level = data.draw(st.integers(1, c.k))
    prefixes = [format(i, f"0{level}b") for i in range(1 << level)]
    bits = np.array([[int(b) for b in row] for row in prefixes])
    # 8-row chunks, so that levels of up to 64 selections span several
    with mock.patch.object(polybox, "_CHUNK", 8):
        values = BOXES[family](c).exact_prefixes(bits)
    for value, want in zip(values, exact_distribution(c).prefixes(bits)):
        assert abs(value - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_levels_equal_the_per_level_kernel(data):
    """Levels read from the handle's one table give, float for float, the
    means of a kernel set up afresh per level: on prod circuits with pure
    and mixed inputs and on X-programs, in any level order, at levels
    within and past the table's width, and past a small table cap."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(1, n))
    family = data.draw(st.sampled_from(("pure", "mixed", "iqp")))
    if family == "iqp":
        c = random_iqp_circuit(rng, n, data.draw(st.integers(1, 12)), k=k)
    else:
        c = random_prod_circuit(rng, n, data.draw(st.integers(0, 4 * n)),
                                mixed=family == "mixed", k=k)
    levels = data.draw(st.lists(st.integers(0, k), min_size=1, max_size=5))
    chunk = data.draw(st.sampled_from((2, 16, polybox._CHUNK)))
    box = BOXES["iqp" if family == "iqp" else "prod"](c)
    with mock.patch.object(polybox, "_CHUNK", chunk):
        for j in levels:
            bits = rng.integers(0, 2, size=(data.draw(st.integers(1, 70)), j))
            got = box.exact_prefixes(bits)
            assert got.tolist() == per_level_exact_prefixes(box, bits).tolist()
            assert len(box._exact_table[1]) <= chunk


def test_exact_table_sets_up_thirteen_positions_and_level_fourteen_fourteen(
        monkeypatch):
    """On 2000 qubits the first exact level sets the kernel up over 13
    positions and computes the table's 2^13 rows; levels 1-13 and a second
    pass over them compute nothing more, and level 14 sets up over exactly
    14 positions and computes only the 2^13 rows past the table."""
    setups, rows = [], []

    def spy(circuit, positions):
        setups.append(len(positions))
        kernel = _prod_values(circuit, positions)

        def value(sel):
            rows.append(len(sel))
            return kernel(sel)
        return value
    monkeypatch.setattr(ProdPolyBox, "values", staticmethod(spy))
    box = ProdPolyBox(ghz_circuit(2000))
    for j in [*range(1, 14), *range(1, 14)]:
        box.exact_prefixes(np.zeros((2, j), dtype=np.int64))
        assert setups == [13] and sum(rows) == 1 << 13
    box.exact_prefixes(np.zeros((2, 14), dtype=np.int64))
    assert setups == [13, 14] and sum(rows) == 1 << 14


@pytest.mark.parametrize("k", [1, 3, 8])
def test_all_exact_search_builds_its_selection_rows_once(monkeypatch, k):
    """An all-exact search with k <= 13 makes one selection matrix, the
    table's rows over k positions, with the table: every level reads its
    selections from those rows."""
    calls = []

    def spy(lo, hi, f):
        calls.append((lo, hi, f))
        return selections(lo, hi, f)
    selections = polybox._selections
    monkeypatch.setattr(polybox, "_selections", spy)
    ghz = ghz_circuit(k)
    box = ProdPolyBox(ghz)
    surv = heavy_prefixes(box, ghz, search_plan(box, k, 1, 0.25, 0.2),
                          NoSpawnRng())
    assert sorted(p for p, _ in surv) == ["0" * k, "1" * k]
    assert calls == [(0, 1 << k, k)]
    rows, table = box._exact_table
    assert rows.shape == (1 << k, k) and len(table) == 1 << k


# ---------------------------------------------------------------------------
# The tabulated kernel: one evaluation per distinct selection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["prod", "iqp"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tabulated_kernel_matches_per_draw_kernel(family, data):
    """Over f fixed positions the 2^f-row table, when it is used, gives each
    row of a query the same means as the kernel run on every draw: s on both
    sides of 2^f and of the chunk size, at 1 and 2 threads."""
    f = data.draw(st.integers(1, 13))
    n = data.draw(st.integers(f, 16))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if family == "prod":
        c = random_prod_circuit(rng, n, data.draw(st.integers(0, 4 * n)),
                                mixed=data.draw(st.booleans()))
    else:
        c = random_iqp_circuit(rng, n, data.draw(st.integers(1, 2 * n)))
    positions = sorted(rng.choice(n, size=f, replace=False).tolist())
    bits = rng.integers(0, 2, size=(data.draw(st.integers(1, 4)), f))
    chunk = data.draw(st.sampled_from((64, polybox._CHUNK)))
    # about that many draws at delta = 1/2: up to 2^f, from 2^f to one
    # chunk, or two to three chunks
    draws = data.draw(st.one_of(st.integers(1, 1 << f),
                                st.integers(min(1 << f, chunk), chunk),
                                st.integers(chunk + 1, 3 * chunk)))
    eps, delta = math.sqrt(2 * math.log(4) / draws), 0.5
    box = BOXES[family](c, threads=data.draw(st.sampled_from((1, 2))))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    with mock.patch.object(polybox, "_CHUNK", chunk):
        got = box._sampled(positions, bits, eps, delta,
                           np.random.default_rng(seed))
        want = per_draw_sampled(box, positions, bits, eps, delta,
                                np.random.default_rng(seed))
    assert got[0] == want[0]
    assert got[1].tolist() == want[1].tolist()


@pytest.mark.parametrize("family", ["prod", "iqp"])
@pytest.mark.parametrize("eps, rows", [(0.1, 1 << 9), (0.2, 185)])
def test_estimate_evaluates_the_kernel_once_per_distinct_selection(
        family, eps, rows):
    """9 fixed bits: at eps = 0.1 the 738 draws read a table of the 2^9
    selections; at eps = 0.2 the 185 draws, fewer than 2^9, each run the
    kernel."""
    rng = np.random.default_rng(12)
    c = (random_prod_circuit(rng, 12, 40) if family == "prod"
         else random_iqp_circuit(rng, 12, 16))
    evaluated = []

    def counting(circuit, positions):
        value = KERNELS[family](circuit, positions)

        def counted(sel):
            evaluated.append(len(sel))
            return value(sel)
        return counted
    pattern = OutcomePattern("01*1*0*11011")
    box = BOXES[family](c)
    with mock.patch.object(box, "values", counting):
        est = box.estimate(pattern, eps, 0.05, np.random.default_rng(3))
    assert est.samples_used == hoeffding_samples(eps, 0.05)
    assert evaluated == [rows]


# ---------------------------------------------------------------------------
# Whole search levels on the deterministic handles
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_oracle_level_equals_pattern_probabilities(data):
    """``OraclePolyBox.prefixes`` sums each prefix's contiguous cells in one
    reduction; the frozen sampler digests need every sum to equal, float
    for float, the one ``probability`` takes over the pattern's cell."""
    k = data.draw(st.integers(1, 12))
    level = data.draw(st.integers(1, k))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # powers spread the magnitudes, so that the order of the additions shows
    probs = rng.random(1 << k) ** data.draw(st.sampled_from((1, 8, 40)))
    dist = ExactDistribution(k, probs / probs.sum())
    codes = rng.permutation(1 << level)
    bits = (codes[:, None] >> np.arange(level)[::-1]) & 1
    with mock.patch.object(polybox, "exact_distribution", lambda c: dist):
        values = OraclePolyBox(ghz_circuit(k)).prefixes(bits, 0.1)
    for code, value in zip(codes, values):
        pattern = format(code, f"0{level}b") + "*" * (k - level)
        assert value == dist.probability(OutcomePattern(pattern))


@pytest.mark.parametrize("eps, builds", [(0.2, 1), (0.25, 0), (0.3, 0)])
def test_ce_full_level_makes_at_most_one_oracle_build(monkeypatch, eps,
                                                      builds):
    """Below the 2^-y resolution one inner build answers every full
    pattern of the level, and at or above it the midpoint needs none; each
    value equals the pattern's own ``estimate``."""
    enc = EncodedCircuit(random_prod_circuit(np.random.default_rng(4), 3, 10, k=2))
    assert enc.y_bits == 2
    calls = []
    build = oracle.exact_distribution

    def counting(circuit):
        calls.append(circuit)
        return build(circuit)
    monkeypatch.setattr(oracle, "exact_distribution", counting)
    box = CePolyBox(enc)
    rows = [format(i, "03b") for i in range(8)]
    values = box.prefixes(np.array([[int(b) for b in r] for r in rows]), eps)
    assert calls == [enc.inner] * builds
    for row, value in zip(rows, values):
        assert value == box.estimate(OutcomePattern(row), eps).value
    wild = box.prefixes(np.array([[0, 1], [1, 1]]), eps)
    assert wild.tolist() == [box.estimate(OutcomePattern("01*"), eps).value,
                             0.25]
