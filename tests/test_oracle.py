"""Exact Born-probability oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bornbox import oracle
from bornbox import stabcore as sc
from bornbox.circuits import (EncodedCircuit, IqpCircuit, OutcomePattern,
                              ProdCircuit)
from bornbox.oracle import (ExactDistribution, OracleLimitError,
                            exact_distribution, exact_probability,
                            l1_distance, min_sparsity, prod_probabilities,
                            prod_probabilities_many)
from bornbox.stabcore import (GateApp, ProductState,
                              pauli_expansion_probability, tableau_from_gates)

from helpers import (MIXED_GATES, gate_lists, ghz_circuit, index_to_outcome,
                     pattern_matches, random_bloch, random_iqp_circuit,
                     random_pattern, random_prod_circuit)
from reference import (PerPrefix, StateVector, gate_steps,
                       masked_probability, reference_prod_probabilities,
                       reference_runs, reference_synthesize_gates,
                       sample_outcomes,
                       statevector)


def test_bell_distribution():
    c = ghz_circuit(2)
    d = exact_distribution(c)
    assert np.allclose(d.probs, [0.5, 0, 0, 0.5])
    assert abs(exact_probability(c, OutcomePattern("0*")) - 0.5) < 1e-12
    assert abs(exact_probability(c, OutcomePattern("11")) - 0.5) < 1e-12


def test_ghz3_distribution_is_exact():
    d = exact_distribution(ghz_circuit(3))
    assert d.probs[0] == 0.5
    assert d.probs[7] == 0.5
    assert d.probs[1:7].max() == 0.0
    assert exact_probability(ghz_circuit(3), OutcomePattern("111")) == 0.5


def test_x_gate_flips_and_index_order():
    c = ProdCircuit(2, 2, ProductState.zero(2), (GateApp("X", (1,)),))
    d = exact_distribution(c)
    # outcome "01": qubit 0 measured 0, qubit 1 measured 1 -> index 0b01
    assert np.allclose(d.probs, [0, 1, 0, 0])


def test_mixed_inputs():
    c = ProdCircuit(1, 1, ProductState(((0.0, 0.0, 0.0),)), ())
    assert np.allclose(exact_distribution(c).probs, [0.5, 0.5])
    c = ProdCircuit(1, 1, ProductState(((0.0, 0.0, 0.5),)), ())
    assert abs(exact_probability(c, OutcomePattern("0")) - 0.75) < 1e-12


def test_mixed_input_through_entangler():
    # H on a partially mixed qubit, then CNOT; cross-check by density matrix
    c = ProdCircuit(2, 2, ProductState(((0.2, -0.1, 0.4), (0.0, 0.0, 1.0))),
                    (GateApp("H", (0,)), GateApp("CNOT", (0, 1))))
    d = exact_distribution(c)
    X = np.array([[0, 1], [1, 0]], complex)
    Y = np.array([[0, -1j], [1j, 0]], complex)
    Z = np.array([[1, 0], [0, -1]], complex)
    rho0 = (np.eye(2) + 0.2 * X - 0.1 * Y + 0.4 * Z) / 2
    rho = np.kron(np.diag([1.0, 0.0]), rho0)  # qubit 1 slow axis, qubit 0 fast
    H2 = np.array([[1, 1], [1, -1]], complex) / np.sqrt(2)
    U = np.zeros((4, 4), complex)
    for b in range(4):
        U[b ^ ((b & 1) << 1), b] = 1.0  # CNOT control qubit 0, target qubit 1
    U = U @ np.kron(np.eye(2), H2)
    rho = U @ rho @ U.conj().T
    want = [rho[0, 0].real, rho[2, 2].real, rho[1, 1].real, rho[3, 3].real]
    assert np.allclose(d.probs, want)


def test_iqp_frozen():
    assert np.allclose(exact_distribution(IqpCircuit(1, 1, ((1,),))).probs,
                       [0.5, 0.5])
    assert np.allclose(exact_distribution(IqpCircuit(1, 1, ((1,), (1,)))).probs,
                       [0.0, 1.0])
    # row touching only qubit 0 leaves qubit 1 in |0>
    assert np.allclose(exact_distribution(IqpCircuit(2, 2, ((1, 0),))).probs,
                       [0.5, 0, 0.5, 0])


def test_iqp_empty_program_is_point_mass():
    d = exact_distribution(IqpCircuit(3, 3, ()))
    assert d.probs[0] == 1.0


def test_encoded_frozen():
    e = EncodedCircuit(ProdCircuit(1, 1, ProductState.zero(1), ()))
    d = exact_distribution(e)
    assert np.allclose(d.probs, [0.5, 0, 0, 0.5])
    assert exact_probability(e, OutcomePattern("0*")) == 0.5
    assert exact_probability(e, OutcomePattern("*1")) == 0.5
    assert exact_probability(e, OutcomePattern("00")) == 0.5
    assert exact_probability(e, OutcomePattern("10")) == 0.0


def test_encoded_marginals_exactly_dyadic():
    e = EncodedCircuit(ghz_circuit(3))
    assert e.k == 4
    assert exact_probability(e, OutcomePattern("*01*")) == 0.25
    assert exact_probability(e, OutcomePattern("1***")) == 0.5
    assert exact_probability(e, OutcomePattern("*111")) == 0.125


def test_encoded_first_bit_recovers_inner_marginal():
    # Par(Z) = X, so summing outcomes with even parity equals inner p(first=0)
    inner = random_prod_circuit(np.random.default_rng(3), 3, 8)
    e = EncodedCircuit(inner)
    p0 = exact_probability(inner, OutcomePattern("0**"))
    d = exact_distribution(e)
    even = sum(float(d.probs[i]) for i in range(1 << e.k)
               if bin(i).count("1") % 2 == 0)
    assert abs(even - p0) < 1e-12


def test_distribution_normalized_after_rounding():
    rng = np.random.default_rng(17)
    for _ in range(10):
        c = random_prod_circuit(rng, 3, 10)
        assert abs(float(exact_distribution(c).probs.sum()) - 1.0) < 1e-12


# pure |0>, pure |1> (the other eigenvector formula), maximally mixed, or a
# random Bloch vector
EDGE_BLOCH = (None, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prod_probabilities_match_per_branch_loop(data):
    n, gates = data.draw(gate_lists())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bloch = tuple(data.draw(st.sampled_from(EDGE_BLOCH))
                  or random_bloch(rng, bool(rng.integers(2))) for _ in range(n))
    c = ProdCircuit(n, n, ProductState(bloch), gates)
    got = prod_probabilities(c)
    assert got.tobytes() == reference_prod_probabilities(c).tobytes()


def _stack_case(data):
    """A product input on n qubits and 1-5 gate lists on it, ragged and
    possibly empty, drawn from every gate kind."""
    n = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bloch = tuple(data.draw(st.sampled_from(EDGE_BLOCH))
                  or random_bloch(rng, bool(rng.integers(2))) for _ in range(n))
    lists = []
    for _ in range(data.draw(st.integers(1, 5))):
        count = data.draw(st.integers(0, 30))
        # every kind at least once when the list is long enough
        names = list(MIXED_GATES) * (count >= len(MIXED_GATES))
        names += [data.draw(st.sampled_from(MIXED_GATES))
                  for _ in range(count - len(names))]
        gates = []
        for name in data.draw(st.permutations(names)):
            if name in ("CNOT", "CZ") and n < 2:
                name = "S"
            qubits = rng.choice(n, 2 if name in ("CNOT", "CZ") else 1,
                                replace=False)
            gates.append(GateApp(name, tuple(int(q) for q in qubits)))
        lists.append(tuple(gates))
    return ProductState(bloch), lists


def _assert_rows_equal_reference(state, steps, lists):
    """Row j of the step evolution equals the per-gate reference loop on
    gate list j bit for bit, also when the cap evolves one list at a
    time."""
    n = state.n
    got = prod_probabilities_many(state, steps, len(lists))
    assert got.shape == (len(lists), 1 << n)
    for row, gates in zip(got, lists):
        want = reference_prod_probabilities(ProdCircuit(n, n, state, gates))
        assert (row == want).all()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_BATCH_AMPLITUDES", 1)
        assert (prod_probabilities_many(state, steps, len(lists)) == got).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_evolution_equals_per_gate_reference(data):
    state, lists = _stack_case(data)
    _assert_rows_equal_reference(state, gate_steps(lists), lists)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.integers(0, 3))
def test_synthesized_stack_evolution_equals_per_gate_reference(
        n, count, seed, mixed):
    """The sweep's own steps, with their per-trial pivots and the runs of
    CNOTs and CZs on one control, on a pure input or one with up to three
    mixed qubits (each doubles the reference's branches)."""
    rng = np.random.default_rng(seed)
    words = sc.random_clifford_words(n, count, rng)
    bloch = [random_bloch(rng, q < mixed) for q in range(n)]
    rng.shuffle(bloch)
    state = ProductState(tuple(bloch))
    lists = [reference_synthesize_gates(sc.CliffordTableau.from_words(
        n, x, z, s)) for x, z, s in zip(*(w.tolist() for w in words))]
    _assert_rows_equal_reference(state, sc.synthesis_steps(n, *words), lists)


def _assert_runs_equal_reference(steps, trials):
    runs, words = oracle._runs(steps, trials)
    want = reference_runs(steps)
    assert words.shape == (len(want), trials)
    assert len(runs) == len(want)
    for (name, ctl), word, (ref_name, ref_ctl, ref_word) in zip(runs, words,
                                                                want):
        assert name == ref_name
        assert type(ctl) is type(ref_ctl) and np.array_equal(ctl, ref_ctl)
        assert word.dtype == ref_word.dtype
        assert (word == ref_word).all()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_runs_equal_the_per_step_reference(data):
    """On the sweep's own steps, with their per-trial pivots and merged runs
    of CNOTs and CZs on one control, and on ragged gate lists, whose steps
    hold array qubits wherever the lists' gates differ."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 8))
        count = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        steps = sc.synthesis_steps(n, *sc.random_clifford_words(n, count, rng))
    else:
        _, lists = _stack_case(data)
        steps, count = gate_steps(lists), len(lists)
    _assert_runs_equal_reference(steps, count)


def test_runs_of_no_steps_are_empty():
    runs, words = oracle._runs([], 3)
    assert runs == [] and words.shape == (0, 3)
    _assert_runs_equal_reference(gate_steps([(), ()]), 2)


# Bloch vectors on both sides of the pure threshold, the centre included
_EDGE_BLOCH = [(0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0),
               (0.0, 0.0, oracle._PURE), (0.0, 0.0, 1.0 - 1e-13),
               (0.6, 0.0, -0.8 + 1e-13), (0.3, 0.2, 0.1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_EDGE_BLOCH), min_size=1, max_size=12),
       st.sampled_from([1, 4096, oracle._BATCH_AMPLITUDES]))
def test_sub_batch_lists_counts_the_branches_that_are_built(bloch, batch):
    """sub_batch_lists counts branches without building them; its count is
    the one that prod_probabilities_many takes from the built branches."""
    state = ProductState(tuple(bloch))
    built = len(oracle.prod_branches(state)) << state.n
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_BATCH_AMPLITUDES", batch)
        # up to 12 qubits, each counted twice when mixed
        m.setenv("BORNBOX_ORACLE_LIMIT", "24")
        assert oracle.sub_batch_lists(state) == max(1, batch // built)


def test_mixed_qubits_count_twice_against_the_oracle_limit(monkeypatch):
    """Each mixed qubit doubles the pure branches, so n plus the mixed
    count is held to the limit, before any branch is built."""
    monkeypatch.setenv("BORNBOX_ORACLE_LIMIT", "6")
    mixed, pure = (0.3, 0.2, 0.5), (0.0, 0.0, 1.0)
    at_limit = ProductState((mixed,) * 3)
    above = ProductState((mixed,) * 3 + (pure,))
    assert len(prod_probabilities_many(at_limit, [], 1)[0]) == 1 << 3

    def refuse(state):
        raise AssertionError("branches built")
    monkeypatch.setattr(oracle, "prod_branches", refuse)
    for call in (lambda: oracle.sub_batch_lists(above),
                 lambda: prod_probabilities_many(above, [], 1)):
        with pytest.raises(OracleLimitError, match=(
                r"^4 qubits with 3 mixed, each counted twice, exceeds the "
                r"exact-simulation limit of 6;")):
            call()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_marginal_equals_sum_of_completions(seed):
    rng = np.random.default_rng(seed)
    if rng.integers(2):
        c = random_prod_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(0, 8)))
    else:
        c = random_iqp_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(0, 6)))
    pattern = random_pattern(rng, c.k)
    total = sum(
        exact_probability(c, OutcomePattern(index_to_outcome(i, c.k)))
        for i in range(1 << c.k)
        if pattern_matches(pattern, index_to_outcome(i, c.k)))
    assert abs(exact_probability(c, pattern) - total) < 1e-9


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 12), density=st.sampled_from((1.0, 0.5, 0.1)),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_probability_equals_the_masked_sum(k, density, seed, data):
    """Bit for bit, on dense and sparse random distributions."""
    rng = np.random.default_rng(seed)
    probs = rng.random(1 << k) * (rng.random(1 << k) < density)
    probs[0] += probs.sum() == 0.0
    dist = ExactDistribution(k, probs / probs.sum())
    pattern = OutcomePattern(data.draw(st.text("01*", min_size=k,
                                               max_size=k)))
    assert dist.probability(pattern) == masked_probability(dist, pattern)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_prefix_probability_matches_pattern_probability(seed):
    # the cumulative-table route and the pattern route to a prefix
    # marginal, on mixed-input prod circuits and X-programs up to 6 qubits
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    k = int(rng.integers(1, n + 1))
    if rng.integers(2):
        c = random_prod_circuit(rng, n, int(rng.integers(0, 12)), k=k)
    else:
        c = random_iqp_circuit(rng, n, int(rng.integers(0, 8)), k=k)
    dist = exact_distribution(c)
    per_prefix = PerPrefix(dist)
    for j in range(1, k + 1):
        level = (np.arange(1 << j)[:, None] >> np.arange(j)[::-1]) & 1
        for i, value in enumerate(dist.prefixes(level)):
            b = index_to_outcome(i, j)
            want = dist.probability(OutcomePattern(b + "*" * (k - j)))
            assert abs(value - want) <= 1e-12
            assert value == per_prefix.prefix_probability(b)


def test_encoded_closed_form_agrees_with_distribution():
    rng = np.random.default_rng(23)
    for _ in range(5):
        e = EncodedCircuit(random_prod_circuit(rng, 2, 6))
        d = exact_distribution(e)
        for i in range(1 << e.k):
            bits = index_to_outcome(i, e.k)
            assert abs(exact_probability(e, OutcomePattern(bits))
                       - d.probs[i]) < 1e-12


def test_min_sparsity():
    p = np.array([0.5, 0.3, 0.1, 0.1])
    assert min_sparsity(p, 0.0) == 4
    assert min_sparsity(p, 0.2) == 3
    assert min_sparsity(p, 0.4) == 2
    assert min_sparsity(p, 2.0) == 1
    with pytest.raises(ValueError):
        min_sparsity(p, -0.1)
    with pytest.raises(ValueError):
        min_sparsity(p, 2.5)


@given(st.integers(1, 4), st.floats(0.0, 2.0))
def test_min_sparsity_uniform_formula(d, eps):
    # dropping the u smallest of 2^d equal cells costs 2u/2^d in L1
    size = 1 << d
    t = min_sparsity(np.full(size, 1.0 / size), eps)
    want = max(1, int(np.ceil(size * (1.0 - eps / 2.0) - 1e-9)))
    assert t == want


def _loop_min_sparsity(probs, eps):
    """The first t whose dropped tail costs at most eps, one t at a time."""
    srt = np.sort(probs)[::-1]
    tail = srt.sum() - np.cumsum(srt)
    for t in range(1, srt.size + 1):
        if 2.0 * tail[t - 1] <= eps + 1e-12:
            return t
    return srt.size


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
       st.floats(0.0, 2.0), st.integers(0, 15))
def test_min_sparsity_matches_a_loop_over_t(weights, eps, j):
    assume(sum(weights) > 0.0)
    probs = np.array(weights) / sum(weights)
    # an arbitrary eps, and one that sits exactly on a tail's cost
    tail = 2.0 * (1.0 - np.cumsum(np.sort(probs)[::-1]))
    for e in (eps, min(2.0, max(0.0, tail[j % probs.size]))):
        assert min_sparsity(probs, e) == _loop_min_sparsity(probs, e)


def test_l1_distance():
    a = ExactDistribution(1, np.array([1.0, 0.0]))
    b = ExactDistribution(1, np.array([0.25, 0.75]))
    assert abs(l1_distance(a, b) - 1.5) < 1e-15
    assert l1_distance(a.probs, b.probs) == l1_distance(a, b)
    with pytest.raises(ValueError):
        l1_distance(a, ExactDistribution(2, np.full(4, 0.25)))


def test_exact_sample_deterministic():
    d = exact_distribution(ghz_circuit(3))
    a = sample_outcomes(d, np.random.default_rng(0), 1)[0]
    b = sample_outcomes(d, np.random.default_rng(0), 1)[0]
    assert a == b
    assert a in ("000", "111")
    draws = sample_outcomes(d, np.random.default_rng(1), 200)
    assert set(draws) <= {"000", "111"}


def test_oracle_limit(monkeypatch):
    monkeypatch.setenv("BORNBOX_ORACLE_LIMIT", "2")
    with pytest.raises(OracleLimitError):
        exact_distribution(ghz_circuit(3))
    assert np.allclose(exact_distribution(ghz_circuit(2)).probs,
                       [0.5, 0, 0, 0.5])
    monkeypatch.setenv("BORNBOX_ORACLE_LIMIT", "abc")
    with pytest.raises(OracleLimitError):
        exact_distribution(ghz_circuit(2))
    monkeypatch.setenv("BORNBOX_ORACLE_LIMIT", "0")
    with pytest.raises(OracleLimitError):
        exact_distribution(ghz_circuit(2))


def test_statevector_validation():
    with pytest.raises(ValueError, match="wrong length"):
        StateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))
    psi = statevector(ghz_circuit(2))
    assert psi.n == 2
    assert abs(abs(psi.amplitudes[0]) ** 2 - 0.5) < 1e-12
    assert abs(abs(psi.amplitudes[3]) ** 2 - 0.5) < 1e-12
    with pytest.raises(ValueError, match="no state vector"):
        statevector(ProdCircuit(1, 1, ProductState(((0.0, 0.0, 0.0),)), ()))
    with pytest.raises(TypeError):
        statevector(EncodedCircuit(ghz_circuit(2)))


def test_distribution_validation():
    with pytest.raises(ValueError, match="wrong length"):
        ExactDistribution(2, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="negative"):
        ExactDistribution(1, np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sum to 1"):
        ExactDistribution(1, np.array([0.7, 0.7]))
    d = ExactDistribution(2, np.array([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(ValueError, match="pattern length"):
        d.probability(OutcomePattern("0"))


def test_statevector_route_matches_pauli_expansion():
    # two independent evaluation routes for Clifford circuits on |0..0>
    rng = np.random.default_rng(41)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        c = random_prod_circuit(rng, n, int(rng.integers(0, 10)), mixed=False)
        c = ProdCircuit(n, n, ProductState.zero(n), c.gates)
        t = tableau_from_gates(n, c.gates)
        pattern = random_pattern(rng, n)
        via_tableau = pauli_expansion_probability(t, c.state, pattern.trits)
        via_oracle = exact_probability(c, pattern)
        assert abs(via_tableau - via_oracle) < 1e-10
