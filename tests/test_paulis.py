"""Tableau arithmetic cross-checked against dense matrices."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornbox import stabcore as sc

from helpers import (MIXED_GATES, S_HEAVY_GATES, drawn_tableau, gate_lists,
                     synthesized_gates, trial_gates)
from reference import (clifford_group_order, commutes, conjugate_pauli,
                       pauli_product, reference_ks_digits,
                       reference_pull_back,
                       reference_random_clifford, reference_symplectic_matrix,
                       reference_synthesis_steps, reference_synthesize_gates,
                       reference_tableau_from_gates, rows_are_symplectic,
                       symplectic_matrix)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
ONE_QUBIT = {"H": H, "S": S, "X": X, "Z": Z}


def kron_n(ops):
    # reversed kron so that index bit i corresponds to qubit i
    out = np.array([[1]], dtype=complex)
    for op in ops:
        out = np.kron(op, out)
    return out


def pauli_dense(p: sc.PauliOperator) -> np.ndarray:
    ops = []
    for i in range(p.n):
        xi = (p.x >> i) & 1
        zi = (p.z >> i) & 1
        ops.append([I2, X, Z, Y][xi + 2 * zi])
    return p.sign * kron_n(ops)


def gate_dense(gate: sc.GateApp, n: int) -> np.ndarray:
    name, qs = gate.name, gate.qubits
    if name in ONE_QUBIT:
        mats = [I2] * n
        mats[qs[0]] = ONE_QUBIT[name]
        return kron_n(mats)
    dim = 2**n
    U = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        bc = (b >> qs[0]) & 1
        bt = (b >> qs[1]) & 1
        if name == "CNOT":
            U[b ^ (bc << qs[1]), b] = 1
        elif name == "CZ":
            U[b, b] = -1 if (bc and bt) else 1
    return U


def circuit_unitary(gates, n: int) -> np.ndarray:
    U = np.eye(2**n, dtype=complex)
    for g in gates:
        U = gate_dense(g, n) @ U
    return U


def random_gate_list(rng, n, count):
    names = sorted(sc.GATE_ARITY)
    gates = []
    for _ in range(count):
        nm = names[int(rng.integers(len(names)))]
        if sc.GATE_ARITY[nm] == 1:
            gates.append(sc.GateApp(nm, (int(rng.integers(n)),)))
        elif n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(sc.GateApp(nm, (int(a), int(b))))
    return gates


def pull_back(n, gates, paulis):
    """U^dag P U for each P of paulis in one pass of the word rule: the
    Paulis packed as tableau-layout words, pulled back by
    ``pull_back_words`` and read back as rows."""
    xs, zs, sg = sc._to_words(n, paulis)
    sg = sc.pull_back_words(gates, xs, zs, sg)
    return tuple(sc._row(n, xs, zs, sg, r) for r in range(len(paulis)))


def assert_conjugations_match_dense(n, gates, U, paulis):
    """g P g^dag through the tableau's words for each P, and g^dag P g for
    the whole batch through one pull_back."""
    t = sc.tableau_from_gates(n, gates)
    for p, bwd in zip(paulis, pull_back(n, gates, paulis), strict=True):
        fwd = sc.apply_tableau(t, p)
        assert np.allclose(pauli_dense(fwd), U @ pauli_dense(p) @ U.conj().T)
        assert np.allclose(pauli_dense(bwd), U.conj().T @ pauli_dense(p) @ U)


def test_single_qubit_conjugation_matches_dense():
    paulis = [sc.PauliOperator(1, xz & 1, (xz >> 1) & 1, sign)
              for xz in range(1, 4) for sign in (1, -1)]
    for name, U in ONE_QUBIT.items():
        assert_conjugations_match_dense(1, [sc.GateApp(name, (0,))], U, paulis)


def test_two_qubit_conjugation_matches_dense_both_orders():
    paulis = [sc.PauliOperator(2, x, z, sign)
              for x in range(4) for z in range(4) for sign in (1, -1)]
    for name in ("CNOT", "CZ"):
        for qs in ((0, 1), (1, 0)):
            U = gate_dense(sc.GateApp(name, qs), 2)
            assert_conjugations_match_dense(2, [sc.GateApp(name, qs)], U,
                                            paulis)


def test_apply_tableau_matches_dense_on_random_circuits():
    rng = np.random.default_rng(12345)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        gates = random_gate_list(rng, n, int(rng.integers(0, 12)))
        t = sc.tableau_from_gates(n, gates)
        U = circuit_unitary(gates, n)
        paulis = [sc.PauliOperator(n, int(rng.integers(2**n)),
                                   int(rng.integers(2**n)),
                                   1 if rng.integers(2) else -1)
                  for _ in range(6)]
        for p, pulled in zip(paulis, pull_back(n, gates, paulis),
                             strict=True):
            fwd = sc.apply_tableau(t, p)
            assert np.allclose(pauli_dense(fwd), U @ pauli_dense(p) @ U.conj().T)
            bwd = conjugate_pauli(t, p)
            assert np.allclose(pauli_dense(bwd), U.conj().T @ pauli_dense(p) @ U)
            assert pulled == bwd


@pytest.mark.parametrize("pool", [MIXED_GATES, S_HEAVY_GATES],
                         ids=["mixed", "s-heavy"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_word_tableau_matches_row_tableau(pool, data):
    n, gates = data.draw(gate_lists(pool))
    assert sc.tableau_from_gates(n, gates) == reference_tableau_from_gates(n, gates)


def signed_paulis(n: int):
    return st.builds(sc.PauliOperator, st.just(n), st.integers(0, 2**n - 1),
                     st.integers(0, 2**n - 1), st.sampled_from((1, -1)))


@pytest.mark.parametrize("pool", [MIXED_GATES, S_HEAVY_GATES],
                         ids=["mixed", "s-heavy"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pull_back_matches_tableau_route(pool, data):
    n, gates = data.draw(gate_lists(pool))
    paulis = data.draw(st.lists(signed_paulis(n), min_size=1, max_size=8))
    t = sc.tableau_from_gates(n, gates)
    assert pull_back(n, gates, paulis) == tuple(
        conjugate_pauli(t, p) for p in paulis)


@pytest.mark.parametrize("pool", [MIXED_GATES, S_HEAVY_GATES],
                         ids=["mixed", "s-heavy"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_pull_back_matches_per_pauli_reference(pool, data):
    n, gates = data.draw(gate_lists(pool))
    paulis = data.draw(st.lists(signed_paulis(n), max_size=12))
    assert pull_back(n, gates, paulis) == tuple(
        reference_pull_back(gates, p) for p in paulis)


@pytest.mark.parametrize("pool", [MIXED_GATES, S_HEAVY_GATES],
                         ids=["mixed", "s-heavy"])
@pytest.mark.parametrize("n, rows", [(3, 0), (5, 1), (64, 64)],
                         ids=["empty", "one-row", "64-rows"])
def test_pull_back_batch_sizes(pool, n, rows):
    """An empty batch, one row, and 64 single Z's at n = 64, where row 63 is
    -Z_63: its sign and qubit bits sit at bit 63 of the words."""
    rng = np.random.default_rng(n + rows)
    gates = [sc.GateApp(str(name), tuple(int(q) for q in rng.choice(
                 n, size=sc.GATE_ARITY[name], replace=False)))
             for name in rng.choice(pool, size=10 * n)]
    paulis = [sc.PauliOperator(n, 0, 1 << (r % n), -1 if r % 2 else 1)
              for r in range(rows)]
    got = pull_back(n, gates, paulis)
    assert got == tuple(reference_pull_back(gates, p) for p in paulis)
    assert len(got) == rows


def test_pull_back_refuses_mixed_qubit_counts():
    paulis = [sc.PauliOperator(3, 0, 1), sc.PauliOperator(2, 0, 1)]
    with pytest.raises(ValueError, match="qubit-count mismatch"):
        pull_back(3, [sc.GateApp("H", (0,))], paulis)


def test_symplectic_index_is_bijective():
    seen1 = {symplectic_matrix(i, 1).tobytes()
             for i in range(sc.symplectic_group_order(1))}
    assert sc.symplectic_group_order(1) == 6
    assert len(seen1) == 6
    order2 = sc.symplectic_group_order(2)
    seen2 = {symplectic_matrix(i, 2).tobytes() for i in range(order2)}
    assert order2 == 720
    assert len(seen2) == 720


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bit_packed_decode_matches_int8_reference(data):
    n = data.draw(st.integers(1, 6))
    order = sc.symplectic_group_order(n)
    index = data.draw(st.one_of(st.sampled_from((0, order - 1)),
                                st.integers(0, order - 1)))
    got = symplectic_matrix(index, n)
    assert got.tobytes() == reference_symplectic_matrix(index, n).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stack_digits_equal_the_per_index_loop(data):
    """Up to 32 qubits, where the top level's digits use all 64 bits."""
    n = data.draw(st.integers(1, 32))
    order = sc.symplectic_group_order(n)
    indices = data.draw(st.lists(
        st.one_of(st.sampled_from((0, order - 1)), st.integers(0, order - 1)),
        max_size=6))
    got = sc._ks_digits(indices, n)
    assert got.dtype == np.uint64
    assert (got == reference_ks_digits(indices, n)).all()
    assert got.shape == (len(indices), n, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_random_clifford_matches_reference_stream(n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert drawn_tableau(n, rng) == reference_random_clifford(n, ref_rng)
    # both consumed the same draws
    assert rng.integers(2**63) == ref_rng.integers(2**63)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_chunk_draw_replays_sequential_reference_draws(n, count, seed):
    """About 31% of index draws are rejected, so the bulk draw is topped up
    on most chunks; the generator must still end where the one-at-a-time
    draws leave it."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    xs, zs, signs = sc.random_clifford_words(n, count, rng)
    want = [reference_random_clifford(n, ref_rng) for _ in range(count)]
    assert [sc.CliffordTableau.from_words(n, x, z, s) for x, z, s in
            zip(xs.tolist(), zs.tolist(), signs.tolist())] == want
    assert rng.integers(2**63) == ref_rng.integers(2**63)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_chunk_sweep_matches_row_sweep(n, count, seed):
    words = sc.random_clifford_words(n, count, np.random.default_rng(seed))
    tableaus = [sc.CliffordTableau.from_words(n, x, z, s) for x, z, s in
                zip(*(w.tolist() for w in words))]
    steps = sc.synthesis_steps(n, *words)
    assert [trial_gates(steps, j) for j in range(count)] == [
        reference_synthesize_gates(t) for t in tableaus]
    assert all(map(np.array_equal, sc.replay_steps(n, steps, count), words))


def assert_same_steps(got, want):
    """Equal steps: names, qubits of the same type (an int, or an array of
    the same dtype and values) and bool masks of the same values."""
    assert len(got) == len(want)
    for (name, *qubits, mask), (want_name, *want_qubits, want_mask) in zip(
            got, want):
        assert name == want_name
        for q, w in zip(qubits, want_qubits):
            assert type(q) is type(w)
            if isinstance(w, np.ndarray):
                assert q.dtype == w.dtype and np.array_equal(q, w)
            else:
                assert q == w
        assert mask.dtype == want_mask.dtype == bool
        assert np.array_equal(mask, want_mask)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12),
       st.one_of(st.integers(0, 600), st.sampled_from((0, 1, 7, 9, 257, 599))),
       st.integers(0, 2**32 - 1))
@example(3, 0, 0)
@example(32, 70, 5)
def test_bit_plane_sweep_matches_the_array_sweep(n, count, seed):
    """The sweep on bit-plane ints emits the steps of the array sweep, an
    empty stack's included (48 steps with empty masks at n = 3)."""
    words = sc.random_clifford_words(n, count, np.random.default_rng(seed))
    assert_same_steps(sc.synthesis_steps(n, *words),
                      reference_synthesis_steps(n, *words))


@pytest.mark.parametrize("plane", [0, 1], ids=["xs", "zs"])
@pytest.mark.parametrize("corruption", ["equal-columns", "row-past-2n"])
@settings(max_examples=15, deadline=None)
@given(st.integers(2, 12), st.integers(1, 300), st.data())
def test_both_sweeps_refuse_a_stack_with_one_corrupted_word(corruption, plane,
                                                            n, count, data):
    xs, zs, signs = sc.random_clifford_words(
        n, count, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    t = data.draw(st.integers(0, count - 1))
    q, p = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                              unique=True))
    words = (xs, zs)[plane]
    if corruption == "equal-columns":
        words[t, q] = words[t, p]  # two equal columns: not invertible
    else:
        words[t, q] |= np.uint64(1 << 2 * n)  # a row past the tableau's
    for sweep in (sc.synthesis_steps, reference_synthesis_steps):
        with pytest.raises(AssertionError, match="failed to reach identity"):
            sweep(n, xs, zs, signs)


def test_stack_check_refuses_one_bad_tableau():
    xs, zs, signs = sc.random_clifford_words(4, 6, np.random.default_rng(1))
    sc.check_symplectic(4, xs, zs)
    xs[3, 2] = xs[3, 1]
    with pytest.raises(ValueError, match=SYMPLECTIC_ERROR):
        sc.check_symplectic(4, xs, zs)
    with pytest.raises(AssertionError, match="failed to reach identity"):
        sc.synthesis_steps(4, xs, zs, signs)


def test_word_bounds():
    """Draws and synthesis hold interleaved 2n-bit columns in uint64 words,
    so they stop at 32 qubits; the check splits a column in two and takes a
    single tableau up to 64 qubits."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="exceeds the 32"):
        sc.random_clifford_words(33, 1, rng)
    with pytest.raises(ValueError, match="exceeds the 32"):
        drawn_tableau(33, rng)
    assert rng.integers(2**63) == np.random.default_rng(0).integers(2**63)
    t = sc.tableau_from_gates(33, [sc.GateApp("CNOT", (32, 0)),
                                   sc.GateApp("H", (32,))])
    with pytest.raises(ValueError, match="exceeds the 32"):
        sc.synthesis_steps(33, [t.xs], [t.zs], [t.signs])
    xs = list(t.xs)
    xs[0] ^= 1 << 65
    with pytest.raises(ValueError, match=SYMPLECTIC_ERROR):
        sc.CliffordTableau.from_words(33, xs, t.zs, t.signs)
    with pytest.raises(ValueError, match="at most 64 qubits"):
        sc.tableau_from_gates(65, ())


def test_group_orders():
    assert clifford_group_order(1) == 24
    assert clifford_group_order(2) == 11520
    assert sc.symplectic_group_order(3) == 1451520


def test_synthesis_roundtrip_matches_dense():
    rng = np.random.default_rng(777)
    for trial in range(25):
        n = int(rng.integers(1, 4))
        t = drawn_tableau(n, rng)
        U = circuit_unitary(synthesized_gates(t), n)
        for j in range(n):
            for p, img in ((sc.PauliOperator(n, 1 << j, 0), t.x_images[j]),
                           (sc.PauliOperator(n, 0, 1 << j), t.z_images[j])):
                want = U @ pauli_dense(p) @ U.conj().T
                assert np.allclose(pauli_dense(img), want)


def test_inverse_tableau_is_involutive_and_cancels():
    rng = np.random.default_rng(99)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        t = drawn_tableau(n, rng)
        inv = sc.inverse_tableau(t)
        assert sc.inverse_tableau(inv) == t
        for _ in range(4):
            p = sc.PauliOperator(n, int(rng.integers(2**n)), int(rng.integers(2**n)),
                                 1 if rng.integers(2) else -1)
            assert sc.apply_tableau(t, sc.apply_tableau(inv, p)) == p


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_drawn_tableaus_round_trip_through_their_rows(n, seed):
    t = drawn_tableau(n, np.random.default_rng(seed))
    back = sc.CliffordTableau(n, t.x_images, t.z_images)
    assert back == t and hash(back) == hash(t)


SYMPLECTIC_ERROR = "images do not satisfy the symplectic condition"


@pytest.mark.parametrize("n", range(1, 9))
def test_check_symplectic_refuses_bit_flips(n):
    """Flip one x or z bit of a valid tableau, as a word bit (the packed
    path) and as the same image-row bit (the row constructor).  Both paths
    refuse exactly the flips whose rows break the row-pair commutation
    pattern.  Not every flip does: flipping bit r of one column keeps the
    matrix symplectic when its partner column (xs[q] <-> zs[q]) is the unit
    word 1 << r, and the flipped matrix is another Clifford's (on the
    identity, turning X_q's row into Y_q gives the tableau of S_q)."""
    rng = np.random.default_rng(80 + n)
    tableaus = [sc.tableau_from_gates(n, ())]
    tableaus += [drawn_tableau(n, rng) for _ in range(3)]
    refused = 0
    for t in tableaus:
        for part, partner in ((0, 1), (1, 0)):
            for q in range(n):
                for r in range(2 * n):
                    words = [list(t.xs), list(t.zs)]
                    words[part][q] ^= 1 << r
                    rows = list(t.x_images + t.z_images)
                    p, bit = rows[r], 1 << q
                    rows[r] = sc.PauliOperator(
                        n, p.x ^ (bit if part == 0 else 0),
                        p.z ^ (bit if part == 1 else 0), p.sign)
                    keeps = rows_are_symplectic(rows)
                    assert keeps == (words[partner][q] == 1 << r)
                    if keeps:
                        built = sc.CliffordTableau.from_words(n, *words, t.signs)
                        assert built == sc.CliffordTableau(n, rows[:n], rows[n:])
                        continue
                    refused += 1
                    with pytest.raises(ValueError, match=SYMPLECTIC_ERROR):
                        sc.check_symplectic(n, *words)
                    with pytest.raises(ValueError, match=SYMPLECTIC_ERROR):
                        sc.CliffordTableau.from_words(n, *words, t.signs)
                    with pytest.raises(ValueError, match=SYMPLECTIC_ERROR):
                        sc.CliffordTableau(n, rows[:n], rows[n:])
    # each column has one partner word, so at most 2n of 4n^2 flips pass
    assert refused >= len(tableaus) * (4 * n * n - 2 * n)


def test_tableau_refuses_wrong_counts_and_sizes():
    x, z = sc.PauliOperator(2, 1, 0), sc.PauliOperator(2, 0, 1)
    with pytest.raises(ValueError, match="n X-images and n Z-images"):
        sc.CliffordTableau(2, (x,), (z, z))
    with pytest.raises(ValueError, match="image qubit-count mismatch"):
        sc.CliffordTableau(1, (x,), (z,))
    with pytest.raises(ValueError, match="2n-bit words on n qubits"):
        sc.CliffordTableau.from_words(1, (1,), (2, 0), 0)
    with pytest.raises(ValueError, match="2n-bit words on n qubits"):
        sc.check_symplectic(1, (4,), (2,))


def test_random_clifford_reaches_all_24_single_qubit_tableaus():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(2000):
        t = drawn_tableau(1, rng)
        seen.add((t.x_images[0], t.z_images[0]))
    assert len(seen) == 24


def test_product_expectation_matches_dense():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        bloch = []
        for _ in range(n):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            bloch.append(tuple(float(c) for c in v))
        state = sc.ProductState(tuple(bloch))
        rho = kron_n([(I2 + b[0] * X + b[1] * Y + b[2] * Z) / 2 for b in bloch])
        p = sc.PauliOperator(n, int(rng.integers(2**n)), int(rng.integers(2**n)),
                             1 if rng.integers(2) else -1)
        want = np.trace(rho @ pauli_dense(p)).real
        assert abs(sc.product_expectation(state, p) - want) < 1e-12


def test_pauli_expansion_probability_matches_dense():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        gates = random_gate_list(rng, n, int(rng.integers(0, 10)))
        t = sc.tableau_from_gates(n, gates)
        U = circuit_unitary(gates, n)
        psi = U @ np.eye(2**n, dtype=complex)[:, 0]
        pattern = "".join(str(rng.choice(("0", "1", "*"))) for _ in range(n))
        want = 0.0
        for idx in range(2**n):
            bits = [(idx >> i) & 1 for i in range(n)]
            if all(int(c) == bits[i] for i, c in enumerate(pattern) if c != "*"):
                want += abs(psi[idx]) ** 2
        got = sc.pauli_expansion_probability(t, sc.ProductState.zero(n), pattern)
        assert abs(got - want) < 1e-10


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        sc.PauliOperator(1, 2, 0, 1)
    with pytest.raises(ValueError):
        sc.PauliOperator(1, 0, 0, 2)
    with pytest.raises(ValueError):
        sc.GateApp("H", (0, 0))
    with pytest.raises(ValueError):
        sc.GateApp("CNOT", (1, 1))
    with pytest.raises(ValueError):
        sc.ProductState(((0.9, 0.9, 0.9),))
    with pytest.raises(Exception):
        pauli_product(sc.PauliOperator(1, 1, 0), sc.PauliOperator(1, 0, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: sc.GateApp("Q", (0,)), "unknown gate 'Q'"),
    # the arity is checked before distinctness
    (lambda: sc.GateApp("CNOT", (1, 1, 2)), r"gate CNOT takes 2 qubit\(s\)"),
    (lambda: sc.PauliOperator(-1, 0, 0), "n must be nonnegative"),
    (lambda: sc.ProductState(((1.0, 0.0),)), "Bloch vector needs 3 components"),
    (lambda: sc.random_clifford_words(0, 1, np.random.default_rng(0)),
     "n must be positive"),
    (lambda: sc.ProductState.zero(-2), "n must be positive"),
    (lambda: sc.ProductState.uniform((1.0, 0.0, 0.0), 0), "n must be positive"),
], ids=["unknown-gate", "arity-before-distinct", "negative-pauli-size", "two-component-bloch",
        "zero-qubit-draw", "negative-zero-state", "empty-uniform-state"])
def test_stabcore_refuses_bad_arguments(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_gate_qubits_come_out_as_python_ints():
    gate = sc.GateApp("CNOT", (np.int64(2), np.uint8(0)))
    assert gate.qubits == (2, 0)
    assert all(type(q) is int for q in gate.qubits)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_product_state_refuses_non_finite_components(bad):
    for vec in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
        with pytest.raises(ValueError, match="Bloch components must be finite"):
            sc.ProductState((vec,))


paulis = st.integers(1, 5).flatmap(signed_paulis)


@given(paulis, paulis)
def test_commutation_is_symmetric(a, b):
    if a.n == b.n:
        assert commutes(a, b) == commutes(b, a)


@given(paulis)
def test_self_product_is_identity(p):
    assert pauli_product(p, p) == sc.PauliOperator(p.n, 0, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6))
def test_product_matches_dense(n, seed):
    rng = np.random.default_rng(seed)
    a = sc.PauliOperator(n, int(rng.integers(2**n)), int(rng.integers(2**n)),
                         1 if rng.integers(2) else -1)
    b = sc.PauliOperator(n, int(rng.integers(2**n)), int(rng.integers(2**n)),
                         1 if rng.integers(2) else -1)
    if not commutes(a, b):
        b = sc.PauliOperator(b.n, b.x, b.x, b.sign)
    if not commutes(a, b):
        b = a
    prod = pauli_product(a, b)
    assert np.allclose(pauli_dense(prod), pauli_dense(a) @ pauli_dense(b))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_packed_sweep_matches_row_sweep(n, seed):
    # the frozen digest below covers n <= 6 only
    t = drawn_tableau(n, np.random.default_rng(seed))
    gates = synthesized_gates(t)
    assert gates == reference_synthesize_gates(t)
    assert sc.tableau_from_gates(n, gates) == t


def test_synthesized_gate_lists_are_frozen():
    # sha256 of the gate lists synthesized for 120 draws, recorded before the
    # sweep stopped building a GateApp per applied gate
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for n in range(1, 7):
        for _ in range(20):
            for g in synthesized_gates(drawn_tableau(n, rng)):
                h.update(f"{g.name}{g.qubits};".encode())
    assert h.hexdigest() == (
        "29fc446d2f16b11c1dcdb53e19ff28526978cb6000a810d1d50ee0bd8fcba0a4")
