"""Tableau arithmetic cross-checked against dense matrices."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornbox import stabcore as sc

from helpers import MIXED_GATES, S_HEAVY_GATES, gate_lists
from reference import (clifford_group_order, conjugate_pauli, pauli_product,
                       reference_random_clifford, reference_symplectic_matrix,
                       reference_synthesize_gates, symplectic_matrix)

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


def test_single_qubit_conjugation_matches_dense():
    for name, U in ONE_QUBIT.items():
        for xz in range(1, 4):
            for sign in (1, -1):
                p = sc.PauliOperator(1, xz & 1, (xz >> 1) & 1, sign)
                got = sc.conjugate_by_gate(p, sc.GateApp(name, (0,)))
                want = U @ pauli_dense(p) @ U.conj().T
                assert np.allclose(pauli_dense(got), want)


def test_two_qubit_conjugation_matches_dense_both_orders():
    for name in ("CNOT", "CZ"):
        for qs in ((0, 1), (1, 0)):
            U = gate_dense(sc.GateApp(name, qs), 2)
            for x in range(4):
                for z in range(4):
                    for sign in (1, -1):
                        p = sc.PauliOperator(2, x, z, sign)
                        got = sc.conjugate_by_gate(p, sc.GateApp(name, qs))
                        want = U @ pauli_dense(p) @ U.conj().T
                        assert np.allclose(pauli_dense(got), want)


def test_apply_tableau_matches_dense_on_random_circuits():
    rng = np.random.default_rng(12345)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        gates = random_gate_list(rng, n, int(rng.integers(0, 12)))
        t = sc.tableau_from_gates(n, gates)
        U = circuit_unitary(gates, n)
        for _ in range(6):
            p = sc.PauliOperator(n, int(rng.integers(2**n)), int(rng.integers(2**n)),
                                 1 if rng.integers(2) else -1)
            fwd = sc.apply_tableau(t, p)
            assert np.allclose(pauli_dense(fwd), U @ pauli_dense(p) @ U.conj().T)
            bwd = conjugate_pauli(t, p)
            assert np.allclose(pauli_dense(bwd), U.conj().T @ pauli_dense(p) @ U)
            assert sc.pull_back(gates, p) == bwd


@pytest.mark.parametrize("pool", [MIXED_GATES, S_HEAVY_GATES],
                         ids=["mixed", "s-heavy"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pull_back_matches_tableau_route(pool, data):
    n, gates = data.draw(gate_lists(pool))
    p = sc.PauliOperator(n, data.draw(st.integers(0, 2**n - 1)),
                         data.draw(st.integers(0, 2**n - 1)),
                         data.draw(st.sampled_from((1, -1))))
    want = conjugate_pauli(sc.tableau_from_gates(n, gates), p)
    assert sc.pull_back(gates, p) == want


def test_pull_back_rejects_out_of_range_gate():
    with pytest.raises(ValueError):
        sc.pull_back([sc.GateApp("H", (2,))], sc.PauliOperator.single_z(2, 0))


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
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_random_clifford_matches_reference_stream(n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert sc.random_clifford(n, rng) == reference_random_clifford(n, ref_rng)
    # both consumed the same draws
    assert rng.integers(2**63) == ref_rng.integers(2**63)


def test_group_orders():
    assert clifford_group_order(1) == 24
    assert clifford_group_order(2) == 11520
    assert sc.symplectic_group_order(3) == 1451520


def test_synthesis_roundtrip_matches_dense():
    rng = np.random.default_rng(777)
    for trial in range(25):
        n = int(rng.integers(1, 4))
        t = sc.random_clifford(n, rng)
        U = circuit_unitary(sc.synthesize_gates(t), n)
        for j in range(n):
            for p, img in ((sc.PauliOperator(n, 1 << j, 0), t.x_images[j]),
                           (sc.PauliOperator(n, 0, 1 << j), t.z_images[j])):
                want = U @ pauli_dense(p) @ U.conj().T
                assert np.allclose(pauli_dense(img), want)


def test_inverse_tableau_is_involutive_and_cancels():
    rng = np.random.default_rng(99)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        t = sc.random_clifford(n, rng)
        inv = sc.inverse_tableau(t)
        assert sc.inverse_tableau(inv) == t
        for _ in range(4):
            p = sc.PauliOperator(n, int(rng.integers(2**n)), int(rng.integers(2**n)),
                                 1 if rng.integers(2) else -1)
            assert sc.apply_tableau(t, sc.apply_tableau(inv, p)) == p


def test_random_clifford_reaches_all_24_single_qubit_tableaus():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(2000):
        t = sc.random_clifford(1, rng)
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


paulis = st.integers(1, 5).flatmap(
    lambda n: st.builds(sc.PauliOperator, st.just(n),
                        st.integers(0, (1 << n) - 1),
                        st.integers(0, (1 << n) - 1), st.sampled_from((1, -1))))


@given(paulis, paulis)
def test_commutation_is_symmetric(a, b):
    if a.n == b.n:
        assert a.commutes_with(b) == b.commutes_with(a)


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
    if not a.commutes_with(b):
        b = sc.PauliOperator(b.n, b.x, b.x, b.sign)
    if not a.commutes_with(b):
        b = a
    prod = pauli_product(a, b)
    assert np.allclose(pauli_dense(prod), pauli_dense(a) @ pauli_dense(b))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_packed_sweep_matches_row_sweep(n, seed):
    # the frozen digest below covers n <= 6 only
    t = sc.random_clifford(n, np.random.default_rng(seed))
    gates = sc.synthesize_gates(t)
    assert gates == reference_synthesize_gates(t)
    assert sc.tableau_from_gates(n, gates) == t


def test_synthesized_gate_lists_are_frozen():
    # sha256 of the gate lists synthesized for 120 draws, recorded before the
    # sweep stopped building a GateApp per applied gate
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for n in range(1, 7):
        for _ in range(20):
            for g in sc.synthesize_gates(sc.random_clifford(n, rng)):
                h.update(f"{g.name}{g.qubits};".encode())
    assert h.hexdigest() == (
        "29fc446d2f16b11c1dcdb53e19ff28526978cb6000a810d1d50ee0bd8fcba0a4")
