"""Independent reference probabilities for the benchmark's correctness checks.

The program's oracle builds dense statevectors and its estimators build
tableaus with ``bornbox.stabcore``.  The references here use neither: each
measured Z_j is pushed back through the reversed gate list by the
Aaronson-Gottesman bit-plane rules written in this file, giving
U^dag Z_j U, and a pattern probability is the Pauli expansion

    Pr(b on F) = 2^-|F| sum over S in F of (-1)^(b.S) tr(rho U^dag Z_S U),

whose product-state expectations factorize over qubits.  It is exponential
only in the number of fixed pattern positions.  X-programs are rewritten as
Clifford gate lists first: exp(i pi/4 X_R) = H_R . CNOT-ladder . S^dag .
CNOT-ladder . H_R, up to a global phase.
"""

from __future__ import annotations

import itertools

import numpy as np

from bornbox.circuits import IqpCircuit, ProdCircuit
from bornbox.stabcore import (CliffordTableau, GateApp, PauliOperator,
                              ProductState)


def conjugate(x: np.ndarray, z: np.ndarray, r: np.ndarray, g) -> None:
    """Rows (x bits, z bits, sign bit) of Hermitian Paulis in the Y-letter
    convention become those of g P g^dag, in place."""
    a = g.qubits[0]
    if g.name == "H":
        r ^= x[:, a] & z[:, a]
        x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
    elif g.name == "S":
        r ^= x[:, a] & z[:, a]
        z[:, a] ^= x[:, a]
    elif g.name == "X":
        r ^= z[:, a]
    elif g.name == "Z":
        r ^= x[:, a]
    elif g.name in ("CNOT", "CZ"):
        b = g.qubits[1]
        if g.name == "CZ":  # CZ = H_b CNOT H_b
            r ^= x[:, b] & z[:, b]
            x[:, b], z[:, b] = z[:, b].copy(), x[:, b].copy()
        r ^= x[:, a] & z[:, b] & ~(x[:, b] ^ z[:, a])
        x[:, b] ^= x[:, a]
        z[:, a] ^= z[:, b]
        if g.name == "CZ":
            r ^= x[:, b] & z[:, b]
            x[:, b], z[:, b] = z[:, b].copy(), x[:, b].copy()
    else:
        raise ValueError(f"unknown gate {g.name!r}")


def tableau_bits(n: int, gates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows 0..n-1 are U X_i U^dag, rows n..2n-1 are U Z_i U^dag."""
    x = np.zeros((2 * n, n), dtype=bool)
    z = np.zeros((2 * n, n), dtype=bool)
    r = np.zeros(2 * n, dtype=bool)
    x[np.arange(n), np.arange(n)] = True
    z[np.arange(n) + n, np.arange(n)] = True
    for g in gates:
        conjugate(x, z, r, g)
    return x, z, r


def clifford_tableau(n: int, gates) -> CliffordTableau:
    x, z, r = tableau_bits(n, gates)
    weights = 1 << np.arange(n, dtype=object)
    rows = [PauliOperator(n, int(weights[x[i]].sum()), int(weights[z[i]].sum()),
                          -1 if r[i] else 1)
            for i in range(2 * n)]
    return CliffordTableau(n, tuple(rows[:n]), tuple(rows[n:]))


def iqp_gates(circuit: IqpCircuit) -> tuple[GateApp, ...]:
    gates: list[GateApp] = []
    for row in circuit.rows:
        support = [q for q, b in enumerate(row) if b]
        if not support:
            continue
        target, controls = support[0], support[1:]
        ladder = [GateApp("CNOT", (c, target)) for c in controls]
        hs = [GateApp("H", (q,)) for q in support]
        gates += hs + ladder + [GateApp("S", (target,)), GateApp("Z", (target,))]
        gates += ladder + hs
    return tuple(gates)


def back_propagated_z(n: int, gates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row j is U^dag Z_j U: Z_j conjugated by each gate's inverse, last gate
    first.  Every gate but S is its own inverse; S^dag = Z S."""
    x = np.zeros((n, n), dtype=bool)
    z = np.eye(n, dtype=bool)
    r = np.zeros(n, dtype=bool)
    for g in reversed(gates):
        conjugate(x, z, r, g)
        if g.name == "S":
            conjugate(x, z, r, GateApp("Z", g.qubits))
    return x, z, r


def times(a, b):
    """The product a b of two commuting Paulis given as (x, z, sign bit)."""
    (x1, z1, r1), (x2, z2, r2) = a, b
    x1, z1, x2, z2 = (v.astype(np.int64) for v in (x1, z1, x2, z2))
    # i-exponent of each single-qubit letter product (Aaronson-Gottesman g)
    g = np.where(x1 & z1, z2 - x2,
                 np.where(x1 == 1, z2 * (2 * x2 - 1), z1 * x2 * (1 - 2 * z2)))
    phase = (2 * int(r1) + 2 * int(r2) + int(g.sum())) % 4
    if phase % 2:
        raise ValueError("anticommuting factors")
    return (x1 ^ x2).astype(bool), (z1 ^ z2).astype(bool), phase == 2


class Reference:
    """Pattern probabilities of one prod or iqp circuit; the back-propagated
    Z's are computed once per circuit."""

    def __init__(self, circuit):
        if isinstance(circuit, ProdCircuit):
            gates, state = circuit.gates, circuit.state
        elif isinstance(circuit, IqpCircuit):
            gates, state = iqp_gates(circuit), ProductState.zero(circuit.n)
        else:
            raise TypeError(f"no reference route for {type(circuit).__name__}")
        self.n = circuit.n
        self.k = circuit.k
        self.rows = back_propagated_z(circuit.n, gates)
        # weights[q, code] = tr(rho_q P) for P = I, X, Z, Y (code = x + 2z)
        self.weights = np.array([[1.0, rx, rz, ry]
                                 for rx, ry, rz in state.bloch])

    def expectations(self, positions) -> np.ndarray:
        """tr(rho U^dag Z_S U) for every subset S of positions, indexed by
        the bitmask of S over the order of positions."""
        x, z, r = self.rows
        factors = [(x[j], z[j], bool(r[j])) for j in positions]
        products = [(np.zeros(self.n, dtype=bool), np.zeros(self.n, dtype=bool),
                     False)]
        for mask in range(1, 1 << len(factors)):
            low = (mask & -mask).bit_length() - 1
            products.append(times(products[mask & (mask - 1)], factors[low]))
        idx = np.arange(self.n)
        return np.array([(-1.0 if sign else 1.0)
                         * self.weights[idx, px + 2 * pz].prod()
                         for px, pz, sign in products])

    def probability(self, pattern: str) -> float:
        if len(pattern) != self.k:
            raise ValueError("pattern length != measured count")
        fixed = [(pos, int(c)) for pos, c in enumerate(pattern) if c != "*"]
        values = self.expectations([pos for pos, _ in fixed])
        signs = np.array([(-1.0) ** sum(bit for i, (_, bit) in enumerate(fixed)
                                        if mask >> i & 1)
                          for mask in range(len(values))])
        return float(signs @ values) / len(values)

    def distribution(self) -> np.ndarray:
        """Full distribution over the measured bits, big-endian; 4^k terms,
        so only for small k."""
        return np.array([self.probability("".join(bits))
                         for bits in itertools.product("01", repeat=self.k)])
