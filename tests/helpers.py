"""Shared builders for the test suite."""

import numpy as np
from hypothesis import strategies as st

from bornbox.circuits import IqpCircuit, OutcomePattern, ProdCircuit
from bornbox.stabcore import GATE_ARITY, GateApp, ProductState


class NoSpawnRng:
    """An rng for paths that must draw nothing: spawning a substream
    fails."""

    def spawn(self, n):
        raise AssertionError(f"spawned {n} generators past the budget")


def ghz_circuit(n: int) -> ProdCircuit:
    gates = [GateApp("H", (0,))]
    gates += [GateApp("CNOT", (q - 1, q)) for q in range(1, n)]
    return ProdCircuit(n, n, ProductState.zero(n), tuple(gates))


def bell_circuit() -> ProdCircuit:
    return ghz_circuit(2)


def random_bloch(rng: np.random.Generator, mixed: bool = True):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if mixed:
        v *= rng.uniform(0, 1)
    return tuple(float(c) for c in v)


def random_gates(rng: np.random.Generator, n: int, count: int):
    names = sorted(GATE_ARITY)
    gates = []
    for _ in range(count):
        name = names[int(rng.integers(len(names)))]
        if n < 2 and GATE_ARITY[name] == 2:
            name = "H"
        if GATE_ARITY[name] == 1:
            gates.append(GateApp(name, (int(rng.integers(n)),)))
        else:
            q = rng.choice(n, size=2, replace=False)
            gates.append(GateApp(name, (int(q[0]), int(q[1]))))
    return tuple(gates)


MIXED_GATES = tuple(sorted(GATE_ARITY))
S_HEAVY_GATES = ("S",) * 6 + ("H", "X", "Z", "CNOT", "CZ")


@st.composite
def gate_lists(draw, pool=MIXED_GATES, max_n: int = 6, max_gates: int = 40):
    """(n, gates): up to max_gates gates drawn from pool on 1..max_n qubits;
    two-qubit names fall back to S on a single qubit."""
    n = draw(st.integers(1, max_n))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        name = draw(st.sampled_from(pool))
        if GATE_ARITY[name] > n:
            name = "S"
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=GATE_ARITY[name],
                               max_size=GATE_ARITY[name], unique=True))
        gates.append(GateApp(name, tuple(qubits)))
    return n, tuple(gates)


def random_prod_circuit(rng: np.random.Generator, n: int, n_gates: int,
                        mixed: bool = True, k: int | None = None) -> ProdCircuit:
    bloch = tuple(random_bloch(rng, mixed) for _ in range(n))
    return ProdCircuit(n, n if k is None else k, ProductState(bloch),
                       random_gates(rng, n, n_gates))


def random_iqp_circuit(rng: np.random.Generator, n: int, m: int,
                       k: int | None = None) -> IqpCircuit:
    rows = tuple(tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(m))
    return IqpCircuit(n, n if k is None else k, rows)


def random_pattern(rng: np.random.Generator, k: int,
                   allow_all_wild: bool = True) -> OutcomePattern:
    while True:
        trits = "".join(str(rng.choice(("0", "1", "*"))) for _ in range(k))
        if allow_all_wild or trits.count("*") < k:
            return OutcomePattern(trits)


def empirical_distribution(draws, k: int) -> np.ndarray:
    counts = np.zeros(1 << k)
    for bits in draws:
        counts[int(bits, 2)] += 1
    return counts / len(draws)
