"""Shared builders for the test suite.  ``ghz_circuit``, ``random_pattern``
and ``random_iqp_circuit`` are the selftest's own builders, re-exported."""

import numpy as np
from hypothesis import strategies as st

from bornbox.circuits import (EncodedCircuit, IqpCircuit, OutcomePattern,
                              ProdCircuit)
from bornbox.cli import (draw_counts, ghz_circuit, random_iqp_circuit,  # noqa: F401
                         random_pattern)
from bornbox.stabcore import GATE_ARITY, GateApp, ProductState


class NoSpawnRng:
    """An rng for paths that must draw nothing: spawning a substream
    fails."""

    def spawn(self, n):
        raise AssertionError(f"spawned {n} generators past the budget")


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


def random_constrained_pattern(rng: np.random.Generator,
                               k: int) -> OutcomePattern:
    """``random_pattern`` redrawn until some position is fixed."""
    while True:
        pattern = random_pattern(rng, k)
        if pattern.wild_count < k:
            return pattern


def index_to_outcome(index: int, k: int) -> str:
    return format(index, f"0{k}b")


def pattern_matches(pattern: OutcomePattern, outcome: str) -> bool:
    if len(outcome) != pattern.k:
        raise ValueError("outcome length mismatch")
    return all(c == "*" or c == o for c, o in zip(pattern.trits, outcome))


def empirical_distribution(draws, k: int) -> np.ndarray:
    return draw_counts(draws, k) / len(draws)


def serialize_circuit(c) -> str:
    """Canonical text form of a circuit: parse_circuit(serialize_circuit(c))
    == c."""
    return "\n".join(_serialize_lines(c)) + "\n"


def _serialize_lines(c) -> list[str]:
    if isinstance(c, ProdCircuit):
        out = ["family prod", f"qubits {c.n}", f"measure {c.k}"]
        for q, vec in enumerate(c.state.bloch):
            if vec != (0.0, 0.0, 1.0):
                out.append(f"prep {q} bloch {vec[0]!r} {vec[1]!r} {vec[2]!r}")
        for g in c.gates:
            out.append("gate " + g.name + " " + " ".join(str(q) for q in g.qubits))
        return out
    if isinstance(c, IqpCircuit):
        out = ["family iqp", f"qubits {c.n}", f"measure {c.k}"]
        for row in c.rows:
            out.append("xrow " + " ".join(str(b) for b in row))
        return out
    if isinstance(c, EncodedCircuit):
        out = ["family encoded", "inner"]
        out.extend("  " + line for line in _serialize_lines(c.inner))
        return out
    raise TypeError(f"not a circuit: {c!r}")
