"""Seeded workload generators.

A workload is a cycle of op *slots*.  Op ``i`` fills slot ``i % len(slots)``
from its own generator, seeded by ``(workload seed, i)``, so a run's inputs
depend only on the seed and the op index, never on timing.  Every op gets a
fresh circuit file and a fresh ``--seed``: no two ops repeat an input, so a
cache keyed on inputs cannot make the benchmark faster.

Op sizes depend on the op index alone, never on the seed; only the random
content varies with the seed.  That keeps the mix of op costs, and hence the
latency quantiles, the same from seed to seed.  Each workload's cycle is
laid out so that, over a run, the median and the tail quantile fall well
inside a class of many ops of one cost, never on a boundary between classes
or on the one or two ops of a continuum whose cost happens to land there.
Where a slot's size range is wide, sizes follow a golden-ratio sequence over
the index, so every prefix of a run covers the range evenly.

The program sees only the files and argv written here; each ``Op`` also
keeps the generating circuit object for the reference checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from bornbox.circuits import IqpCircuit, ProdCircuit
from bornbox.stabcore import GATE_ARITY, GateApp, ProductState

from env import ROOT
from reference import Reference


@dataclass
class Op:
    index: int
    kind: str
    argv: list[str]
    circuit: object = None
    # the query pattern of an estimate
    patterns: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Callable, ...]
    warmup: Callable
    # ops per second of op time at the seed, at the reference speed of
    # calibrate.py; sets how many ops a run of given length makes
    rate: float
    trace_ops: int


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------

def circuit_text(c) -> str:
    """The circuit file format, written here rather than by the program so
    that the inputs do not depend on the code under test."""
    if isinstance(c, ProdCircuit):
        lines = ["family prod", f"qubits {c.n}", f"measure {c.k}"]
        for q, (rx, ry, rz) in enumerate(c.state.bloch):
            lines.append(f"prep {q} bloch {rx!r} {ry!r} {rz!r}")
        lines += [f"gate {g.name} " + " ".join(map(str, g.qubits))
                  for g in c.gates]
    else:
        lines = ["family iqp", f"qubits {c.n}", f"measure {c.k}"]
        lines += ["xrow " + " ".join(map(str, row)) for row in c.rows]
    return "\n".join(lines) + "\n"


def write_circuit(c, workdir: Path, tag: str) -> str:
    path = workdir / f"{tag}.qc"
    path.write_text(circuit_text(c), encoding="utf-8")
    return os.path.relpath(path, ROOT)


def op_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2 ** 31)))


def bloch_vector(rng: np.random.Generator, mixed: bool):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if mixed:
        v *= rng.uniform(0.2, 0.95)
    return tuple(float(c) for c in v)


def common(rng) -> list[str]:
    return ["--seed", op_seed(rng), "--threads", "1"]


def spread(index: int, lo: int, hi: int) -> int:
    """An integer in [lo, hi] from the golden-ratio sequence at index."""
    return lo + int((hi - lo + 1) * ((index * 0.6180339887498949) % 1.0))


# ---------------------------------------------------------------------------
# estimate-deep
# ---------------------------------------------------------------------------

ESTIMATE_EPS, ESTIMATE_DELTA = 0.1, 0.05
ESTIMATE_FIXED, ESTIMATE_MIXED = 6, 3
# gates taking a Bloch axis (x, y, z) to the z axis
TO_Z_AXIS = (("H",), ("Z", "S", "H"), ())
# gates that map computational basis states to basis states, up to phase
BASIS_GATES = ("CNOT", "CZ", "S", "X", "Z")
OUTPUT_GATES = ("X", "Z", "S")


def deep_circuit(rng, n: int, gate_count: int) -> ProdCircuit:
    """A deep Clifford circuit whose output marginals stay far from uniform.

    A fully random circuit of 10n gates scrambles: every 6-position marginal
    is then 2^-6 whatever the tableau and the Pauli signs, so a check on it
    cannot tell a right estimate from a wrong one.  Here each qubit starts
    on a random signed Pauli axis, pure except for ESTIMATE_MIXED qubits of
    length r < 1; a basis change turns every axis to z, a deep random core
    of CNOT/CZ/S/X/Z keeps basis states basis states, and a last layer of
    X/Z/S ends the circuit.  Every gate kind is used, back-propagated Z's
    have weight about n/2, and the output is a few biased bits pushed
    through an affine map, so pattern probabilities range over [0, 1].
    """
    axes = rng.integers(3, size=n)
    mixed = set(int(q) for q in rng.choice(n, size=ESTIMATE_MIXED, replace=False))
    bloch = []
    for q in range(n):
        v = [0.0, 0.0, 0.0]
        length = rng.uniform(0.6, 0.95) if q in mixed else 1.0
        v[int(axes[q])] = float((1 if rng.integers(2) else -1) * length)
        bloch.append(tuple(v))
    gates = [GateApp(g, (q,)) for q in range(n) for g in TO_Z_AXIS[int(axes[q])]]
    for _ in range(gate_count - len(gates) - n):
        name = BASIS_GATES[int(rng.integers(len(BASIS_GATES)))]
        qubits = rng.choice(n, size=GATE_ARITY[name], replace=False)
        gates.append(GateApp(name, tuple(int(q) for q in qubits)))
    gates += [GateApp(OUTPUT_GATES[int(rng.integers(len(OUTPUT_GATES)))], (q,))
              for q in range(n)]
    return ProdCircuit(n, n, ProductState(tuple(bloch)), tuple(gates))


def drawn_pattern(rng, ref: Reference, fixed: int) -> str:
    """Fixed bits drawn from the circuit's own output distribution, bit by
    bit from reference marginals; then, with probability 1/2, one of them
    flipped.  Half of the patterns are likely outcomes and half are
    unlikely ones, so no constant or sign-blind estimate fits both."""
    trits = ["*"] * ref.k
    for pos in sorted(int(p) for p in rng.choice(ref.k, size=fixed, replace=False)):
        trits[pos] = "0"
        p0 = ref.probability("".join(trits))
        trits[pos] = "1"
        p1 = ref.probability("".join(trits))
        trits[pos] = "01"[int(rng.random() * (p0 + p1) >= p0)]
    if rng.integers(2):
        pos = [i for i, t in enumerate(trits) if t != "*"][int(rng.integers(fixed))]
        trits[pos] = "10"[int(trits[pos])]
    return "".join(trits)


def estimate_op(lo: int, hi: int):
    def make(rng, index, workdir):
        n = spread(index, lo, hi)
        c = deep_circuit(rng, n, 10 * n)
        pattern = drawn_pattern(rng, Reference(c), ESTIMATE_FIXED)
        path = write_circuit(c, workdir, f"op{index}")
        argv = ["estimate", "--circuit", path, "--pattern", pattern,
                "--eps", repr(ESTIMATE_EPS), "--delta", repr(ESTIMATE_DELTA)]
        return Op(index, f"estimate-n{n}", argv + common(rng), c, (pattern,),
                  {"eps": ESTIMATE_EPS, "delta": ESTIMATE_DELTA})
    return make


# ---------------------------------------------------------------------------
# sparse-search
# ---------------------------------------------------------------------------

SPARSE_EPS_PRIME = 1.0


def ghz_variant(rng, n: int) -> ProdCircuit:
    """A GHZ state on a random CNOT tree with random X flips: support is
    two complementary outcomes, wherever the flips land."""
    gates = [GateApp("H", (0,))]
    gates += [GateApp("CNOT", (int(rng.integers(q)), q)) for q in range(1, n)]
    gates += [GateApp("X", (q,)) for q in range(n) if rng.integers(2)]
    gates += [GateApp("Z", (q,)) for q in range(n) if rng.integers(2)]
    return ProdCircuit(n, n, ProductState.zero(n), tuple(gates))


def sparse_iqp(rng, n: int) -> IqpCircuit:
    """A random X-program whose output has exactly two outcomes."""
    while True:
        rows = tuple(tuple(int(b) for b in rng.integers(0, 2, size=n))
                     for _ in range(int(rng.integers(2, 5))))
        c = IqpCircuit(n, n, rows)
        if (Reference(c).distribution() > 1e-12).sum() == 2:
            return c


def sparse_op(family: str, n: int, sparsity: Optional[int]):
    def make(rng, index, workdir):
        c = ghz_variant(rng, n) if family == "ghz" else sparse_iqp(rng, n)
        path = write_circuit(c, workdir, f"op{index}")
        argv = ["sample", "--circuit", path, "--method", "sparse",
                "--estimator", "sampling", "--eps-prime", repr(SPARSE_EPS_PRIME),
                "--count", "1"]
        if sparsity is not None:
            argv += ["--sparsity", str(sparsity)]
        kind = f"sparse-{family}{n}" + ("" if sparsity else "-default")
        return Op(index, kind, argv + common(rng), c,
                  expect={"count": 1, "eps_prime": SPARSE_EPS_PRIME})
    return make


# ---------------------------------------------------------------------------
# anticoncentration
# ---------------------------------------------------------------------------

def anticoncentration_op(n: int, mixed: bool, trials: int):
    def make(rng, index, workdir):
        argv = ["experiment", "anticoncentration", "--n", str(n),
                "--trials", str(trials)]
        bloch = None
        if mixed:
            bloch = bloch_vector(rng, True)
            # one token, since a leading minus would read as an option
            argv.append("--bloch=" + ",".join(repr(c) for c in bloch))
        kind = f"anti-n{n}" + ("-mixed" if mixed else "")
        return Op(index, kind, argv + common(rng),
                  expect={"n": n, "trials": trials, "bloch": bloch})
    return make


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        "estimate-deep",
        "estimate on deep Clifford circuits with a basis-preserving core, "
        "n=16-40 (mostly 28/32), 10n gates, 3 mixed inputs, 6 fixed "
        "positions, 738 draws; stresses stabcore tableaus in polybox queries",
        # a cycle of 10 ops: 3 small (n=16-26), 4 with n=28, 2 with n=32
        # and 1 large (n=34-40).  Over the 50 ops of a 10-s run the median
        # falls in the middle of the n=28 ops and the 11th-largest latency
        # (the tail) in the middle of the n=32 ops, rather than on a
        # continuum where either would rest on the one or two ops whose
        # cost happens to land there
        (estimate_op(16, 26), estimate_op(28, 28), estimate_op(32, 32),
         estimate_op(28, 28), estimate_op(16, 26), estimate_op(28, 28),
         estimate_op(34, 40), estimate_op(28, 28), estimate_op(16, 26),
         estimate_op(32, 32)),
        estimate_op(8, 8), rate=5.0, trace_ops=10),
    Workload(
        "sparse-search",
        "sparse sampling with the sampling estimator at eps'=1 on GHZ-3/4/5 "
        "and a 3-qubit sparse IQP; stresses the polybox draw kernel and the "
        "samplers heavy-prefix search",
        # half of the ops are GHZ-3 with --sparsity, so that over the 24 ops
        # of a run both latency quantiles fall inside that one class (the
        # IQP ops are faster, GHZ-4/5 slower) rather than on a boundary
        # between classes; the IQP ops take the default sparsity
        (sparse_op("ghz", 3, 2), sparse_op("iqp", 3, None),
         sparse_op("ghz", 3, 2), sparse_op("ghz", 4, 2),
         sparse_op("ghz", 3, 2), sparse_op("iqp", 3, None),
         sparse_op("ghz", 3, 2), sparse_op("ghz", 5, 2)),
        sparse_op("ghz", 2, 2), rate=2.0, trace_ops=8),
    Workload(
        "anticoncentration",
        "anticoncentration experiment, n=3-6, 100-300 trials per op; stresses "
        "stabcore Clifford draws and synthesis plus many tiny oracle builds, "
        "never polybox or samplers",
        # trials fall as the per-trial cost rises, so every op costs about
        # the same and the latency quantiles rest on many ops, not a few
        (anticoncentration_op(3, False, 300), anticoncentration_op(4, False, 170),
         anticoncentration_op(3, True, 170), anticoncentration_op(5, False, 130),
         anticoncentration_op(6, False, 100)),
        anticoncentration_op(2, False, 100), rate=2.5,
        trace_ops=5),
)}


def make_op(workload: Workload, seed: int, index: int, workdir: Path) -> Op:
    rng = np.random.default_rng([seed % 2 ** 64, index])
    return workload.slots[index % len(workload.slots)](rng, index, workdir)


def make_warmup(workload: Workload, seed: int, workdir: Path) -> Op:
    """The warm-up op has index -1, outside the run's own ops."""
    rng = np.random.default_rng([seed % 2 ** 64, 2 ** 32])
    return workload.warmup(rng, -1, workdir)
