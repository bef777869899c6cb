"""Brute-force exact reference for small circuits.

Computes full output distributions by dense statevector simulation (product
and X-program families) or by the analytic form of the parity encoding.  Used
to freeze expected values in tests and to calibrate the stochastic
estimators; everything here is exponential in the qubit count and guarded by
a size limit (``BORNBOX_ORACLE_LIMIT`` environment variable, default 20).

Distribution arrays are indexed by the big-endian reading of the outcome
string, so array order equals lexicographic outcome order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import (Circuit, EncodedCircuit, IqpCircuit, OutcomePattern,
                       ProdCircuit)
from .stabcore import GateApp

_SQ = math.sqrt(0.5)
DEFAULT_ORACLE_LIMIT = 20


class OracleLimitError(RuntimeError):
    pass


def oracle_limit() -> int:
    raw = os.environ.get("BORNBOX_ORACLE_LIMIT")
    if raw is None:
        return DEFAULT_ORACLE_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise OracleLimitError(f"BORNBOX_ORACLE_LIMIT must be an integer, got {raw!r}")
    if value < 1:
        raise OracleLimitError("BORNBOX_ORACLE_LIMIT must be positive")
    return value


def _check_size(n: int):
    limit = oracle_limit()
    if n > limit:
        raise OracleLimitError(
            f"{n} qubits exceeds the exact-simulation limit of {limit}; "
            "set BORNBOX_ORACLE_LIMIT to override")


@dataclass(frozen=True)
class ExactDistribution:
    """Full probability vector over k measured bits.

    Also the exact prefix-marginal handle of the cdf and chain samplers:
    ``prefix_probability`` is the exact instance of both the
    exponential-precision and the multiplicative-precision contracts.
    """

    k: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (1 << self.k,):
            raise ValueError("probability vector has wrong length")
        if probs.min() < -1e-12:
            raise ValueError("negative probability")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError("probabilities do not sum to 1")
        object.__setattr__(self, "probs", probs)

    def probability(self, pattern: OutcomePattern) -> float:
        if pattern.k != self.k:
            raise ValueError("pattern length != measured count")
        mask = pattern_index_mask(pattern)
        return float(self.probs[mask].sum())

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p = np.clip(self.probs, 0.0, None)
        p = p / p.sum()
        return rng.choice(1 << self.k, size=size, p=p)

    @cached_property
    def _cum(self) -> np.ndarray:
        # built on the first prefix query, so other uses never pay for it
        return np.concatenate(([0.0], np.cumsum(self.probs)))

    def prefix_probability(self, bits: str) -> float:
        """Joint prefix marginal Pr(first len(bits) bits = bits), read off
        the cumulative table."""
        j = len(bits)
        if not 0 < j <= self.k:
            raise ValueError("prefix length out of range")
        if any(c not in "01" for c in bits):
            raise ValueError("prefix must be over 0/1")
        lo = int(bits, 2) << (self.k - j)
        return float(self._cum[lo + (1 << (self.k - j))] - self._cum[lo])


def pattern_index_mask(pattern: OutcomePattern) -> np.ndarray:
    """Boolean mask over big-endian outcome indices matching the pattern."""
    k = pattern.k
    idx = np.arange(1 << k)
    mask = np.ones(1 << k, dtype=bool)
    for pos, bit in pattern.fixed:
        mask &= ((idx >> (k - 1 - pos)) & 1) == bit
    return mask


def _probs_of(d) -> np.ndarray:
    return d.probs if isinstance(d, ExactDistribution) else np.asarray(d, float)


def l1_distance(d1, d2) -> float:
    if isinstance(d1, ExactDistribution) and isinstance(d2, ExactDistribution):
        if d1.k != d2.k:
            raise ValueError("distributions live on different outcome spaces")
    p, q = _probs_of(d1), _probs_of(d2)
    if p.shape != q.shape:
        raise ValueError("distributions live on different outcome spaces")
    return float(np.abs(p - q).sum())


def min_sparsity(d, eps: float) -> int:
    """Smallest t >= 1 such that some t-sparse distribution is within L1
    distance eps (the nearest one drops the tail mass tau and costs 2*tau)."""
    if not 0.0 <= eps <= 2.0:
        raise ValueError("eps must lie in [0, 2]")
    srt = np.sort(_probs_of(d))[::-1]
    tail = srt.sum() - np.cumsum(srt)
    for t in range(1, srt.size + 1):
        if 2.0 * tail[t - 1] <= eps + 1e-12:
            return t
    return srt.size


# ---------------------------------------------------------------------------
# Statevector simulation
# ---------------------------------------------------------------------------

def _apply_gate(psi: np.ndarray, gate: GateApp, idx: np.ndarray) -> np.ndarray:
    """The gate applied to every state along the last axis of psi."""
    name = gate.name
    if name == "H":
        m = 1 << gate.qubits[0]
        sign = 1.0 - 2.0 * ((idx & m) != 0)
        return _SQ * (psi[..., idx & ~m] + sign * psi[..., idx | m])
    if name == "S":
        m = 1 << gate.qubits[0]
        out = psi.copy()
        out[..., (idx & m) != 0] *= 1j
        return out
    if name == "X":
        return psi[..., idx ^ (1 << gate.qubits[0])]
    if name == "Z":
        m = 1 << gate.qubits[0]
        out = psi.copy()
        out[..., (idx & m) != 0] *= -1.0
        return out
    if name == "CNOT":
        c, t = gate.qubits
        return psi[..., idx ^ (((idx >> c) & 1) << t)]
    if name == "CZ":
        c, t = gate.qubits
        both = ((idx >> c) & (idx >> t) & 1) != 0
        out = psi.copy()
        out[..., both] *= -1.0
        return out
    raise ValueError(f"unknown gate {name!r}")


def prod_branches(circuit: ProdCircuit) -> list[tuple[float, np.ndarray]]:
    """Decompose a (possibly mixed) product input into weighted pure branches.

    Each qubit with Bloch norm < 1 contributes two eigenbranches, so the
    count is 2**(number of strictly mixed qubits).
    """
    per_qubit: list[list[tuple[float, np.ndarray]]] = []
    for vec in circuit.state.bloch:
        s = math.sqrt(sum(c * c for c in vec))
        if s > 1.0 - 1e-12:
            per_qubit.append([(1.0, _bloch_eigvec(vec, s))])
        elif s < 1e-15:
            per_qubit.append([(0.5, np.array([1.0, 0.0], complex)),
                              (0.5, np.array([0.0, 1.0], complex))])
        else:
            unit = tuple(c / s for c in vec)
            anti = tuple(-c for c in unit)
            per_qubit.append([((1.0 + s) / 2.0, _bloch_eigvec(unit, 1.0)),
                              ((1.0 - s) / 2.0, _bloch_eigvec(anti, 1.0))])
    branches: list[tuple[float, np.ndarray]] = [(1.0, np.array([1.0], complex))]
    for entries in per_qubit:
        # (vq outer psi).reshape(-1) is np.kron(vq, psi), product for product
        branches = [(w * wq, (vq[:, None] * psi[None, :]).reshape(-1))
                    for (w, psi) in branches for (wq, vq) in entries]
    return branches


def _bloch_eigvec(vec, s) -> np.ndarray:
    rx, ry, rz = vec
    if 1.0 + rz > 1e-12:
        u = np.array([1.0 + rz, rx + 1j * ry], complex)
    else:
        u = np.array([rx - 1j * ry, 1.0 - rz], complex)
    return u / np.linalg.norm(u)


def prod_probabilities(circuit: ProdCircuit) -> np.ndarray:
    """Exact |amplitude|^2 vector over all n qubits (bit i of the array
    index is qubit i).

    The pure branches are evolved together as one B x 2^n array, one array
    operation per gate; their weighted squares are then summed row by row in
    branch order, so the result equals a branch-by-branch loop bit for bit.
    """
    _check_size(circuit.n)
    idx = np.arange(1 << circuit.n)
    branches = prod_branches(circuit)
    psi = np.array([b for _, b in branches])
    for gate in circuit.gates:
        psi = _apply_gate(psi, gate, idx)
    sq = np.abs(psi) ** 2
    probs = np.zeros(1 << circuit.n, dtype=float)
    for (weight, _), row in zip(branches, sq):
        probs += weight * row
    return probs


def iqp_statevector(circuit: IqpCircuit) -> np.ndarray:
    """exp(i pi/4 X^row) for every row, applied to |0..0>."""
    _check_size(circuit.n)
    n = circuit.n
    idx = np.arange(1 << n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    for row in circuit.rows:
        mask = 0
        for i, b in enumerate(row):
            mask |= b << i
        psi = c * psi + 1j * s * psi[idx ^ mask]
    return psi


def _marginalize(full: np.ndarray, n: int, k: int) -> np.ndarray:
    """Map a probability vector indexed by qubit-i-as-bit-i to a distribution
    over the first k qubits indexed big-endian (qubit 0 most significant)."""
    tensor = full.reshape((2,) * n).transpose(tuple(range(n - 1, -1, -1)))
    if k < n:
        tensor = tensor.sum(axis=tuple(range(k, n)))
    return tensor.reshape(-1)


def encoded_probabilities(circuit: EncodedCircuit) -> np.ndarray:
    """Analytic distribution of (X xor Par(Y), Y): uniform pad Y, first
    output bit carries the inner first-bit marginal."""
    inner = circuit.inner
    p0 = exact_probability(inner, OutcomePattern("0" + "*" * (inner.k - 1)))
    y = circuit.y_bits
    idx = np.arange(1 << (y + 1), dtype=np.uint64)
    z0 = (idx >> np.uint64(y)) & np.uint64(1)
    par = np.bitwise_count(idx & np.uint64((1 << y) - 1)) & 1
    q = np.where((z0 ^ par) == 0, p0, 1.0 - p0)
    return q * (2.0 ** -y)


def exact_distribution(circuit: Circuit) -> ExactDistribution:
    if isinstance(circuit, ProdCircuit):
        probs = _marginalize(prod_probabilities(circuit), circuit.n, circuit.k)
    elif isinstance(circuit, IqpCircuit):
        full = np.abs(iqp_statevector(circuit)) ** 2
        probs = _marginalize(full, circuit.n, circuit.k)
    elif isinstance(circuit, EncodedCircuit):
        probs = encoded_probabilities(circuit)
    else:
        raise TypeError(f"not a circuit: {circuit!r}")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError("oracle probabilities do not sum to 1")
    # dividing by the (validated) sum scrubs the last-ulp dust that squaring
    # rounded amplitudes leaves behind; dyadic vectors pass through unchanged
    return ExactDistribution(circuit.k, probs / total)


def exact_probability(circuit: Circuit, pattern: OutcomePattern) -> float:
    """Exact Born probability of the pattern event.

    For the encoded family the strict marginals are powers of two by
    construction and are returned exactly, without summing floats.
    """
    if isinstance(circuit, EncodedCircuit):
        if pattern.k != circuit.k:
            raise ValueError("pattern length != measured count")
        if not pattern.is_full:
            return 2.0 ** -(pattern.k - pattern.wild_count)
        inner = circuit.inner
        p0 = exact_probability(inner, OutcomePattern("0" + "*" * (inner.k - 1)))
        bits = [int(c) for c in pattern.trits]
        par = sum(bits[1:]) % 2
        q = p0 if (bits[0] ^ par) == 0 else 1.0 - p0
        return min(max(q, 0.0), 1.0) * (2.0 ** -circuit.y_bits)
    return exact_distribution(circuit).probability(pattern)
