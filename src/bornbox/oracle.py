"""Brute-force exact reference for small circuits.

Computes full output distributions by dense statevector simulation (product
and X-program families) or by the analytic form of the parity encoding.  Used
to freeze expected values in tests and to calibrate the stochastic
estimators; everything here is exponential in the qubit count and guarded by
a size limit (``BORNBOX_ORACLE_LIMIT`` environment variable, default 20).

Distribution arrays are indexed by the big-endian reading of the outcome
string, so array order equals lexicographic outcome order.

Product inputs are evolved by :func:`prod_probabilities_many`, which runs a
stack of gate lists, given as the masked steps that Clifford synthesis
emits (:func:`stabcore.synthesis_steps`), on one input as one array, in
sub-batches of lists capped at a fixed amplitude count.  Between two H
steps each list's gates are composed into one integer table of source
indices and phase quarter-turns: CNOT, CZ, S, X and Z only permute the
basis and multiply by i^e, so they are exact, and H is the only step that
adds and rounds amplitudes.  Each row therefore equals a gate-by-gate loop
bit for bit, up to the sign of a zero, which |.|^2 erases.
:func:`prod_probabilities` is the one-list case, every step's mask set.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import (Circuit, EncodedCircuit, IqpCircuit, OutcomePattern,
                       ProdCircuit, check_pattern_length)
from .stabcore import ProductState

_SQ = math.sqrt(0.5)
DEFAULT_ORACLE_LIMIT = 20
# amplitudes one sub-batch of a batched evolution holds at once
_BATCH_AMPLITUDES = 1 << 16
# i^e for the e quarter turns of a monomial table entry
_TURNS = np.array([1, 1j, -1, -1j])


class OracleLimitError(ValueError):
    """Refused input: a circuit above the limit, or a malformed limit."""


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
    ``prefixes`` answers a level of prefixes, an (m, j) 0/1 matrix, and is
    the exact instance of both the exponential-precision and the
    multiplicative-precision contracts.
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
        check_pattern_length(pattern, self.k)
        # axis j is bit j of the big-endian index, read in index order
        cell = tuple(slice(None) if c == "*" else int(c)
                     for c in pattern.trits)
        return float(self.probs.reshape((2,) * self.k)[cell].ravel().sum())

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p = np.clip(self.probs, 0.0, None)
        p = p / p.sum()
        return rng.choice(1 << self.k, size=size, p=p)

    @cached_property
    def _cum(self) -> np.ndarray:
        # built on the first prefix query, so other uses never pay for it
        return np.concatenate(([0.0], np.cumsum(self.probs)))

    def prefixes(self, bits) -> np.ndarray:
        """Joint prefix marginal of each row of the (m, j) 0/1 matrix bits,
        read off the cumulative table."""
        j = bits.shape[1]
        if not 0 < j <= self.k:
            raise ValueError("prefix length out of range")
        lo = _codes(bits) << (self.k - j)
        return self._cum[lo + (1 << (self.k - j))] - self._cum[lo]


def _codes(bits) -> np.ndarray:
    """Big-endian index of each row of the (m, j) 0/1 matrix bits."""
    return np.asarray(bits, np.int64) @ (1 << np.arange(bits.shape[1])[::-1])


def _probs_of(d) -> np.ndarray:
    return d.probs if isinstance(d, ExactDistribution) else np.asarray(d, float)


def l1_distance(d1, d2) -> float:
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
    within = 2.0 * (srt.sum() - np.cumsum(srt)) <= eps + 1e-12
    return int(np.argmax(within)) + 1 if within.any() else srt.size


# ---------------------------------------------------------------------------
# Statevector simulation
# ---------------------------------------------------------------------------

def prod_branches(state: ProductState) -> list[tuple[float, np.ndarray]]:
    """Decompose a (possibly mixed) product input into weighted pure branches.

    Each qubit with Bloch norm < 1 contributes two eigenbranches, so the
    count is 2**(number of strictly mixed qubits).
    """
    per_qubit: list[list[tuple[float, np.ndarray]]] = []
    for vec in state.bloch:
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
    index is qubit i): the one-list case of :func:`prod_probabilities_many`,
    every step's mask set."""
    everyone = np.ones(1, bool)
    steps = [(g.name, g.qubits[0], g.qubits[-1], everyone)
             for g in circuit.gates]
    return prod_probabilities_many(circuit.state, steps, 1)[0]


def prod_probabilities_many(state: ProductState, steps,
                            trials: int) -> np.ndarray:
    """Row j: the exact |amplitude|^2 vector of gate list j of `trials`
    lists applied to the product input, bit i of the column index being
    qubit i.  The lists are given as masked steps in the order the gates
    act, laid out as by :func:`stabcore.synthesis_steps`: list j applies
    the steps whose mask is set at j.

    The pure branches of the input are evolved under every gate list at once
    as one (T, B, 2^n) array, in sub-batches of at most
    ``_BATCH_AMPLITUDES`` amplitudes (at least one gate list each), so a
    large n evolves one gate list at a time; a sub-batch's (T, 2^n) index
    tables are no larger.  See :func:`_evolve`.  The
    weighted squares of the branches are summed in branch order.  Each row
    equals a gate-by-gate, branch-by-branch loop bit for bit: every gate
    but H is a monomial, a permutation times factors i^e, which moves or
    negates the parts of an amplitude exactly, so H's sum and scaling see
    the same operands as in the loop, up to the sign of a zero, which the
    square erases.
    """
    _check_size(state.n)
    weights, vectors = zip(*prod_branches(state))
    psi = np.array(vectors)
    del vectors  # at large n, hold the input branches once
    runs = _runs(steps)
    span = max(1, _BATCH_AMPLITUDES // psi.size)
    probs = np.zeros((trials, psi.shape[1]))
    for lo in range(0, trials, span):
        hi = min(lo + span, trials)
        batch = [(name, ctl[lo:hi, None] if isinstance(ctl, np.ndarray)
                  else ctl, word[lo:hi, None]) for name, ctl, word in runs]
        sq = np.abs(_evolve(psi, batch, hi - lo)) ** 2
        rows = probs[lo:hi]
        for b, weight in enumerate(weights):
            rows += weight * sq[:, b]
    return probs


def _runs(steps) -> list[tuple]:
    """Masked steps as (name, ctl, word): word holds, per list, the bit of
    the qubit a step acts on (its target, for CNOT and CZ), or 0 where its
    mask is unset, and ctl the control's bit (an int, or an array over
    lists) or None.  A run of CNOTs, or of CZs, on one int control commutes
    and is one step on the XOR of their words."""
    runs: list[list] = []
    last = None
    for name, a, b, mask in steps:
        two = name in ("CNOT", "CZ")
        word = np.where(mask, np.left_shift(1, b if two else a), 0)
        key = (name, a) if two and isinstance(a, int) else None
        if key is not None and key == last:
            runs[-1][2] ^= word
            continue
        last = key
        runs.append([name, (1 << a) if two else None, word])
    return runs


def _evolve(psi0: np.ndarray, runs, trials: int) -> np.ndarray:
    """(T, B, D) amplitudes of the (B, D) branches psi0 under the T gate
    lists of the runs of :func:`_runs`, sliced to (T, 1) arrays.

    The monomial gates are composed per list into one integer table over
    the basis: entry i holds src | e << n for pending amplitude
    i^e psi[src].  X and CNOT gather the table through i ^ word (the word
    only where i has the control bit), and S, Z and CZ add the quarter
    turns of their phase: 1 (S) or 2 (Z, CZ) times the number of word bits
    set in i, for CZ only where i has the control bit.  Only an H touches
    the amplitudes: out[i] = (psi'[i & ~m] + (-1)^[i & m] psi'[i | m]) / sqrt 2
    reads the pending psi' through the table, the sign being two more
    turns, and leaves the identity table.  A list without the H at that
    step (m = 0) takes (psi'[i] + psi'[i]) / 2 = psi'[i], exactly.
    """
    n_branches, dim = psi0.shape
    n = dim.bit_length() - 1
    idx = np.arange(dim)
    rows = np.arange(trials)[:, None] * dim
    psi, table = psi0, None  # None: the identity table
    for name, ctl, word in runs:
        if not word.any():
            continue
        if name == "H":
            lo, hi = idx & ~word, idx | word
            if table is not None:
                lo, hi = np.take(table, rows + lo), np.take(table, rows + hi)
            hi = hi + np.where(idx & word, 2 << n, 0)
            psi = _pull(psi, lo, n) + _pull(psi, hi, n)
            psi *= np.where(word != 0, _SQ, 0.5)[:, :, None]
            table = None
        elif name in ("X", "CNOT"):
            flip = word if ctl is None else ((idx & ctl) != 0) * word
            table = idx ^ flip if table is None else np.take(
                table, rows + (idx ^ flip))
        else:
            turns = np.bitwise_count(idx & word).astype(np.int64)
            if ctl is not None:
                turns *= (idx & ctl) != 0
            turns <<= n + (name != "S")
            table = idx + turns if table is None else table + turns
    if table is not None:
        psi = _pull(psi, table, n)
    return np.broadcast_to(psi, (trials, n_branches, dim))


def _pull(psi: np.ndarray, entries: np.ndarray, n: int) -> np.ndarray:
    """(T, B, D) amplitudes i^e psi[j, b, src] for the (T, D) table entries
    src | e << n of every list j and branch b; psi is (T, B, D), or the
    (B, D) branches that every list starts from."""
    n_branches, dim = psi.shape[-2:]
    offsets = np.arange(n_branches)[:, None] * dim
    if psi.ndim == 3:
        offsets = offsets + np.arange(psi.shape[0])[:, None, None] * psi[0].size
    amp = np.take(psi, offsets + (entries & (dim - 1))[:, None, :])
    amp *= _TURNS[(entries >> n) & 3][:, None, :]
    return amp


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


def encoded_first_bit(inner: Circuit) -> float:
    """The inner circuit's marginal Pr(first measured bit = 0), clamped to
    [0, 1]: the one dense build that the encoded family needs."""
    p0 = exact_probability(inner, OutcomePattern("0" + "*" * (inner.k - 1)))
    return min(max(p0, 0.0), 1.0)


def encoded_probabilities(circuit: EncodedCircuit, idx,
                          p0: float) -> np.ndarray:
    """Analytic probabilities of the big-endian outcome indices idx under
    (X xor Par(Y), Y): the uniform pad Y carries 2^-y, and the first output
    bit, flipped by the pad's parity, carries the inner first-bit marginal
    p0 (``encoded_first_bit``)."""
    y = circuit.y_bits
    idx = np.asarray(idx, dtype=np.uint64)
    z0 = (idx >> np.uint64(y)) & np.uint64(1)
    par = np.bitwise_count(idx & np.uint64((1 << y) - 1)) & 1
    q = np.where((z0 ^ par) == 0, p0, 1.0 - p0)
    return q * (2.0 ** -y)


def exact_distribution(circuit: Circuit,
                       p0: float | None = None) -> ExactDistribution:
    """The full output distribution.  For an encoded circuit, p0 is its
    inner first-bit marginal when that is already built."""
    if isinstance(circuit, ProdCircuit):
        probs = _marginalize(prod_probabilities(circuit), circuit.n, circuit.k)
    elif isinstance(circuit, IqpCircuit):
        full = np.abs(iqp_statevector(circuit)) ** 2
        probs = _marginalize(full, circuit.n, circuit.k)
    elif isinstance(circuit, EncodedCircuit):
        if p0 is None:
            p0 = encoded_first_bit(circuit.inner)
        probs = encoded_probabilities(circuit, np.arange(1 << circuit.k), p0)
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
        check_pattern_length(pattern, circuit.k)
        if not pattern.is_full:
            return 2.0 ** -(pattern.k - pattern.wild_count)
        return float(encoded_probabilities(circuit, int(pattern.trits, 2),
                                           encoded_first_bit(circuit.inner)))
    return exact_distribution(circuit).probability(pattern)
