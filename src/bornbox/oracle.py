"""Brute-force exact reference for small circuits.

Computes full output distributions by dense statevector simulation (product
and X-program families) or by the analytic form of the parity encoding.  Used
to freeze expected values in tests and to calibrate the stochastic
estimators; everything here is exponential in the qubit count and guarded by
a size limit (``BORNBOX_ORACLE_LIMIT`` environment variable, default 20).
A mixed product-input qubit splits into two pure branches, doubling the
amplitudes, so it counts twice against the limit.

Distribution arrays are indexed by the big-endian reading of the outcome
string, so array order equals lexicographic outcome order.

Product inputs are evolved by :func:`prod_probabilities_many`, which runs a
stack of gate lists, given as the masked steps that Clifford synthesis
emits (:func:`stabcore.synthesis_steps`), on one input as one (branches,
lists, 2^n) array, in sub-batches of lists capped at a fixed amplitude
count.  Every step's per-list word comes from one pass over the stacked
masks, and a run of CNOTs or CZs on one control is merged into one step.
Between two H steps each list's gates are composed into one int64 table
over the flat (list, basis index) cells, each entry a source cell plus
phase quarter-turns, so every gather is a single ``take``: CNOT, CZ, S, X
and Z only permute the basis and multiply by i^e, so they are exact, and H
is the only step that adds and rounds amplitudes.  Each row therefore
equals a gate-by-gate loop bit for bit, up to the sign of a zero, which
|.|^2 erases.  :func:`prod_probabilities` is the one-list case, every
step's mask set.
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
# a Bloch norm above this is a pure qubit, one branch rather than two
_PURE = 1.0 - 1e-12
DEFAULT_ORACLE_LIMIT = 20
# amplitudes one sub-batch of a batched evolution holds at once
_BATCH_AMPLITUDES = 1 << 16
# i^e for the e quarter turns of a monomial table entry, held in its top
# two bits, above every table cell (cells are below 2^62)
_TURNS = np.array([1, 1j, -1, -1j])
_TURN_BIT = 62
_CELLS = (1 << _TURN_BIT) - 1


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


def _check_size(n: int, mixed: int = 0):
    """Refuses a dense build on n qubits, mixed of which split into two
    pure branches each: n + mixed counts against the limit."""
    limit = oracle_limit()
    if n + mixed > limit:
        twice = f" with {mixed} mixed, each counted twice," if mixed else ""
        raise OracleLimitError(
            f"{n} qubits{twice} exceeds the exact-simulation limit of "
            f"{limit}; set BORNBOX_ORACLE_LIMIT to override")


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
        return categorical(rng, p / p.sum(), size)

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


def categorical(rng: np.random.Generator, p, size: int) -> np.ndarray:
    """size draws of an index into the probability vector p, which sums to
    1: the inverse-CDF draw that ``Generator.choice(len(p), size, p=p)``
    makes once p passes its checks, so the same indices from the same
    doubles of rng, without those checks."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(size), side="right")


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


def check_l1_eps(eps: float) -> None:
    """Refuses an L1 distance eps outside [0, 2], nan included."""
    if not 0.0 <= eps <= 2.0:
        raise ValueError("eps must lie in [0, 2]")


def min_sparsity(d, eps: float) -> int:
    """Smallest t >= 1 such that some t-sparse distribution is within L1
    distance eps (the nearest one drops the tail mass tau and costs 2*tau)."""
    check_l1_eps(eps)
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
        s = _bloch_norm(vec)
        if s > _PURE:
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


def _bloch_norm(vec) -> float:
    return math.sqrt(sum(c * c for c in vec))


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


def sub_batch_lists(state: ProductState) -> int:
    """Gate lists that one sub-batch of :func:`prod_probabilities_many`
    evolves at once on the input's pure branches: ``_BATCH_AMPLITUDES``
    over the branch count times 2^n, at least one.  The branches are
    counted without being built, by the rule of :func:`prod_branches`: a
    qubit whose Bloch norm is not above ``_PURE`` splits into two.  The
    same count refuses an input whose branches hold more than 2^limit
    amplitudes, so every mixed qubit counts twice against the limit."""
    mixed = sum(_bloch_norm(vec) <= _PURE for vec in state.bloch)
    _check_size(state.n, mixed)
    return max(1, _BATCH_AMPLITUDES >> (mixed + state.n))


def prod_probabilities_many(state: ProductState, steps,
                            trials: int) -> np.ndarray:
    """Row j: the exact |amplitude|^2 vector of gate list j of `trials`
    lists applied to the product input, bit i of the column index being
    qubit i.  The lists are given as masked steps in the order the gates
    act, laid out as by :func:`stabcore.synthesis_steps`: list j applies
    the steps whose mask is set at j.

    The pure branches of the input are evolved under every gate list at once
    as one (B, T, 2^n) array, in sub-batches of at most
    ``_BATCH_AMPLITUDES`` amplitudes (at least one gate list each), so a
    large n evolves one gate list at a time; a sub-batch's (T, 2^n) index
    tables are no larger.  :func:`sub_batch_lists` counts the lists of a
    sub-batch from the input alone, and refuses an input above the oracle
    limit before any branch is built.  See :func:`_evolve`.  The weighted
    squares of the branches are summed in branch order.  Each row equals
    a gate-by-gate, branch-by-branch loop bit for bit: every gate but H
    is a monomial, a permutation times factors i^e, which moves or
    negates the parts of an amplitude exactly, so H's sum and scaling see
    the same operands as in the loop, up to the sign of a zero, which the
    square erases.
    """
    span = sub_batch_lists(state)
    weights, vectors = zip(*prod_branches(state))
    psi = np.array(vectors)
    del vectors  # at large n, hold the input branches once
    runs, words = _runs(steps, trials)
    probs = np.zeros((trials, psi.shape[1]))
    for lo in range(0, trials, span):
        hi = min(lo + span, trials)
        sq = np.abs(_evolve(psi, _live(runs, words[:, lo:hi], lo, hi),
                            hi - lo)) ** 2
        rows = probs[lo:hi]
        for weight, branch in zip(weights, sq):
            rows += weight * branch
    return probs


def _live(runs, batch: np.ndarray, lo: int, hi: int) -> list[tuple]:
    """The runs that some list of the sub-batch lo:hi applies, as (name,
    ctl, word, lists), each array sliced to (T, 1): a run whose lists all
    apply one word w has word = w, and lists = None when every list of the
    sub-batch applies it, else its (T, 1) bool mask; any other run has its
    (T, 1) words and lists = None."""
    top = batch.max(axis=1)
    applied = batch != 0
    single = (~applied | (batch == top[:, None])).all(axis=1)
    live = []
    for (name, ctl), word, on, w, one, every in zip(
            runs, batch, applied, top.tolist(), single.tolist(),
            applied.all(axis=1).tolist()):
        if not w:
            continue
        if isinstance(ctl, np.ndarray):
            ctl = ctl[lo:hi, None]
        live.append((name, ctl, w, None if every else on[:, None]) if one
                    else (name, ctl, word[:, None], None))
    return live


def _runs(steps, trials: int) -> tuple[list[tuple], np.ndarray]:
    """Masked steps as runs (name, ctl) and their (R, trials) words: a word
    holds, per list, the bit of the qubit a step acts on (its target, for
    CNOT and CZ), or 0 where its mask is unset, and ctl is the control's bit
    (an int, or an array over lists) or None.  A run of CNOTs, or of CZs,
    on one int control commutes and is one step on the XOR of their words.
    Every step's word comes from one pass over the stacked masks; the loop
    only finds where runs start and what they control, and each step that
    joins a run is XORed into it (a row at a time: ``reduceat`` along the
    steps costs several times a pass over them)."""
    runs: list[tuple] = []
    starts: list[int] = []
    joins: list[tuple[int, int]] = []
    qubits: list = []
    last = None
    for k, (name, a, b, _) in enumerate(steps):
        two = name in ("CNOT", "CZ")
        qubits.append(b if two else a)
        key = (name, a) if two and isinstance(a, int) else None
        if key is None or key != last:
            starts.append(k)
            runs.append((name, (1 << a) if two else None))
        else:
            joins.append((k, len(runs) - 1))
        last = key
    if not steps:
        return runs, np.zeros((0, trials), np.int64)
    wide = [k for k, q in enumerate(qubits) if isinstance(q, np.ndarray)]
    target = np.array([0 if isinstance(q, np.ndarray) else q for q in qubits])
    target = np.repeat(target[:, None], trials, axis=1)
    if wide:
        target[wide] = [qubits[k] for k in wide]
    # a bool mask shifted by the target qubit is the word
    words = np.left_shift(np.array([mask for *_, mask in steps]), target)
    merged = words[starts]
    for k, r in joins:
        merged[r] ^= words[k]
    return runs, merged


def _evolve(psi0: np.ndarray, runs, trials: int) -> np.ndarray:
    """(B, T, D) amplitudes of the (B, D) branches psi0 under the T gate
    lists of the live runs of :func:`_live`.

    The monomial gates are composed per list into one int64 table over the
    flat (T, D) cells: the entry of cell t*D + i holds c + e * 2^62 for
    pending amplitude i^e psi[c], c being a cell of the same list; the
    quarter turns e sit in the top two bits, where int64 addition wraps
    them mod 4.  X and CNOT gather the table through cell ^ word (the word
    only where i has the control bit), and S, Z and CZ add the quarter
    turns of their phase: one per set bit of an S word (it carries one
    bit), and two per set bit of a Z or CZ word, whose parity alone
    counts, for CZ only where i has the control bit.  A word that every
    list applying the run shares is an int, so these masks and phases
    take one row of D, spread over the lists that apply it.

    Only an H touches the amplitudes, and leaves the identity table:
    out[i] = (psi'[i & ~m] + (-1)^[i & m] psi'[i | m]) / sqrt 2 for the
    pending psi', which is pulled through the table once and read at
    cell ^ m, the partner of each cell; the sign is a multiplication by
    -1, exact as the turns are, and the sum adds the formula's operands,
    in the other order where i lacks m.  A list without the H at that step
    (m = 0) takes (psi'[i] + psi'[i]) / 2 = psi'[i], exactly.
    """
    dim = psi0.shape[1]
    cell = np.arange(trials * dim).reshape(trials, dim)
    psi, table = psi0, None  # None: the identity table, cell itself
    for name, ctl, word, lists in runs:
        if name == "H":
            psi, table = _hadamard(psi, table, cell, word, lists), None
        else:
            table = _monomial(name, ctl, word, lists, table, cell)
    if table is not None:
        psi = _pull(psi, table)
    return np.broadcast_to(psi if psi.ndim == 3 else psi[:, None],
                           (psi0.shape[0], trials, dim))


def _monomial(name: str, ctl, word, lists, table, cell) -> np.ndarray:
    """The table after an X, CNOT, S, Z or CZ run (see :func:`_evolve`);
    row 0 of cell is every basis index."""
    idx = cell[0]
    on = idx if ctl is None else np.where(idx & ctl, idx, 0)
    if name in ("X", "CNOT"):
        flip = word if ctl is None else (on != 0) * word
        if lists is not None:
            flip = flip * lists
        return cell ^ flip if table is None else np.take(table, cell ^ flip)
    turns = np.left_shift(np.bitwise_count(on & word),
                          _TURN_BIT + (name != "S"), dtype=np.int64)
    if lists is not None:
        turns = turns * lists
    return (cell if table is None else table) + turns


def _hadamard(psi, table, cell, m, lists) -> np.ndarray:
    """The amplitudes after an H run on the pending psi through the table
    (see :func:`_evolve`)."""
    if lists is not None:
        m = m * lists
    amp = psi if table is None else _pull(psi, table)
    out = _take(amp, cell ^ m)
    if amp.ndim == 2:
        amp = amp[:, None]
    # amp[i] + amp[i ^ m] where i lacks m, amp[i ^ m] - amp[i] where it has it
    out += amp * np.where(cell[0] & m, -1.0, 1.0)
    out *= np.where(m != 0, _SQ, 0.5)
    return out


def _take(psi: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """(B, T, D) amplitudes psi[b, c] at the (T, D) cells c of every
    branch b; psi is (B, T, D), c a flat cell, or the (B, D) branches that
    every list starts from, read at c's basis index."""
    span = psi[0].size
    if psi.ndim == 2:
        cells = cells & (span - 1)
    return np.take(psi.reshape(len(psi), span), cells, axis=1)


def _pull(psi: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """(B, T, D) amplitudes i^e psi[b, c] for the (T, D) table entries
    c + e * 2^62 (see :func:`_take`)."""
    amp = _take(psi, entries & _CELLS)
    # the arithmetic shift reads turns 2 and 3 as -2 and -1, which index
    # the same entries of _TURNS
    amp *= _TURNS[entries >> _TURN_BIT]
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
    return tensor.sum(axis=tuple(range(k, n))).reshape(-1)


def check_encoded_size(circuit: EncodedCircuit):
    """Refuses a dense build of an encoded circuit's 2^k outcomes for k
    above limit + 1, the most that one encoding of a circuit within the
    limit measures; each level of a nested encoding adds a bit."""
    limit = oracle_limit()
    if circuit.k > limit + 1:
        raise OracleLimitError(
            f"an encoded circuit of {circuit.k} measured bits exceeds the "
            f"exact-simulation limit of {limit} + 1; set "
            f"BORNBOX_ORACLE_LIMIT to override")


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
    inner first-bit marginal when that is already built; its size is
    checked (``check_encoded_size``) before any build."""
    if isinstance(circuit, ProdCircuit):
        probs = _marginalize(prod_probabilities(circuit), circuit.n, circuit.k)
    elif isinstance(circuit, IqpCircuit):
        full = np.abs(iqp_statevector(circuit)) ** 2
        probs = _marginalize(full, circuit.n, circuit.k)
    elif isinstance(circuit, EncodedCircuit):
        check_encoded_size(circuit)
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
    """Exact Born probability of the pattern event, its length checked
    before any build.

    For the encoded family the strict marginals are powers of two by
    construction and are returned exactly, without summing floats.
    """
    check_pattern_length(pattern, circuit.k)
    if isinstance(circuit, EncodedCircuit):
        if not pattern.is_full:
            return 2.0 ** -(pattern.k - pattern.wild_count)
        return float(encoded_probabilities(circuit, int(pattern.trits, 2),
                                           encoded_first_bit(circuit.inner)))
    return exact_distribution(circuit).probability(pattern)
