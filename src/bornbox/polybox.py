"""Additive-precision probability estimators for outcome patterns.

Each estimator answers queries of the form "estimate the probability that
the measured bits match pattern S" with the guarantee
Pr(|p - p_hat| >= eps) <= delta, at sample cost set by the Hoeffding bound.

Three circuit families get native estimators:

* product-input Clifford circuits: pull the measured Z's back
  through the gate list, all in one pass of the tableau word rule
  (``stabcore.pull_back_words``), multiply a random subset of them and
  evaluate the product on the product input (single-copy, range [-1, 1]);
* X-programs: a random parity vector r supported on the constrained
  positions selects rows of the program matrix; the draw is +-1 or 0 and its
  expectation is the pattern probability (see ``_iqp_values``);
* parity-encoded circuits: deterministic answers, no sampling at all.

The handle classes at the bottom are the only query surface:
``auto_polybox(circuit, threads)`` picks ``ProdPolyBox``, ``IqpPolyBox`` or
``CePolyBox`` by family, and ``OraclePolyBox`` answers exactly from the dense
oracle.  Each handle answers ``estimate`` for one pattern, refusing one
whose length is not the circuit's measured count, and ``prefixes(bits)``
for one heavy-prefix search level, an (m, j) 0/1 matrix of prefixes.

Each sampling family has one kernel, ``values(circuit, positions)``: its
value(sel) draws, per row of a (count, f) 0/1 selection matrix sel over f
measured positions, for the pattern that fixes each of them to 0.  A
pattern's bits enter a draw only as a sign, applied in ``_batched_sums``
alone: the draw for bits s is (-1)^(sel.s) times the sign-free one.  So all
rows of a bit matrix are scored from one shared draw matrix, each paying
only for its signs.  Each row still gets the mean of s i.i.d. draws of its
own unbiased estimator, so every per-row (eps, delta) guarantee holds; the
draws are shared, not independent, across rows.  ``estimate(p)`` scores the
one-row matrix of p's fixed bits.

Over f positions there are only 2^f distinct selections.  When 2^f is at
most both s and one chunk (``_CHUNK`` = 8192), a sampled query runs the
kernel once on all 2^f of them and reads each drawn row's value from that
table: the same rng stream, the same floats and the same sums, at a kernel
cost of 2^f n + s instead of s n on n qubits.  Sampled search levels never
qualify, since the search samples a level only past 2^j > s.

Sampled and exact scoring differ only in where sel comes from.
``prefixes`` draws s uniform random rows and ``exact_prefixes`` feeds all
2^j selections, whose mean is the probability itself: 2^j draws per row
and no rng, which the search uses while 2^j is at most one sampled query's
Hoeffding count (see ``samplers.heavy_prefixes``).  ``CePolyBox`` and
``OraclePolyBox`` answer a whole level without sampling.  Draws are split
into fixed-size chunks with spawned RNG substreams and the chunk sums added
exactly, so the values depend only on the seed, never on the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .circuits import (Circuit, EncodedCircuit, IqpCircuit, OutcomePattern,
                       ProdCircuit, check_pattern_length)
from .oracle import (ExactDistribution, _codes, encoded_first_bit,
                     encoded_probabilities, exact_distribution)
from .stabcore import pull_back_words

_CHUNK = 8192
# patterns per sign block: a chunk holds at most _BLOCK x _CHUNK signed draws
# at a time, however many candidates a search level has
_BLOCK = 64
# selections times qubits per kernel call: on n qubits a call takes at most
# _KERNEL_CELLS // n rows, so its (rows, n) matrices stay bounded
_KERNEL_CELLS = 1 << 20
# draws per query; a larger Hoeffding count is refused before any allocation
MAX_SAMPLES = 10 ** 8
_DELTA_RANGE = "delta must lie in [0, 1); 0 only for deterministic estimators"


@dataclass(frozen=True)
class Estimate:
    value: float
    eps: float
    delta: float
    samples_used: int

    def __post_init__(self):
        if self.samples_used < 1:
            raise ValueError("samples_used must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not math.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(_DELTA_RANGE)


def hoeffding_need(eps: float, delta: float) -> float:
    """Unrounded Hoeffding draw count for an additive (eps, delta)
    guarantee on a mean of i.i.d. values in [-1, 1], without the
    ``MAX_SAMPLES`` limit."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    for name, value in (("eps", eps), ("delta", delta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if eps * eps == 0.0:
        return math.inf
    return 2.0 / (eps * eps) * math.log(2.0 / delta)


def hoeffding_samples(eps: float, delta: float) -> int:
    """``hoeffding_need`` rounded up; clamps to 1 when the bound is vacuous
    (delta >= 2).  Counts above MAX_SAMPLES raise ValueError."""
    need = hoeffding_need(eps, delta)
    if need > MAX_SAMPLES:
        raise ValueError(f"eps={eps:g}, delta={delta:g} needs {need:.3g} draws "
                         f"per query, above the limit of {MAX_SAMPLES:g}")
    return max(1, math.ceil(need))


def _chunked_map(work, total: int, chunk: int, rng: np.random.Generator,
                 threads: int = 1, per_task: int | None = None) -> list:
    """[work(rng_i, size_i)] in chunk order over fixed-size chunks of total,
    rng_i being spawned substreams of rng: the results depend only on total,
    chunk and the seed, never on the thread count.  With per_task, a task
    is a run of up to per_task consecutive chunks, and work gets the lists
    of their substreams and sizes."""
    n_chunks = -(-total // chunk)
    rngs = rng.spawn(n_chunks)
    sizes = [chunk] * (n_chunks - 1) + [total - chunk * (n_chunks - 1)]
    if per_task is not None:
        starts = range(0, n_chunks, per_task)
        rngs = [rngs[i:i + per_task] for i in starts]
        sizes = [sizes[i:i + per_task] for i in starts]
    if threads > 1 and len(rngs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, rngs, sizes))
    return list(map(work, rngs, sizes))


def _means(parts, total: int) -> np.ndarray:
    """Per-row means of per-chunk sums, summed exactly over the chunks."""
    return np.array([math.fsum(row) for row in zip(*parts)]) / total


def _selections(lo: int, hi: int, f: int) -> np.ndarray:
    """Rows lo..hi-1 of the 2^f selections over f positions, as a 0/1
    matrix: bit i of the row index is column i."""
    return (np.arange(lo, hi)[:, None] >> np.arange(f)) & 1


def _batched_sums(values, circuit: Circuit, positions, bits,
                  tabulate: bool = False):
    """sums(sel): the draws of each row s of the (m, f) 0/1 matrix bits over
    f measured positions, summed over the rows of a (count, f) selection
    matrix sel.  The sign-free draws v = values(circuit, positions)(sel)
    are computed once, and row s draws (-1)^(sel.s) * v, _BLOCK rows at a
    time: the one place bits enter.  With tabulate, the kernel runs once on
    all 2^f selections and each row of sel reads its draw from that table,
    the same float as its own evaluation, since a kernel's draw depends on
    its row alone (over no positions, the one empty selection draws exactly
    1.0).  For the same reason the kernel runs on row blocks of at most
    _KERNEL_CELLS // n selections, so on n qubits its memory does not grow
    with the chunk."""
    bits = np.asarray(bits, dtype=np.int64)
    f = len(positions)
    kernel = values(circuit, positions)
    step = max(1, _KERNEL_CELLS // circuit.n)

    def blocked(sel):
        return np.concatenate([kernel(sel[lo:lo + step])
                               for lo in range(0, len(sel), step)])

    if tabulate:
        table = blocked(_selections(0, 1 << f, f))
        weights = 1 << np.arange(f)

        def value(sel):
            return table[sel @ weights]
    else:
        value = blocked

    def sums(sel):
        v = value(sel)
        return np.concatenate([
            ((1 - 2 * ((bits[lo:lo + _BLOCK] @ sel.T) & 1)) * v).sum(axis=1)
            for lo in range(0, len(bits), _BLOCK)])

    return sums


# ---------------------------------------------------------------------------
# Product-input Clifford circuits
# ---------------------------------------------------------------------------

def _word_bits(words, f: int) -> np.ndarray:
    """The (f, len(words)) 0/1 int64 matrix whose entry (r, q) is bit r of
    the int words[q]: tableau-layout words read back as f rows."""
    size = (f + 7) // 8
    raw = b"".join(w.to_bytes(size, "little") for w in words)
    planes = np.frombuffer(raw, np.uint8).reshape(len(words), size)
    return np.unpackbits(planes, axis=1, count=f,
                         bitorder="little").T.astype(np.int64)


def _prod_values(circuit: ProdCircuit, positions):
    """Returns value(sel) -> ndarray of single-sample values, one per row of
    the (count, f) 0/1 matrix sel over the f measured positions: the draws
    of the pattern that fixes each of them to 0.  Row r multiplies the
    pulled-back Z's that r selects and evaluates the product on the product
    input; the Z's commute pairwise."""
    n, f = circuit.n, len(positions)
    xs, zs = [0] * n, [0] * n
    for r, pos in enumerate(positions):  # row r is Z on positions[r]
        zs[pos] |= 1 << r
    sg = pull_back_words(circuit.gates, xs, zs, 0)
    weights = np.array([[1.0, rx, rz, ry] for (rx, ry, rz) in
                        circuit.state.bloch])
    words = _word_bits(xs + zs + [sg], f)
    fx, fz = words[:, :n], words[:, n:2 * n]
    kappa = ((fx & fz).sum(axis=1) + 2 * words[:, 2 * n]) % 4
    # pair[a, b] feeds the i**2 correction when factor a's Z bits cross
    # factor b's X bits in the left-to-right product (a < b only)
    pair = np.triu((fz @ fx.T) & 1, 1)
    qubit_idx = np.arange(n)

    def value(sel):
        xb = (sel @ fx) & 1
        zb = (sel @ fz) & 1
        kap = (sel @ kappa + 2 * ((sel @ pair) * sel).sum(axis=1)) % 4
        rem = (kap - (xb & zb).sum(axis=1)) % 4
        sign = 1.0 - rem  # rem is 0 or 2 for a Hermitian product
        codes = xb + 2 * zb
        return sign * weights[qubit_idx[None, :], codes].prod(axis=1)

    return value


# ---------------------------------------------------------------------------
# X-programs
# ---------------------------------------------------------------------------

def _iqp_values(circuit: IqpCircuit, positions):
    """Returns value(sel) -> ndarray of single-sample values, one per row of
    the (count, f) 0/1 matrix sel over the f measured positions, row r
    selecting the parity vector r supported on them: the draws of the
    pattern that fixes each of them to 0."""
    p = circuit.row_matrix().astype(np.int64)
    psub = p[:, positions]  # rows x f

    def value(sel):
        hit = (sel @ psub.T) & 1           # which rows have odd overlap
        mr = hit.sum(axis=1)
        cancel = ((hit @ p) & 1 == 0).all(axis=1)  # selected rows XOR to zero
        quarter = np.where(mr & 1, 0.0, 1.0 - 2.0 * ((mr >> 1) & 1))
        return np.where(cancel, quarter, 0.0)

    return value


# ---------------------------------------------------------------------------
# Uniform query handles
# ---------------------------------------------------------------------------

class _SamplingPolyBox:
    """Hoeffding-scheduled sampling estimator over a family kernel
    ``values(circuit, positions) -> value(sel)``."""

    deterministic = False

    def __init__(self, circuit, threads: int = 1):
        self.circuit = circuit
        self.threads = threads

    def estimate(self, pattern: OutcomePattern, eps: float, delta: float,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        check_pattern_length(pattern, self.circuit.k)
        fixed = pattern.fixed
        positions = [pos for pos, _ in fixed]
        bits = [[bit for _, bit in fixed]]
        s, (mean,) = self._sampled(positions, bits, eps, delta, rng)
        return Estimate(float(mean), eps, delta, s)

    def prefixes(self, bits, eps: float, delta: float,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Estimated marginal of each prefix row of the 0/1 matrix bits."""
        return self._sampled(range(bits.shape[1]), bits, eps, delta, rng)[1]

    def _sampled(self, positions, bits, eps, delta, rng):
        """(s, per-row means of s draws) over the given positions."""
        if rng is None:
            raise ValueError("sampling estimator needs an rng")
        s = hoeffding_samples(eps, delta)  # refuses delta <= 0, non-finite
        if delta >= 1.0:  # refused before any draw
            raise ValueError(_DELTA_RANGE)
        f = len(positions)
        sums = _batched_sums(self.values, self.circuit, positions, bits,
                             tabulate=(1 << f) <= min(s, _CHUNK))

        def part(rng_i, count):
            return sums(rng_i.integers(0, 2, size=(count, f), dtype=np.int64))
        return s, _means(_chunked_map(part, s, _CHUNK, rng, self.threads), s)

    def exact_prefixes(self, bits) -> np.ndarray:
        """Exact marginal of each prefix row of the (m, j) 0/1 matrix bits:
        the mean of its draws over all 2^j selections, in ``_CHUNK`` rows."""
        j = bits.shape[1]
        sums = _batched_sums(self.values, self.circuit, range(j), bits)
        total = 1 << j
        return _means([sums(_selections(lo, min(lo + _CHUNK, total), j))
                       for lo in range(0, total, _CHUNK)], total)


class ProdPolyBox(_SamplingPolyBox):
    values = staticmethod(_prod_values)


class IqpPolyBox(_SamplingPolyBox):
    values = staticmethod(_iqp_values)


class CePolyBox:
    """Deterministic estimator for the parity-encoded family.

    A pattern with a wildcard has probability exactly 2**-(fixed count),
    so it is answered as the prefix of its fixed bits.  Full patterns are
    answered exactly when eps is below the 2**-n resolution (n = inner
    measured count), else by the midpoint 2**-(n+1): the error is at most
    min(2**-(n+1), eps)."""

    deterministic = True

    def __init__(self, circuit: EncodedCircuit):
        self.circuit = circuit

    @cached_property
    def p0(self) -> float:
        """The inner first-bit marginal: one dense inner build per handle."""
        return encoded_first_bit(self.circuit.inner)

    @property
    def dist(self) -> ExactDistribution:
        """The exact output distribution, from the handle's inner build."""
        return exact_distribution(self.circuit, self.p0)

    def estimate(self, pattern: OutcomePattern, eps: float,
                 delta: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        check_pattern_length(pattern, self.circuit.k)
        bits = np.array([[bit for _, bit in pattern.fixed]], dtype=np.int64)
        return Estimate(float(self.prefixes(bits, eps, delta)[0]), eps, 0.0, 1)

    def prefixes(self, bits, eps: float, delta: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Each prefix row's value: 2^-j below the full level (j = k), and
        there the midpoint or the exact value from the handle's p0."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        if not math.isfinite(delta):  # unused: each Estimate carries 0
            raise ValueError(f"delta must be finite, got {delta}")
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {delta}")
        m, j = bits.shape
        y = self.circuit.y_bits
        if j < self.circuit.k:
            return np.full(m, 2.0 ** -j)
        if eps >= 2.0 ** -y:
            return np.full(m, 2.0 ** -(y + 1))
        return encoded_probabilities(self.circuit, _codes(bits), self.p0)


class OraclePolyBox:
    """Exact answers behind the estimator interface; for calibrating the
    samplers without Monte Carlo cost.  The dense distribution is built on
    first use, so a caller holding the handle still refuses bad input
    before the build."""

    deterministic = True

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

    @cached_property
    def dist(self) -> ExactDistribution:
        """The exact output distribution: one dense build per handle."""
        return exact_distribution(self.circuit)

    def estimate(self, pattern: OutcomePattern, eps: float,
                 delta: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        return Estimate(self.dist.probability(pattern), eps, 0.0, 1)

    def prefixes(self, bits, eps: float, delta: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Each prefix row's marginal: the sum of its contiguous cells."""
        cells = self.dist.probs.reshape(1 << bits.shape[1], -1)
        return cells[_codes(bits)].sum(axis=1)


def auto_polybox(circuit: Circuit, threads: int = 1):
    if isinstance(circuit, ProdCircuit):
        return ProdPolyBox(circuit, threads)
    if isinstance(circuit, IqpCircuit):
        return IqpPolyBox(circuit, threads)
    if isinstance(circuit, EncodedCircuit):
        return CePolyBox(circuit)
    raise TypeError(f"not a circuit: {circuit!r}")
