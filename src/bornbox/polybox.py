"""Additive-precision probability estimators for outcome patterns.

Each estimator answers queries of the form "estimate the probability that
the measured bits match pattern S" with the guarantee
Pr(|p - p_hat| >= eps) <= delta, at sample cost set by the Hoeffding bound.

Three circuit families get native estimators:

* product-input Clifford circuits: pull the measured signed Z's back
  through the gate list, all in one pass of the tableau word rule
  (``stabcore.pull_back``), multiply a random subset of them and evaluate
  the product on the product input (single-copy, range [-1, 1]);
* X-programs: a random parity vector r supported on the constrained
  positions selects rows of the program matrix; the draw is +-1 or 0 and its
  expectation is the pattern probability (see ``_iqp_values``);
* parity-encoded circuits: deterministic answers, no sampling at all.

The handle classes at the bottom are the only query surface:
``auto_polybox(circuit, threads)`` picks ``ProdPolyBox``, ``IqpPolyBox`` or
``CePolyBox`` by family, ``OraclePolyBox`` answers exactly from the dense
oracle, and each handle answers ``estimate`` for one pattern and
``estimate_many`` for a batch.  A pattern whose length is not the circuit's
measured count is refused with a ``ValueError`` naming both lengths.

In both sampling families a pattern's bits enter a draw only through a sign:
for a selection matrix ``sel`` over the fixed positions, the draw for bits s
is (-1)^(sel.s) times the draw for the pattern with those positions at 0.
So a batch of patterns that share their fixed positions (every candidate
prefix of one heavy-prefix search level) is scored from one shared draw
matrix: ``sel`` is drawn once per chunk, the sign-free draws are computed
once, and each pattern pays only for its signs.  Each pattern still gets the
mean of s i.i.d. draws of its own unbiased estimator, so every per-pattern
(eps, delta) guarantee holds; the draws are shared, not independent, across
the patterns of a batch.  ``estimate(p)`` is ``estimate_many([p])[0]``.

The sampling handles also answer ``exact_many(patterns)``, the exact
probabilities of such a batch: the sampled mean is an average over uniform
selections, so the same sign rows, fed every one of the 2^f selections
instead of random ones, sum to the probability itself.  That costs 2^f draws
per pattern and no rng; the heavy-prefix search uses it at the levels where
2^f is at most the Hoeffding count of a sampled query (see
``samplers.heavy_prefixes``).  ``estimate`` and ``estimate_many`` always
sample and report their Hoeffding count.  ``CePolyBox`` and
``OraclePolyBox`` have no ``exact_many``: they answer without sampling.

Draws inside one estimate are split into fixed-size chunks with spawned RNG
substreams and combined with exact summation, so the returned values depend
only on the seed, never on the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circuits import (Circuit, EncodedCircuit, IqpCircuit, OutcomePattern,
                       ProdCircuit, check_pattern_length)
from .oracle import exact_distribution, exact_probability
from .stabcore import PauliOperator, _xz_phase, pull_back

_CHUNK = 8192
# patterns per sign block: a chunk holds at most _BLOCK x _CHUNK signed draws
# at a time, however many candidates a search level has
_BLOCK = 64
# draws per query; a larger Hoeffding count is refused before any allocation
MAX_SAMPLES = 10 ** 8


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
            raise ValueError("delta must lie in [0, 1); 0 only for "
                             "deterministic estimators")


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
                 threads: int = 1) -> list:
    """[work(rng_i, size_i)] in chunk order over fixed-size chunks of total,
    rng_i being spawned substreams of rng: the results depend only on total,
    chunk and the seed, never on the thread count."""
    n_chunks = -(-total // chunk)
    rngs = rng.spawn(n_chunks)
    sizes = [chunk] * (n_chunks - 1) + [total - chunk * (n_chunks - 1)]
    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, rngs, sizes))
    return list(map(work, rngs, sizes))


def _chunked_mean(draw, total: int, rng: np.random.Generator,
                  threads: int = 1) -> list[float]:
    """Per-row means of the draws, summed exactly over the chunks of
    ``_chunked_map``; draw(rng_i, size_i) yields blocks of draws with one
    row per estimated pattern."""
    def part(rng_i, size):
        return np.concatenate([block.sum(axis=1)
                               for block in draw(rng_i, size)])
    sums = _chunked_map(part, total, _CHUNK, rng, threads)
    return [math.fsum(row) / total for row in zip(*sums)]


def _batched_rows(values, circuit: Circuit, patterns):
    """(rows, f): rows(sel) yields the draws of patterns that share their f
    fixed positions, for a (count, f) 0/1 selection matrix sel.  The
    sign-free draws v = values(circuit, base)(sel) are computed once, base
    being the pattern with every fixed bit 0; the row of a pattern with bits
    s is (-1)^(sel.s) * v, yielded _BLOCK rows at a time.  This is the only
    place the estimator handles apply a pattern's bits."""
    base = OutcomePattern(patterns[0].trits.replace("1", "0"))
    if any(p.trits.replace("1", "0") != base.trits for p in patterns):
        raise ValueError("patterns in one batch must share their fixed "
                         "positions")
    value = values(circuit, base)
    bits = np.array([[bit for _, bit in p.fixed] for p in patterns],
                    dtype=np.int64)

    def rows(sel):
        v = value(sel)
        for lo in range(0, len(bits), _BLOCK):
            yield (1 - 2 * ((bits[lo:lo + _BLOCK] @ sel.T) & 1)) * v

    return rows, bits.shape[1]


def _batched_draws(values, circuit: Circuit, patterns):
    """draw(rng, count) for ``_chunked_mean``: the rows of
    ``_batched_rows`` for one uniformly random (count, f) selection
    matrix per chunk."""
    rows, f = _batched_rows(values, circuit, patterns)
    return lambda rng, count: rows(
        rng.integers(0, 2, size=(count, f), dtype=np.int64))


# ---------------------------------------------------------------------------
# Product-input Clifford circuits
# ---------------------------------------------------------------------------

def _conjugated_factors(circuit: ProdCircuit,
                        pattern: OutcomePattern) -> list[PauliOperator]:
    """U^dag (s_i Z_i) U for every fixed pattern position, s_i = +-1 for
    outcome 0/1, pulled back in one pass over the gates.  These commute
    pairwise."""
    check_pattern_length(pattern, circuit.k)
    return list(pull_back(circuit.n, circuit.gates, [
        PauliOperator.single_z(circuit.n, pos, 1 if bit == 0 else -1)
        for pos, bit in pattern.fixed]))


def _prod_values(circuit: ProdCircuit, pattern: OutcomePattern):
    """Returns value(sel) -> ndarray of single-sample values, one per row of
    the (count, f) 0/1 matrix sel over the pattern's fixed positions.  The
    estimators call it with every fixed bit 0 (see ``_batched_rows``); for
    other bits the signed factors give the per-pattern draws directly, the
    reference the tests check the batched sign against."""
    factors = _conjugated_factors(circuit, pattern)
    n = circuit.n
    f = len(factors)
    weights = np.array([[1.0, rx, rz, ry] for (rx, ry, rz) in
                        circuit.state.bloch])
    if f == 0:
        return lambda sel: np.ones(len(sel))
    fx = np.array([[(q.x >> i) & 1 for i in range(n)] for q in factors],
                  dtype=np.int64)
    fz = np.array([[(q.z >> i) & 1 for i in range(n)] for q in factors],
                  dtype=np.int64)
    kappa = np.array([_xz_phase(q) for q in factors], dtype=np.int64)
    # pair[a, b] feeds the i**2 correction when factor a's Z bits cross
    # factor b's X bits in the left-to-right product (a < b only)
    pair = np.zeros((f, f), dtype=np.int64)
    for a in range(f):
        for b in range(a + 1, f):
            pair[a, b] = int((fz[a] & fx[b]).sum() & 1)
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

def _iqp_values(circuit: IqpCircuit, pattern: OutcomePattern):
    """Returns value(sel) -> ndarray of single-sample values, one per row of
    the (count, f) 0/1 matrix sel, row r selecting the parity vector r.  The
    estimators call it with every fixed bit 0 (see ``_batched_rows``); the
    (-1)^(r.s) factor for other bits is the reference the tests check the
    batched sign against."""
    check_pattern_length(pattern, circuit.k)
    p = circuit.row_matrix().astype(np.int64)
    positions = np.array([pos for pos, _ in pattern.fixed], dtype=np.int64)
    sbits = np.array([bit for _, bit in pattern.fixed], dtype=np.int64)
    if positions.size == 0:
        return lambda sel: np.ones(len(sel))
    psub = p[:, positions]  # rows x f

    def value(sel):
        hit = (sel @ psub.T) & 1           # which rows have odd overlap
        mr = hit.sum(axis=1)
        cancel = ((hit @ p) & 1 == 0).all(axis=1)  # selected rows XOR to zero
        rs = (sel @ sbits) & 1
        quarter = np.where(mr & 1, 0.0, 1.0 - 2.0 * ((mr >> 1) & 1))
        return (1.0 - 2.0 * rs) * np.where(cancel, quarter, 0.0)

    return value


# ---------------------------------------------------------------------------
# Uniform query handles
# ---------------------------------------------------------------------------

class _SamplingPolyBox:
    """Hoeffding-scheduled sampling estimator over a family kernel
    ``values(circuit, pattern) -> value(sel)``; a batch of patterns sharing
    their fixed positions is scored from one shared draw matrix."""

    deterministic = False

    def __init__(self, circuit, threads: int = 1):
        self.circuit = circuit
        self.threads = threads

    def estimate(self, pattern: OutcomePattern, eps: float, delta: float,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        return self.estimate_many([pattern], eps, delta, rng)[0]

    def estimate_many(self, patterns, eps: float, delta: float,
                      rng: Optional[np.random.Generator] = None
                      ) -> list[Estimate]:
        """One estimate per pattern; the patterns must share their fixed
        positions."""
        if rng is None:
            raise ValueError("sampling estimator needs an rng")
        s = hoeffding_samples(eps, delta)
        draw = _batched_draws(self.values, self.circuit, patterns)
        return [Estimate(mean, eps, delta, s)
                for mean in _chunked_mean(draw, s, rng, self.threads)]

    def exact_many(self, patterns) -> list[float]:
        """Exact probability of each pattern, the patterns sharing their f
        fixed positions: the mean of its draws over all 2^f selections,
        enumerated in ``_CHUNK``-row chunks and summed exactly.  Costs 2^f
        draws per pattern and no rng."""
        rows, f = _batched_rows(self.values, self.circuit, patterns)
        total = 1 << f
        sums = []
        for lo in range(0, total, _CHUNK):
            sel = (np.arange(lo, min(lo + _CHUNK, total))[:, None]
                   >> np.arange(f)) & 1
            sums.append(np.concatenate([block.sum(axis=1)
                                        for block in rows(sel)]))
        return [math.fsum(row) / total for row in zip(*sums)]


class ProdPolyBox(_SamplingPolyBox):
    values = staticmethod(_prod_values)


class IqpPolyBox(_SamplingPolyBox):
    values = staticmethod(_iqp_values)


class _DeterministicPolyBox:
    deterministic = True

    def estimate_many(self, patterns, eps: float, delta: float = 0.0,
                      rng: Optional[np.random.Generator] = None
                      ) -> list[Estimate]:
        return [self.estimate(p, eps, delta, rng) for p in patterns]


class CePolyBox(_DeterministicPolyBox):
    """Deterministic estimator for the parity-encoded family.

    Any pattern with a wildcard has probability exactly 2**-(fixed count).
    Full patterns are answered exactly when eps is below the 2**-n
    resolution (n = inner measured count) and by the midpoint guess
    2**-(n+1) otherwise; either way the error is <= min(2**-(n+1), eps).
    """

    def __init__(self, circuit: EncodedCircuit):
        self.circuit = circuit

    def estimate(self, pattern: OutcomePattern, eps: float,
                 delta: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        circuit = self.circuit
        if eps <= 0:
            raise ValueError("eps must be positive")
        if not math.isfinite(delta):  # unused, but echoed in results
            raise ValueError(f"delta must be finite, got {delta}")
        check_pattern_length(pattern, circuit.k)
        if pattern.is_full and eps >= 2.0 ** -circuit.y_bits:
            value = 2.0 ** -(circuit.y_bits + 1)
        else:
            value = exact_probability(circuit, pattern)
        return Estimate(value, eps, 0.0, 1)


class OraclePolyBox(_DeterministicPolyBox):
    """Exact answers behind the estimator interface; for calibrating the
    samplers without Monte Carlo cost."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.dist = exact_distribution(circuit)

    def estimate(self, pattern: OutcomePattern, eps: float,
                 delta: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        return Estimate(self.dist.probability(pattern), eps, 0.0, 1)


def auto_polybox(circuit: Circuit, threads: int = 1):
    if isinstance(circuit, ProdCircuit):
        return ProdPolyBox(circuit, threads)
    if isinstance(circuit, IqpCircuit):
        return IqpPolyBox(circuit, threads)
    if isinstance(circuit, EncodedCircuit):
        return CePolyBox(circuit)
    raise TypeError(f"not a circuit: {circuit!r}")
