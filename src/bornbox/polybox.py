"""Additive-precision probability estimators for outcome patterns.

Each estimator answers queries of the form "estimate the probability that
the measured bits match pattern S" with the guarantee
Pr(|p - p_hat| >= eps) <= delta, at sample cost set by the Hoeffding bound.

Three circuit families get native estimators:

* product-input Clifford circuits: pull the measured Z's back
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

Each sampling family has one kernel, ``values(circuit, positions)``: its
value(sel) draws, per row of a (count, f) 0/1 selection matrix sel over f
measured positions, for the pattern that fixes each of them to 0.  A
pattern's bits enter a draw only as a sign, applied in ``_batched_sums``
alone: the draw for bits s is (-1)^(sel.s) times the sign-free one.  So a
batch of patterns that share their fixed positions (every candidate prefix
of one heavy-prefix search level) is scored from one shared draw matrix:
the sign-free draws are computed once per chunk of sel, and each pattern
pays only for its signs.  Each pattern
still gets the mean of s i.i.d. draws of its own unbiased estimator, so
every per-pattern (eps, delta) guarantee holds; the draws are shared, not
independent, across the patterns of a batch.  ``estimate(p)`` is
``estimate_many([p])[0]``.

Sampled and exact scoring differ only in where sel comes from.
``estimate_many`` draws s uniformly random rows; ``exact_many(patterns)``
feeds every one of the 2^f selections, and since the sampled mean is an
average over uniform selections, that mean is the probability itself.  It
costs 2^f draws per pattern and no rng; the heavy-prefix search uses it at
the levels where 2^f is at most the Hoeffding count of a sampled query (see
``samplers.heavy_prefixes``).  Both sum each chunk of rows per pattern and
add the chunk sums exactly.  ``estimate`` and ``estimate_many`` always
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


def _means(parts, total: int) -> list[float]:
    """Per-pattern means of per-chunk sums, summed exactly over the chunks."""
    return [math.fsum(row) / total for row in zip(*parts)]


def _batched_sums(values, circuit: Circuit, patterns):
    """(sums, f) for patterns that share their f fixed positions: sums(sel)
    is each pattern's draws summed over the rows of a (count, f) 0/1
    selection matrix sel.  The sign-free draws v = values(circuit,
    positions)(sel) are computed once, and a pattern with bits s draws
    (-1)^(sel.s) * v, signed _BLOCK patterns at a time; a pattern that fixes
    nothing draws exactly 1.0.  This is the only place the estimator handles
    apply a pattern's bits."""
    base = patterns[0].trits.replace("1", "0")
    if any(p.trits.replace("1", "0") != base for p in patterns):
        raise ValueError("patterns in one batch must share their fixed "
                         "positions")
    check_pattern_length(patterns[0], circuit.k)
    positions = [pos for pos, _ in patterns[0].fixed]
    bits = np.array([[bit for _, bit in p.fixed] for p in patterns],
                    dtype=np.int64)
    value = (values(circuit, positions) if positions
             else lambda sel: np.ones(len(sel)))

    def sums(sel):
        v = value(sel)
        return np.concatenate([
            ((1 - 2 * ((bits[lo:lo + _BLOCK] @ sel.T) & 1)) * v).sum(axis=1)
            for lo in range(0, len(bits), _BLOCK)])

    return sums, len(positions)


# ---------------------------------------------------------------------------
# Product-input Clifford circuits
# ---------------------------------------------------------------------------

def _prod_values(circuit: ProdCircuit, positions):
    """Returns value(sel) -> ndarray of single-sample values, one per row of
    the (count, f) 0/1 matrix sel over the f measured positions: the draws
    of the pattern that fixes each of them to 0.  Row r multiplies the
    pulled-back Z's that r selects and evaluates the product on the product
    input; the Z's commute pairwise."""
    n = circuit.n
    factors = pull_back(n, circuit.gates,
                        [PauliOperator.single_z(n, pos) for pos in positions])
    weights = np.array([[1.0, rx, rz, ry] for (rx, ry, rz) in
                        circuit.state.bloch])
    fx = np.array([[(q.x >> i) & 1 for i in range(n)] for q in factors],
                  dtype=np.int64)
    fz = np.array([[(q.z >> i) & 1 for i in range(n)] for q in factors],
                  dtype=np.int64)
    kappa = np.array([_xz_phase(q) for q in factors], dtype=np.int64)
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
    ``values(circuit, positions) -> value(sel)``; a batch of patterns
    sharing their fixed positions is scored from one shared draw matrix."""

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
        s = hoeffding_samples(eps, delta)  # refuses delta <= 0, non-finite
        if delta >= 1.0:  # refused before any draw
            raise ValueError(_DELTA_RANGE)
        sums, f = _batched_sums(self.values, self.circuit, patterns)

        def part(rng_i, count):
            return sums(rng_i.integers(0, 2, size=(count, f), dtype=np.int64))
        parts = _chunked_map(part, s, _CHUNK, rng, self.threads)
        return [Estimate(mean, eps, delta, s) for mean in _means(parts, s)]

    def exact_many(self, patterns) -> list[float]:
        """Exact probability of each pattern, the patterns sharing their f
        fixed positions: the mean of its draws over all 2^f selections,
        enumerated in ``_CHUNK``-row chunks and summed exactly.  Costs 2^f
        draws per pattern and no rng."""
        sums, f = _batched_sums(self.values, self.circuit, patterns)
        total = 1 << f
        return _means([sums((np.arange(lo, min(lo + _CHUNK, total))[:, None]
                             >> np.arange(f)) & 1)
                       for lo in range(0, total, _CHUNK)], total)


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
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {delta}")
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
