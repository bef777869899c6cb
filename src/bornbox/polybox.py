"""Additive-precision probability estimators for outcome patterns.

Each estimator answers queries of the form "estimate the probability that
the measured bits match pattern S" with the guarantee
Pr(|p - p_hat| >= eps) <= delta, at sample cost set by the Hoeffding bound.

Three circuit families get native estimators:

* product-input Clifford circuits: pull each measured signed Z back through
  the gate list (``stabcore.pull_back``), multiply a random subset of them
  and evaluate the product on the product input (single-copy, range
  [-1, 1]);
* X-programs: a random parity vector r supported on the constrained
  positions selects rows of the program matrix; the draw is +-1 or 0 and its
  expectation is the pattern probability (see ``odd_overlap_rows``);
* parity-encoded circuits: deterministic answers, no sampling at all.

``frequency_polybox`` turns any approximate sampler into an estimator, and
the handle classes at the bottom give the samplers a uniform query surface.

Draws inside one estimate are split into fixed-size chunks with spawned RNG
substreams and combined with exact summation, so the returned value depends
only on the seed, never on the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circuits import (Circuit, EncodedCircuit, IqpCircuit, OutcomePattern,
                       ProdCircuit)
from .oracle import exact_distribution, exact_probability
from .stabcore import (PauliOperator, _xz_phase, pauli_product,
                       product_expectation, pull_back)

_CHUNK = 8192
DEFAULT_COLUMN_LIMIT = 24


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
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1); 0 only for "
                             "deterministic estimators")


@dataclass(frozen=True)
class PolyBoxQuery:
    circuit: Circuit
    pattern: OutcomePattern
    eps: float
    delta: float

    def __post_init__(self):
        if self.pattern.k != self.circuit.k:
            raise ValueError("pattern length != circuit measured count")


def hoeffding_samples(eps: float, delta: float, range_width: float = 2.0) -> int:
    """Draw count for an additive (eps, delta) guarantee on a mean of
    i.i.d. values spanning range_width; clamps to 1 when the bound is
    vacuous (delta >= 2)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if range_width <= 0:
        raise ValueError("range_width must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    need = range_width ** 2 / (2.0 * eps * eps) * math.log(2.0 / delta)
    return max(1, math.ceil(need))


def _chunked_mean(draw, total: int, rng: np.random.Generator,
                  threads: int = 1) -> float:
    """Mean of draw(rng_i, size_i) over fixed-size chunks.  Chunking and the
    exact final summation depend only on total and the seed, so the result
    is identical for every thread count."""
    n_chunks = -(-total // _CHUNK)
    rngs = rng.spawn(n_chunks)
    sizes = [_CHUNK] * (n_chunks - 1) + [total - _CHUNK * (n_chunks - 1)]
    def part(i: int) -> float:
        return float(draw(rngs[i], sizes[i]).sum())
    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = list(pool.map(part, range(n_chunks)))
    else:
        sums = [part(i) for i in range(n_chunks)]
    return math.fsum(sums) / total


# ---------------------------------------------------------------------------
# Product-input Clifford circuits
# ---------------------------------------------------------------------------

def _conjugated_factors(circuit: ProdCircuit,
                        pattern: OutcomePattern) -> list[PauliOperator]:
    """U^dag (s_i Z_i) U for every fixed pattern position, s_i = +-1 for
    outcome 0/1.  These commute pairwise."""
    if pattern.k != circuit.k:
        raise ValueError("pattern length != circuit measured count")
    return [pull_back(circuit.gates, PauliOperator.single_z(
                circuit.n, pos, 1 if bit == 0 else -1))
            for pos, bit in pattern.fixed]


def prod_single_sample(circuit: ProdCircuit, pattern: OutcomePattern,
                       rng: np.random.Generator) -> float:
    """One unbiased draw in [-1, 1]: each fixed position contributes its
    back-propagated signed Z with probability 1/2, identity otherwise."""
    acc = PauliOperator.identity(circuit.n)
    for factor in _conjugated_factors(circuit, pattern):
        if rng.integers(0, 2):
            acc = pauli_product(acc, factor)
    return product_expectation(circuit.state, acc)


def _prod_draw_values(circuit: ProdCircuit, pattern: OutcomePattern):
    """Returns draw(rng, count) -> ndarray of single-sample values,
    vectorized over count."""
    factors = _conjugated_factors(circuit, pattern)
    n = circuit.n
    f = len(factors)
    weights = np.array([[1.0, rx, rz, ry] for (rx, ry, rz) in
                        circuit.state.bloch])
    if f == 0:
        def draw(rng, count):
            return np.ones(count)
        return draw
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

    def draw(rng, count):
        sel = rng.integers(0, 2, size=(count, f), dtype=np.int64)
        xb = (sel @ fx) & 1
        zb = (sel @ fz) & 1
        kap = (sel @ kappa + 2 * ((sel @ pair) * sel).sum(axis=1)) % 4
        rem = (kap - (xb & zb).sum(axis=1)) % 4
        sign = 1.0 - rem  # rem is 0 or 2 for a Hermitian product
        codes = xb + 2 * zb
        return sign * weights[qubit_idx[None, :], codes].prod(axis=1)

    return draw


def prod_estimate(circuit: ProdCircuit, pattern: OutcomePattern, eps: float,
                  delta: float, rng: np.random.Generator,
                  threads: int = 1) -> Estimate:
    s = hoeffding_samples(eps, delta, 2.0)
    value = _chunked_mean(_prod_draw_values(circuit, pattern), s, rng, threads)
    return Estimate(value, eps, delta, s)


# ---------------------------------------------------------------------------
# X-programs
# ---------------------------------------------------------------------------

def alpha_weight_enumerator(matrix, theta: float,
                            column_limit: int = DEFAULT_COLUMN_LIMIT) -> complex:
    """(1/2^c) * sum over v in {0,1}^c of exp(-2i*theta*wt(Mv)) for an
    m x c binary matrix M.  Brute-force enumeration over all 2^c column
    combinations, chunked; columns above column_limit are refused."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    if m.size and not np.isin(m, (0, 1)).all():
        raise ValueError("matrix entries must be 0/1")
    cols = m.shape[1]
    if cols > column_limit:
        raise ValueError(f"{cols} columns exceeds enumeration limit "
                         f"{column_limit}")
    total = 0.0 + 0.0j
    block = 1 << 16
    shifts = np.arange(cols, dtype=np.uint64)
    for lo in range(0, 1 << cols, block):
        hi = min(lo + block, 1 << cols)
        v = ((np.arange(lo, hi, dtype=np.uint64)[:, None] >> shifts) &
             np.uint64(1)).astype(np.int64)
        wt = ((v @ m.T) & 1).sum(axis=1)
        total += np.exp(-2j * theta * wt).sum()
    return complex(total / (1 << cols))


def odd_overlap_rows(matrix: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of the program matrix with odd inner product against r, plus
    their count.  One estimator draw for restriction bits s equals
    Re[(-1)**(r.s) * 1j**count * alpha_weight_enumerator(rows, pi/2)]; the
    production path evaluates that closed form without enumeration."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    r = np.asarray(r, dtype=np.int64)
    odd = (m @ r) & 1
    sub = m[odd == 1]
    return sub, int(odd.sum())


def _iqp_draw_values(circuit: IqpCircuit, pattern: OutcomePattern):
    if pattern.k != circuit.k:
        raise ValueError("pattern length != circuit measured count")
    p = circuit.row_matrix().astype(np.int64)
    positions = np.array([pos for pos, _ in pattern.fixed], dtype=np.int64)
    sbits = np.array([bit for _, bit in pattern.fixed], dtype=np.int64)
    f = positions.size
    if f == 0:
        def draw(rng, count):
            return np.ones(count)
        return draw
    psub = p[:, positions]  # rows x f

    def draw(rng, count):
        sel = rng.integers(0, 2, size=(count, f), dtype=np.int64)
        hit = (sel @ psub.T) & 1           # which rows have odd overlap
        mr = hit.sum(axis=1)
        cancel = ((hit @ p) & 1 == 0).all(axis=1)  # selected rows XOR to zero
        rs = (sel @ sbits) & 1
        quarter = np.where(mr & 1, 0.0, 1.0 - 2.0 * ((mr >> 1) & 1))
        return np.where(cancel, (1.0 - 2.0 * rs) * quarter, 0.0)

    return draw


def iqp_single_sample(circuit: IqpCircuit, pattern: OutcomePattern,
                      rng: np.random.Generator) -> float:
    return float(_iqp_draw_values(circuit, pattern)(rng, 1)[0])


def iqp_estimate(circuit: IqpCircuit, pattern: OutcomePattern, eps: float,
                 delta: float, rng: np.random.Generator,
                 threads: int = 1) -> Estimate:
    s = hoeffding_samples(eps, delta, 2.0)
    value = _chunked_mean(_iqp_draw_values(circuit, pattern), s, rng, threads)
    return Estimate(value, eps, delta, s)


# ---------------------------------------------------------------------------
# Parity-encoded circuits
# ---------------------------------------------------------------------------

def ce_estimate(circuit: EncodedCircuit, pattern: OutcomePattern,
                eps: float) -> Estimate:
    """Deterministic estimator for the parity-encoded family.

    Any pattern with a wildcard has probability exactly 2**-(fixed count).
    Full patterns are answered exactly when eps is below the 2**-n
    resolution (n = inner measured count) and by the midpoint guess
    2**-(n+1) otherwise; either way the error is <= min(2**-(n+1), eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if pattern.k != circuit.k:
        raise ValueError("pattern length != circuit measured count")
    if not pattern.is_full:
        value = 2.0 ** -(pattern.k - pattern.wild_count)
    elif eps < 2.0 ** -circuit.y_bits:
        value = exact_probability(circuit, pattern)
    else:
        value = 2.0 ** -(circuit.y_bits + 1)
    return Estimate(value, eps, 0.0, 1)


# ---------------------------------------------------------------------------
# Sampler-backed estimator
# ---------------------------------------------------------------------------

def frequency_polybox(sampler, circuit: Circuit, pattern: OutcomePattern,
                      eps: float, delta: float,
                      rng: np.random.Generator) -> Estimate:
    """Estimate by observed frequency: run the sampler at internal accuracy
    eps/2 and count hits; sampler(circuit, eps_internal, count, rng) must
    return outcome strings."""
    if pattern.k != circuit.k:
        raise ValueError("pattern length != circuit measured count")
    s = hoeffding_samples(eps / 2.0, delta, 1.0)
    outcomes = sampler(circuit, eps / 2.0, s, rng)
    hits = sum(1 for o in outcomes if pattern.matches(o))
    return Estimate(hits / s, eps, delta, s)


# ---------------------------------------------------------------------------
# Uniform query handles
# ---------------------------------------------------------------------------

class ProdPolyBox:
    deterministic = False

    def __init__(self, circuit: ProdCircuit, threads: int = 1):
        self.circuit = circuit
        self.threads = threads

    def estimate(self, pattern: OutcomePattern, eps: float, delta: float,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        if rng is None:
            raise ValueError("sampling estimator needs an rng")
        return prod_estimate(self.circuit, pattern, eps, delta, rng,
                             self.threads)


class IqpPolyBox:
    deterministic = False

    def __init__(self, circuit: IqpCircuit, threads: int = 1):
        self.circuit = circuit
        self.threads = threads

    def estimate(self, pattern: OutcomePattern, eps: float, delta: float,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        if rng is None:
            raise ValueError("sampling estimator needs an rng")
        return iqp_estimate(self.circuit, pattern, eps, delta, rng,
                            self.threads)


class CePolyBox:
    deterministic = True

    def __init__(self, circuit: EncodedCircuit):
        self.circuit = circuit

    def estimate(self, pattern: OutcomePattern, eps: float,
                 delta: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        return ce_estimate(self.circuit, pattern, eps)


class OraclePolyBox:
    """Exact answers behind the estimator interface; for calibrating the
    samplers without Monte Carlo cost."""

    deterministic = True

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._dist = exact_distribution(circuit)

    def estimate(self, pattern: OutcomePattern, eps: float,
                 delta: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Estimate:
        return Estimate(self._dist.probability(pattern), eps, 0.0, 1)


def auto_polybox(circuit: Circuit, threads: int = 1):
    if isinstance(circuit, ProdCircuit):
        return ProdPolyBox(circuit, threads)
    if isinstance(circuit, IqpCircuit):
        return IqpPolyBox(circuit, threads)
    if isinstance(circuit, EncodedCircuit):
        return CePolyBox(circuit)
    raise TypeError(f"not a circuit: {circuit!r}")


def evaluate(query: PolyBoxQuery, rng: Optional[np.random.Generator] = None,
             threads: int = 1) -> Estimate:
    box = auto_polybox(query.circuit, threads)
    return box.estimate(query.pattern, query.eps, query.delta, rng)
