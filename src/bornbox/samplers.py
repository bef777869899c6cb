"""Converters that turn probability estimators into approximate samplers.

Three constructions:

* ``survivor_distribution`` / ``epsilon_simulate``: breadth-first
  heavy-prefix search over the outcome tree using any additive-precision
  estimator, then categorical draws over the surviving heavy outcomes.  For
  an eps-approximately t-sparse target and eps <= 1/6 the induced
  distribution is within L1 distance 12*eps + delta.  ``sparse_plan``
  builds the one ``SearchPlan`` of a run from a total budget eps', split
  into eps = delta = eps'/13 and t = ceil(sp(k/eps)), and every search of
  the run reads it.
* ``cdf_bitwise_sample``: inverse-CDF sampling bit by bit from joint
  prefix-marginal queries against an exponential-precision estimator,
  with an m-bit discretized uniform draw.
* ``chain_sample``: ancestral sampling from conditionals formed
  as ratios of successive prefix marginals (multiplicative-precision
  estimator contract); exact estimates reproduce the target exactly.

Every converter asks its handle for prefix marginals a level at a time, as
an (m, j) 0/1 matrix of prefixes.  The cdf and chain samplers query a
handle with a measured count ``k`` and a ``prefixes(bits)`` method, for all
the draws of a chunk at once; ``oracle.ExactDistribution`` is exact.

Outcome strings, prefixes, and distribution indices all use the big-endian
lexicographic convention from the circuits module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .oracle import _codes, categorical
from .polybox import _CHUNK, MAX_SAMPLES, draw_limit_error, hoeffding_need

_MAX_EPS = 1.0 / 6.0 + 1e-12  # the L1 bound 12*eps + delta needs eps <= 1/6


@dataclass(frozen=True)
class SparsityPolynomial:
    """Polynomial with nonnegative coefficients (ascending degree), hence
    nondecreasing on [0, inf); bounds the sparsity t as a function of
    k/eps across a circuit family."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"coefficients must be finite, got {coeffs}")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def constant(cls, t: float) -> "SparsityPolynomial":
        return cls((float(t),))

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ValueError("argument must be nonnegative")
        total = 0.0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total


# ---------------------------------------------------------------------------
# Heavy-prefix search and the sparse sampler
# ---------------------------------------------------------------------------

def survivor_cap(threshold: float) -> int:
    bound = 2.0 / threshold if threshold > 0.0 else math.inf
    # 2.0 * bound bounds the cap, which must convert to a finite double
    if not math.isfinite(2.0 * bound):
        raise ValueError(f"heavy-prefix threshold {threshold:g} is too small "
                         "for a finite survivor cap")
    return 2 * math.ceil(bound) + 2


@dataclass(frozen=True)
class SearchPlan:
    """The budget of every heavy-prefix search of a sparse run: the top t
    outcomes above threshold, at most cap survivors per level, levels
    1..exact_levels exact and the rest sampled at (per_eps, per_delta)."""

    t: int
    threshold: float
    cap: int
    per_eps: float
    per_delta: float
    exact_levels: int


def sparse_plan(est, sp: SparsityPolynomial, k: int,
                eps_prime: float) -> SearchPlan:
    """The plan for a total L1 budget eps_prime = 12*eps + delta, with
    eps = delta = eps_prime/13, t = ceil(sp(k/eps)) and threshold eps/(2t),
    finished by ``search_plan``.  As the bound needs eps <= 1/6, eps_prime
    outside (0, 13/6] is refused, and so is a bound that gives t = 0."""
    check_eps_prime(eps_prime)
    eps = eps_prime / 13.0
    bound = sp(k / eps)
    if not math.isfinite(bound):
        raise ValueError(f"eps_prime={eps_prime:g} gives a non-finite sparsity "
                         f"bound sp(k/eps) = {bound:g}")
    t = math.ceil(bound)
    if t < 1:
        raise ValueError(f"eps_prime={eps_prime:g} gives t = ceil(sp(k/eps)) "
                         f"= {t}; t must be >= 1")
    return search_plan(est, k, t, eps / (2.0 * t), eps)


def search_plan(est, k: int, t: int, threshold: float,
                delta: float) -> SearchPlan:
    """The plan of a k-level search at threshold in (0, 1) within failure
    chance delta: at most cap survivors per level, each query at precision
    threshold/2 and confidence delta/(2*k*cap), refused when 2*k*cap is not
    finite.  A handle that is not deterministic, so has ``exact_prefixes``,
    enumerates level j when its 2^j selections cost no more than one
    sampled query's Hoeffding count (unbounded when the confidence
    underflowed to 0), capped at ``MAX_SAMPLES``; a search with a sampled
    level over that cap is refused here, before its first level."""
    cap = survivor_cap(threshold)
    if threshold >= 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    queries = 2.0 * k * cap
    if not math.isfinite(queries):
        raise ValueError(f"heavy-prefix threshold {threshold:g} is too small "
                         f"for a finite union bound over {k} levels")
    per_eps, per_delta = threshold / 2.0, delta / queries
    exact_levels = 0
    if not est.deterministic:
        need = hoeffding_need(per_eps, per_delta) if per_delta else math.inf
        s = math.ceil(min(need, MAX_SAMPLES))  # level j enumerates 2^j
        exact_levels = min(k, s.bit_length() - 1)
        if exact_levels < k and need > MAX_SAMPLES:
            raise draw_limit_error(per_eps, per_delta, need)
    return SearchPlan(t, threshold, cap, per_eps, per_delta, exact_levels)


def _strings(bits) -> list[str]:
    return ["".join(map(str, row)) for row in bits.tolist()]


def heavy_prefixes(est, circuit: Circuit, plan: SearchPlan,
                   rng=None) -> list[tuple[str, float]]:
    """Level-by-level search for outcomes whose prefix marginals all stay
    >= plan.threshold, as (bits, value) pairs, heaviest first, ties broken
    lexicographically.  Level j, an (m, j) 0/1 matrix of prefixes in
    lexicographic order, is scored in one handle call: ``exact_prefixes``
    up to plan.exact_levels, else ``prefixes`` at plan.per_eps and
    plan.per_delta from one shared draw matrix.  At most plan.cap survivors
    stay per level; strings are made at the end."""
    bits = np.zeros((1, 0), dtype=np.int64)
    for level in range(1, circuit.k + 1):
        # extending lexicographic rows by 0 then 1 keeps the level in order
        bits = bits.repeat(2, axis=0)
        bits = np.concatenate((bits, np.arange(len(bits))[:, None] & 1), 1)
        values = (est.exact_prefixes(bits) if level <= plan.exact_levels else
                  est.prefixes(bits, plan.per_eps, plan.per_delta, rng))
        keep = (values >= plan.threshold).nonzero()[0]
        if len(keep) > plan.cap:  # the cap heaviest, in lexicographic order
            heaviest = (-values[keep]).argsort(kind="stable")[:plan.cap]
            keep = np.sort(keep[heaviest])
        bits, values = bits[keep], values[keep]
        if not len(bits):
            return []
    order = np.argsort(-values, kind="stable")
    return list(zip(_strings(bits[order]), values[order].tolist()))


def survivor_distribution(est, circuit: Circuit, plan: SearchPlan,
                          rng) -> tuple[list[str], np.ndarray]:
    """The top plan.t outcomes of one ``heavy_prefixes`` search with
    renormalized weights, as (outcomes, probs).  An empty search breaks the
    sparsity promise: it warns and returns the point mass on all-zeros."""
    ranked = heavy_prefixes(est, circuit, plan, rng)[:plan.t]
    if not ranked:
        warnings.warn(f"no heavy prefixes at threshold {plan.threshold:g}; "
                      "the sparsity promise does not hold, emitting all-zeros")
        return ["0" * circuit.k], np.array([1.0])
    weights = np.array([value for _, value in ranked])
    return [bits for bits, _ in ranked], weights / weights.sum()


def check_eps_prime(eps_prime: float) -> None:
    """Refuses a total L1 budget eps_prime outside (0, 13/6], nan included:
    the bound needs eps = eps_prime/13 <= 1/6."""
    if not 0.0 < eps_prime / 13.0 <= _MAX_EPS:
        raise ValueError(f"eps_prime must lie in (0, 13/6], got {eps_prime:g}")


def epsilon_simulate(est, sp: SparsityPolynomial, circuit: Circuit,
                     eps_prime: float, count: int,
                     rng: np.random.Generator) -> list[str]:
    """count draws within total L1 budget eps_prime for poly-sparse targets
    from ``survivor_distribution`` tables of one ``sparse_plan``, built
    before anything is drawn.  A deterministic estimator, or a plan whose
    every level is exact, gives one table for all count draws; otherwise
    each draw builds its own.  count 0 runs no search."""
    plan = sparse_plan(est, sp, circuit.k, eps_prime)
    if count < 0:
        raise ValueError("count must be nonnegative")
    fixed = est.deterministic or plan.exact_levels == circuit.k
    rounds, size = (min(count, 1), count) if fixed else (count, 1)
    draws: list[str] = []
    for _ in range(rounds):
        outcomes, probs = survivor_distribution(est, circuit, plan, rng)
        draws += [outcomes[i] for i in categorical(rng, probs, size)]
    return draws


# ---------------------------------------------------------------------------
# CDF-inversion and conditional-chain samplers, level by level
# ---------------------------------------------------------------------------

def cdf_outcomes_for_r(strong, r) -> list[str]:
    """Deterministic CDF inversion of each r, a ``prefixes`` call per level:
    bit j is 0 exactly when r falls below the running lower edge plus the
    mass of the 0-extension, so a NaN answer takes the 1 branch.

    The lower edge is essential: comparing r against the bare marginal
    instead inverts the wrong map (on the lexicographic distribution
    (0.1, 0.2, 0.3, 0.4), r = 0.5 would come out as 11 where the CDF cell
    is 10).
    """
    bits = np.zeros((len(r), strong.k), dtype=np.int64)
    lower = np.zeros(len(r))
    for j in range(strong.k):
        q0 = strong.prefixes(bits[:, :j + 1])
        bits[:, j] = ~(r < lower + q0)
        lower = np.where(bits[:, j], lower + q0, lower)
    return _strings(bits)


def check_cdf_bits(m: int) -> None:
    if not 1 <= m <= 53:
        raise ValueError(f"m must lie in [1, 53], got {m}")


def cdf_bitwise_sample(strong, m: int, count: int,
                       rng: np.random.Generator) -> list[str]:
    """count CDF inversions at r drawn as m uniform bits (r = sum r_i 2^-i),
    in chunks of ``_CHUNK`` draws that read rng in draw order.  With exact
    queries the output error is only the 2^-m discretization; with
    (eps, delta) queries the L1 error is bounded by 2^k (2*eps + 2^-m + 1 -
    (1-delta)^k).  m is at most 53, the largest for which r is a double."""
    check_cdf_bits(m)
    draws: list[str] = []
    for lo in range(0, count, _CHUNK):
        r = _codes(rng.integers(0, 2, size=(min(_CHUNK, count - lo), m)))
        draws += cdf_outcomes_for_r(strong, r / float(1 << m))
    return draws


def chain_sample(mult, count: int, rng: np.random.Generator) -> list[str]:
    """count ancestral draws, chunked as in ``cdf_bitwise_sample``: bit j is
    0 with probability q_j/q_{j-1}, the ratio of successive joint prefix
    estimates (q_0 = 1), both extensions scored in one ``prefixes`` call.
    A denominator <= 0 forces the 1 branch, and r is drawn in (0, 1] so a
    zero or NaN ratio can never take the 0 branch."""
    draws: list[str] = []
    for lo in range(0, count, _CHUNK):
        size = min(_CHUNK, count - lo)
        r = 1.0 - rng.random((size, mult.k))
        bits = np.zeros((size, mult.k), dtype=np.int64)
        q_prev = np.ones(size)
        for j in range(mult.k):
            both = np.concatenate((bits[:, :j + 1],) * 2)
            both[size:, j] = 1
            q0, q1 = np.split(mult.prefixes(both), 2)
            ratio = q0 / np.where(q_prev <= 0.0, np.inf, q_prev)
            zero = np.clip(ratio, 0.0, 1.0) >= r[:, j]
            bits[:, j] = ~zero
            q_prev = np.where(zero, q0, q1)
        draws += _strings(bits)
    return draws
