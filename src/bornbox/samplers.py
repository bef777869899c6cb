"""Converters that turn probability estimators into approximate samplers.

Three constructions:

* ``survivor_distribution`` / ``epsilon_simulate``: breadth-first
  heavy-prefix search over the outcome tree using any additive-precision
  estimator, then categorical draws over the surviving heavy outcomes.  For
  an eps-approximately t-sparse target and eps <= 1/6 the induced
  distribution is within L1 distance 12*eps + delta.  ``sparse_budget``
  splits a total budget eps' into eps = delta = eps'/13 and
  t = ceil(sp(k/eps)), refusing eps' outside (0, 13/6].
* ``cdf_bitwise_sample``: inverse-CDF sampling bit by bit from joint
  prefix-marginal queries against an exponential-precision estimator,
  with an m-bit discretized uniform draw.
* ``chain_outcome``: ancestral sampling from conditionals formed
  as ratios of successive prefix marginals (multiplicative-precision
  estimator contract); exact estimates reproduce the target exactly.

The cdf and chain samplers query a handle with a measured count ``k`` and a
``prefix_probability(bits)`` method; ``oracle.ExactDistribution`` is the
exact one.

Outcome strings, prefixes, and distribution indices all use the big-endian
lexicographic convention from the circuits module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, OutcomePattern
from .polybox import MAX_SAMPLES, hoeffding_need, hoeffding_samples

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


def _search_budget(est, k: int, threshold: float,
                   delta: float) -> tuple[int, float, float, int]:
    """(cap, per_eps, per_delta, exact_levels) of a heavy-prefix search.  At
    most cap survivors stay per level, and each prefix query runs at
    precision threshold/2 and confidence delta/(2*k*cap), refused when
    2*k*cap is not finite.  A handle with ``exact_many`` scores level j
    exactly when its 2^j selections cost no more than the Hoeffding count of
    one sampled query, capped at ``MAX_SAMPLES``, so levels 1..exact_levels
    are exact.  A search with a sampled level is refused here, before its
    first level, when that level's count is above ``MAX_SAMPLES``."""
    cap = survivor_cap(threshold)
    queries = 2.0 * k * cap
    if not math.isfinite(queries):
        raise ValueError(f"heavy-prefix threshold {threshold:g} is too small "
                         f"for a finite union bound over {k} levels")
    per_eps = threshold / 2.0
    per_delta = delta / queries
    exact_levels = 0
    if hasattr(est, "exact_many"):
        s = math.ceil(min(hoeffding_need(per_eps, per_delta), MAX_SAMPLES))
        exact_levels = min(k, s.bit_length() - 1)
        if exact_levels < k:
            hoeffding_samples(per_eps, per_delta)
    return cap, per_eps, per_delta, exact_levels


def heavy_prefixes(est, circuit: Circuit, threshold: float, delta: float,
                   rng=None) -> list[tuple[str, float]]:
    """Level-by-level search for outcomes whose prefix marginals all stay
    >= threshold, as (bits, value) pairs, heaviest first.  Each level
    scores the two extensions of every survivor as one batch: the candidates share their fixed positions.  Levels up
    to the crossover of ``_search_budget`` take their exact values from one
    ``exact_many`` call, which draws nothing; deeper levels, and every level
    of a handle without ``exact_many``, take one ``estimate_many`` call,
    from which a sampling estimator draws one shared matrix.  Each sampled
    prefix query runs at precision threshold/2 and confidence
    delta/(2*k*cap), and the union bound over the queries does not need
    them to be independent; at most cap survivors per level, ties broken
    lexicographically."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    k = circuit.k
    cap, per_eps, per_delta, exact_levels = _search_budget(est, k, threshold,
                                                           delta)
    survivors: list[tuple[str, float]] = [("", 1.0)]
    for level in range(1, k + 1):
        candidates = [prefix + bit for prefix, _ in survivors for bit in "01"]
        patterns = [OutcomePattern(c + "*" * (k - level)) for c in candidates]
        if level <= exact_levels:
            values = est.exact_many(patterns)
        else:
            values = [e.value for e in est.estimate_many(
                patterns, per_eps, per_delta, rng)]
        scored = [(c, v) for c, v in zip(candidates, values) if v >= threshold]
        scored.sort(key=lambda sv: (-sv[1], sv[0]))
        survivors = scored[:cap]
        if not survivors:
            break
    return survivors


def survivor_distribution(est, circuit: Circuit, t: int, eps: float,
                           delta: float, rng) -> tuple[list[str], np.ndarray]:
    """Top-t surviving outcomes with renormalized weights, as (outcomes,
    probs).  An empty search breaks the sparsity promise: it warns and
    returns the point mass on all-zeros."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0.0 < eps <= _MAX_EPS:
        raise ValueError("eps must lie in (0, 1/6]")
    threshold = eps / (2.0 * t)
    ranked = heavy_prefixes(est, circuit, threshold, delta, rng)[:t]
    if not ranked:
        warnings.warn(f"no heavy prefixes at threshold {threshold:g}; the "
                      "sparsity promise does not hold, emitting all-zeros")
        return ["0" * circuit.k], np.array([1.0])
    weights = np.array([value for _, value in ranked])
    return [bits for bits, _ in ranked], weights / weights.sum()


def sparse_budget(sp: SparsityPolynomial, k: int,
                  eps_prime: float) -> tuple[int, float]:
    """(t, eps) for a total L1 budget eps_prime = 12*eps + delta, with
    eps = delta = eps_prime/13 and t = ceil(sp(k/eps)).  As the bound needs
    eps <= 1/6, eps_prime outside (0, 13/6] is refused."""
    eps = eps_prime / 13.0
    if not 0.0 < eps <= _MAX_EPS:
        raise ValueError(f"eps_prime must lie in (0, 13/6], got {eps_prime:g}")
    bound = sp(k / eps)
    if not math.isfinite(bound):
        raise ValueError(f"eps_prime={eps_prime:g} gives a non-finite sparsity "
                         f"bound sp(k/eps) = {bound:g}")
    return math.ceil(bound), eps


def epsilon_simulate(est, sp: SparsityPolynomial, circuit: Circuit,
                     eps_prime: float, count: int,
                     rng: np.random.Generator) -> list[str]:
    """count draws within total L1 budget eps_prime for poly-sparse targets,
    split by ``sparse_budget``, each from a ``survivor_distribution`` table.
    A deterministic estimator, or a search whose every level is exact (see
    ``_search_budget``), gives the same table on every draw, so one table
    serves all count draws; otherwise each draw builds its own."""
    t, eps = sparse_budget(sp, circuit.k, eps_prime)
    if count < 0:
        raise ValueError("count must be nonnegative")
    # a sampling handle runs no query at count 0, so the crossover is only
    # asked when drawing; t < 1 is left for survivor_distribution to refuse
    fixed = getattr(est, "deterministic", False) or (
        count > 0 and t >= 1 and _search_budget(
            est, circuit.k, eps / (2.0 * t), eps)[3] == circuit.k)
    rounds, size = (1, count) if fixed else (count, 1)
    draws: list[str] = []
    for _ in range(rounds):
        outcomes, probs = survivor_distribution(est, circuit, t, eps, eps, rng)
        # size=1 reads the one double of a scalar choice: the stream is kept
        idx = rng.choice(len(outcomes), size=size, p=probs)
        draws += [outcomes[i] for i in idx]
    return draws


# ---------------------------------------------------------------------------
# CDF-inversion sampler
# ---------------------------------------------------------------------------

def cdf_outcome_for_r(strong, k: int, r: float) -> str:
    """Deterministic CDF inversion: bit j is 0 exactly when r falls below
    the running lower edge plus the mass of the 0-extension.

    The lower edge is essential: comparing r against the bare marginal
    instead inverts the wrong map (on the lexicographic distribution
    (0.1, 0.2, 0.3, 0.4), r = 0.5 would come out as 11 where the CDF cell
    is 10).
    """
    lower = 0.0
    prefix = ""
    for _ in range(k):
        q0 = strong.prefix_probability(prefix + "0")
        if r < lower + q0:
            prefix += "0"
        else:
            prefix += "1"
            lower += q0
    return prefix


def check_cdf_bits(m: int) -> None:
    if not 1 <= m <= 53:
        raise ValueError(f"m must lie in [1, 53], got {m}")


def cdf_bitwise_sample(strong, m: int, rng: np.random.Generator) -> str:
    """Draw r as m uniform bits (r = sum r_i 2^-i) and invert the CDF built
    from prefix-marginal queries.  With exact queries the output error is
    only the 2^-m discretization; with (eps, delta) queries the L1 error is
    bounded by 2^k (2*eps + 2^-m + 1 - (1-delta)^k).  m is at most 53, the
    largest count for which r is exactly a double."""
    check_cdf_bits(m)
    bits = rng.integers(0, 2, size=m)
    r = int("".join(map(str, bits)), 2) / float(1 << m)
    return cdf_outcome_for_r(strong, strong.k, r)


# ---------------------------------------------------------------------------
# Conditional-chain sampler
# ---------------------------------------------------------------------------

def chain_outcome(mult, rng: np.random.Generator) -> str:
    """Ancestral sampling: bit j is 0 with probability q_j/q_{j-1}, the
    ratio of successive joint prefix estimates (q_0 = 1).  A zero or
    negative denominator forces the 1 branch via the clamp; r is drawn in
    (0, 1] so a zero ratio can never take the 0 branch."""
    prefix = ""
    q_prev = 1.0
    for _ in range(mult.k):
        q0 = mult.prefix_probability(prefix + "0")
        ratio = 0.0 if q_prev <= 0.0 else min(max(q0 / q_prev, 0.0), 1.0)
        r = 1.0 - rng.random()
        if ratio >= r:
            prefix += "0"
            q_prev = q0
        else:
            prefix += "1"
            q_prev = mult.prefix_probability(prefix)
    return prefix
