"""Empirical harnesses: output anti-concentration under uniform random
Cliffords, sparsity profiling, and the sampler-distinguishability game.

The anti-concentration trials run in seeded chunks, as arrays from the rng
to the probabilities: each chunk draws its tableaus as one stack of words
from its own substream, and a group of chunks that fits one evolution
sub-batch sweeps its stacks to masked gate steps at once and evolves them
all in one batched oracle call.

The distinguishability game: a referee secretly flips a fair coin, requests
samples from either the true circuit distribution ("Alice") or an imposter
sampler ("Bob"), and applies the likelihood-ratio test with full knowledge
of both distributions.  The optimal single-round success probability is
1/2 + L1/4, so an imposter within L1 eps is correct with probability at
most 1/2 + eps/4, while a corrupted imposter at fixed L1 is caught at the
matching rate.  Bob's per-round accuracy schedule eps_j = 24*delta/(pi^2 j^2)
keeps the summed advantage below delta over any number of rounds
(sum of 1/j^2 = pi^2/6 gives total 4*delta, a quarter of which is advantage).

``anticoncentration_report`` and ``run_hypothesis_test`` return the JSON
payload the CLI prints; ``sparsity_profile`` returns the (eps, t) table that
the CLI wraps in its payload.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit
from .oracle import (ExactDistribution, check_l1_eps, exact_distribution,
                     l1_distance, min_sparsity, prod_probabilities_many,
                     sub_batch_lists)
from .polybox import MAX_SAMPLES, OraclePolyBox, _chunked_map
from .samplers import (SparsityPolynomial, sparse_budget,
                       survivor_distribution)
from .stabcore import ProductState, random_clifford_words, synthesis_steps

_TRIAL_CHUNK = 256
# the scheduled imposter's first-round budget eps_1 = 24*delta/pi^2 stays
# within the sparse converter's 13/6 up to this delta
_MAX_SCHEDULED_DELTA = 13.0 * math.pi ** 2 / 144.0


def anticoncentration_bound(alpha: float) -> float:
    return (1.0 - alpha) ** 2 / 2.0


def clifford_output_probabilities(n: int, trials: int, state: ProductState,
                                  seed: int, outcome_index: int = 0,
                                  threads: int = 1) -> np.ndarray:
    """p_x for a fixed outcome x under `trials` independent uniformly random
    Clifford circuits applied to the product input.  Chunked with spawned
    substreams so the result array is identical for every thread count.
    Each chunk draws its tableaus as one stack, in its own stream's order;
    the chunks run in groups of as many whole chunks as one evolution
    sub-batch holds (at least one, and at least one group per thread when
    there are enough chunks), and a group's stacks are swept to gate steps
    in one sweep and evolved together in one batched oracle call.  Rows
    are independent, so the grouping never changes a value.  The oracle's
    size limit, which counts a mixed qubit twice, is checked by
    ``sub_batch_lists`` before anything is drawn."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_chunks = -(-trials // _TRIAL_CHUNK)
    per_task = max(1, min(sub_batch_lists(state) // _TRIAL_CHUNK,
                          -(-n_chunks // threads)))

    def work(rngs, sizes) -> np.ndarray:
        drawn = [random_clifford_words(n, size, rng)
                 for rng, size in zip(rngs, sizes)]
        steps = synthesis_steps(n, *map(np.concatenate, zip(*drawn)))
        probs = prod_probabilities_many(state, steps, sum(sizes))
        return probs[:, outcome_index]

    return np.concatenate(_chunked_map(work, trials, _TRIAL_CHUNK,
                                       np.random.default_rng(seed), threads,
                                       per_task))


def anticoncentration_report(n: int, trials: int, alphas, state: ProductState,
                             seed: int, threads: int = 1) -> dict:
    """The anticoncentration payload: each alpha's exceedance fraction
    against the Paley-Zygmund bound, then the first two moments of p_x."""
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if trials > MAX_SAMPLES:
        raise ValueError(f"trials must be at most {MAX_SAMPLES:g}, "
                         f"got {trials}")
    alphas = tuple(float(a) for a in alphas)
    for alpha in alphas:
        # the Paley-Zygmund bound (1 - alpha)^2 / 2 holds on [0, 1] only
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha:g}")
    px = clifford_output_probabilities(n, trials, state, seed, 0, threads)
    metrics = []
    for alpha in alphas:
        frac = float((px >= alpha / 2 ** n).mean())
        bound = anticoncentration_bound(alpha)
        sigma = math.sqrt(max(frac * (1.0 - frac),
                              bound * (1.0 - bound)) / trials)
        metrics.append({"name": f"exceedance(alpha={alpha:g})",
                        "value": frac, "bound": bound,
                        "tolerance": 3.0 * sigma,
                        "pass": frac > bound - 3.0 * sigma})
    mean_px = float(px.mean())
    mean_px_sq = float((px ** 2).mean())
    purity = math.prod(1.0 - state.purity_defect(q) / 2.0 for q in range(n))
    dim = 2 ** n
    first = 1.0 / dim
    se1 = math.sqrt(max(mean_px_sq - mean_px ** 2, 0.0) / trials)
    metrics.append({"name": "mean_px", "value": mean_px, "bound": first,
                    "tolerance": 3.0 * se1,
                    "pass": abs(mean_px - first) <= 3.0 * se1})
    metrics.append({"name": "mean_px_sq", "value": mean_px_sq,
                    "bound": (purity + 1.0) / (dim * (dim + 1.0)),
                    "tolerance": None, "pass": None})
    return {"experiment": "anticoncentration",
            "parameters": {"n": n, "trials": trials, "alphas": list(alphas),
                           "seed": seed},
            "metrics": metrics}


def sparsity_profile(circuit: Circuit, eps_grid) -> list[tuple[float, int]]:
    """(eps, min_sparsity) for each eps of the grid; the whole grid is
    checked before the oracle build."""
    grid = [float(eps) for eps in eps_grid]
    for eps in grid:
        check_l1_eps(eps)
    dist = exact_distribution(circuit)
    return [(eps, min_sparsity(dist, eps)) for eps in grid]


# ---------------------------------------------------------------------------
# Distinguishability game
# ---------------------------------------------------------------------------

def optimal_single_round_pcorrect(d1: ExactDistribution,
                                  d2: ExactDistribution) -> float:
    return 0.5 + l1_distance(d1, d2) / 4.0


def bob_epsilon_schedule(j: int, delta: float) -> float:
    if j < 1:
        raise ValueError("round index starts at 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return 24.0 * delta / (math.pi ** 2 * j * j)


def corrupted_distribution(dist: ExactDistribution,
                           l1: float) -> ExactDistribution:
    """Move l1/2 mass from the heaviest outcome to the lightest other
    outcome: exactly L1 = l1 away from dist."""
    if not 0.0 <= l1 <= 2.0:
        raise ValueError("l1 must lie in [0, 2]")
    probs = dist.probs.copy()
    if probs.size < 2:
        raise ValueError("need at least two outcomes to corrupt")
    src = int(np.argmax(probs))
    mass = l1 / 2.0
    if probs[src] < mass:
        raise ValueError("heaviest outcome is lighter than l1/2")
    others = np.delete(np.arange(probs.size), src)
    dst = int(others[np.argmin(probs[others])])
    probs[src] -= mass
    probs[dst] += mass
    return ExactDistribution(dist.k, probs)


def scheduled_bob_distribution(box: OraclePolyBox, round_index: int,
                               delta: float) -> ExactDistribution:
    """The distribution an honest imposter samples in a given round: the
    sparse pipeline run at accuracy budget eps_j from the schedule, over the
    exact-answer estimator handle of the circuit."""
    circuit = box.circuit
    sp = SparsityPolynomial.constant(min_sparsity(box.dist, 0.0))
    eps_prime = bob_epsilon_schedule(round_index, delta)
    try:
        t, eps = sparse_budget(sp, circuit.k, eps_prime)
        outcomes, probs = survivor_distribution(box, circuit, t, eps, eps, None)
    except ValueError as exc:
        raise ValueError(f"delta={delta!r} gives the scheduled imposter "
                         f"no sparse budget in round {round_index}: "
                         f"{exc}") from exc
    full = np.zeros(1 << circuit.k)
    full[[int(bits, 2) for bits in outcomes]] = probs
    return ExactDistribution(circuit.k, full)


def advantage_cap(p_correct: float, trials: int, delta: float) -> dict:
    """The honest scheduled imposter's bound p_correct <= 1/2 + delta, met
    within 3 sigma."""
    sigma = math.sqrt(p_correct * (1.0 - p_correct) / trials)
    cap = 0.5 + delta
    return {"name": "advantage_cap", "value": p_correct, "bound": cap,
            "tolerance": 3.0 * sigma, "pass": p_correct <= cap + 3.0 * sigma}


def run_hypothesis_test(circuit: Circuit, bob_mode: str, delta: float,
                        trials: int, seed: int, rounds: int = 1,
                        corruption_l1: float = 0.4) -> dict:
    """The distinguish payload: a Monte Carlo estimate of the referee's
    success rate against the chosen imposter, with the scheduled imposter's
    advantage cap appended.  The referee guesses the candidate with the
    larger transcript likelihood; ties go to the true distribution."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if not math.isfinite(corruption_l1):
        raise ValueError(f"corruption_l1 must be finite, got {corruption_l1}")
    if not 0.0 <= corruption_l1 <= 2.0:
        raise ValueError(f"corruption_l1 must lie in [0, 2], got {corruption_l1}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta:g}")
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    if trials > MAX_SAMPLES:
        raise ValueError(f"trials must be at most {MAX_SAMPLES:g}, "
                         f"got {trials}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rounds * trials > MAX_SAMPLES:
        raise ValueError(f"rounds * trials must be at most {MAX_SAMPLES:g}, "
                         f"got {rounds * trials}")
    if bob_mode == "scheduled" and delta > _MAX_SCHEDULED_DELTA:
        raise ValueError(f"delta must be at most 13*pi^2/144 = "
                         f"{_MAX_SCHEDULED_DELTA:.6g} for the scheduled "
                         f"imposter, got {delta:g}")
    box = OraclePolyBox(circuit)
    alice = box.dist
    if bob_mode == "exact":
        bob = alice
    elif bob_mode == "corrupted":
        bob = corrupted_distribution(alice, corruption_l1)
    elif bob_mode != "scheduled":
        raise ValueError(f"unknown bob_mode {bob_mode!r}")

    rng = np.random.default_rng(seed)
    coins = rng.integers(0, 2, size=trials)  # 0 = true circuit, 1 = imposter
    with np.errstate(divide="ignore"):
        log_a = np.log(alice.probs)
        score_a = np.zeros(trials)
        score_b = np.zeros(trials)
        for j in range(1, rounds + 1):
            if bob_mode == "scheduled":  # one round's table at a time
                bob = scheduled_bob_distribution(box, j, delta)
            idx_a = alice.sample_indices(rng, trials)
            idx_b = bob.sample_indices(rng, trials)
            drawn = np.where(coins == 0, idx_a, idx_b)
            score_a = score_a + log_a[drawn]
            score_b = score_b + np.log(bob.probs)[drawn]
    guess_bob = score_b > score_a
    correct = guess_bob == (coins == 1)
    p_correct = float(correct.mean())
    analytic = (optimal_single_round_pcorrect(alice, bob)
                if rounds == 1 else None)
    sigma = math.sqrt(p_correct * (1.0 - p_correct) / trials)
    metrics = [{"name": "p_correct", "value": p_correct, "bound": analytic,
                "tolerance": 3.0 * sigma,
                "pass": (None if analytic is None else
                         abs(p_correct - analytic) <= 3.0 * sigma)}]
    if bob_mode == "scheduled":
        metrics.append(advantage_cap(p_correct, trials, delta))
    return {"experiment": "distinguish",
            "parameters": {"bob_mode": bob_mode, "delta": delta,
                           "trials": trials, "rounds": rounds, "seed": seed},
            "metrics": metrics}
