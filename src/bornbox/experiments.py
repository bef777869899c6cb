"""Empirical harnesses: output anti-concentration under uniform random
Cliffords, sparsity profiling, and the sampler-distinguishability game.

The distinguishability game: a referee secretly flips a fair coin, requests
samples from either the true circuit distribution ("Alice") or an imposter
sampler ("Bob"), and applies the likelihood-ratio test with full knowledge
of both distributions.  The optimal single-round success probability is
1/2 + L1/4, so an imposter within L1 eps is correct with probability at
most 1/2 + eps/4, while a corrupted imposter at fixed L1 is caught at the
matching rate.  Bob's per-round accuracy schedule eps_j = 24*delta/(pi^2 j^2)
keeps the summed advantage below delta over any number of rounds
(sum of 1/j^2 = pi^2/6 gives total 4*delta, a quarter of which is advantage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circuits import Circuit, ProdCircuit
from .oracle import (ExactDistribution, exact_distribution, l1_distance,
                     min_sparsity, prod_probabilities)
from .polybox import OraclePolyBox, _chunked_map
from .samplers import (SparsityPolynomial, sparse_budget,
                       survivor_distribution)
from .stabcore import ProductState, random_clifford, synthesize_gates

_TRIAL_CHUNK = 256


def anticoncentration_bound(alpha: float) -> float:
    return (1.0 - alpha) ** 2 / 2.0


def clifford_output_probabilities(n: int, trials: int, state: ProductState,
                                  seed: int, outcome_index: int = 0,
                                  threads: int = 1) -> np.ndarray:
    """p_x for a fixed outcome x under `trials` independent uniformly random
    Clifford circuits applied to the product input.  Chunked with spawned
    substreams so the result array is identical for every thread count."""
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def work(rng, size: int) -> np.ndarray:
        out = np.empty(size)
        for j in range(size):
            gates = synthesize_gates(random_clifford(n, rng))
            circuit = ProdCircuit(n, n, state, gates)
            out[j] = prod_probabilities(circuit)[outcome_index]
        return out

    return np.concatenate(_chunked_map(work, trials, _TRIAL_CHUNK,
                                       np.random.default_rng(seed), threads))


@dataclass(frozen=True)
class AntiConcentrationReport:
    n: int
    trials: int
    alphas: tuple[float, ...]
    fractions: tuple[float, ...]
    bounds: tuple[float, ...]
    mean_px: float
    mean_px_sq: float
    purity: float = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(not 0.0 <= f <= 1.0 for f in self.fractions):
            raise ValueError("fractions must lie in [0, 1]")

    def metrics(self) -> list[dict]:
        out = []
        for alpha, frac, bound in zip(self.alphas, self.fractions, self.bounds):
            sigma = math.sqrt(max(frac * (1.0 - frac),
                                  bound * (1.0 - bound)) / self.trials)
            out.append({"name": f"exceedance(alpha={alpha:g})",
                        "value": frac, "bound": bound,
                        "tolerance": 3.0 * sigma,
                        "pass": frac > bound - 3.0 * sigma})
        dim = 2 ** self.n
        first = 1.0 / dim
        second = (self.purity + 1.0) / (dim * (dim + 1.0))
        se1 = math.sqrt(max(self.mean_px_sq - self.mean_px ** 2, 0.0)
                        / self.trials)
        out.append({"name": "mean_px", "value": self.mean_px, "bound": first,
                    "tolerance": 3.0 * se1,
                    "pass": abs(self.mean_px - first) <= 3.0 * se1})
        out.append({"name": "mean_px_sq", "value": self.mean_px_sq,
                    "bound": second, "tolerance": None, "pass": None})
        return out

    def report_dict(self, seed: Optional[int] = None) -> dict:
        return {"experiment": "anticoncentration",
                "parameters": {"n": self.n, "trials": self.trials,
                               "alphas": list(self.alphas), "seed": seed},
                "metrics": self.metrics()}


def anticoncentration_report(n: int, trials: int, alphas, state: ProductState,
                             seed: int, threads: int = 1) -> AntiConcentrationReport:
    if trials < 100:
        raise ValueError("trials must be >= 100")
    alphas = tuple(float(a) for a in alphas)
    px = clifford_output_probabilities(n, trials, state, seed, 0, threads)
    fractions = tuple(float((px >= alpha / 2 ** n).mean()) for alpha in alphas)
    bounds = tuple(anticoncentration_bound(alpha) for alpha in alphas)
    purity = math.prod(1.0 - state.purity_defect(q) / 2.0 for q in range(n))
    return AntiConcentrationReport(n, trials, alphas, fractions, bounds,
                                   float(px.mean()),
                                   float((px ** 2).mean()), purity)


def sparsity_profile(circuit: Circuit, eps_grid) -> list[tuple[float, int]]:
    dist = exact_distribution(circuit)
    return [(float(eps), min_sparsity(dist, float(eps))) for eps in eps_grid]


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
    t, eps = sparse_budget(sp, circuit.k,
                           bob_epsilon_schedule(round_index, delta))
    outcomes, probs = survivor_distribution(box, circuit, t, eps, eps, None)
    full = np.zeros(1 << circuit.k)
    full[[int(bits, 2) for bits in outcomes]] = probs
    return ExactDistribution(circuit.k, full)


@dataclass(frozen=True)
class HypothesisTestResult:
    trials: int
    p_correct: float
    analytic: Optional[float]
    delta: float
    rounds: int
    bob_mode: str

    def __post_init__(self):
        if not 0.0 <= self.p_correct <= 1.0:
            raise ValueError("p_correct must lie in [0, 1]")

    def report_dict(self, seed: Optional[int] = None) -> dict:
        sigma = math.sqrt(self.p_correct * (1.0 - self.p_correct)
                          / self.trials) if self.trials else 0.0
        metrics = [{"name": "p_correct", "value": self.p_correct,
                    "bound": self.analytic, "tolerance": 3.0 * sigma,
                    "pass": (None if self.analytic is None else
                             abs(self.p_correct - self.analytic) <= 3.0 * sigma)}]
        if self.bob_mode == "scheduled":
            cap = 0.5 + self.delta
            metrics.append({"name": "advantage_cap", "value": self.p_correct,
                            "bound": cap, "tolerance": 3.0 * sigma,
                            "pass": self.p_correct <= cap + 3.0 * sigma})
        return {"experiment": "distinguish",
                "parameters": {"bob_mode": self.bob_mode, "delta": self.delta,
                               "trials": self.trials, "rounds": self.rounds,
                               "seed": seed},
                "metrics": metrics}


def run_hypothesis_test(circuit: Circuit, bob_mode: str, delta: float,
                        trials: int, seed: int, rounds: int = 1,
                        corruption_l1: float = 0.4) -> HypothesisTestResult:
    """Monte Carlo estimate of the referee's success rate against the chosen
    imposter.  The referee guesses the candidate with the larger transcript
    likelihood; ties go to the true distribution."""
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    box = OraclePolyBox(circuit)
    alice = box.dist
    if bob_mode == "exact":
        bob_rounds = [alice] * rounds
    elif bob_mode == "corrupted":
        bob_rounds = [corrupted_distribution(alice, corruption_l1)] * rounds
    elif bob_mode == "scheduled":
        bob_rounds = [scheduled_bob_distribution(box, j, delta)
                      for j in range(1, rounds + 1)]
    else:
        raise ValueError(f"unknown bob_mode {bob_mode!r}")

    rng = np.random.default_rng(seed)
    coins = rng.integers(0, 2, size=trials)  # 0 = true circuit, 1 = imposter
    with np.errstate(divide="ignore"):
        log_a = np.log(alice.probs)
        score_a = np.zeros(trials)
        score_b = np.zeros(trials)
        for bob in bob_rounds:
            idx_a = alice.sample_indices(rng, trials)
            idx_b = bob.sample_indices(rng, trials)
            drawn = np.where(coins == 0, idx_a, idx_b)
            score_a = score_a + log_a[drawn]
            score_b = score_b + np.log(bob.probs)[drawn]
    guess_bob = score_b > score_a
    correct = guess_bob == (coins == 1)
    analytic = (optimal_single_round_pcorrect(alice, bob_rounds[0])
                if rounds == 1 else None)
    return HypothesisTestResult(trials, float(correct.mean()), analytic,
                                delta, rounds, bob_mode)
