"""Correctness checks on the program's stdout.

``RunChecks.check`` judges one op deterministically: exit code, JSON shape
and the payload values the program must get exactly right (echoes, the
Hoeffding draw count, the anticoncentration bounds).  A problem there fails
the op.

Estimates and sampled outcomes are random, so ``check`` also files them,
with their truths from the independent reference route (``reference.py``),
in a per-run ledger, and ``RunChecks.verdict`` judges them once, against the
paper's guarantees with the acceptance gate's rules: a rate may exceed its
bound by 3 sigma, a mean may miss its expectation by 5 standard errors.  A
verdict problem fails the run, not an op.
"""

from __future__ import annotations

import json
import math

from reference import Reference

# two-sided tail of a 3-sigma normal test: the rate at which an honest
# experiment's pass flag comes out false
FLAG_FALSE_RATE = 0.0027
# one-sided tail of a 3-sigma normal test
THREE_SIGMA_TAIL = 0.00135
ANTI_ALPHAS = (0.25, 0.5, 0.75)


class CheckError(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def hoeffding_count(eps: float, delta: float) -> int:
    """Draws for an (eps, delta) mean of values in [-1, 1]."""
    return math.ceil(2.0 / (eps * eps) * math.log(2.0 / delta))


def three_sigma_cap(rate: float, total: int) -> float:
    return rate + 3.0 * math.sqrt(rate * (1.0 - rate) / total)


def binomial_tail(k: int, total: int, rate: float) -> float:
    """P(X >= k) for X ~ Binomial(total, rate)."""
    return 1.0 - sum(math.comb(total, i) * rate ** i * (1.0 - rate) ** (total - i)
                     for i in range(k))


def sparse_outside_rate(eps_prime: float) -> float:
    """Bound on the chance that one sparse draw leaves the support of a
    target whose support prefixes all have marginal >= 1/2.

    The sampler splits eps' as eps = delta = eps'/13, and the heavy-prefix
    search runs each of its at most 2*k*cap queries at precision
    threshold/2 and confidence delta/(2*k*cap), with threshold <= eps/2.
    When every query is within precision, prefixes outside the support
    (marginal 0) score below threshold and support prefixes (>= 1/2) above
    it, so the survivors are exactly the support; by the union bound some
    query fails with probability at most delta.
    """
    return eps_prime / 13.0


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


class RunChecks:
    def __init__(self):
        self.estimate_misses: list[bool] = []
        self.estimate_errors: list[tuple[float, int]] = []
        self.estimate_delta = None
        self.sparse_outside: list[bool] = []
        self.sparse_delta = None
        self.flags: list[tuple[str, bool]] = []
        # n -> [sum of trials * mean_px, sum of trials * variance, trials]
        self.anti_means: dict[int, list] = {}

    # -- per op ---------------------------------------------------------------

    def check(self, op, rc: int, stdout: str) -> list[str]:
        """Problems with one op's result; empty when it is correct."""
        if rc != 0:
            return [f"op {op.index} ({op.kind}): exit code {rc}"]
        try:
            lines = [json.loads(line) for line in stdout.splitlines()]
            _require(bool(lines), "no output")
            head = lines[0]
            _require(set(head) == {"command", "parameters", "seed", "payload"},
                     f"header keys {sorted(head)}")
            _require(head["command"] == op.argv[0], "command echo")
            _require(head["seed"] == int(_option(op.argv, "--seed")), "seed echo")
            handler = getattr(self, "_" + op.argv[0])
            handler(op, head["payload"], lines[1:])
        except (CheckError, ValueError, KeyError, TypeError, IndexError,
                AttributeError) as exc:
            return [f"op {op.index} ({op.kind}): {type(exc).__name__}: {exc}"]
        return []

    def _estimate(self, op, payload, rest):
        _require(not rest, "extra output lines")
        _require(set(payload) == {"value", "eps", "delta", "samples_used"},
                 f"payload keys {sorted(payload)}")
        eps, delta = op.expect["eps"], op.expect["delta"]
        _require(payload["eps"] == eps and payload["delta"] == delta,
                 "eps/delta echo")
        _require(payload["samples_used"] == hoeffding_count(eps, delta),
                 f"samples_used {payload['samples_used']}")
        value = float(payload["value"])
        _require(math.isfinite(value), "non-finite estimate")
        truth = Reference(op.circuit).probability(op.patterns[0])
        self.estimate_misses.append(abs(value - truth) >= eps)
        self.estimate_errors.append((value - truth, payload["samples_used"]))
        self.estimate_delta = delta

    def _sample(self, op, payload, rest):
        k = op.circuit.k
        _require(payload == {"k": k, "count": op.expect["count"]},
                 f"sample header {payload}")
        _require(len(rest) == op.expect["count"], "outcome line count")
        outcomes = [line["outcome"] for line in rest]
        _require(all(set(line) == {"outcome"} for line in rest), "outcome keys")
        _require(all(len(o) == k and set(o) <= {"0", "1"} for o in outcomes),
                 "malformed outcome")
        _require(_option(op.argv, "--method") == "sparse", "sample method")
        probs = Reference(op.circuit).distribution()
        self.sparse_outside += [probs[int(o, 2)] <= 1e-12 for o in outcomes]
        self.sparse_delta = sparse_outside_rate(op.expect["eps_prime"])

    def _experiment(self, op, payload, rest):
        _require(not rest, "extra output lines")
        _require(payload.get("experiment") == op.argv[1] == "anticoncentration",
                 "experiment echo")
        n, trials, bloch = (op.expect[key] for key in ("n", "trials", "bloch"))
        params = payload["parameters"]
        _require(params["n"] == n and params["trials"] == trials, "parameters")
        metrics = payload["metrics"]
        _require(len(metrics) == len(ANTI_ALPHAS) + 2, "metric count")
        dim = 2 ** n
        purity = 1.0
        if bloch is not None:
            purity = (1.0 - (1.0 - sum(c * c for c in bloch)) / 2.0) ** n
        want = [(1.0 - a) ** 2 / 2.0 for a in ANTI_ALPHAS]
        want += [1.0 / dim, (purity + 1.0) / (dim * (dim + 1.0))]
        for m, bound in zip(metrics, want):
            _require(abs(m["bound"] - bound) <= 1e-12 * max(1.0, bound),
                     f"{m['name']} bound {m['bound']!r} vs {bound!r}")
        for m in metrics[:-1]:
            _require(isinstance(m["pass"], bool), f"{m['name']} pass flag")
        for m in metrics[:len(ANTI_ALPHAS)]:
            self.flags.append((f"{op.kind}:{m['name']}", m["pass"]))
        _require(metrics[-1]["pass"] is None, "second moment has no flag")
        # The op's own mean_px flag uses the sample variance of a skewed
        # quantity over 100-300 trials and comes out false far more often
        # than 3 sigma allows (3 of 150 honest ops).  Pool the run's means
        # per n instead, with the exact unitary 2-design variance.  Pooled
        # means are still skewed (one honest run reached 3.1 sigma), hence
        # the gate's 5-standard-error rule for means.
        pool = self.anti_means.setdefault(n, [0.0, 0.0, 0])
        pool[0] += trials * metrics[-2]["value"]
        pool[1] += trials * (want[-1] - want[-2] ** 2)
        pool[2] += trials

    # -- per run --------------------------------------------------------------

    def verdict(self) -> list[str]:
        """Run-level statistical problems; empty when the guarantees hold."""
        problems = []
        if self.estimate_misses:
            total = len(self.estimate_misses)
            rate = sum(self.estimate_misses) / total
            cap = three_sigma_cap(self.estimate_delta, total)
            if rate > cap:
                problems.append(f"estimate miss rate {rate:.4f} > {cap:.4f} "
                                f"over {total} ops")
            # the estimator is unbiased and each draw lies in [-1, 1], so
            # an estimate from s draws has standard deviation at most s^-1/2
            bias = sum(err for err, _ in self.estimate_errors) / total
            sigma = math.sqrt(sum(1.0 / s for _, s in self.estimate_errors)) / total
            if abs(bias) > 5.0 * sigma:
                problems.append(f"estimate bias {bias:.5f} beyond 5 standard "
                                f"errors of {sigma:.5f} over {total} ops")
        if self.sparse_outside:
            total, outside = len(self.sparse_outside), sum(self.sparse_outside)
            if binomial_tail(outside, total, self.sparse_delta) < THREE_SIGMA_TAIL:
                problems.append(f"{outside} of {total} sparse outcomes outside "
                                f"the support, at most {self.sparse_delta:.4f} "
                                "each")
        failed = [name for name, ok in self.flags if not ok]
        # with few flags the expected false count is far below one, so a
        # normal cap would fail a run on a single honest false flag; judge
        # the count by its binomial tail instead
        if binomial_tail(len(failed), len(self.flags),
                         FLAG_FALSE_RATE) < THREE_SIGMA_TAIL:
            problems.append(f"{len(failed)} of {len(self.flags)} experiment "
                            f"pass flags false: {failed[:5]}")
        for n, (weighted, variance, trials) in sorted(self.anti_means.items()):
            mean, sigma = weighted / trials, math.sqrt(variance) / trials
            if abs(mean - 2.0 ** -n) > 5.0 * sigma:
                problems.append(f"anticoncentration n={n}: mean p_x {mean:.5f} "
                                f"vs {2.0 ** -n:.5f} beyond 5 standard errors "
                                f"of {sigma:.5f}")
        return problems
