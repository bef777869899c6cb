"""Command-line front end.

Five subcommands, one verb per pipeline stage:

* ``estimate``    poly-box query on a circuit file (family auto-detected)
* ``sample``      approximate sampling via the sparse, cdf, or chain converter
* ``oracle``      exact probability or full distribution (small circuits)
* ``experiment``  anticoncentration | sparsity | distinguish harnesses
* ``selftest``    fast deterministic release gate (< 60 s, exit 0 always)

Every subcommand honors --seed, --threads, and --out.  Output is JSON
lines on stdout: a single CommandResult object per invocation, except
``sample`` which streams one object per outcome after the header.  Floats
are serialized with 17 significant digits, so identical argv + seed gives
byte-identical stdout at any worker count.  Wall time goes to stderr,
keeping stdout reproducible.

``run_command`` is the one way in, for the console script and for callers
in-process alike, and it owns error handling: bad arguments or input exit 2
with one ``error:`` line on stderr and nothing on stdout, and an internal
error exits 1.  One parser, with every subcommand, is built per process.  A
well-formed argv (``_parse_direct``) is read straight from its option
tables; any other argv, such as help, an abbreviation, a flag, a repeated
option or an error, goes to the full parser, which prints every message.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from .circuits import (Circuit, EncodedCircuit, IqpCircuit, OutcomePattern,
                       ProdCircuit, parse_circuit, parse_pattern,
                       read_circuit_text)
from .experiments import (advantage_cap, anticoncentration_report,
                          bob_epsilon_schedule, run_hypothesis_test,
                          sparsity_profile)
from .oracle import (ExactDistribution, OracleLimitError, exact_distribution,
                     exact_probability, l1_distance, min_sparsity,
                     oracle_limit)
from .polybox import (MAX_SAMPLES, CePolyBox, IqpPolyBox, OraclePolyBox,
                      ProdPolyBox, auto_polybox, hoeffding_samples)
from .samplers import (SparsityPolynomial, cdf_bitwise_sample,
                       cdf_outcomes_for_r, chain_sample, check_cdf_bits,
                       check_eps_prime, epsilon_simulate)
from .stabcore import (GATE_ARITY, GateApp, ProductState,
                       random_clifford_words, replay_steps, synthesis_steps)

# a pool starts up to this many OS threads, one per chunk of draws
MAX_THREADS = 64


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: round-trips every double, no locale effects."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize a non-finite float")
    return format(x, ".17g")


# what json.dumps returns for a str, without its per-call set-up
_quote = json.encoder.encode_basestring_ascii


def to_json(obj) -> str:
    # strings and dicts first: they are most of every output line, and no
    # other branch takes them
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        return "{" + ",".join([_quote(str(k)) + ":" + to_json(v)
                               for k, v in obj.items()]) + "}"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join([to_json(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def command_result(command: str, parameters: dict, seed: int, payload) -> dict:
    return {"command": command, "parameters": parameters, "seed": seed,
            "payload": payload}


def _emit(lines: list[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Shared argument plumbing
# ---------------------------------------------------------------------------

def _floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"bad float list {text!r}") from exc
    if not values:
        raise ValueError(f"empty float list {text!r}")
    return values


def _load_circuit(path: str) -> Circuit:
    return parse_circuit(read_circuit_text(path),
                         base_dir=os.path.dirname(path))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for every random stream (default 0)")
    parser.add_argument("--threads", type=int, default=1,
                        help=f"worker count, 1 to {MAX_THREADS}; results do "
                             "not depend on it")
    parser.add_argument("--out", default=None,
                        help="write output lines to this file instead of stdout")


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the list of output lines)
# ---------------------------------------------------------------------------

def _cmd_estimate(args) -> list[str]:
    circuit = _load_circuit(args.circuit)
    pattern = parse_pattern(args.pattern)
    rng = np.random.default_rng(args.seed)
    est = auto_polybox(circuit, args.threads).estimate(pattern, args.eps,
                                                       args.delta, rng)
    params = {"circuit": args.circuit, "family": circuit.family,
              "pattern": pattern.trits, "eps": args.eps, "delta": args.delta}
    payload = {"value": est.value, "eps": est.eps, "delta": est.delta,
               "samples_used": est.samples_used}
    return [to_json(command_result("estimate", params, args.seed, payload))]


def _cmd_sample(args) -> list[str]:
    circuit = _load_circuit(args.circuit)
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    if args.count > MAX_SAMPLES:
        raise ValueError(f"--count must be at most {MAX_SAMPLES:g}, "
                         f"got {args.count}")
    rng = np.random.default_rng(args.seed)
    params = {"circuit": args.circuit, "family": circuit.family,
              "method": args.method, "count": args.count}
    if args.method == "sparse":
        check_eps_prime(args.eps_prime)
        if args.estimator == "sampling":
            est = auto_polybox(circuit, args.threads)
        else:
            est = OraclePolyBox(circuit)
        if args.sparsity is not None:
            sp = SparsityPolynomial(_floats(args.sparsity))
        else:
            try:
                dist = (est.dist if est.deterministic
                        else exact_distribution(circuit))
            except OracleLimitError:
                limit = oracle_limit()
                if (isinstance(circuit, EncodedCircuit)
                        and circuit.k > limit + 1):
                    size = (f"{limit + 1} measured bits for an encoded "
                            f"circuit (this circuit has {circuit.k})")
                else:
                    size = (f"{limit} qubits, a mixed one counting twice "
                            f"(this circuit has {circuit.n})")
                raise ValueError(
                    f"pass --sparsity: its default, the exact support size, "
                    f"needs the dense oracle, which is limited to {size}"
                ) from None
            sp = SparsityPolynomial.constant(min_sparsity(dist, 0.0))
        outcomes = epsilon_simulate(est, sp, circuit, args.eps_prime,
                                    args.count, rng)
        params.update(eps_prime=args.eps_prime, estimator=args.estimator,
                      sparsity=list(sp.coefficients))
    elif args.method == "cdf":
        check_cdf_bits(args.m)
        outcomes = cdf_bitwise_sample(exact_distribution(circuit), args.m,
                                      args.count, rng)
        params.update(m=args.m)
    else:
        outcomes = chain_sample(exact_distribution(circuit), args.count, rng)
    payload = {"k": circuit.k, "count": len(outcomes)}
    lines = [to_json(command_result("sample", params, args.seed, payload))]
    lines.extend(to_json({"outcome": o}) for o in outcomes)
    return lines


def _cmd_oracle(args) -> list[str]:
    circuit = _load_circuit(args.circuit)
    params = {"circuit": args.circuit, "family": circuit.family}
    if args.pattern is not None:
        pattern = parse_pattern(args.pattern)
        params["pattern"] = pattern.trits
        payload = {"probability": exact_probability(circuit, pattern)}
    else:
        dist = exact_distribution(circuit)
        payload = {"k": dist.k, "probs": list(dist.probs)}
    return [to_json(command_result("oracle", params, args.seed, payload))]


def _cmd_experiment_anticoncentration(args) -> list[str]:
    alphas = _floats(args.alphas)
    if args.bloch is not None:
        vec = _floats(args.bloch)
        if len(vec) != 3:
            raise ValueError("--bloch needs exactly rx,ry,rz")
        state = ProductState.uniform(vec, args.n)
    else:
        state = ProductState.zero(args.n)
    payload = anticoncentration_report(args.n, args.trials, alphas, state,
                                       args.seed, args.threads)
    params = {"n": args.n, "trials": args.trials, "alphas": list(alphas),
              "bloch": list(vec) if args.bloch is not None else None}
    return [to_json(command_result("experiment", params, args.seed, payload))]


def _cmd_experiment_sparsity(args) -> list[str]:
    circuit = _load_circuit(args.circuit)
    grid = _floats(args.eps_grid)
    table = [{"eps": eps, "t": t} for eps, t in sparsity_profile(circuit, grid)]
    params = {"circuit": args.circuit, "eps_grid": list(grid)}
    payload = {"experiment": "sparsity", "parameters": params, "table": table}
    return [to_json(command_result("experiment", params, args.seed, payload))]


def _cmd_experiment_distinguish(args) -> list[str]:
    circuit = _load_circuit(args.circuit)
    payload = run_hypothesis_test(circuit, args.bob, args.delta, args.trials,
                                  args.seed, args.rounds, args.corruption_l1)
    params = {"circuit": args.circuit, "bob": args.bob, "delta": args.delta,
              "trials": args.trials, "rounds": args.rounds,
              "corruption_l1": args.corruption_l1}
    return [to_json(command_result("experiment", params, args.seed, payload))]


# ---------------------------------------------------------------------------
# Selftest: the fast deterministic release gate
# ---------------------------------------------------------------------------

def ghz_circuit(n: int) -> ProdCircuit:
    gates = [GateApp("H", (0,))]
    gates += [GateApp("CNOT", (q - 1, q)) for q in range(1, n)]
    return ProdCircuit(n, n, ProductState.zero(n), tuple(gates))


def _random_prod_circuit(n: int, gate_count: int,
                         rng: np.random.Generator) -> ProdCircuit:
    bloch = []
    for _ in range(n):
        v = rng.normal(size=3)
        v *= rng.random() ** (1.0 / 3.0) / np.linalg.norm(v)
        bloch.append(tuple(float(c) for c in v))
    names = sorted(GATE_ARITY)
    gates = []
    for _ in range(gate_count):
        name = names[int(rng.integers(len(names)))]
        if GATE_ARITY[name] == 2 and n < 2:
            name = "H"
        qubits = rng.choice(n, size=GATE_ARITY[name], replace=False)
        gates.append(GateApp(name, tuple(int(q) for q in qubits)))
    k = int(rng.integers(1, n + 1))
    return ProdCircuit(n, k, ProductState(tuple(bloch)), tuple(gates))


def random_iqp_circuit(rng: np.random.Generator, n: int, m: int,
                       k: int | None = None) -> IqpCircuit:
    rows = tuple(tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(m))
    return IqpCircuit(n, n if k is None else k, rows)


def random_pattern(rng: np.random.Generator, k: int) -> OutcomePattern:
    return OutcomePattern("".join(str(rng.choice(("0", "1", "*")))
                                  for _ in range(k)))


def draw_counts(draws: list[str], k: int) -> np.ndarray:
    """Occurrences of each big-endian outcome index among the draws."""
    return np.bincount([int(bits, 2) for bits in draws], minlength=1 << k)


def _chi2_pvalue(draws: list[str], dist: ExactDistribution) -> float:
    from scipy import stats
    counts = draw_counts(draws, dist.k)
    expected = dist.probs * len(draws)
    support = expected > 0
    if counts[~support].sum() > 0:
        return 0.0
    return float(stats.chisquare(counts[support], expected[support]).pvalue)


def _empirical_l1(draws: list[str], dist: ExactDistribution) -> float:
    return l1_distance(draw_counts(draws, dist.k) / len(draws), dist)


def _selftest_checks(seed: int, threads: int,
                     inject: bool) -> tuple[list[dict], list[str]]:
    kids = np.random.SeedSequence(seed).spawn(8)
    checks: list[dict] = []
    expected_failures: list[str] = []

    checks.append({"check": "hoeffding-frozen",
                   "pass": hoeffding_samples(0.1, 0.05) == 738
                   and hoeffding_samples(1.0, 2 * math.exp(-2)) == 4})

    words = random_clifford_words(3, 10, np.random.default_rng(kids[0]))
    rebuilt = replay_steps(3, synthesis_steps(3, *words), 10)
    ok = all(map(np.array_equal, rebuilt, words))
    checks.append({"check": "clifford-synthesis-roundtrip", "pass": ok})

    rng = np.random.default_rng(kids[1])
    eps, delta, reps = 0.1, 0.05, 40
    violations = total = 0
    for _ in range(5):
        c = _random_prod_circuit(3, 12, rng)
        pat = random_pattern(rng, c.k)
        p = exact_probability(c, pat)
        box = ProdPolyBox(c, threads)
        for _ in range(reps):
            e = box.estimate(pat, eps, delta, rng)
            violations += abs(e.value - p) >= eps
            total += 1
    bound = delta + 3.0 * math.sqrt(delta * (1 - delta) / total)
    checks.append({"check": "prod-coverage", "pass": violations / total <= bound,
                   "value": violations / total, "bound": bound})

    rng = np.random.default_rng(kids[2])
    c = random_iqp_circuit(rng, 3, 5, k=2)
    pat = random_pattern(rng, 2)
    p = exact_probability(c, pat)
    e = IqpPolyBox(c, threads).estimate(pat, 0.02, 0.05, rng)
    tol = 5.0 / math.sqrt(e.samples_used)
    checks.append({"check": "iqp-unbiasedness", "pass": abs(e.value - p) <= tol,
                   "value": abs(e.value - p), "bound": tol})

    enc = EncodedCircuit(ghz_circuit(3))
    cebox = CePolyBox(enc)
    ok = True
    for trits in itertools.product("01*", repeat=enc.k):
        pattern = OutcomePattern("".join(trits))
        truth = exact_probability(enc, pattern)
        for eps_q in (0.5, 0.01, 2.0 ** -5):
            err = abs(cebox.estimate(pattern, eps_q).value - truth)
            limit = 0.0 if not pattern.is_full else min(
                2.0 ** -(enc.y_bits + 1), eps_q)
            ok = ok and err <= limit
    checks.append({"check": "ce-exact-bounds", "pass": ok})

    ghz = ghz_circuit(3)
    dist = exact_distribution(ghz)
    rng = np.random.default_rng(kids[3])
    sp = SparsityPolynomial.constant(min_sparsity(dist, 0.0))
    draws = epsilon_simulate(OraclePolyBox(ghz), sp, ghz, 0.13, 20000, rng)
    l1 = _empirical_l1(draws, dist)
    bound = 0.13 + 3.0 * math.sqrt((1 << ghz.k) / 20000)
    checks.append({"check": "sparse-l1", "pass": l1 <= bound,
                   "value": l1, "bound": bound})

    strong = ExactDistribution(2, np.array([0.1, 0.2, 0.3, 0.4]))
    checks.append({"check": "cdf-hand-pairs",
                   "pass": cdf_outcomes_for_r(strong, [0.25, 0.5])
                   == ["01", "10"]})

    rng = np.random.default_rng(kids[4])
    draws = cdf_bitwise_sample(dist, 40, 20000, rng)
    pval = _chi2_pvalue(draws, dist)
    checks.append({"check": "cdf-chi2", "pass": pval > 0.01,
                   "value": pval, "bound": 0.01})

    draws = chain_sample(dist, 20000, rng)
    pval = _chi2_pvalue(draws, dist)
    checks.append({"check": "chain-chi2", "pass": pval > 0.01,
                   "value": pval, "bound": 0.01})

    seed5 = int(kids[5].generate_state(1)[0])
    report = anticoncentration_report(3, 500, (0.25, 0.5, 0.75),
                                      ProductState.zero(3), seed5, threads)
    ok = all(m["pass"] for m in report["metrics"] if m["pass"] is not None)
    checks.append({"check": "anticoncentration-mini", "pass": ok})

    partial = sum(bob_epsilon_schedule(j, 0.05) for j in range(1, 10001))
    decreasing = all(bob_epsilon_schedule(j, 0.05)
                     > bob_epsilon_schedule(j + 1, 0.05) for j in range(1, 10))
    checks.append({"check": "schedule-partial-sums",
                   "pass": partial <= 4 * 0.05 and decreasing,
                   "value": partial, "bound": 4 * 0.05})

    seed6 = int(kids[6].generate_state(1)[0])
    for mode in ("exact", "corrupted"):
        metric = run_hypothesis_test(ghz, mode, 0.05, 20000,
                                     seed6)["metrics"][0]
        checks.append({"check": f"distinguish-{mode}", "pass": metric["pass"],
                       "value": metric["value"], "bound": metric["bound"]})
        seed6 += 1
    # The injection swaps the honest scheduled imposter for a corrupted one;
    # the advantage cap must then fail, and that failure is the expected
    # outcome the flag exists to demonstrate.
    mode = "corrupted" if inject else "scheduled"
    metric = run_hypothesis_test(ghz, mode, 0.05, 20000, seed6)["metrics"][0]
    cap = advantage_cap(metric["value"], 20000, 0.05)
    checks.append({"check": "scheduled-advantage-cap", "pass": cap["pass"],
                   "value": cap["value"], "bound": cap["bound"],
                   "injected": inject})
    if inject:
        expected_failures.append("scheduled-advantage-cap")
    return checks, expected_failures


def _cmd_selftest(args) -> list[str]:
    checks, expected = _selftest_checks(args.seed, args.threads,
                                        args.inject_corrupted_bob)
    passed = sum(1 for c in checks if c["pass"])
    payload = {"checks": checks, "passed": passed,
               "failed": len(checks) - passed, "expected_failures": expected}
    params = {"inject_corrupted_bob": args.inject_corrupted_bob}
    return [to_json(command_result("selftest", params, args.seed, payload))]


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _add_estimate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", required=True, help="circuit file")
    p.add_argument("--pattern", required=True, help="outcome pattern over 01*")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(handler=_cmd_estimate)


def _add_sample(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", required=True, help="circuit file")
    p.add_argument("--method", required=True, choices=("sparse", "cdf", "chain"))
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--eps-prime", type=float, default=0.1,
                   help="total L1 budget for the sparse converter, "
                        "in (0, 13/6]")
    p.add_argument("--sparsity", default=None,
                   help="comma list of sparsity-polynomial coefficients, "
                        "ascending degree (default: exact support size, "
                        "from the dense oracle)")
    p.add_argument("--estimator", choices=("oracle", "sampling"),
                   default="oracle",
                   help="sparse converter backend; the sampling backend is "
                        "the family poly-box.  It scores a search level "
                        "exactly, by enumerating its 2^level selections, "
                        "while that is at most one query's Hoeffding count; "
                        "each deeper level takes one shared draw matrix "
                        "whose size grows like (26/eps-prime)^2, so pair "
                        "deep circuits with a coarse --eps-prime")
    p.add_argument("--m", type=int, default=40,
                   help="uniform bits behind the cdf sampler, in [1, 53]")
    _add_common(p)
    p.set_defaults(handler=_cmd_sample)


def _add_oracle(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", required=True, help="circuit file")
    p.add_argument("--pattern", default=None,
                   help="outcome pattern; omit for the full distribution")
    _add_common(p)
    p.set_defaults(handler=_cmd_oracle)


def _add_experiment(p: argparse.ArgumentParser) -> None:
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("anticoncentration")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--trials", type=int, default=2000)
    e.add_argument("--alphas", default="0.25,0.5,0.75")
    e.add_argument("--bloch", default=None,
                   help="rx,ry,rz applied to every input qubit "
                        "(default: pure zero state)")
    _add_common(e)
    e.set_defaults(handler=_cmd_experiment_anticoncentration)

    e = esub.add_parser("sparsity")
    e.add_argument("--circuit", required=True)
    e.add_argument("--eps-grid", default="0.0,0.05,0.1,0.2,0.5,1.0")
    _add_common(e)
    e.set_defaults(handler=_cmd_experiment_sparsity)

    e = esub.add_parser("distinguish")
    e.add_argument("--circuit", required=True)
    e.add_argument("--bob", choices=("exact", "corrupted", "scheduled"),
                   default="exact")
    e.add_argument("--delta", type=float, default=0.05)
    e.add_argument("--trials", type=int, default=10000)
    e.add_argument("--rounds", type=int, default=1)
    e.add_argument("--corruption-l1", type=float, default=0.4)
    _add_common(e)
    e.set_defaults(handler=_cmd_experiment_distinguish)


def _add_selftest(p: argparse.ArgumentParser) -> None:
    p.add_argument("--inject-corrupted-bob", action="store_true",
                   help="corrupt the scheduled imposter so the advantage-cap "
                        "check demonstrates its expected failure")
    _add_common(p)
    p.set_defaults(handler=_cmd_selftest)


# The subcommands in help order, each with its help line and the function
# that adds its arguments; the one list of subcommand names.
_SUBCOMMANDS = {
    "estimate": ("additive-precision probability query", _add_estimate),
    "sample": ("draw outcomes from a converter", _add_sample),
    "oracle": ("exact probability or distribution", _add_oracle),
    "experiment": ("run a verification harness", _add_experiment),
    "selftest": ("fast release gate, always exits 0", _add_selftest),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bornbox",
        description="Born-rule estimators, approximate samplers, and "
                    "experiment harnesses for restricted circuit families.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _direct_table(parser, defaults: dict, required: list):
    """The direct path's table below parser, from argparse's own records: a
    dict from each subcommand name to its parser's table, or for a leaf
    (leaf, options, defaults, required).  defaults is the namespace
    argparse starts from, with each subparsers dest set to the name leading
    to the leaf; no string default has a type, so argparse leaves every
    default as it is; options maps each ``--name`` to its store action of
    one value."""
    own, sub = {}, None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sub = action
        elif action.required:
            required = [*required, action]
        if action.default is not argparse.SUPPRESS:
            own.setdefault(action.dest, action.default)
    defaults = {**defaults, **own,
                **{k: v for k, v in parser._defaults.items() if k not in own}}
    if sub is not None:
        return {name: _direct_table(child, {**defaults, sub.dest: name},
                                    required)
                for name, child in sub.choices.items()}
    options = {option: action for option, action
               in parser._option_string_actions.items()
               if type(action) is argparse._StoreAction
               and action.nargs is None and option.startswith("--")}
    return parser, options, defaults, required


@functools.cache
def _direct_tables() -> dict:
    return _direct_table(build_parser(), {}, [])


def _parse_direct(argv) -> Optional[argparse.Namespace]:
    """The namespace the full parser gives a well-formed argv, read from
    its leaf parser's tables: the subcommand (and experiment) names, then
    only ``--name value`` and ``--name=value`` tokens, each naming a
    different store action exactly, with a value given as its own token
    not starting with ``-`` and an ``=`` value not starting with ``--``,
    every value converting with its type into its choices, and every
    required action given.  None for any other argv."""
    node, i = _direct_tables(), 0
    while isinstance(node, dict) and i < len(argv):
        node, i = node.get(argv[i]), i + 1
    if not isinstance(node, tuple):
        return None
    leaf, options, defaults, required = node
    args = argparse.Namespace(**defaults)
    given = set()
    try:
        while i < len(argv):
            name, eq, text = argv[i].partition("=")
            if not eq:  # the value is the next token
                i += 1
                text = argv[i] if i < len(argv) else "-"
            i += 1
            action = options.get(name)
            if (action is None or action in given
                    or text.startswith("--" if eq else "-")):
                return None
            given.add(action)
            value = leaf._get_value(action, text)
            leaf._check_value(action, value)
            setattr(args, action.dest, value)
    except argparse.ArgumentError:
        return None
    return args if given.issuperset(required) else None


def _parse_args(argv) -> argparse.Namespace:
    """argv's namespace: read straight from the tables for a well-formed
    argv (``_parse_direct``), else from the full parser, which prints every
    help, usage and error message."""
    args = _parse_direct(argv)
    return args if args is not None else build_parser().parse_args(argv)


def run_command(argv) -> int:
    """Runs one subcommand and returns the exit code: 2 with one ``error:``
    line on stderr for bad arguments, bad input or an unwritable --out, 1
    for an internal error."""
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        if not 1 <= args.threads <= MAX_THREADS:
            raise ValueError(f"--threads must lie in [1, {MAX_THREADS}], "
                             f"got {args.threads}")
        _emit(args.handler(args), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
