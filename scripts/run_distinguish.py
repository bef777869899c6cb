#!/usr/bin/env python3
"""Run the two-candidate distinguishing game against a chosen imposter.

Example:
    python3 scripts/run_distinguish.py --circuit ghz3.qc --bob corrupted \
        --trials 100000 --seed 3
"""

import argparse
import os
import sys

from bornbox.circuits import parse_circuit
from bornbox.cli import run_handler, to_json
from bornbox.experiments import run_hypothesis_test


def lines(args) -> list[str]:
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circuit = parse_circuit(
            fh.read(), base_dir=os.path.dirname(os.path.abspath(args.circuit)))
    res = run_hypothesis_test(circuit, args.bob, args.delta, args.trials,
                              seed=args.seed, rounds=args.rounds,
                              corruption_l1=args.corruption_l1)
    return [to_json(res.report_dict(seed=args.seed))]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--circuit", required=True, help="circuit file")
    ap.add_argument("--bob", choices=("exact", "corrupted", "scheduled"),
                    default="exact")
    ap.add_argument("--delta", type=float, default=0.05)
    ap.add_argument("--trials", type=int, default=100000)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--corruption-l1", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=0)
    sys.exit(run_handler(lines, ap.parse_args()))


if __name__ == "__main__":
    main()
