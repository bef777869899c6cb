#!/usr/bin/env python3
"""Survey output-probability anticoncentration under uniform random Cliffords.

Example:
    python3 scripts/run_anticoncentration.py --n 3 4 5 --trials 2000 --seed 17
"""

import argparse
import sys

from bornbox.cli import run_handler, to_json
from bornbox.experiments import anticoncentration_report
from bornbox.stabcore import ProductState


def lines(args) -> list[str]:
    return [to_json(anticoncentration_report(
                n, args.trials, args.alphas, ProductState.zero(n), args.seed,
                args.threads).report_dict(seed=args.seed))
            for n in args.n]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[0.25, 0.5, 0.75])
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--threads", type=int, default=1)
    sys.exit(run_handler(lines, ap.parse_args()))


if __name__ == "__main__":
    main()
