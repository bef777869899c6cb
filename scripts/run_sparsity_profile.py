#!/usr/bin/env python3
"""Tabulate the minimal sparsity t(eps) of a circuit's output distribution.

Example:
    python3 scripts/run_sparsity_profile.py --circuit ghz3.qc \
        --eps 0.0 0.05 0.1 0.2 0.5 1.0
"""

import argparse
import os
import sys

from bornbox.circuits import parse_circuit
from bornbox.cli import run_handler, to_json
from bornbox.experiments import sparsity_profile


def lines(args) -> list[str]:
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circuit = parse_circuit(
            fh.read(), base_dir=os.path.dirname(os.path.abspath(args.circuit)))
    table = [{"eps": eps, "t": t}
             for eps, t in sparsity_profile(circuit, args.eps)]
    return [to_json({"circuit": args.circuit, "table": table})]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--circuit", required=True, help="circuit file")
    ap.add_argument("--eps", type=float, nargs="+",
                    default=[0.0, 0.05, 0.1, 0.2, 0.5, 1.0])
    sys.exit(run_handler(lines, ap.parse_args()))


if __name__ == "__main__":
    main()
