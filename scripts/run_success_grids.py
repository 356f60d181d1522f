#!/usr/bin/env python3
"""Reproduce the two-cluster success-probability grids (easy and hard
geometry).  Pass --trials to thin out the full 20-trial grids."""

import argparse
import sys

from fusecluster.cli import main

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="results/success")
    parser.add_argument("--trials", type=int, default=None)
    args = parser.parse_args()

    code = 0
    for preset in ("fig3a", "fig3c"):
        argv = ["simulate", "--preset", preset, "--out-dir", args.out_dir]
        if args.trials is not None:
            argv += ["--trials", str(args.trials)]
        code = max(code, main(argv))
    sys.exit(code)
