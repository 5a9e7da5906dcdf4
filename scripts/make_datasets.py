#!/usr/bin/env python3
"""Regenerate every headline dataset (CSV + manifest) into one directory.

Usage: python scripts/make_datasets.py [outdir]   (default: ./datasets)

Produces the information curves for S=4 and S=8, the three scaling sweeps,
and the spin-1 state-optimization scan across memory times.
"""

import argparse
import sys
import time
from pathlib import Path

from spinsense.cli import main

JOBS = [
    ["qfi-curve", "--s", "4", "--s", "8", "--b", "1", "--tau-c", "0.1",
     "--tau-min", "0.005", "--tau-max", "2", "--points", "600",
     "--out", "qfi_curve_s4_s8.csv"],
    ["sweep", "--param", "s", "--min", "0.5", "--max", "1e6", "--points", "64",
     "--b", "1", "--tau-c", "1e-3", "--out", "sweep_s.csv"],
    ["sweep", "--param", "b", "--min", "1e-3", "--max", "1e3", "--points", "64",
     "--s", "0.5", "--tau-c", "1", "--out", "sweep_b.csv"],
    ["sweep", "--param", "tau-c", "--min", "1e-3", "--max", "1e3", "--points", "64",
     "--s", "0.5", "--b", "1", "--out", "sweep_tau_c.csv"],
    ["optimize-state", "--b", "1", "--tau-c-min", "1e-4", "--tau-c-max", "1e2",
     "--points", "13", "--out", "optimize_state_vs_tau_c.csv"],
]


def run(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    for job in JOBS:
        args = list(job)
        args[args.index("--out") + 1] = str(outdir / args[args.index("--out") + 1])
        label = " ".join(job[:2])
        t0 = time.time()
        code = main(args)
        print(f"{label:>24}  ->  {args[-1]}  ({time.time() - t0:.1f}s, exit {code})")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", nargs="?", type=Path, default=Path("datasets"),
                        help="directory for the CSVs and manifests (default: ./datasets)")
    sys.exit(run(parser.parse_args().outdir))
