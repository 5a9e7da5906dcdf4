#!/usr/bin/env python3
"""Print the sampled-vs-analytic coherence table across all noise regimes.

Usage: python scripts/mc_accuracy_table.py [--paths N] [--seed K]

For each grid point this shows the Monte Carlo estimate of the extremal
coherence, the closed-form target exp(-(2S)^2 chi), the pull in standard
errors, and the imaginary residual which must be statistical noise.

Exits 1 if any real or imaginary |pull| exceeds PULL_BOUND = 4 standard
errors.  For a correct sampler each pull is close to a standard normal
deviate, so one of the 24 pulls passes 4 with probability about 1.5e-3.
"""

import argparse
import sys

from spinsense import config
from spinsense.validate import MC_GRID, _mc_row

PULL_BOUND = 4.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.paths < config.MC_MIN_PATHS:
        parser.error(f"--paths must be >= {config.MC_MIN_PATHS}, got {args.paths}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    header = (f"{'regime':>13} {'S':>4} {'b':>5} {'tau_c':>7} {'tau':>6} "
              f"{'mc real':>10} {'analytic':>10} {'pull':>6} {'imag pull':>9}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    for i, (s_val, b, tau_c, tau) in enumerate(MC_GRID):
        est, target, regime, _ = _mc_row(i, args.seed, args.paths)
        pull = (est.mean.real - target) / est.stderr_real
        ipull = est.mean.imag / est.stderr_imag
        print(f"{regime:>13} {s_val:>4g} {b:>5g} {tau_c:>7g} {tau:>6g} "
              f"{est.mean.real:>10.6f} {target:>10.6f} {pull:>+6.2f} {ipull:>+9.2f}")
        worst = max(worst, abs(pull), abs(ipull))
    if not worst <= PULL_BOUND:
        print(f"FAIL: largest |pull| {worst:.2f} exceeds {PULL_BOUND:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
