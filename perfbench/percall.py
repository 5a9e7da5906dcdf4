#!/usr/bin/env python3
"""Per-call timings of spinsense's building blocks (the ROADMAP baseline rows).

    PYTHONPATH=src python3 perfbench/percall.py

Each figure is the median over repeated timings of one call; the Monte Carlo
block is split into its random draws, the filter and the phase reduction.
"""

import math
import time
from statistics import median

import numpy as np
from scipy.signal import lfilter

from spinsense import config
from spinsense.ou_noise import OUNoise, chi, t2
from spinsense.protocol import optimize_initial_state_spin1, sweep, yield_rate
from spinsense.qfi import drho_domega, ghz_qfi_values, qfi_generic, spin1_qfi_values
from spinsense.spin_ops import SpinQuantumNumber, dephase, ghz_like_state
from spinsense.validate import dd_suite, estimator_suite, mc_suite, oracle_suite


def per_call(fn, repeat, number=1):
    samples = []
    for _ in range(repeat):
        t = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t) / number)
    return median(samples)


def main():
    s8, noise = SpinQuantumNumber(8), OUNoise(1.0, 0.1)
    psi = ghz_like_state(s8)
    rows = [
        ("scalar chi", per_call(lambda: chi(noise, 0.3), 30, 1000)),
        ("scalar ghz_qfi_values", per_call(lambda: ghz_qfi_values(s8, noise, 0.3), 30, 1000)),
        ("scalar spin1_qfi_values", per_call(lambda: spin1_qfi_values(0.7, 0.9, 0.2, 0.3), 30, 1000)),
        ("t2", per_call(lambda: t2(s8, noise), 30, 100)),
        ("yield_rate", per_call(lambda: yield_rate(s8, noise), 30, 10)),
        ("qfi_generic (2S = 8)", per_call(
            lambda: qfi_generic(dephase(psi, 0.5, 0.3, 0.01), drho_domega(psi, 0.5, 0.3, 0.01)), 30, 100)),
        ("sweep('s'), 64 points", per_call(
            lambda: sweep("s", np.logspace(math.log10(0.5), 6, 64), b=1.0, tau_c=1e-3), 10)),
        ("optimize_initial_state_spin1, quasi-static", per_call(
            lambda: optimize_initial_state_spin1(OUNoise(1.0, 100.0)), 3)),
        ("optimize_initial_state_spin1, Markovian", per_call(
            lambda: optimize_initial_state_spin1(OUNoise(1.0, 1e-4)), 3)),
    ]
    # one Monte Carlo block as mc_coherence draws it: 4096 paths x 1001 steps
    shape = (config.MC_BLOCK_SIZE, 1001)
    w = np.random.default_rng([0, 0]).standard_normal(shape)
    x = lfilter([1.0], [1.0, -0.99], w, axis=1)
    weights = np.full(shape[1], 1e-3)
    rows += [
        ("MC block: random draws", per_call(lambda: np.random.default_rng([0, 0]).standard_normal(shape), 10)),
        ("MC block: lfilter", per_call(lambda: lfilter([1.0], [1.0, -0.99], w, axis=1), 10)),
        ("MC block: phase reduction", per_call(lambda: np.exp(-1j * (x @ weights)), 10)),
        ("mc_suite", per_call(lambda: mc_suite(42), 1)),
        ("oracle_suite", per_call(lambda: oracle_suite(123), 3)),
        ("dd_suite", per_call(lambda: dd_suite(0), 5)),
        ("estimator_suite", per_call(lambda: estimator_suite(11), 5)),
    ]
    for name, sec in rows:
        unit, scale = ("ms", 1e3) if sec >= 1e-3 else ("us", 1e6)
        print(f"{name:45s} {sec * scale:10.3f} {unit}" if sec < 1 else f"{name:45s} {sec:10.3f} s")


if __name__ == "__main__":
    main()
