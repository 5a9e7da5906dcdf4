"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with the measured values and its wall-clock time.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np
import pytest

from spinsense import (
    DDProfile,
    OUNoise,
    SpinQuantumNumber,
    classical_fisher,
    ghz_qfi_values,
    optimize_initial_state_spin1,
    qfi_noisy_ghz,
    simulate_and_estimate,
    sweep,
    yield_rate,
)
from spinsense.qfi import spin1_qfi_values
from spinsense.validate import dd_suite, estimator_suite, mc_suite, oracle_suite


def report(name: str, passed: bool, detail: str, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail} ({time.time() - started:.1f}s)")


def test_criterion_1_qfi_curve_peaks():
    """Peak QFI and peak position for S=4 and S=8 at b=1, tau_c=0.1."""
    started = time.time()
    noise = OUNoise(1.0, 0.1)
    taus = np.logspace(np.log10(0.005), np.log10(2.0), 20_000)
    results = {}
    for s_val, two_s in ((4, 8), (8, 16)):
        curve = ghz_qfi_values(SpinQuantumNumber(two_s), noise, taus)
        i = int(np.argmax(curve))
        results[s_val] = (float(curve[i]), float(taus[i]))
    ok = (
        abs(results[4][0] - 0.60) <= 0.02
        and abs(results[4][1] - 0.20) <= 0.02
        and abs(results[8][0] - 0.46) <= 0.02
        and abs(results[8][1] - 0.07) <= 0.01
    )
    report(
        "criterion 1 (information-curve peaks)",
        ok,
        f"S=4 peak {results[4][0]:.4f}@{results[4][1]:.4f} "
        f"(want 0.60+-0.02 @ 0.20+-0.02); "
        f"S=8 peak {results[8][0]:.4f}@{results[8][1]:.4f} "
        f"(want 0.46+-0.02 @ 0.07+-0.01)",
        started,
    )
    assert ok


def test_criterion_2_asymptotic_yield_rates():
    """Numeric optimum matches the closed forms to 2% deep in each regime."""
    started = time.time()
    quasi = [(1, 1.0, 100.0), (2, 1.0, 50.0), (4, 1.0, 25.0), (8, 1.0, 12.5),
             (1, 0.5, 200.0), (2, 2.0, 100.0), (16, 1.0, 10.0), (1, 1.0, 1000.0),
             (4, 0.25, 400.0), (32, 1.0, 5.0)]
    mark = [(1, 1.0, 0.01), (2, 1.0, 0.005), (4, 1.0, 0.0025), (8, 1.0, 0.00125),
            (1, 0.5, 0.02), (2, 2.0, 0.0025), (1, 1.0, 0.001), (4, 0.25, 0.01),
            (16, 1.0, 1e-4), (1, 2.0, 0.0025)]
    worst_rate, worst_tau = 0.0, 0.0
    for two_s, b, tau_c in quasi:
        assert two_s * b * tau_c >= 100.0
        res = yield_rate(SpinQuantumNumber(two_s), OUNoise(b, tau_c))
        rate_ref = math.sqrt(2 / math.e) * (two_s / 2) / b
        tau_ref = 1.0 / (math.sqrt(2.0) * two_s * b)
        worst_rate = max(worst_rate, abs(res.rate / rate_ref - 1))
        worst_tau = max(worst_tau, abs(res.tau_opt / tau_ref - 1))
    for two_s, b, tau_c in mark:
        assert two_s * b * tau_c <= 0.01
        res = yield_rate(SpinQuantumNumber(two_s), OUNoise(b, tau_c))
        rate_ref = 1.0 / (2 * math.e * b**2 * tau_c)
        tau_ref = 1.0 / (2 * (two_s * b) ** 2 * tau_c)
        worst_rate = max(worst_rate, abs(res.rate / rate_ref - 1))
        worst_tau = max(worst_tau, abs(res.tau_opt / tau_ref - 1))
    ok = worst_rate < 0.02 and worst_tau < 0.02
    report(
        "criterion 2 (asymptotic yield rates)",
        ok,
        f"worst rate deviation {worst_rate:.2%}, worst tau_opt deviation "
        f"{worst_tau:.2%} over 20 regime points (tol 2%)",
        started,
    )
    assert ok


def test_criterion_3_scaling_exponents():
    """Power-law exponents of the three parameter sweeps in both windows."""
    started = time.time()
    s_table = sweep("s", np.logspace(np.log10(0.5), 6, 64), b=1.0, tau_c=1e-3)
    b_table = sweep("b", np.logspace(-3, 3, 64), s=0.5, tau_c=1.0)
    tc_table = sweep("tau_c", np.logspace(-3, 3, 64), s=0.5, b=1.0)
    measured = {
        "s": (s_table.fits["markovian"].slope, s_table.fits["quasi_static"].slope),
        "b": (b_table.fits["markovian"].slope, b_table.fits["quasi_static"].slope),
        "tau_c": (tc_table.fits["markovian"].slope, tc_table.fits["quasi_static"].slope),
    }
    wanted = {"s": (0.0, 1.0), "b": (-2.0, -1.0), "tau_c": (-1.0, 0.0)}
    ok = all(
        abs(measured[k][i] - wanted[k][i]) <= 0.05 for k in measured for i in (0, 1)
    )
    detail = "; ".join(
        f"{k}: markov {measured[k][0]:+.3f} (want {wanted[k][0]:+g}), "
        f"quasi-static {measured[k][1]:+.3f} (want {wanted[k][1]:+g})"
        for k in ("s", "b", "tau_c")
    )
    report("criterion 3 (sweep scaling exponents, tol 0.05)", ok, detail, started)
    assert ok


def test_criterion_4_monte_carlo_oracle():
    """Sampled coherence vs closed form on the 12-point three-regime grid."""
    started = time.time()
    checks = mc_suite(seed=42)
    failed = [c for c in checks if not c.passed]
    ok = not failed
    report(
        "criterion 4 (Monte Carlo coherence oracle)",
        ok,
        f"{len(checks) - len(failed)}/{len(checks)} checks passed "
        f"(3-sigma and 1% where coherence > 0.1)"
        + (f"; first failure: {failed[0].name}" if failed else ""),
        started,
    )
    assert ok


def test_criterion_5_qfi_oracle_equivalence():
    """Closed forms vs the eigendecomposition route over 1000 random tuples."""
    started = time.time()
    checks = oracle_suite(seed=123, n_tuples=1000)
    by_name = {c.name: c for c in checks}
    ok = all(c.passed for c in checks)
    report(
        "criterion 5 (QFI oracle equivalence)",
        ok,
        f"worst GHZ rel {by_name['oracle ghz closed-form vs sld (worst rel)'].measured:.2e} "
        f"(tol 1e-8); worst spin-1 rel "
        f"{by_name['oracle spin-1 closed-form vs sld (worst rel)'].measured:.2e} (tol 1e-8); "
        f"phase spread {by_name['oracle spin-1 phase independence (abs spread)'].measured:.2e} "
        f"(tol 1e-10)",
        started,
    )
    assert ok


def test_criterion_6_estimation_chain_saturation():
    """Measurement saturates the quantum bound; the MLE saturates the CRB."""
    started = time.time()
    s, noise = SpinQuantumNumber(8), OUNoise(1.0, 0.1)
    tau = yield_rate(s, noise).tau_opt
    omega = (math.pi / 2) / (s.two_s * tau)
    cfi = classical_fisher(s, noise, tau, omega)
    qfi = qfi_noisy_ghz(s, noise, tau).value
    equality = abs(cfi - qfi) / qfi
    run = simulate_and_estimate(s, noise, tau, omega, nu=10_000, seed=11, repetitions=500)
    ratio = run.sample_std / run.crb
    ok = equality <= 1e-12 and abs(ratio - 1.0) <= 0.05 and run.n_flagged == 0
    report(
        "criterion 6 (estimation-chain saturation)",
        ok,
        f"CFI/QFI - 1 = {equality:.1e} (tol 1e-12); sample std / CRB = {ratio:.4f} "
        f"(tol 5%) at nu=1e4, 500 repetitions, {run.n_flagged} flagged",
        started,
    )
    assert ok


def test_criterion_7_dd_scaling():
    """Pulsed-control exponents 2 - 2/n (quasi-static) and 0 (Markovian)."""
    started = time.time()
    checks = dd_suite()
    ok = all(c.passed for c in checks)
    detail = "; ".join(
        f"{c.name.replace('dd ', '')}: {c.measured:+.3f} (want {c.expected:+.3f})"
        for c in checks
    )
    report("criterion 7 (pulsed-control scaling, tol 0.1)", ok, detail, started)
    assert ok


def test_criterion_8_spin1_state_optimization():
    """GHZ near-optimality in quasi-static noise; stable constant-factor gain
    in Markovian noise across a decade of memory times."""
    started = time.time()
    qs = optimize_initial_state_spin1(OUNoise(1.0, 100.0))
    qs_ok = qs.fidelity_with_ghz > 0.99 and qs.r_max / qs.r_ghz < 1.01
    ratios = []
    for tau_c in (1e-4, 2.2e-4, 4.6e-4, 1e-3):
        res = optimize_initial_state_spin1(OUNoise(1.0, tau_c))
        ratios.append(res.r_max / res.r_ghz)
    ratios = np.array(ratios)
    mk_ok = bool(np.all(ratios > 1.0) and np.all(np.abs(ratios / ratios.mean() - 1) < 0.10))
    ok = qs_ok and mk_ok
    report(
        "criterion 8 (spin-1 state optimization)",
        ok,
        f"quasi-static fidelity {qs.fidelity_with_ghz:.4f} (>0.99), gain "
        f"{qs.r_max / qs.r_ghz:.4f} (<1.01); Markovian gains "
        f"{np.array2string(ratios, precision=4)} (all >1, stable to 10%)",
        started,
    )
    assert ok


def _markovian_spin1_rate_scale(n: int = 81, levels: int = 3) -> float:
    """max over (theta, phi, D) of (-ln D) D P(D) / (2 Q(D)), by dense grids.

    With chi = b^2 tau_c tau the spin-1 rate is R b^2 tau_c = chi F(tau=1)
    at chi = -ln(D)/2, so the optimum needs no tau search and no protocol
    code.  Each level is an n^3 cell-centred grid; the next spans two cells
    either side of the best point.
    """
    lo, hi = np.zeros(3), np.array([math.pi / 2, math.pi / 2, 1.0])
    for _ in range(levels):
        axes = [a + (b - a) * (np.arange(n) + 0.5) / n for a, b in zip(lo, hi)]
        theta, phi, d = np.meshgrid(*axes, indexing="ij", sparse=True)
        chi_value = -0.5 * np.log(d)
        g = chi_value * spin1_qfi_values(theta, phi, chi_value, 1.0)
        i = np.unravel_index(np.argmax(g), g.shape)
        center = np.array([a[k] for a, k in zip(axes, i)])
        width = 2 * (hi - lo) / n
        lo = np.maximum(center - width, 0.0)
        hi = np.minimum(center + width, [math.pi / 2, math.pi / 2, 1.0])
    return float(g[i])


def test_criterion_8_markovian_limit_independent():
    """The Markovian spin-1 optimum against a dense grid that shares no code
    with the optimizer: R b^2 tau_c does not depend on tau_c there."""
    started = time.time()
    scale = _markovian_spin1_rate_scale()
    found = {tau_c: optimize_initial_state_spin1(OUNoise(1.0, tau_c)).r_max * tau_c
             for tau_c in (1e-4, 1e-3)}
    ok = all(abs(v / scale - 1) < 1e-4 for v in found.values())
    report(
        "criterion 8 (Markovian limit, independent grid)",
        ok,
        f"grid R b^2 tau_c {scale:.7f} (ratio to GHZ 1/(2e): {2 * math.e * scale:.5f}); "
        + ", ".join(f"optimizer at tau_c={tc:g}: {v:.7f}" for tc, v in found.items())
        + " (rel 1e-4)",
        started,
    )
    assert ok
