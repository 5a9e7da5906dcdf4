"""Self-validation suites: every analytic result against an independent route.

Four suites, each returning its checks and its manifest diagnostics (none for dd):

* ``mc``        sampled-noise coherence against the closed-form decay
* ``oracle``    closed-form QFI against the generic eigendecomposition route,
                on tuples drawn in batches from a seeded generator and
                density matrices built, checked and diagonalized in stacks
* ``estimator`` measurement Fisher information and likelihood-estimator
                efficiency against the error bound
* ``dd``        pulsed-control scaling exponents against 2 - 2/n
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .estimation import classical_fisher, simulate_and_estimate
from .ou_noise import (DDProfile, McCoherence, OUNoise, _ghz_decay, _mc_draw_threads, _mc_steps,
                       classify, mc_coherence)
from .protocol import dd_scaling, yield_rate
from .qfi import _ghz_values, ghz_qfi_values, qfi_generic, spin1_qfi_values
from .spin_ops import SpinQuantumNumber, _delta_m, _spin1_amplitudes, dephase, ghz_like_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool


def _check(name: str, measured: float, expected: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(measured), float(expected), float(tolerance),
                       bool(abs(measured - expected) <= tolerance))


# (S, b, tau_c, tau) spanning Markovian, intermediate and quasi-static noise
MC_GRID: tuple[tuple[float, float, float, float], ...] = (
    (0.5, 1.0, 0.02, 0.2),
    (0.5, 1.0, 0.02, 0.5),
    (1.0, 1.0, 0.04, 0.4),
    (0.5, 2.0, 0.02, 0.3),
    (0.5, 1.0, 1.0, 1.0),
    (1.0, 1.0, 0.5, 0.5),
    (2.0, 1.0, 0.1, 0.2),
    (4.0, 1.0, 0.1, 0.2),
    (0.5, 1.0, 50.0, 1.0),
    (1.0, 1.0, 100.0, 0.5),
    (2.0, 0.5, 100.0, 0.5),
    (4.0, 1.0, 1000.0, 0.05),
)

MC_PATHS = 100_000


def _mc_row(i: int, seed: int, paths: int) -> tuple[McCoherence, float, str, int]:
    """Row i of MC_GRID sampled on ``paths`` paths from seed + i, at dt =
    min(tau_c/40, tau/50): the estimate, its target exp(-(2S)^2 chi), the
    regime of 2S b tau_c and the trapezoid steps."""
    s_val, b, tau_c, tau = MC_GRID[i]
    s = SpinQuantumNumber.from_s(s_val)
    noise = OUNoise(b, tau_c)
    dt = min(tau_c / 40.0, tau / 50.0)
    est = mc_coherence(s, noise, tau, paths, dt, seed + i)
    target = math.exp(-_ghz_decay(s.two_s, noise, tau))
    return est, target, classify(s.two_s * b * tau_c), _mc_steps(tau, dt)


def mc_suite(seed: int) -> tuple[list[CheckResult], dict]:
    """Sampled coherence vs exp(-(2S)^2 chi) over the three-regime grid, MC_PATHS
    paths per row; the diagnostics record the paths, the trapezoid steps per
    grid row, the normals drawn and the threads that draw them."""
    checks: list[CheckResult] = []
    steps = []
    for i, (s_val, b, tau_c, tau) in enumerate(MC_GRID):
        est, target, regime, row_steps = _mc_row(i, seed, MC_PATHS)
        steps.append(row_steps)
        tag = f"mc[{i}] {regime} S={s_val:g} b={b:g} tau_c={tau_c:g} tau={tau:g}"
        checks.append(_check(f"{tag} re", est.mean.real, target, 3.0 * est.stderr_real))
        checks.append(_check(f"{tag} im", est.mean.imag, 0.0, 3.0 * est.stderr_imag))
        if target > 0.1:
            checks.append(_check(f"{tag} re rel", est.mean.real / target, 1.0, 0.01))
    return checks, {"paths": MC_PATHS, "steps": steps,
                    "normals": MC_PATHS * sum(k + 1 for k in steps),
                    "draw_threads": _mc_draw_threads(MC_PATHS)}


# matrix entries (rows x d^2) per stack of the oracle's SLD route: 32 rows at
# d = 9, the largest dimension drawn, so no stack is larger than a 9 x 9 one
_SLD_STACK_ENTRIES = 32 * 9**2


def _sld_values(amps, omega, tau, chi_val, counts: dict) -> np.ndarray:
    """SLD-route QFI of each dephased amplitude row, in stacks of at most
    _SLD_STACK_ENTRIES matrix entries (at least one matrix each), so small
    matrices go in few wide stacks; each value is computed matrix by matrix
    and does not depend on the stacking.  ``counts["sld_matrices"]`` and
    ``counts["sld_stacks"]`` tally the matrices and stacks per dimension."""
    n, dim = amps.shape
    step = max(1, _SLD_STACK_ENTRIES // dim**2)
    omega, tau, chi_val = (np.broadcast_to(a, (n,)) for a in (omega, tau, chi_val))
    out = np.empty(n)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        rho = dephase(amps[rows], omega[rows], tau[rows], chi_val[rows])
        out[rows] = qfi_generic(rho, rho * (-1j * _delta_m(dim) * tau[rows, None, None]))
    for name, added in (("sld_matrices", n), ("sld_stacks", -(-n // step))):
        tally = counts.setdefault(name, {})
        tally[str(dim)] = tally.get(str(dim), 0) + added
    return out


def _worst_rel(generic: np.ndarray, closed: np.ndarray) -> float:
    return float(np.max(np.abs(generic - closed) / np.maximum(generic, closed), initial=0.0))


# oracle draws: 2S from _ORACLE_TWO_S, (b, tau_c, tau) log-uniform and
# (omega, theta, phi, lambda1, lambda2) uniform over these ranges
_ORACLE_TWO_S = (1, 2, 3, 4, 8)
_LOG_LO = np.log([0.05, 0.01, 0.05])
_LOG_SPAN = np.log([2.0, 10.0, 2.0]) - _LOG_LO
_UNIFORM_LO = np.array([-2.0, 0.1, 0.1, 0.0, 0.0])
_UNIFORM_SPAN = np.array([2.0, math.pi / 2 - 0.1, math.pi / 2 - 0.1, 2 * math.pi, 2 * math.pi]) - _UNIFORM_LO


def _oracle_draws(seed: int, n_tuples: int) -> tuple[np.ndarray, int]:
    """The oracle's tuples from ``default_rng(seed)``: the (n_tuples, 8) rows
    (2S, tau, chi, omega, theta, phi, lambda1, lambda2) and the number of
    (2S, b, tau_c, tau) candidates rejected, before the last one kept, for a
    decoherence exponent (2S)^2 chi above 3.

    Each round draws n_tuples candidates, an index into _ORACLE_TWO_S and
    three log-uniform values each, until n_tuples are accepted; the first
    n_tuples accepted are kept in draw order, and one ``random`` call then
    draws their five uniforms.
    """
    rng = np.random.default_rng(seed)
    kept, rejected, need = [np.empty((0, 3))], 0, n_tuples
    while need:
        two_s = np.take(_ORACLE_TWO_S, rng.integers(len(_ORACLE_TWO_S), size=n_tuples))
        b, tau_c, tau = np.exp(_LOG_LO + _LOG_SPAN * rng.random((n_tuples, 3))).T
        # chi inline: x >= 0.05/10 needs no series, and chi is an input to
        # both routes, not the library's chi
        x = tau / tau_c
        chi_val = b**2 * tau_c**2 * (x + np.expm1(-x))
        at = np.flatnonzero(two_s**2 * chi_val <= 3.0)[:need]
        # rejections up to the last candidate kept; a round that keeps too few counts all
        rejected += (at[-1] + 1 if len(at) == need else n_tuples) - len(at)
        kept.append(np.column_stack([two_s, tau, chi_val])[at])
        need -= len(at)
    uniforms = _UNIFORM_LO + _UNIFORM_SPAN * rng.random((n_tuples, 5))
    return np.column_stack([np.concatenate(kept), uniforms]), int(rejected)


def oracle_checks(seed: int, n_tuples: int) -> tuple[float, float, float, dict]:
    """Worst relative disagreements of the two closed forms vs the SLD route,
    and the worst absolute spread of the spin-1 QFI over the state phases.

    A seed fixes the tuples: ``_oracle_draws`` draws them in batches from
    ``default_rng(seed)`` by rejection sampling.  The SLD route then builds,
    checks and diagonalizes the density matrices in stacks of at most
    _SLD_STACK_ENTRIES matrix entries (GHZ states grouped by dimension,
    spin-1 states at d = 3), sharing no code with the closed forms; the
    diagnostics, returned last, count the matrices and stacks per dimension.
    """
    rows, rejected = _oracle_draws(seed, n_tuples)
    two_s, tau, chi_val, omega, theta, phi, l1, l2 = rows.T

    counts: dict[str, dict[str, int]] = {}
    generic = np.empty(n_tuples)
    for k in np.unique(two_s):
        at = np.flatnonzero(two_s == k)
        amps = np.tile(ghz_like_state(SpinQuantumNumber(int(k))), (len(at), 1))
        generic[at] = _sld_values(amps, omega[at], tau[at], chi_val[at], counts)
    worst_ghz = _worst_rel(generic, _ghz_values(two_s, two_s**2 * chi_val, tau))

    chi1 = np.minimum(chi_val, 0.75)
    generic1 = _sld_values(_spin1_amplitudes(theta, phi, l1, l2), omega, tau, chi1, counts)
    worst_spin1 = _worst_rel(generic1, spin1_qfi_values(theta, phi, chi1, tau))

    # phase independence at a fixed interior point
    phases1, phases2 = np.meshgrid(np.linspace(0.0, 2 * math.pi, 7, endpoint=False),
                                   np.linspace(0.0, 2 * math.pi, 5, endpoint=False), indexing="ij")
    phase_amps = _spin1_amplitudes(0.7, 0.9, phases1.ravel(), phases2.ravel())
    vals = _sld_values(phase_amps, 0.8, 0.6, 0.2, counts)
    phase_spread = float(np.max(vals) - np.min(vals))
    diagnostics = {"tuples": n_tuples, "draws_rejected": rejected,
                   **{name: dict(sorted(t.items())) for name, t in counts.items()}}
    return worst_ghz, worst_spin1, phase_spread, diagnostics


def oracle_suite(seed: int) -> tuple[list[CheckResult], dict]:
    """``oracle_checks`` on 1000 tuples against their bounds."""
    worst_ghz, worst_spin1, phase_spread, diagnostics = oracle_checks(seed, 1000)
    return [
        _check("oracle ghz closed-form vs sld (worst rel)", worst_ghz, 0.0, 1e-8),
        _check("oracle spin-1 closed-form vs sld (worst rel)", worst_spin1, 0.0, 1e-8),
        _check("oracle spin-1 phase independence (abs spread)", phase_spread, 0.0, 1e-10),
    ], diagnostics


def estimator_suite(seed: int) -> tuple[list[CheckResult], dict]:
    """Fisher-information saturation and estimator efficiency at quadrature."""
    s = SpinQuantumNumber(8)
    noise = OUNoise(1.0, 0.1)
    tau = yield_rate(s, noise).tau_opt
    omega = math.pi / (2.0 * s.two_s * tau)
    cfi = classical_fisher(s, noise, tau, omega)
    qfi = ghz_qfi_values(s, noise, tau)
    # 4000 repetitions scatter std/CRB by ~1.1%, well inside the 5% bound
    run = simulate_and_estimate(s, noise, tau, omega, nu=10_000, seed=seed, repetitions=4000)
    return [
        _check("estimator cfi/qfi at quadrature", cfi / qfi, 1.0, 1e-12),
        _check("estimator sample std / crb", run.sample_std / run.crb, 1.0, 0.05),
        _check("estimator flagged runs", run.n_flagged, 0.0, 0.0),
    ], {"repetitions": run.repetitions,
        "rng_blocks": -(-run.repetitions // config.MC_BLOCK_SIZE), "flagged": run.n_flagged}


def dd_suite(seed: int = 0) -> tuple[list[CheckResult], dict]:
    """Fitted rate-vs-S exponents for pulsed control in both deep regimes."""
    checks = []
    s_grid = np.logspace(np.log10(1.0), np.log10(128.0), 12)
    qs_noise = OUNoise(1.0, 100.0)  # memory parameter >= 200 over the grid
    for n in (2.0, 3.0, 4.0):
        table = dd_scaling(DDProfile(n), s_grid, qs_noise)
        slope = table.fits["quasi_static"].slope
        checks.append(_check(f"dd quasi-static exponent n={n:g}", slope, 2.0 - 2.0 / n, 0.1))
    mk_noise = OUNoise(1.0, 1e-4)  # memory parameter <= 3e-3 over the grid
    s_grid_m = np.logspace(np.log10(0.5), np.log10(8.0), 10)
    table = dd_scaling(DDProfile(3.0), s_grid_m, mk_noise)
    checks.append(_check("dd markovian exponent n=3", table.fits["markovian"].slope, 0.0, 0.1))
    return checks, {}


SUITES = {
    "mc": mc_suite,
    "oracle": oracle_suite,
    "estimator": estimator_suite,
    "dd": dd_suite,
}
