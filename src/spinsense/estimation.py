"""Measurement-level closure of the estimation chain for the GHZ protocol.

The dephased GHZ-protocol state lives in the two-dimensional span of the
extremal S_z eigenstates, so the optimal measurement is the binary
projection onto (|S> +- |-S>)/sqrt(2).  Its outcome distribution is
P+ = (1 + V cos(2 S omega tau)) / 2 with visibility V = exp(-(2S)^2 chi),
whose Fisher information saturates the quantum bound at the quadrature
phase.  A closed-form maximum-likelihood estimator inverts the binomial
fraction and is benchmarked against the error bound 1/sqrt(nu F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .ou_noise import OUNoise, _check_count, _ghz_decay
from .qfi import _ghz_values
from .spin_ops import SpinQuantumNumber

# local-estimation window: the prior phase must sit on the monotone branch
_PHASE_LO = math.pi / 4
_PHASE_HI = 3 * math.pi / 4


@dataclass(frozen=True)
class EstimationRun:
    """Aggregate of repeated maximum-likelihood estimates against the bound.

    n_flagged counts repetitions whose empirical fraction fell outside the
    invertible branch; they are excluded from omega_hat and sample_std.
    """

    nu: int
    omega_true: float
    omega_hat: float
    sample_std: float
    crb: float
    repetitions: int
    n_flagged: int


def _signal_phase(s: SpinQuantumNumber, omega: float, tau: float) -> float:
    """theta = 2S omega tau; FloatingPointError where it is not finite."""
    theta = s.two_s * omega * tau
    if not math.isfinite(theta):
        raise FloatingPointError(
            f"signal phase 2S omega tau = {theta!r} is not finite at 2S={s.two_s:.16g}, "
            f"omega={omega!r}, tau={tau!r}")
    return theta


def outcome_probability(
    s: SpinQuantumNumber, noise: OUNoise, tau: float, omega: float
) -> tuple[float, float]:
    """Outcome distribution (P+, P-); sums to one exactly.  (1/2, 1/2)
    where V = 0, whatever the phase; elsewhere a phase 2S omega tau that is
    not finite raises FloatingPointError."""
    v = math.exp(-_ghz_decay(s.two_s, noise, tau))
    if v == 0.0:
        return 0.5, 0.5
    p_plus = 0.5 * (1.0 + v * math.cos(_signal_phase(s, omega, tau)))
    return p_plus, 1.0 - p_plus


def classical_fisher(s: SpinQuantumNumber, noise: OUNoise, tau: float, omega: float) -> float:
    """Fisher information of the binary outcome about omega.

    F = (2 S tau)^2 V^2 sin^2(theta) / (1 - V^2 cos^2(theta)) with
    theta = 2 S omega tau; equals the quantum Fisher information at
    theta = pi/2.  0 where V = 0; elsewhere a theta that is not finite
    raises FloatingPointError.  Where (2S tau)^2 overflows, (2S tau V)^2 is
    taken in logs, as for the QFI curve (``qfi._ghz_values``).
    """
    decay = _ghz_decay(s.two_s, noise, tau)
    v = math.exp(-decay)
    if v == 0.0:  # the outcome no longer depends on omega; (2S tau)^2 may overflow
        return 0.0
    theta = _signal_phase(s, omega, tau)
    vc = v * math.cos(theta)
    denom = 1.0 - vc * vc
    if denom <= 0:
        raise ValueError("degenerate outcome distribution: P is 0 or 1")
    try:
        square = (s.two_s * tau) ** 2
    except OverflowError:
        square_v2 = float(_ghz_values(float(s.two_s), decay, np.float64(tau)))
        return square_v2 * math.sin(theta) ** 2 / denom
    return square * v**2 * math.sin(theta) ** 2 / denom


def _binomial_counts(nu: int, p: float, seed: int, repetitions: int) -> np.ndarray:
    """Binomial(nu, p) counts of each repetition, drawn in blocks of
    ``config.MC_BLOCK_SIZE``: block j is one ``binomial`` call on a generator
    seeded (seed, j), so a repetition's count does not depend on how many
    repetitions are requested."""
    block = config.MC_BLOCK_SIZE
    return np.concatenate([
        np.random.default_rng([seed, j]).binomial(nu, p, size=min(block, repetitions - lo))
        for j, lo in enumerate(range(0, repetitions, block))
    ])


def simulate_and_estimate(
    s: SpinQuantumNumber,
    noise: OUNoise,
    tau: float,
    omega_true: float,
    nu: int,
    seed: int,
    *,
    repetitions: int = 200,
) -> EstimationRun:
    """Simulate nu binary outcomes per repetition and invert the MLE.

    The estimator solves (2 k/nu - 1) = V cos(2 S omega tau) for omega on
    the monotone branch theta in (0, pi); a fraction outside (-V, V) has no
    interior solution and flags the repetition.  The counts k are drawn in
    blocks of ``config.MC_BLOCK_SIZE`` repetitions, block j from a generator
    seeded as (seed, j), the scheme of ``mc_coherence``: results do not
    depend on how blocks are scheduled, and a run's counts are a prefix of
    any longer run's.  nu and repetitions must be integers >= 1 and seed an
    integer >= 0 (a bool or a float is refused).  With nu = 1 every repetition is flagged and the
    aggregate statistics are NaN.  A visibility that underflows to 0 leaves
    nothing to estimate and raises FloatingPointError before any draw.
    """
    _check_count("nu", nu)
    _check_count("repetitions", repetitions)
    _check_count("seed", seed, 0)
    theta_true = s.two_s * omega_true * tau
    if not (_PHASE_LO <= theta_true <= _PHASE_HI):
        raise ValueError(
            f"signal phase {theta_true:.4f} outside the local-estimation window "
            f"[{_PHASE_LO:.4f}, {_PHASE_HI:.4f}]; choose tau or omega so the "
            "phase sits near quadrature"
        )
    v = math.exp(-_ghz_decay(s.two_s, noise, tau))
    if v == 0.0:
        raise FloatingPointError(
            f"visibility exp(-(2S)^2 chi) underflows to 0 at 2S={s.two_s:.16g}, {noise!r}, "
            f"tau={tau!r}: the outcomes carry no information about omega")
    p_true, _ = outcome_probability(s, noise, tau, omega_true)
    counts = _binomial_counts(nu, p_true, seed, repetitions)
    arg = (2.0 * counts / nu - 1.0) / v
    valid = np.abs(arg) < 1.0
    estimates = np.arccos(arg[valid]) / (s.two_s * tau)
    n_flagged = int(repetitions - valid.sum())
    if len(estimates) >= 2:
        omega_hat = float(estimates.mean())
        sample_std = float(estimates.std(ddof=1))
    else:
        omega_hat = float("nan")
        sample_std = float("nan")
    fisher = classical_fisher(s, noise, tau, omega_true)
    crb = 1.0 / math.sqrt(nu * fisher)
    return EstimationRun(nu, omega_true, omega_hat, sample_std, crb, repetitions, n_flagged)
