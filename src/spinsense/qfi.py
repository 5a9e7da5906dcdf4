"""Quantum Fisher information for the frequency of a dephased spin.

Three routes are provided and cross-validated against each other:

* closed form for the extremal-superposition (GHZ-like) protocol,
  F = (2S)^2 tau^2 exp(-2 (2S)^2 chi);
* a closed form for the general four-angle spin-1 state, written as a ratio
  of trigonometric polynomials so it stays finite at every angle;
* a generic mixed-state evaluator that diagonalizes rho and sums the
  symmetric-logarithmic-derivative series (``qfi_generic``), used as the
  independent oracle; it runs on stacks of matrices, one value per matrix.

Where the closed forms and the generic route disagree beyond tolerance, the
generic route is authoritative.
"""

from __future__ import annotations

import numpy as np

from . import config
from .ou_noise import OUNoise, _ghz_decay
from .spin_ops import SpinQuantumNumber, _check_density, _delta_m, dephase

_DRHO_HERMITICITY_TOL = 1e-10


def _ghz_values(two_s, decay, t):
    """(2S tau)^2 exp(-2 decay) with decay = (2S)^2 chi, for any coherence law;
    broadcasts.  Where (2S tau)^2 overflows, it is exp(2 log 2S + 2 log tau - 2 decay)."""
    with np.errstate(all="ignore"):  # inf * 0 and log 0 only where np.where drops them
        square = (two_s * t) ** 2
        return np.where(square < np.inf, square * np.exp(-2.0 * decay),
                        np.exp(2.0 * (np.log(two_s) + np.log(t)) - 2.0 * decay))


def ghz_qfi_values(s: SpinQuantumNumber, noise: OUNoise, tau) -> float | np.ndarray:
    """Vectorized noisy GHZ-protocol QFI, (2S tau)^2 exp(-2 (2S)^2 chi(tau)), with
    (2S)^2 chi from ``_ghz_decay``, and in logs where (2S tau)^2 overflows."""
    t = np.asarray(tau, dtype=float)
    out = _ghz_values(float(s.two_s), _ghz_decay(s.two_s, noise, t), t)
    return float(out) if out.ndim == 0 else out


def _spin1_coefficients(theta, phi):
    """Coefficients of the spin-1 QFI as polynomials in D = exp(-2 chi).

    Returns (p, q) in ascending powers of D such that
    F = tau^2 D p(D) / q(D); p has degree 6 and carries the prefactor
    4 sin^2 theta, q has degree 3.  Works on floats and on arrays, whose
    coefficients broadcast like theta and phi.
    """
    ct2, st2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    cf2, sf2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    w = ct2 + st2 * sf2
    k = 4.0 * st2
    ascf = ct2 * st2 * cf2 * sf2
    high = k * 4.0 * (ct2 * sf2) ** 2  # shared by D^4, D^5 and D^6
    p = (
        k * (ct2**2 * cf2 * (cf2 + 2.0 * sf2) + 2.0 * ascf * (cf2 + sf2) + (st2 * cf2 * sf2) ** 2),
        k * 2.0 * ct2 * cf2 * sf2 * (ct2 + 2.0 * st2 * cf2 + st2 * sf2),
        k * -4.0 * ascf * cf2,
        k * 4.0 * ct2 * sf2 * (ct2 * cf2 + ct2 * sf2 + st2 * cf2 * sf2),
        high,
        high,
        high,
    )
    q1 = ct2 * w * sf2 + 2.0 * ascf  # also the D^2 coefficient
    q = (
        q1 + cf2 * (cf2 * w * st2 + ct2**2 + (st2 * sf2) ** 2),
        q1,
        q1,
        ct2 * w * sf2,
    )
    return p, q


def _spin1_from_coefficients(p, q, d, scale):
    """scale D p(D) / q(D) by Horner's rule; 0 where q vanishes.

    The QFI with scale = tau^2, F/tau with scale = tau, which stays finite
    where tau^2 would overflow.
    """
    num = p[6]
    for c in p[5::-1]:
        num = num * d + c
    den = q[3]
    for c in q[2::-1]:
        den = den * d + c
    ok = den > 1e-280
    return np.where(ok, scale * d * num / np.where(ok, den, 1.0), 0.0)


def _spin1_log_slope(p, q, d):
    """d log(D p(D)/q(D)) / d log D = 1 + D p'/p - D q'/q, by Horner's rule."""
    num, dnum = p[6], 0.0
    for c in p[5::-1]:
        dnum = dnum * d + num
        num = num * d + c
    den, dden = q[3], 0.0
    for c in q[2::-1]:
        dden = dden * d + den
        den = den * d + c
    return 1.0 + d * (dnum / num - dden / den)


def spin1_qfi_values(theta, phi, chi_value, tau) -> np.ndarray:
    """Vectorized spin-1 QFI for the four-angle state family; broadcasts.

    With D = exp(-2 chi) the QFI is F = 4 tau^2 D sin^2(theta) P(D)/Q(D):
    P has degree 6 and Q degree 3, and their coefficients are trigonometric
    polynomials in theta and phi alone.  Written in the decaying variable D
    it neither overflows at large chi nor hits the removable cot
    singularities of the literal expression at the axes.  A bare S_z
    eigenstate carries no frequency information and returns 0: sin theta
    vanishes at |+1>, Q at |0> and |-1>.  The result is independent of the
    two relative phases of the state family.
    """
    theta, phi, chi_value, tau = (np.asarray(a, dtype=float) for a in (theta, phi, chi_value, tau))
    if not np.all(chi_value >= 0):
        raise ValueError("chi must be nonnegative")
    p, q = _spin1_coefficients(theta, phi)
    return _spin1_from_coefficients(p, q, np.exp(-2.0 * chi_value), tau * tau)


def drho_domega(amps: np.ndarray, omega, tau, chi_value) -> np.ndarray:
    """Analytic derivative of ``dephase(amps, omega, tau, chi_value)`` with
    respect to omega, on the same (..., d) rows.

    Entry (m, n) of the dephased matrix carries the phase e^{-i(m-n) omega
    tau}, so the derivative multiplies it by -i(m-n) tau; Hermitian and
    traceless by construction.
    """
    rho = dephase(amps, omega, tau, chi_value)
    tau = np.asarray(tau, dtype=float)[..., None, None]
    return rho * (-1j * _delta_m(rho.shape[-1]) * tau)


def qfi_generic(rho: np.ndarray, drho: np.ndarray):
    """Mixed-state QFI of each matrix of (..., d, d) stacks of rho and drho.

    F = sum over eigenpairs of 2 |<i| drho |j>|^2 / (p_i + p_j), skipping
    pairs with p_i + p_j <= ``config.SLD_EIGENVALUE_CUTOFF``.  Works for any
    parameterization; serves as the independent oracle for the closed forms.
    One batched eigh, whose eigenvalues serve the density checks of rho
    (``_check_density``).
    """
    if np.max(np.abs(drho - drho.conj().swapaxes(-1, -2))) > _DRHO_HERMITICITY_TOL:
        raise ValueError("drho is not Hermitian")
    p, u = np.linalg.eigh(rho)
    _check_density(rho, p)
    m = u.conj().swapaxes(-1, -2) @ drho @ u
    denom = p[..., :, None] + p[..., None, :]
    keep = denom > config.SLD_EIGENVALUE_CUTOFF
    terms = 2.0 * np.abs(m) ** 2 * keep / np.where(keep, denom, 1.0)
    return terms.reshape(*terms.shape[:-2], -1).sum(axis=-1)
