"""Exact spin-S linear algebra in the S_z eigenbasis.

States and operators are indexed by the magnetic quantum number
m = S, S-1, ..., -S (row 0 is m = +S).  The field couples through S_z only,
so free evolution is a diagonal phase and pure dephasing damps the (m, n)
coherence by exp(-(m-n)^2 * chi).  States are plain amplitude arrays with m
on the last axis, and every operation takes stacks of them.

Units: the gyromagnetic ratio is fixed to 1, so the estimated parameter is
the angular frequency omega (equal to the field magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _check_norm(amps: np.ndarray) -> None:
    """Raise ValueError unless every amplitude row (last axis) has unit norm."""
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    if np.any(bad := np.abs(norm_sq - 1.0) > NORM_TOL):
        raise ValueError(f"state not normalized: sum |psi|^2 = {float(norm_sq[bad].flat[0])!r}")


def _check_density(rho: np.ndarray, eigenvalues: np.ndarray) -> None:
    """Raise ValueError unless every (d, d) matrix of the stack rho is Hermitian,
    has trace 1 and no eigenvalue below EIGENVALUE_FLOOR.  ``eigenvalues``
    (ascending, per matrix) are the caller's, which has diagonalized rho."""
    if np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    trace = np.asarray(np.trace(rho, axis1=-2, axis2=-1))
    if np.any(bad := (np.abs(trace.real - 1.0) > TRACE_TOL) | (np.abs(trace.imag) > TRACE_TOL)):
        raise ValueError(f"trace must be 1, got {complex(trace[bad].flat[0])!r}")
    if np.any(eigenvalues[..., 0] < EIGENVALUE_FLOOR):
        raise ValueError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class SpinQuantumNumber:
    """Spin S stored as the doubled integer 2S, keeping half-integers exact."""

    two_s: int

    def __post_init__(self):
        if not isinstance(self.two_s, (int, np.integer)) or self.two_s < 1:
            raise ValueError(f"two_s must be a positive integer, got {self.two_s!r}")
        if self.two_s > float(np.finfo(float).max):  # from_s's rule: 2S finite as a double
            raise ValueError(f"two_s must fit a double, got {self.two_s.bit_length()} bits")

    @classmethod
    def from_s(cls, s: float) -> "SpinQuantumNumber":
        if not math.isfinite(2 * s):  # 2S of a finite s may still overflow
            raise ValueError(f"spin must be finite, with 2S finite, got {s!r}")
        two_s = round(2 * s)
        if abs(2 * s - two_s) > 1e-9:
            raise ValueError(f"spin must be a half-integer, got {s!r}")
        return cls(int(two_s))

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @property
    def dimension(self) -> int:
        return self.two_s + 1


def ghz_like_state(s: SpinQuantumNumber) -> np.ndarray:
    """Amplitudes of the equal superposition of the extremal S_z eigenstates,
    (|S> + |-S>)/sqrt(2)."""
    amps = np.zeros(s.dimension, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return amps


def _spin1_amplitudes(theta, phi, lambda1, lambda2) -> np.ndarray:
    """Amplitudes of the four-angle spin-1 state family for arrays of angles,
    m = (1, 0, -1) on the last axis:
    (cos theta, e^{i lambda1} sin theta cos phi, e^{i lambda2} sin theta sin phi),
    normalized for every parameter value by construction."""
    return np.stack(np.broadcast_arrays(
        np.cos(theta),
        np.exp(1j * lambda1) * np.sin(theta) * np.cos(phi),
        np.exp(1j * lambda2) * np.sin(theta) * np.sin(phi),
    ), axis=-1)


def _delta_m(dim: int) -> np.ndarray:
    # m_i - m_j = j - i with rows ordered m = S ... -S
    idx = np.arange(dim)
    return (idx[None, :] - idx[:, None]).astype(float)


def dephase(amps, omega, tau, chi) -> np.ndarray:
    """Evolved state averaged over Gaussian phase noise of half-variance chi.

    Amplitude rows (..., d) give (..., d, d) matrices; omega, tau and chi are
    scalars or one value per row.  Entry (m, n) of a matrix is
    psi_m psi_n^* e^{-i(m-n) omega tau} e^{-(m-n)^2 chi}: populations are
    untouched while each coherence is damped by the square of its
    quantum-number distance.  The damping kernel is positive definite, so a
    normalized row gives a valid density matrix.  Checks each evolved row's
    norm; the density checks are the caller's (``_check_density``).
    """
    amps = np.asarray(amps, dtype=complex)
    omega, tau, chi = (np.asarray(a, dtype=float)[..., None] for a in (omega, tau, chi))
    if not np.all(chi >= 0):
        raise ValueError(f"chi must be nonnegative, got {float(np.min(chi))!r}")
    m = (amps.shape[-1] - 1 - 2.0 * np.arange(amps.shape[-1])) / 2.0
    evolved = amps * np.exp(-1j * m * omega * tau)
    _check_norm(evolved)
    dm = _delta_m(amps.shape[-1])
    return evolved[..., :, None] * evolved.conj()[..., None, :] * np.exp(-(dm**2) * chi[..., None])
