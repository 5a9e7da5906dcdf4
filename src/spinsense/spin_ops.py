"""Exact spin-S linear algebra in the S_z eigenbasis.

States and operators are indexed by the magnetic quantum number
m = S, S-1, ..., -S (row 0 is m = +S).  The field couples through S_z only,
so free evolution is a diagonal phase and pure dephasing damps the (m, n)
coherence by exp(-(m-n)^2 * chi).  All types are immutable values and all
operations are pure functions.

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


def _check_density(rho: np.ndarray, eigenvalues: np.ndarray | None = None) -> None:
    """Raise ValueError unless every (d, d) matrix of the stack rho is Hermitian,
    has trace 1 and no eigenvalue below EIGENVALUE_FLOOR.  ``eigenvalues``
    (ascending) spare a second diagonalization; else eigvalsh runs last."""
    if np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    trace = np.asarray(np.trace(rho, axis1=-2, axis2=-1))
    if np.any(bad := (np.abs(trace.real - 1.0) > TRACE_TOL) | (np.abs(trace.imag) > TRACE_TOL)):
        raise ValueError(f"trace must be 1, got {complex(trace[bad].flat[0])!r}")
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(rho)
    if np.any(eigenvalues[..., 0] < EIGENVALUE_FLOOR):
        raise ValueError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class SpinQuantumNumber:
    """Spin S stored as the doubled integer 2S, keeping half-integers exact."""

    two_s: int

    def __post_init__(self):
        if not isinstance(self.two_s, (int, np.integer)) or self.two_s < 1:
            raise ValueError(f"two_s must be a positive integer, got {self.two_s!r}")

    @classmethod
    def from_s(cls, s: float) -> "SpinQuantumNumber":
        if not math.isfinite(s):
            raise ValueError(f"spin must be finite, got {s!r}")
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

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers S, S-1, ..., -S."""
        return (self.two_s - 2.0 * np.arange(self.dimension)) / 2.0


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over the S_z eigenbasis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        _check_norm(amps)
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix over the S_z basis."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        _check_density(rho)
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spin1Params:
    """Four-angle parameterization of a general pure spin-1 state.

    Amplitudes on m = (1, 0, -1) are
    (cos Theta, e^{i lambda1} sin Theta cos Phi, e^{i lambda2} sin Theta sin Phi),
    normalized for every parameter value by construction.
    """

    theta: float
    phi: float
    lambda1: float = 0.0
    lambda2: float = 0.0


def sz_operator(s: SpinQuantumNumber) -> np.ndarray:
    """Diagonal S_z matrix with entries m = S, S-1, ..., -S."""
    return np.diag(s.m_values())


def ghz_like_state(s: SpinQuantumNumber) -> PureState:
    """Equal superposition of the extremal S_z eigenstates, (|S> + |-S>)/sqrt(2)."""
    amps = np.zeros(s.dimension, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(amps)


def spin1_param_state(p: Spin1Params) -> PureState:
    return PureState(_spin1_amplitudes(p.theta, p.phi, p.lambda1, p.lambda2))


def _spin1_amplitudes(theta, phi, lambda1, lambda2) -> np.ndarray:
    """Spin1Params amplitudes for arrays of angles, m = (1, 0, -1) on the last axis."""
    return np.stack(np.broadcast_arrays(
        np.cos(theta),
        np.exp(1j * lambda1) * np.sin(theta) * np.cos(phi),
        np.exp(1j * lambda2) * np.sin(theta) * np.sin(phi),
    ), axis=-1)


def _delta_m(dim: int) -> np.ndarray:
    # m_i - m_j = j - i with rows ordered m = S ... -S
    idx = np.arange(dim)
    return (idx[None, :] - idx[:, None]).astype(float)


def evolve_noisefree(psi: PureState, omega: float, tau: float) -> PureState:
    """Apply exp(-i omega tau S_z): amplitude at m picks up the phase -m omega tau."""
    m = (len(psi.amplitudes) - 1 - 2.0 * np.arange(len(psi.amplitudes))) / 2.0
    return PureState(psi.amplitudes * np.exp(-1j * m * omega * tau))


def dephase(psi: PureState, omega: float, tau: float, chi: float) -> DensityMatrix:
    """Evolved state averaged over Gaussian phase noise of half-variance chi.

    Entry (m, n) of the result is psi_m psi_n^* e^{-i(m-n) omega tau}
    e^{-(m-n)^2 chi}: populations are untouched while each coherence is
    damped by the square of its quantum-number distance.  The damping kernel
    is positive definite, so the output stays a valid density matrix.
    """
    return DensityMatrix(_dephase_stack(psi.amplitudes[None], omega, tau, chi)[0])


def _dephase_stack(amps: np.ndarray, omega, tau, chi) -> np.ndarray:
    """``dephase`` on stacks: amplitude rows (n, d) with omega, tau and chi per
    row (or scalars) give (n, d, d) matrices.  Checks each evolved row's norm;
    the density checks are the caller's (``_check_density``)."""
    omega, tau, chi = (np.asarray(a, dtype=float)[..., None] for a in (omega, tau, chi))
    if np.any(chi < 0):
        raise ValueError(f"chi must be nonnegative, got {float(np.min(chi))!r}")
    m = (amps.shape[-1] - 1 - 2.0 * np.arange(amps.shape[-1])) / 2.0
    evolved = amps * np.exp(-1j * m * omega * tau)
    _check_norm(evolved)
    dm = _delta_m(amps.shape[-1])
    return evolved[:, :, None] * evolved.conj()[:, None, :] * np.exp(-(dm**2) * chi[..., None])


def fidelity(a: PureState, b: PureState) -> float:
    """Absolute value of the inner product, |<a|b>|."""
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)))
