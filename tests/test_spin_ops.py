import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsense import SpinQuantumNumber, dephase, drho_domega, ghz_like_state
from spinsense.spin_ops import _check_density, _check_norm, _spin1_amplitudes

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_state(two_s: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=two_s + 1) + 1j * rng.normal(size=two_s + 1)
    return amps / np.linalg.norm(amps)


def evolve_noisefree(psi: np.ndarray, omega: float, tau: float) -> np.ndarray:
    """exp(-i omega tau S_z) psi: amplitude at m picks up the phase -m omega tau."""
    m = (len(psi) - 1 - 2.0 * np.arange(len(psi))) / 2.0
    return psi * np.exp(-1j * m * omega * tau)


# strategy: a normalized random state of a small spin
states = st.builds(random_state, st.integers(1, 8), st.integers(0, 2**31 - 1))


class TestSpinQuantumNumber:
    def test_dimension(self):
        assert SpinQuantumNumber(1).dimension == 2
        assert SpinQuantumNumber(8).dimension == 9

    def test_from_s_half_integers(self):
        assert SpinQuantumNumber.from_s(0.5).two_s == 1
        assert SpinQuantumNumber.from_s(4).two_s == 8
        with pytest.raises(ValueError):
            SpinQuantumNumber.from_s(0.3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpinQuantumNumber(0)

    @pytest.mark.parametrize("s", [1e308, -1e308, math.inf, math.nan])
    def test_from_s_rejects_spin_whose_2s_is_not_finite(self, s):
        # 2 * 1e308 overflows to inf, which round() cannot turn into an integer
        with pytest.raises(ValueError, match="spin must be finite"):
            SpinQuantumNumber.from_s(s)

    def test_rejects_two_s_whose_float_overflows(self):
        # the rule of from_s at the type: 2S = 1e400 is refused where it is built,
        # not as an OverflowError (or a 0) on the route that later converts it
        with pytest.raises(ValueError, match="must fit a double"):
            SpinQuantumNumber(10**400)
        assert float(SpinQuantumNumber(int(1.7e308)).two_s) == 1.7e308


class TestOperators:
    """S_z, diagonal with m = S ... -S, generates the signal: d rho/d omega = -i tau [S_z, rho]."""

    @staticmethod
    def assert_generator(two_s, sz_diagonal):
        psi, omega, tau, chi = random_state(two_s, seed=two_s), 0.7, 1.3, 0.05
        rho = dephase(psi, omega, tau, chi)
        sz = np.diag(sz_diagonal)
        np.testing.assert_allclose(drho_domega(psi, omega, tau, chi),
                                   -1j * tau * (sz @ rho - rho @ sz), atol=1e-14)

    def test_sz_spin_half(self):
        self.assert_generator(1, [0.5, -0.5])

    def test_sz_spin_one(self):
        self.assert_generator(2, [1.0, 0.0, -1.0])

    def test_sz_spin_four(self):
        self.assert_generator(8, np.arange(4, -5, -1, dtype=float))


class TestStates:
    @pytest.mark.parametrize("two_s", [1, 2, 8])
    def test_ghz_like_amplitudes(self, two_s):
        psi = ghz_like_state(SpinQuantumNumber(two_s))
        assert psi[0] == pytest.approx(INV_SQRT2)
        assert psi[-1] == pytest.approx(INV_SQRT2)
        assert np.all(psi[1:-1] == 0)

    def test_spin1_ghz_point(self):
        psi = _spin1_amplitudes(np.pi / 4, np.pi / 2, 0.0, 0.0)
        np.testing.assert_allclose(psi, [INV_SQRT2, 0.0, INV_SQRT2], atol=1e-15)

    def test_spin1_pole(self):
        psi = _spin1_amplitudes(0.0, 0.7, 1.0, 2.0)
        np.testing.assert_allclose(psi, [1.0, 0.0, 0.0], atol=1e-15)

    def test_spin1_generic_point(self):
        psi = _spin1_amplitudes(np.pi / 4, np.pi / 4, 0.0, 0.0)
        np.testing.assert_allclose(psi, [INV_SQRT2, 0.5, 0.5], atol=1e-15)

    @given(
        theta=st.floats(0, np.pi, allow_nan=False),
        phi=st.floats(0, np.pi, allow_nan=False),
        l1=st.floats(0, 2 * np.pi, allow_nan=False),
        l2=st.floats(0, 2 * np.pi, allow_nan=False),
    )
    def test_spin1_always_normalized(self, theta, phi, l1, l2):
        _check_norm(_spin1_amplitudes(theta, phi, l1, l2))

    def test_purestate_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            dephase(np.array([1.0, 1.0]), 0.0, 1.0, 0.0)


class TestEvolveNoisefree:
    """Free evolution, as dephase performs it: at chi = 0 the state stays pure."""

    def test_identity_at_zero(self):
        psi = random_state(4, seed=1)
        pure = np.outer(psi, psi.conj())
        np.testing.assert_allclose(dephase(psi, 0.0, 5.0, 0.0), pure)
        np.testing.assert_allclose(dephase(psi, 3.0, 0.0, 0.0), pure)

    def test_ghz_half_pi_orthogonal(self):
        psi = ghz_like_state(SpinQuantumNumber(1))
        overlap_sq = np.vdot(psi, dephase(psi, np.pi, 1.0, 0.0) @ psi)  # |<psi|out>|^2
        assert abs(overlap_sq) == pytest.approx(0.0, abs=1e-24)

    def test_ghz_spin4_relative_phase(self):
        # omega tau = pi/8 puts relative phase 2 S omega tau = pi between m = +-4
        psi = ghz_like_state(SpinQuantumNumber(8))
        rel = dephase(psi, np.pi / 8, 1.0, 0.0)[0, -1]  # out_{+4} out_{-4}^*
        assert np.angle(rel) == pytest.approx(np.pi, abs=1e-12) or np.angle(rel) == pytest.approx(
            -np.pi, abs=1e-12
        )
        assert abs(rel) == pytest.approx(0.5)

    @given(psi=states, omega=st.floats(-10, 10), tau=st.floats(0, 10))
    def test_norm_preserved(self, psi, omega, tau):
        out = dephase(psi, omega, tau, 0.0)
        assert abs(np.trace(out) - 1.0) < 1e-12


class TestDephase:
    def test_zero_chi_is_pure_projector(self):
        psi = random_state(6, seed=7)
        rho = dephase(psi, 0.8, 1.3, 0.0)
        evolved = evolve_noisefree(psi, 0.8, 1.3)
        np.testing.assert_allclose(rho, np.outer(evolved, evolved.conj()), atol=1e-12)

    @pytest.mark.parametrize("two_s", [1, 2, 8])
    def test_ghz_coherence_magnitude(self, two_s):
        chi = 0.03
        rho = dephase(ghz_like_state(SpinQuantumNumber(two_s)), 0.4, 0.7, chi)
        assert abs(rho[0, -1]) == pytest.approx(0.5 * np.exp(-(two_s**2) * chi), rel=1e-12)
        # only the four corner entries are populated
        mask = np.zeros_like(rho, dtype=bool)
        mask[0, 0] = mask[0, -1] = mask[-1, 0] = mask[-1, -1] = True
        assert np.all(np.abs(rho[~mask]) == 0)

    def test_spin1_damping_vs_phase_sampling(self):
        # independent route: average exp(-i dm phase) over Gaussian phases of
        # variance 2 chi and compare each coherence's damping factor
        chi = 0.1
        psi = _spin1_amplitudes(np.pi / 4, np.pi / 4, 0.0, 0.0)
        rho = dephase(psi, 0.0, 1.0, chi)
        rng = np.random.default_rng(2024)
        phases = rng.normal(scale=np.sqrt(2 * chi), size=400_000)
        for dm, (i, j) in [(1, (0, 1)), (2, (0, 2))]:
            z = np.exp(-1j * dm * phases)
            se = z.real.std(ddof=1) / np.sqrt(len(z))
            bare = psi[i] * np.conj(psi[j])
            measured_damping = (rho[i, j] / bare).real
            assert abs(measured_damping - z.real.mean()) < 3 * se
            assert measured_damping == pytest.approx(np.exp(-(dm**2) * chi), rel=1e-12)

    def test_rejects_negative_chi(self):
        with pytest.raises(ValueError):
            dephase(ghz_like_state(SpinQuantumNumber(2)), 0.0, 1.0, -0.1)

    def test_rejects_nan_chi(self):
        psi = ghz_like_state(SpinQuantumNumber(2))
        for chi in (math.nan, [0.1, math.nan]):
            with pytest.raises(ValueError, match="chi must be nonnegative"):
                dephase([psi, psi], 0.0, 1.0, chi)

    def test_list_of_amplitudes_equals_array(self):
        psi = random_state(4, seed=3)
        assert np.array_equal(dephase(list(psi), 0.3, 0.9, 0.05), dephase(psi, 0.3, 0.9, 0.05))
        assert np.array_equal(drho_domega(list(psi), 0.3, 0.9, 0.05),
                              drho_domega(psi, 0.3, 0.9, 0.05))
        real = [INV_SQRT2, INV_SQRT2]
        assert np.array_equal(dephase(real, 0.1, 1.0, 0.0), dephase(np.array(real), 0.1, 1.0, 0.0))

    @given(psi=states, omega=st.floats(-5, 5), tau=st.floats(0, 5),
           chi1=st.floats(0, 2), chi2=st.floats(0, 2))
    @settings(max_examples=50)
    def test_monotone_damping(self, psi, omega, tau, chi1, chi2):
        lo, hi = sorted([chi1, chi2])
        r1 = np.abs(dephase(psi, omega, tau, lo))
        r2 = np.abs(dephase(psi, omega, tau, hi))
        assert np.all(r2 <= r1 + 1e-15)

    @pytest.mark.parametrize("two_s", [2, 4, 8])
    def test_spin_half_mapping(self, two_s):
        # GHZ-protocol spin-S block equals spin-1/2 with signal and damping
        # exponent scaled by 2S and (2S)^2
        omega, tau, chi = 0.37, 0.9, 0.004
        big = dephase(ghz_like_state(SpinQuantumNumber(two_s)), omega, tau, chi)
        block = np.array([[big[0, 0], big[0, -1]], [big[-1, 0], big[-1, -1]]])
        half = dephase(ghz_like_state(SpinQuantumNumber(1)), two_s * omega, tau, two_s**2 * chi)
        np.testing.assert_allclose(block, half, atol=1e-12)


class TestFidelity:
    def test_ghz_equals_param_point(self):
        a = ghz_like_state(SpinQuantumNumber(2))
        b = _spin1_amplitudes(np.pi / 4, np.pi / 2, 0.0, 0.0)
        assert abs(np.vdot(a, b)) == pytest.approx(1.0)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
            _check_density(rho, np.linalg.eigvalsh(rho))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            rho = np.eye(2, dtype=complex)
            _check_density(rho, np.linalg.eigvalsh(rho))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            rho = np.diag([1.5, -0.5]).astype(complex)
            _check_density(rho, np.linalg.eigvalsh(rho))

    @given(psi=states, omega=st.floats(-5, 5), tau=st.floats(0, 5), chi=st.floats(0, 3))
    @settings(max_examples=50)
    def test_dephase_output_always_valid(self, psi, omega, tau, chi):
        rho = dephase(psi, omega, tau, chi)
        _check_density(rho, np.linalg.eigvalsh(rho))
        assert rho.shape == (len(psi), len(psi))
        np.testing.assert_allclose(np.diag(rho).real, np.abs(psi) ** 2, atol=1e-12)


class TestStackedChecks:
    """The stacked dephase and density checks reject what the one-matrix checks
    reject, whichever matrix of the stack is at fault."""

    def stack(self):
        amps = np.array([random_state(3, seed) for seed in range(5)])
        return dephase(amps, np.linspace(-1, 1, 5), np.full(5, 0.7), np.full(5, 0.1))

    def test_matches_dephase_matrix_by_matrix(self):
        amps = np.array([random_state(4, seed) for seed in range(6)])
        omega, tau, chi = np.linspace(-2, 2, 6), np.linspace(0.1, 2, 6), np.linspace(0, 1, 6)
        rho = dephase(amps, omega, tau, chi)
        dm = np.subtract.outer(np.arange(5), np.arange(5))
        for i in range(6):
            evolved = evolve_noisefree(amps[i], omega[i], tau[i])
            ref = np.outer(evolved, evolved.conj()) * np.exp(-(dm**2) * chi[i])
            assert np.array_equal(rho[i], ref)
            assert np.array_equal(dephase(amps[i], omega[i], tau[i], chi[i]), ref)

    def test_valid_stack_passes(self):
        rho = self.stack()
        _check_density(rho, np.linalg.eigvalsh(rho))
        _check_density(rho, np.linalg.eigh(rho)[0])

    @pytest.mark.parametrize("corrupt", [
        lambda m: m + np.triu(np.full_like(m, 1e-6), 1),  # non-Hermitian
        lambda m: 1.01 * m,  # trace 1.01
        # imaginary trace 1.5e-12, spread so that Hermiticity alone would pass
        lambda m: m + 1.5e-12j * np.eye(len(m)) / len(m),
        lambda m: np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex),  # negative eigenvalue
    ])
    def test_rejects_what_density_matrix_rejects(self, corrupt):
        rho = self.stack()
        rho[2] = corrupt(rho[2])
        with pytest.raises(ValueError):
            _check_density(rho[2], np.linalg.eigvalsh(rho[2]))
        with pytest.raises(ValueError):
            _check_density(rho, np.linalg.eigvalsh(rho))
        with pytest.raises(ValueError):
            _check_density(rho, np.linalg.eigh(rho)[0])

    def test_rejects_unnormalized_row_and_negative_chi(self):
        amps = np.array([random_state(2, seed) for seed in range(3)])
        dephase(amps, 0.3, 0.5, np.array([0.0, 0.1, 0.2]))
        with pytest.raises(ValueError, match="chi"):
            dephase(amps, 0.3, 0.5, np.array([0.0, -0.1, 0.2]))
        amps[1] *= 1.001
        with pytest.raises(ValueError, match="normalized"):
            dephase(amps, 0.3, 0.5, 0.1)
