import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsense import (
    DDProfile,
    OUNoise,
    SpinQuantumNumber,
    chi,
    classical_fisher,
    dd_t2,
    dephase,
    ghz_like_state,
    outcome_probability,
    ghz_qfi_values,
    simulate_and_estimate,
    t2,
    yield_rate,
)
from spinsense import estimation
from spinsense.config import MC_BLOCK_SIZE
from spinsense.estimation import _binomial_counts
from spinsense.validate import estimator_suite


def finite_difference_cfi(s, noise, tau, omega, h=1e-6):
    """Independent route: F = sum (dP/domega)^2 / P over the two outcomes."""
    pp_hi, pm_hi = outcome_probability(s, noise, tau, omega + h)
    pp_lo, pm_lo = outcome_probability(s, noise, tau, omega - h)
    pp, pm = outcome_probability(s, noise, tau, omega)
    dpp = (pp_hi - pp_lo) / (2 * h)
    dpm = (pm_hi - pm_lo) / (2 * h)
    return dpp**2 / pp + dpm**2 / pm


def ghz_parity_projectors(s):
    """Projectors onto (|S> +- |-S>)/sqrt(2), the two outcomes of the parity readout."""
    plus = ghz_like_state(s)
    minus = plus.copy()
    minus[-1] *= -1.0
    return np.outer(plus, plus.conj()), np.outer(minus, minus.conj())


class TestOutcomeProbability:
    def test_full_visibility_zero_phase(self):
        s, noise = SpinQuantumNumber(1), OUNoise(1e-12, 0.1)  # chi ~ 0
        p_plus, p_minus = outcome_probability(s, noise, 0.0, 1.0)
        assert p_plus == pytest.approx(1.0)
        assert p_minus == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_phase_is_unbiased_coin(self):
        s, noise, tau = SpinQuantumNumber(8), OUNoise(1.0, 0.1), 0.2
        omega = (math.pi / 2) / (s.two_s * tau)
        p_plus, p_minus = outcome_probability(s, noise, tau, omega)
        assert p_plus == pytest.approx(0.5)
        assert p_minus == pytest.approx(0.5)

    def test_spin_four_reference_point(self):
        # V = exp(-64 chi(0.2)) = 0.48354..., phase pi/3 -> P+ = (1 + V/2)/2
        s, noise, tau = SpinQuantumNumber(8), OUNoise(1.0, 0.1), 0.2
        omega = (math.pi / 3) / (s.two_s * tau)
        p_plus, _ = outcome_probability(s, noise, tau, omega)
        v = math.exp(-64 * chi(noise, tau))
        assert p_plus == pytest.approx(0.5 * (1 + 0.5 * v), rel=1e-12)
        assert p_plus == pytest.approx(0.62089, abs=1e-4)

    @given(
        two_s=st.integers(1, 16),
        b=st.floats(0.01, 5),
        tau_c=st.floats(0.01, 10),
        tau=st.floats(0, 5),
        omega=st.floats(-20, 20),
    )
    @settings(max_examples=100)
    def test_probabilities_valid_and_sum_to_one(self, two_s, b, tau_c, tau, omega):
        p_plus, p_minus = outcome_probability(
            SpinQuantumNumber(two_s), OUNoise(b, tau_c), tau, omega
        )
        assert p_plus + p_minus == 1.0
        assert 0.0 <= p_plus <= 1.0
        assert 0.0 <= p_minus <= 1.0


class TestSpinWhoseSquareOverflows:
    # (2S)^2 = 4e600: V = 0 unless chi < ~1e-598, and the outcome is a fair coin
    S, NOISE = SpinQuantumNumber.from_s(1e300), OUNoise(1.0, 1.0)

    def test_outcome_probability(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome_probability(self.S, self.NOISE, 1.0, 1.0) == (0.5, 0.5)
            assert outcome_probability(self.S, self.NOISE, 0.0, 1.0) == (1.0, 0.0)
            # chi = tau^2/2 underflows at tau = 1e-300, but V = exp(-(2S)^2 chi) = e^-2
            p_plus, _ = outcome_probability(self.S, self.NOISE, 1e-300, 0.0)
            assert p_plus == pytest.approx(0.5 * (1 + math.exp(-2)), rel=1e-12)

    def test_classical_fisher(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classical_fisher(self.S, self.NOISE, 1.0, 1.0) == 0.0


class TestPhaseOrVisibilityOutOfRange:
    def test_overflowing_phase_where_v_is_zero(self):
        # 2S omega tau = 2e310 overflows, but V = 0: the outcome is a fair coin
        s, noise = SpinQuantumNumber.from_s(1e300), OUNoise(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome_probability(s, noise, 1e10, 1.0) == (0.5, 0.5)
            assert classical_fisher(s, noise, 1e10, 1.0) == 0.0

    @pytest.mark.parametrize("f", [outcome_probability, classical_fisher])
    def test_overflowing_phase_where_v_is_positive(self, f):
        s, noise = SpinQuantumNumber(2), OUNoise(1.0, 1.0)
        assert math.exp(-4 * chi(noise, 1.0)) == pytest.approx(0.23, abs=0.01)
        with pytest.raises(FloatingPointError, match="signal phase 2S omega tau = inf"):
            f(s, noise, 1.0, 1e308)

    @pytest.mark.parametrize("call", [
        lambda s: outcome_probability(s, OUNoise(1e-300, 1.0), 1.0, 1e10),  # V = e^-2
        lambda s: simulate_and_estimate(s, OUNoise(1.0, 1.0), 1.0, (math.pi / 2) / 2e300, 100, 0),
        lambda s: t2(s, OUNoise(1e10, 1.0)),
        lambda s: dd_t2(s, OUNoise(1e100, 1e-300), DDProfile(3)),
        lambda s: yield_rate(s, OUNoise(1e10, 1.0)),
    ], ids=["phase", "visibility", "t2", "dd_t2", "yield_rate"])
    def test_messages_print_a_huge_spin_compactly(self, call):
        with pytest.raises(FloatingPointError, match=r"at 2S=2e\+300, ") as info:
            call(SpinQuantumNumber(2 * 10**300))
        assert len(str(info.value)) < 200

    def test_messages_print_an_ordinary_spin_as_an_integer(self):
        with pytest.raises(FloatingPointError, match=r"^T2 at 2S=3, b=1e-200, tau_c=1.0 is"):
            t2(SpinQuantumNumber(3), OUNoise(1e-200, 1.0))

    def test_estimate_where_v_underflows(self, monkeypatch):
        s, noise, tau = SpinQuantumNumber(8), OUNoise(1.0, 1.0), 20.0
        assert math.exp(-64 * chi(noise, tau)) == 0.0

        def no_draw(*args):
            raise AssertionError("drew counts")

        monkeypatch.setattr(estimation, "_binomial_counts", no_draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="visibility .* underflows to 0"):
                simulate_and_estimate(s, noise, tau, (math.pi / 2) / 160, 100, 0)


class TestClassicalFisher:
    def test_saturates_qfi_at_quadrature(self):
        s, noise, tau = SpinQuantumNumber(8), OUNoise(1.0, 0.1), 0.2
        omega = (math.pi / 2) / (s.two_s * tau)
        cfi = classical_fisher(s, noise, tau, omega)
        qfi = ghz_qfi_values(s, noise, tau)
        assert abs(cfi - qfi) <= 1e-12 * qfi

    def test_saturates_qfi_where_the_squared_phase_scale_overflows(self):
        # (2S tau)^2 = 1e320 overflows, but (2S tau V)^2 sin^2 / (1 - V^2 cos^2) does not
        s, tau = SpinQuantumNumber(10**150), 1e10
        noise = OUNoise(math.sqrt(40) * 1e-160, 1e300)
        omega = math.pi / (2 * 10**150 * tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfi = classical_fisher(s, noise, tau, omega)
        assert cfi == pytest.approx(ghz_qfi_values(s, noise, tau), rel=1e-12)
        assert cfi == pytest.approx(4.2484e302, rel=1e-4)

    def test_zero_at_zero_phase_with_damping(self):
        s, noise = SpinQuantumNumber(2), OUNoise(1.0, 0.5)
        assert classical_fisher(s, noise, 0.5, 0.0) == 0.0

    def test_matches_finite_difference(self):
        s, noise, tau = SpinQuantumNumber(4), OUNoise(1.0, 0.2), 0.25
        for frac in (0.2, 0.45, 0.5, 0.7):
            omega = (math.pi * frac) / (s.two_s * tau)
            analytic = classical_fisher(s, noise, tau, omega)
            fd = finite_difference_cfi(s, noise, tau, omega)
            assert analytic == pytest.approx(fd, rel=1e-8)

    def test_rejects_degenerate_distribution(self):
        s, noise = SpinQuantumNumber(1), OUNoise(1e-12, 0.1)  # visibility ~ 1
        with pytest.raises(ValueError):
            classical_fisher(s, noise, 0.0, 0.0)  # theta = 0, P = (1, 0)

    def test_bounded_by_qfi_everywhere(self):
        s, noise, tau = SpinQuantumNumber(4), OUNoise(1.0, 0.15), 0.3
        qfi = ghz_qfi_values(s, noise, tau)
        for frac in np.linspace(0.02, 0.98, 45):
            omega = (math.pi * frac) / (s.two_s * tau)
            assert classical_fisher(s, noise, tau, omega) <= qfi * (1 + 1e-12)


class TestBinaryMeasurement:
    def test_complement_has_zero_probability_on_protocol_states(self):
        s, noise, tau = SpinQuantumNumber(4), OUNoise(1.0, 0.1), 0.3
        proj_plus, proj_minus = ghz_parity_projectors(s)
        rho = dephase(ghz_like_state(s), 0.7, tau, chi(noise, tau))
        rest = np.eye(s.dimension) - proj_plus - proj_minus
        assert abs(np.trace(rest @ rho)) < 1e-14

    def test_projector_probabilities_match_closed_form(self):
        s, noise, tau, omega = SpinQuantumNumber(4), OUNoise(1.0, 0.1), 0.3, 0.9
        proj_plus, proj_minus = ghz_parity_projectors(s)
        rho = dephase(ghz_like_state(s), omega, tau, chi(noise, tau))
        p_plus, p_minus = outcome_probability(s, noise, tau, omega)
        assert np.trace(proj_plus @ rho).real == pytest.approx(p_plus, rel=1e-12)
        assert np.trace(proj_minus @ rho).real == pytest.approx(p_minus, rel=1e-12)


class TestSimulateAndEstimate:
    def test_near_noiseless_matches_projection_limit(self):
        # V ~ 1: sample std -> 1/(2 S tau sqrt(nu))
        s, noise, tau = SpinQuantumNumber(4), OUNoise(1e-9, 0.1), 0.5
        omega = (math.pi / 2) / (s.two_s * tau)
        run = simulate_and_estimate(s, noise, tau, omega, nu=10_000, seed=7, repetitions=400)
        assert run.sample_std == pytest.approx(1.0 / (s.two_s * tau * math.sqrt(run.nu)), rel=0.05)
        assert run.n_flagged == 0

    def test_saturates_crb_at_optimal_time(self):
        s, noise = SpinQuantumNumber(8), OUNoise(1.0, 0.1)
        tau = yield_rate(s, noise).tau_opt
        omega = (math.pi / 2) / (s.two_s * tau)
        run = simulate_and_estimate(s, noise, tau, omega, nu=10_000, seed=3, repetitions=500)
        assert run.sample_std == pytest.approx(run.crb, rel=0.05)
        assert 0.95 <= run.sample_std / run.crb <= 1.10

    def test_small_bias(self):
        s, noise = SpinQuantumNumber(8), OUNoise(1.0, 0.1)
        tau = yield_rate(s, noise).tau_opt
        omega = (math.pi / 2) / (s.two_s * tau)
        run = simulate_and_estimate(s, noise, tau, omega, nu=10_000, seed=3, repetitions=500)
        assert abs(run.omega_hat - omega) < run.sample_std / math.sqrt(run.repetitions)

    def test_single_shot_always_flagged(self):
        s, noise, tau = SpinQuantumNumber(2), OUNoise(1.0, 0.3), 0.2
        omega = (math.pi / 2) / (s.two_s * tau)
        run = simulate_and_estimate(s, noise, tau, omega, nu=1, seed=5, repetitions=50)
        assert run.n_flagged == run.repetitions
        assert math.isnan(run.omega_hat) and math.isnan(run.sample_std)

    def test_rejects_phase_outside_local_window(self):
        s, noise, tau = SpinQuantumNumber(2), OUNoise(1.0, 0.3), 0.2
        with pytest.raises(ValueError, match="local-estimation"):
            simulate_and_estimate(s, noise, tau, 0.0, nu=100, seed=1)

    def test_deterministic_given_seed(self):
        s, noise, tau = SpinQuantumNumber(4), OUNoise(1.0, 0.1), 0.15
        omega = (math.pi / 2) / (s.two_s * tau)
        a = simulate_and_estimate(s, noise, tau, omega, nu=500, seed=11, repetitions=60)
        b = simulate_and_estimate(s, noise, tau, omega, nu=500, seed=11, repetitions=60)
        assert a == b

    @pytest.mark.parametrize("bad", [{"nu": 500.7}, {"nu": 500.0}, {"nu": True},
                                     {"repetitions": True}, {"repetitions": 60.0},
                                     {"nu": 0}, {"repetitions": 0},
                                     {"seed": -1}, {"seed": 1.5}, {"seed": True}])
    def test_rejects_non_integer_counts(self, bad):
        s, noise, tau = SpinQuantumNumber(4), OUNoise(1.0, 0.1), 0.15
        omega = (math.pi / 2) / (s.two_s * tau)
        kwargs = {"nu": 500, "repetitions": 60, "seed": 11, **bad}
        with pytest.raises(ValueError, match="^(nu|repetitions|seed) must be"):
            simulate_and_estimate(s, noise, tau, omega, **kwargs)

    def test_accepts_numpy_integers(self):
        s, noise, tau = SpinQuantumNumber(4), OUNoise(1.0, 0.1), 0.15
        omega = (math.pi / 2) / (s.two_s * tau)
        a = simulate_and_estimate(s, noise, tau, omega, nu=np.int64(500), seed=11,
                                  repetitions=np.int32(60))
        assert a == simulate_and_estimate(s, noise, tau, omega, nu=500, seed=11, repetitions=60)


class TestBlockSeededCounts:
    def test_counts_match_per_block_generators(self):
        # 5000 repetitions span two blocks; block j is one binomial call on (seed, j)
        nu, p, seed, reps = 500, 0.37, 11, 5000
        reference = np.concatenate([
            np.random.default_rng([seed, 0]).binomial(nu, p, size=MC_BLOCK_SIZE),
            np.random.default_rng([seed, 1]).binomial(nu, p, size=reps - MC_BLOCK_SIZE),
        ])
        counts = _binomial_counts(nu, p, seed, reps)
        np.testing.assert_array_equal(counts, reference)
        np.testing.assert_array_equal(_binomial_counts(nu, p, seed, 60), reference[:60])

    def test_run_is_the_estimate_of_the_block_counts(self):
        s, noise, tau = SpinQuantumNumber(4), OUNoise(1.0, 0.1), 0.15
        omega = (math.pi / 2) / (s.two_s * tau)
        run = simulate_and_estimate(s, noise, tau, omega, nu=500, seed=11, repetitions=5000)
        p_plus, _ = outcome_probability(s, noise, tau, omega)
        counts = _binomial_counts(500, p_plus, 11, 5000)
        v = math.exp(-s.two_s**2 * chi(noise, tau))
        arg = (2.0 * counts / 500 - 1.0) / v
        estimates = np.arccos(arg[np.abs(arg) < 1.0]) / (s.two_s * tau)
        assert run.n_flagged == 5000 - len(estimates)
        assert run.omega_hat == float(estimates.mean())
        assert run.sample_std == float(estimates.std(ddof=1))


class TestEstimatorSuite:
    def test_passes_at_every_seed_0_to_199(self):
        # 4000 repetitions scatter std/CRB by ~1.1% against the 5% tolerance
        failing = [seed for seed in range(200) if not all(c.passed for c in estimator_suite(seed)[0])]
        assert failing == []
