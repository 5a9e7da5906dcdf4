import math
import sys
import threading
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from spinsense import (
    DDProfile,
    OUNoise,
    SpinQuantumNumber,
    chi,
    classify,
    dd_chi,
    dd_t2,
    ghz_qfi_values,
    mc_coherence,
    t2,
)
from spinsense import config, ou_noise
from spinsense.ou_noise import (
    _LOG_CHI_SERIES_BELOW,
    _dd_law,
    _free_law,
    _law_roots,
    _mc_steps,
    _phase_weights,
)
from spinsense.validate import MC_GRID

mp.mp.dps = 40


def t2_highprec(two_s, b, tau_c) -> float:
    """Root of (2S)^2 chi(T2) = 1 at 40 digits, from the mpmath closed form."""
    two_s, b, tau_c = map(mp.mpf, (two_s, b, tau_c))
    k = two_s * b
    estimate = max(mp.sqrt(2) / k, 1 / (k**2 * tau_c))
    f = lambda t: k**2 * tau_c**2 * (t / tau_c + mp.expm1(-t / tau_c)) - 1
    # x + expm1(-x) cancels 2 |log10 x| digits where x = t/tau_c is small
    with mp.workdps(40 + 2 * max(0, int(-mp.log10(estimate / tau_c)))):
        return float(mp.findroot(f, (estimate, 2 * estimate), solver="anderson"))


def chi_highprec(b, tau_c, tau) -> float:
    """Independent arbitrary-precision route for the closed form."""
    b, tau_c, tau = map(mp.mpf, (b, tau_c, tau))
    x = tau / tau_c
    return float(b**2 * tau_c**2 * (x + mp.e**-x - 1))


class TestChi:
    def test_zero(self):
        assert chi(OUNoise(1.0, 0.1), 0.0) == 0.0

    def test_reference_values(self):
        noise = OUNoise(1.0, 0.1)
        # 0.01 * (10 + e^-10 - 1) and 0.01 * (2 + e^-2 - 1)
        assert chi(noise, 1.0) == pytest.approx(0.09000045399929762, rel=1e-14)
        assert chi(noise, 0.2) == pytest.approx(0.011353352832366127, rel=1e-14)

    @pytest.mark.parametrize(
        "b,tau_c,tau",
        [(1.0, 0.1, 1.0), (1.0, 0.1, 0.2), (2.5, 3.0, 0.7), (0.3, 50.0, 4.0),
         (1.0, 1.0, 1e-5), (1.0, 1.0, 1e-7), (4.0, 0.01, 100.0)],
    )
    def test_against_high_precision(self, b, tau_c, tau):
        assert chi(OUNoise(b, tau_c), tau) == pytest.approx(
            chi_highprec(b, tau_c, tau), rel=1e-13
        )

    @pytest.mark.parametrize("b,tau_c", [(1.0, 1.0), (2.5, 3.0), (1e3, 1e-3)])
    def test_against_high_precision_over_sixteen_decades(self, b, tau_c):
        taus = tau_c * np.logspace(-8, 8, 321)
        got = chi(OUNoise(b, tau_c), taus)
        # x + expm1(-x) cancels 2 |log10 x| digits where x = tau/tau_c is small
        with mp.workdps(60):
            ref = [chi_highprec(b, tau_c, tau) for tau in taus]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("law", ["free", "pulsed"])
    def test_finite_where_the_linear_form_overflows(self, law):
        # b^2 tau_c^2 = 1e100 and tau/tau_c = 1e50 (both in range), but b^2
        # alone overflows; chi = b^2 tau_c tau = 1e150 in both laws at x >> 1
        noise, tau = OUNoise(1e200, 1e-150), 1e-100
        value = chi(noise, tau) if law == "free" else dd_chi(noise, DDProfile(3.0), tau)
        assert value == pytest.approx(1e150, rel=1e-13)

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("law", ["free", "pulsed"])
    def test_rejects_tau_not_nonnegative_and_finite(self, law, tau):
        noise = OUNoise(1.0, 1.0)
        for value in (tau, np.array([0.5, tau])):
            with pytest.raises(ValueError, match="tau must be nonnegative and finite"):
                chi(noise, value) if law == "free" else dd_chi(noise, DDProfile(3.0), value)

    @pytest.mark.parametrize("x", [1.01e-4, 3e-4, 1e-3, 1e-2, _LOG_CHI_SERIES_BELOW])
    def test_just_above_series_switch(self, x):
        # x + expm1(-x) keeps full accuracy where x + exp(-x) - 1 cancels
        assert chi(OUNoise(1.0, 1.0), x) == pytest.approx(chi_highprec(1.0, 1.0, x), rel=1e-12)

    def test_series_branch_matches_direct_branch(self):
        # continuity and accuracy around x = _LOG_CHI_SERIES_BELOW, where log chi
        # switches from its six-term series to x + expm1(-x).  The series drops
        # x^6/8!, 3.6e-14 of chi at x = 0.03, so near the switch log chi and the
        # slope are within 5e-14 of mpmath, on the series side too
        below, above = _LOG_CHI_SERIES_BELOW * (1 - 1e-9), _LOG_CHI_SERIES_BELOW * (1 + 1e-9)
        u = np.log([0.0105, 0.0295, 0.0299, below, above])
        assert np.exp(u[3]) < _LOG_CHI_SERIES_BELOW <= np.exp(u[4])  # one row on each branch
        log_chi, slope, _ = _free_law(1.0, 1.0).log_chi(u)
        for v, got, got_slope in zip(u, log_chi, slope):
            x = mp.exp(mp.mpf(v))
            with mp.workdps(60):
                core = x + mp.expm1(-x)
                ref, ref_slope = mp.log(core), x * -mp.expm1(-x) / core
            assert abs(got - float(ref)) <= 5e-14
            assert abs(got_slope / float(ref_slope) - 1.0) <= 5e-14
        assert log_chi[3] < log_chi[4]
        noise = OUNoise(1.0, 1.0)
        assert chi(noise, below) < chi(noise, above)

    def test_strictly_increasing_over_twelve_decades(self):
        noise = OUNoise(1.3, 0.7)
        taus = noise.tau_c * np.logspace(-6, 6, 600)
        values = chi(noise, taus)
        assert np.all(np.diff(values) > 0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            chi(OUNoise(1.0, 1.0), -0.1)

    def test_above_float_range_is_inf_without_warning(self):
        # log chi = log(1e600) is in range, chi itself is not; the QFI there is 0
        noise = OUNoise(1e300, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi(noise, 1.0) == math.inf
            assert ghz_qfi_values(SpinQuantumNumber(1), noise, 1.0) == 0.0

    def test_vectorized(self):
        noise = OUNoise(1.0, 0.5)
        taus = np.array([0.0, 0.1, 1.0])
        np.testing.assert_allclose(chi(noise, taus), [chi(noise, t) for t in taus])


class TestChiLimit:
    def test_asymptote_accuracy_windows(self):
        # leading short-time error term is x/3, so the 1% window ends at
        # x = 0.03 (at x = 0.05 the deviation is ~1.7%); the asymptotes are
        # b^2 tau^2 / 2 (short) and b^2 tau_c tau (long), here with b = tau_c = 1
        noise = OUNoise(1.0, 1.0)
        for x in np.logspace(-4, np.log10(0.029), 20):
            exact = chi(noise, x)
            assert abs(exact - 0.5 * x**2) / exact < 0.01
        for x in np.logspace(np.log10(0.03), np.log10(0.05), 5):
            exact = chi(noise, x)
            assert abs(exact - 0.5 * x**2) / exact < 0.02
        for x in np.logspace(np.log10(200), 5, 20):
            exact = chi(noise, x)
            assert abs(exact - x) / exact < 0.01


class TestT2:
    def test_quasi_static_limit(self):
        # S=1/2, b=1, tau_c=100: T2 -> 1/(sqrt(2) S b) = sqrt(2)
        assert t2(SpinQuantumNumber(1), OUNoise(1.0, 100.0)) == pytest.approx(
            math.sqrt(2.0), rel=0.01
        )

    def test_markovian_limit(self):
        # S=1/2, b=1, tau_c=1e-4: T2 -> 1/((2Sb)^2 tau_c) = 1e4
        assert t2(SpinQuantumNumber(1), OUNoise(1.0, 1e-4)) == pytest.approx(1e4, rel=0.01)

    @pytest.mark.parametrize("two_s", [1, 2, 8])
    @pytest.mark.parametrize("tau_c", [1e-3, 0.4, 7.0, 300.0])
    def test_defining_equation(self, two_s, tau_c):
        s = SpinQuantumNumber(two_s)
        noise = OUNoise(1.0, tau_c)
        root = t2(s, noise)
        assert abs(two_s**2 * chi(noise, root) - 1.0) < 1e-9

    @pytest.mark.parametrize("s_val", [0.5, 3.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("tau_c", [1e-3, 1.0, 1e3])
    def test_against_high_precision(self, s_val, tau_c):
        # Markovian, intermediate and quasi-static memory for every S
        two_s = int(2 * s_val)
        assert t2(SpinQuantumNumber(two_s), OUNoise(1.0, tau_c)) == pytest.approx(
            t2_highprec(two_s, 1.0, tau_c), rel=1e-11
        )

    def test_rows_solve_independently(self):
        two_s = np.array([1.0, 4.0, 2e6, 1.0])
        b = np.array([1.0, 0.3, 1.0, 1e200])  # the last row's b^2 tau_c^2 overflows
        tau_c = np.array([1e-3, 5.0, 1e-3, 1.0])
        roots = np.exp(_law_roots(_free_law(b, tau_c), 2 * np.log(two_s), with_slope=False))
        for i in range(4):
            assert roots[i] == t2(SpinQuantumNumber(int(two_s[i])), OUNoise(b[i], tau_c[i]))
        assert roots[3] == pytest.approx(t2_highprec(1, 1e200, 1.0), rel=1e-11)

    def test_overflow_raises_floating_point_error(self):
        # chi's prefactor b^2 tau_c^2 overflows, but T2 = sqrt(2)/b does not
        assert t2(SpinQuantumNumber(1), OUNoise(1e200, 1.0)) == pytest.approx(
            t2_highprec(1, 1e200, 1.0), rel=1e-11)
        # T2 = 1/(b^2 tau_c) = 1e400 itself overflows
        with pytest.raises(FloatingPointError):
            t2(SpinQuantumNumber(1), OUNoise(1e-200, 1.0))
        # T2 = sqrt(2)/(2S b) = 7.07e-311 is below the smallest normal double
        with pytest.raises(FloatingPointError, match="not a normal double"):
            t2(SpinQuantumNumber(2 * 10**300), OUNoise(1e10, 1.0))

    def test_asymptotes_bracket_within_factor_two(self):
        for param in np.logspace(-4, 4, 40):
            noise = OUNoise(1.0, param)  # two_s = 1 so param = 2 S b tau_c
            root = t2(SpinQuantumNumber(1), noise)
            t_qs = math.sqrt(2.0) / noise.b
            t_m = 1.0 / (noise.b**2 * noise.tau_c)
            assert max(t_qs, t_m) <= root * (1 + 1e-12)
            assert root <= 2.0 * max(t_qs, t_m)


def _free_log_chi_both_branches(b, tau_c, u):
    """The free law's log chi, slope and d log(t chi') / d log t with the series
    and the direct branch evaluated on every row and joined per row by np.where."""
    log_b, log_tau_c = np.log(b), np.log(tau_c)
    lx = u - log_tau_c
    x = np.exp(lx)
    small = x < _LOG_CHI_SERIES_BELOW
    safe, xs = np.where(small, 1.0, x), np.where(small, x, 0.0)
    rise = -np.expm1(-safe)
    head = 0.5 - xs * (1 / 6 - xs * (1 / 24 - xs * (1 / 120 - xs * (1 / 720 - xs / 5040))))
    log_core = np.where(small, 2.0 * lx + np.log(head),
                        np.where(x < np.inf, np.log(safe - rise), lx))
    slope = np.where(small, 1.0 / head - xs, rise / (1.0 - rise / safe))
    bend = np.where(small, 2.0 - xs * (0.5 - xs * (1 / 12 - xs * xs * (1 / 720 - xs * xs / 30240))),
                    1.0 + np.where(safe < np.inf, safe, 0.0) * (1.0 - rise) / rise)
    return 2.0 * (log_b + log_tau_c) + log_core, slope, bend


# log(t/tau_c) for rows on the series (x < 0.03), on the direct branch, and
# where t/tau_c overflows to inf
_LOG_X = {
    "series": st.floats(-700.0, -4.0),
    "direct": st.floats(-3.0, 709.0),
    "overflow": st.floats(710.0, 1e6),
}


@st.composite
def _log_x_rows(draw):
    kinds = draw(st.sampled_from([
        ("series",), ("direct",), ("overflow",), ("series", "direct"),
        ("direct", "overflow"), ("series", "overflow"), ("series", "direct", "overflow"),
    ]))
    rows = [v for k in kinds for v in draw(st.lists(_LOG_X[k], min_size=1, max_size=40))]
    return np.array(draw(st.permutations(rows)))


class TestLogLaws:
    """log chi and d log chi / d log t on u = log t, against mpmath over the float range."""

    @staticmethod
    def _close(got, ref, *magnitudes):
        # log chi is a sum of logs of the inputs: its rounding scales with theirs
        return abs(got - float(ref)) <= 1e-15 * (sum(abs(float(m)) for m in magnitudes) + 1.0)

    @pytest.mark.parametrize("b,tau_c", [(1.0, 1.0), (1e200, 1e-150), (1e-150, 1e150)])
    def test_free_evolution(self, b, tau_c):
        u = np.log(tau_c) + np.log(np.logspace(-300, 300, 61))
        log_chi, slope, _ = _free_law(b, tau_c).log_chi(u)
        for v, got, got_slope in zip(u, log_chi, slope):
            x = mp.exp(mp.mpf(v)) / tau_c
            # x + expm1(-x) cancels 2 |log10 x| digits where x is small
            with mp.workdps(40 + 2 * max(0, int(-mp.log10(x)))):
                core = x + mp.expm1(-x)
                ref = 2 * mp.log(mp.mpf(b) * tau_c) + mp.log(core)
                ref_slope = x * -mp.expm1(-x) / core
            assert self._close(got, ref, mp.log(b), mp.log(tau_c), v)
            assert got_slope == pytest.approx(float(ref_slope), rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(log_x=_log_x_rows(), log_b=st.floats(-300.0, 300.0),
           log_tau_c=st.floats(-300.0, 300.0), per_row=st.booleans())
    def test_free_evolution_equals_both_branches(self, log_x, log_b, log_tau_c, per_row):
        # only the branches some row takes are evaluated, with the same
        # operations on the same values, so every row is bit-identical
        b, tau_c = math.exp(log_b), math.exp(log_tau_c)
        if per_row:
            b, tau_c = np.full(len(log_x), b), np.full(len(log_x), tau_c)
        u = log_x + log_tau_c
        with np.errstate(all="ignore"):
            got = _free_law(b, tau_c).log_chi(u)
            ref = _free_log_chi_both_branches(b, tau_c, u)
        assert len(got) == len(ref) == 3
        for g, r in zip(got, ref):
            assert np.shape(g) == np.shape(r)
            assert np.all(g == r)

    @pytest.mark.parametrize("n", [1.0, 1.5, 3.0, 5.8])
    def test_pulsed_control(self, n):
        noise, profile = OUNoise(1e100, 1e-120), DDProfile(n)
        u = np.log(noise.tau_c) + np.log(np.logspace(-200, 200, 41))
        log_chi, slope, _ = _dd_law(noise, profile).log_chi(u)
        for v, got, got_slope in zip(u, log_chi, slope):
            x = mp.exp(mp.mpf(v)) / noise.tau_c
            w = x ** (n - 1)
            ref = 2 * mp.log(mp.mpf(noise.b) * noise.tau_c) + n * mp.log(x) - mp.log(profile.shape_c + w)
            assert self._close(got, ref, mp.log(noise.b), mp.log(noise.tau_c), n * v)
            assert got_slope == pytest.approx(float(n - (n - 1) * w / (profile.shape_c + w)), rel=1e-14)
        # and, where dd_chi stays in the float range, its linear value
        t = np.exp(u[15:26])
        np.testing.assert_allclose(np.exp(log_chi[15:26]), dd_chi(noise, profile, t), rtol=1e-12)


class TestClassify:
    """classify bins the memory parameter 2S b tau_c that its caller computes."""

    def test_markovian(self):
        assert classify(1 * 1.0 * 1e-3) == "markovian"
        assert classify(math.nextafter(config.MARKOVIAN_BELOW, 0.0)) == "markovian"

    def test_quasi_static(self):
        assert classify(1 * 1.0 * 100.0) == "quasi_static"
        assert classify(math.nextafter(config.QUASI_STATIC_ABOVE, math.inf)) == "quasi_static"

    def test_intermediate_large_spin(self):
        # 2S = 1000 lifts tau_c = 1e-3 out of the Markovian bin
        assert classify(SpinQuantumNumber(1000).two_s * 1.0 * 1e-3) == "intermediate"
        for edge in (config.MARKOVIAN_BELOW, config.QUASI_STATIC_ABOVE):
            assert classify(edge) == "intermediate"


def sample_ou_paths(noise, dt, steps, n_paths, seed):
    """Reference stationary OU paths, shape (n_paths, steps + 1), exact at any dt:
    x_0 = b xi_0 and x_{k+1} = alpha x_k + sigma xi_{k+1} with
    alpha = e^{-dt/tau_c} and sigma = b sqrt(1 - e^{-2 dt/tau_c}).

    It keeps the seeding of ``mc_coherence`` and nothing else of its code:
    block j of ``config.MC_BLOCK_SIZE`` paths takes one row of steps + 1
    normals per path from default_rng((seed, j)), so path i does not depend
    on n_paths."""
    alpha = math.exp(-dt / noise.tau_c)
    sigma = noise.b * math.sqrt(-math.expm1(-2.0 * dt / noise.tau_c))
    block = config.MC_BLOCK_SIZE
    out = np.empty((n_paths, steps + 1))
    for j in range(-(-n_paths // block)):
        rows = slice(j * block, min((j + 1) * block, n_paths))
        w = np.random.default_rng([seed, j]).standard_normal((rows.stop - rows.start, steps + 1))
        w[:, 0] *= noise.b
        w[:, 1:] *= sigma
        out[rows] = lfilter([1.0], [1.0, -alpha], w, axis=1)
    return out


class TestPathSampler:
    """The tests' reference sampler, which ``mc_coherence`` is checked against."""

    def test_deterministic_and_prefix_stable(self):
        noise = OUNoise(1.0, 0.5)
        one = sample_ou_paths(noise, 0.01, 50, 1, seed=9)[0]
        again = sample_ou_paths(noise, 0.01, 50, 1, seed=9)[0]
        np.testing.assert_array_equal(one, again)
        many = sample_ou_paths(noise, 0.01, 50, 6000, seed=9)
        np.testing.assert_array_equal(many[0], one)
        fewer = sample_ou_paths(noise, 0.01, 50, 10, seed=9)
        np.testing.assert_array_equal(many[:10], fewer)

    def test_stationary_statistics(self):
        b = 1.7
        noise = OUNoise(b, 0.5)
        x = sample_ou_paths(noise, 0.05, 100, 100_000, seed=31)
        for k in (0, 40, 100):
            col = x[:, k]
            se = col.std(ddof=1) / math.sqrt(len(col))
            assert abs(col.mean()) < 4 * se
            assert col.var(ddof=1) == pytest.approx(b**2, rel=0.01)

    def test_autocovariance(self):
        noise = OUNoise(1.0, 0.5)
        dt = 0.05
        x = sample_ou_paths(noise, dt, 120, 100_000, seed=5)
        for lag in (1, 5, 10, 20):
            cov = float(np.mean(x[:, 40] * x[:, 40 + lag]))
            assert cov == pytest.approx(math.exp(-lag * dt / noise.tau_c), abs=0.03 * 1.0)


def trapezoid(dt, steps):
    w = np.full(steps + 1, dt)
    w[0] = w[-1] = dt / 2
    return w


class TestMcCoherence:
    def test_tau_zero_exact(self):
        est = mc_coherence(SpinQuantumNumber(1), OUNoise(1.0, 0.1), 0.0, 1000, 1e-3, 1)
        assert est.mean == 1.0 + 0.0j
        assert est.stderr_real == 0.0

    def test_spin_half_reference(self):
        s, noise = SpinQuantumNumber(1), OUNoise(1.0, 0.1)
        est = mc_coherence(s, noise, 1.0, 100_000, noise.tau_c / 40, seed=17)
        target = math.exp(-chi(noise, 1.0))  # e^-0.09 = 0.9139...
        assert abs(est.mean.real - target) < 3 * est.stderr_real
        assert abs(est.mean.imag) < 3 * est.stderr_imag

    def test_spin_four_reference(self):
        s, noise = SpinQuantumNumber(8), OUNoise(1.0, 0.1)
        est = mc_coherence(s, noise, 0.2, 100_000, noise.tau_c / 40, seed=23)
        target = math.exp(-64 * chi(noise, 0.2))  # ~ 0.4835
        assert target == pytest.approx(0.4835, abs=5e-4)
        assert abs(est.mean.real - target) < 3 * est.stderr_real
        assert abs(est.mean.imag) < 3 * est.stderr_imag

    def test_rejects_coarse_dt(self):
        with pytest.raises(ValueError, match="too coarse"):
            mc_coherence(SpinQuantumNumber(1), OUNoise(1.0, 0.1), 1.0, 1000, 0.01, 1)

    def test_rejects_few_paths(self):
        with pytest.raises(ValueError):
            mc_coherence(SpinQuantumNumber(1), OUNoise(1.0, 0.1), 1.0, 50, 1e-3, 1)

    @pytest.mark.parametrize("paths, seed, name", [
        (150.0, 1, "paths"), (True, 1, "paths"), (np.float64(4096), 1, "paths"),
        (150, -1, "seed"), (150, 1.5, "seed"), (150, 2.0, "seed"), (150, True, "seed"),
    ])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_rejects_non_integer_paths_and_seed(self, paths, seed, name, tau):
        # rejected on entry, also where tau = 0 draws nothing
        with pytest.raises(ValueError, match=f"^{name} must be"):
            mc_coherence(SpinQuantumNumber(1), OUNoise(1.0, 0.1), tau, paths, 1e-3, seed)

    def test_accepts_numpy_integers(self):
        est = mc_coherence(SpinQuantumNumber(1), OUNoise(1.0, 0.1), 0.1, np.int64(150), 1e-3,
                           np.uint32(3))
        assert est == mc_coherence(SpinQuantumNumber(1), OUNoise(1.0, 0.1), 0.1, 150, 1e-3, 3)

    @pytest.mark.parametrize("dt", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_dt(self, dt):
        # dt = -1 used to run one trapezoid step of size tau past the dt guard
        with pytest.raises(ValueError, match="dt must be positive"):
            mc_coherence(SpinQuantumNumber(1), OUNoise(1.0, 0.1), 1.0, 1000, dt, 1)

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            mc_coherence(SpinQuantumNumber(1), OUNoise(1.0, 0.1), tau, 1000, 1e-3, 1)

    @pytest.mark.parametrize(
        "two_s, noise, tau, dt, paths",
        [
            (2, OUNoise(1.0, 0.1), 0.3, 0.1 / 40, 5000),  # a partial last block
            (4, OUNoise(0.7, 2.0), 0.05, 0.05, 300),  # steps = 1
            (1, OUNoise(1.3, 0.02), 0.07, 0.02 / 33, 4096),  # dt shrunk onto tau
        ],
    )
    def test_equals_trapezoid_over_sampled_paths(self, two_s, noise, tau, dt, paths):
        est = mc_coherence(SpinQuantumNumber(two_s), noise, tau, paths, dt, seed=8)
        steps = max(1, math.ceil(tau / dt))
        x = sample_ou_paths(noise, tau / steps, steps, paths, seed=8)
        z = np.exp(-1j * two_s * (x @ trapezoid(tau / steps, steps)))
        assert abs(est.mean - z.mean()) <= 1e-12
        assert est.stderr_real == pytest.approx(z.real.std(ddof=1) / math.sqrt(paths), rel=1e-9)
        assert est.stderr_imag == pytest.approx(z.imag.std(ddof=1) / math.sqrt(paths), rel=1e-9)
        assert est.n_paths == paths

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        steps=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_folded_weights_equal_filter_and_trapezoid(self, alpha, steps, seed):
        noise = OUNoise(1.7, 1.0)
        dt = -math.log(alpha)
        a = math.exp(-dt)
        sigma_step = noise.b * math.sqrt(-math.expm1(-2.0 * dt))
        xi = np.random.default_rng(seed).standard_normal((16, steps + 1))
        e = xi * np.r_[noise.b, np.full(steps, sigma_step)]
        reference = lfilter([1.0], [1.0, -a], e, axis=1) @ trapezoid(dt, steps)
        folded = xi @ _phase_weights(noise, dt, steps)
        spread = np.sqrt(np.mean(reference**2))
        assert np.max(np.abs(folded - reference)) <= 1e-12 * spread

    def test_working_set(self, monkeypatch):
        # the bound: the complex factors (16 bytes per path) plus the one float
        # temporary of std (8), each drawing thread's 64-row buffer of normals and
        # its block of phases, and 64 KiB for the rest
        monkeypatch.setattr(ou_noise, "_usable_cpus", lambda: 2)
        paths, steps, tau = 100_000, 1000, 1.0
        assert _mc_steps(tau, tau / steps) == steps
        per_thread = 8 * (64 * (steps + 1) + config.MC_BLOCK_SIZE)
        bound = 24 * paths + 2 * per_thread + 64 * 1024
        noise = OUNoise(1.0, 0.1)
        # a first call imports what numpy's generators load lazily, outside the trace
        mc_coherence(SpinQuantumNumber(2), noise, 0.01, 150, 1e-3, seed=3)
        tracemalloc.start()
        try:
            mc_coherence(SpinQuantumNumber(2), noise, tau, paths, tau / steps, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestMcDrawThreads:
    """mc_coherence spreads its blocks over one thread per usable CPU; the
    estimate does not depend on how many there are."""

    @pytest.mark.parametrize(
        "paths",
        [3 * config.MC_BLOCK_SIZE + 100, 150],  # a partial fourth block; one partial block
    )
    def test_estimate_independent_of_thread_count(self, paths, monkeypatch):
        blocks = -(-paths // config.MC_BLOCK_SIZE)
        real_rng = np.random.default_rng
        drawn_on = {}

        def rng_on_thread(seed):
            drawn_on[seed[1]] = threading.get_ident()
            return real_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", rng_on_thread)
        estimates = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave as often as they can
        try:
            for cpus in (1, 2, 3, 5):
                monkeypatch.setattr(ou_noise, "_usable_cpus", lambda: cpus)
                drawn_on.clear()
                estimates.append(mc_coherence(SpinQuantumNumber(2), OUNoise(1.0, 0.1), 0.3,
                                              paths, 0.1 / 40, seed=5))
                assert sorted(drawn_on) == list(range(blocks))
                assert len(set(drawn_on.values())) == min(cpus, blocks)
                assert drawn_on[0] == threading.get_ident()  # the caller draws block 0
        finally:
            sys.setswitchinterval(interval)
        assert all(est == estimates[0] for est in estimates)
        assert estimates[0].n_paths == paths

    def test_error_in_a_helper_thread_reaches_the_caller(self, monkeypatch):
        real_rng = np.random.default_rng

        def failing_rng(seed):
            if seed[1] == 1:
                raise RuntimeError("block 1 failed")
            return real_rng(seed)

        monkeypatch.setattr(ou_noise, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(np.random, "default_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 1 failed"):
            mc_coherence(SpinQuantumNumber(2), OUNoise(1.0, 0.1), 0.3,
                         3 * config.MC_BLOCK_SIZE + 100, 0.1 / 40, seed=5)
        assert threading.active_count() == before


class TestPhaseWeightsVariance:
    """The sampled phase xi @ c is exactly Gaussian with variance c.c, so
    c.c / 2 is the discretized chi; taken to dt -> 0 it is chi, from the OU
    transition and the trapezoid weights alone."""

    @pytest.mark.parametrize("s_val, b, tau_c, tau", MC_GRID)
    def test_richardson_limit_equals_chi(self, s_val, b, tau_c, tau):
        noise = OUNoise(b, tau_c)
        steps = _mc_steps(tau, min(tau_c / 40.0, tau / 50.0))  # the mc suite's steps
        half_var = []
        for n in (steps, 2 * steps, 4 * steps):
            c = _phase_weights(noise, tau / n, n)
            half_var.append(float(c @ c) / 2)
        # the trapezoid error runs in even powers of dt: two Richardson levels
        level1 = [(4 * fine - coarse) / 3 for coarse, fine in zip(half_var, half_var[1:])]
        limit = (16 * level1[1] - level1[0]) / 15
        assert limit == pytest.approx(chi(noise, tau), rel=1e-12, abs=0)


class TestDDChi:
    def test_zero(self):
        assert dd_chi(OUNoise(1.0, 1.0), DDProfile(3), 0.0) == 0.0

    @pytest.mark.parametrize("n", [1.0, 1.5, 3.0, 5.8])
    def test_zero_at_every_exponent(self, n):
        # log chi is -inf at tau = 0 (and n = 1 would give 0 * -inf there)
        noise = OUNoise(1.0, 1.0)
        assert dd_chi(noise, DDProfile(n), 0.0) == 0.0
        assert dd_chi(noise, DDProfile(n), np.array([0.0, 1.0]))[0] == 0.0

    def test_n2_matches_free_short_limit(self):
        noise = OUNoise(1.2, 1.0)
        profile = DDProfile(2, shape_c=2.0)
        for x in np.logspace(-4, -2, 10):
            assert dd_chi(noise, profile, x) == pytest.approx(0.5 * noise.b**2 * x**2, rel=0.01)

    @pytest.mark.parametrize("n", [2, 3, 4, 2.5])
    def test_long_time_matches_free_limit(self, n):
        noise = OUNoise(0.8, 0.3)
        tau = 1e3 * noise.tau_c
        assert dd_chi(noise, DDProfile(n), tau) == pytest.approx(
            noise.b**2 * noise.tau_c * tau, rel=0.01
        )

    def test_n2_agrees_with_exact_chi_in_asymptotic_regions(self):
        # mid-crossover disagreement is expected; only the tails must agree
        noise = OUNoise(1.0, 1.0)
        profile = DDProfile(2)
        for x in np.concatenate([np.logspace(-6, -1.5, 12), np.logspace(2.5, 6, 12)]):
            assert dd_chi(noise, profile, x) == pytest.approx(chi(noise, x), rel=0.05)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strictly_increasing(self, n):
        noise = OUNoise(1.0, 1.0)
        taus = np.logspace(-6, 6, 400)
        vals = dd_chi(noise, DDProfile(n), taus)
        assert np.all(np.diff(vals) > 0)

    def test_dd_t2_defining_equation(self):
        s = SpinQuantumNumber(4)
        noise = OUNoise(1.0, 50.0)
        profile = DDProfile(3)
        root = dd_t2(s, noise, profile)
        assert abs(s.two_s**2 * dd_chi(noise, profile, root) - 1.0) < 1e-9


class TestOUNoiseValidation:
    @given(b=st.floats(max_value=0.0, allow_nan=False), tau_c=st.floats(0.1, 10))
    @settings(max_examples=20)
    def test_rejects_nonpositive_b(self, b, tau_c):
        with pytest.raises(ValueError):
            OUNoise(b, tau_c)

    def test_rejects_nonpositive_tau_c(self):
        with pytest.raises(ValueError):
            OUNoise(1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            OUNoise(bad, 1.0)
        with pytest.raises(ValueError):
            OUNoise(1.0, bad)
