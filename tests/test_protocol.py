import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsense import (
    DDProfile,
    OUNoise,
    RegimeKind,
    SpinQuantumNumber,
    SweepTable,
    chi,
    classify,
    dd_chi,
    dd_scaling,
    dephase,
    drho_domega,
    fit_loglog_exponent,
    ghz_qfi_values,
    optimize_initial_state_spin1,
    qfi_generic,
    spin1_qfi_values,
    sweep,
    t2,
    yield_rate,
    yield_rate_asymptotic,
)
from spinsense import config, protocol
from spinsense.ou_noise import _dd_law, _free_law, _illinois, _Law, _law_roots
from spinsense.qfi import _spin1_coefficients, _spin1_from_coefficients
from spinsense.spin_ops import _spin1_amplitudes

SQRT_2_OVER_E = math.sqrt(2.0 / math.e)


def _solve(h, a, z):
    a, z = np.asarray(a, dtype=float), np.asarray(z, dtype=float)
    return _illinois(h, a, z, h(a), h(z))


class TestIllinoisRoots:
    def test_smooth_maximum(self):
        # the maximum of 5 - (x - 2)^2 is the root of its negated derivative,
        # found to the solver's bracket width, not to sqrt(eps) as by comparing values
        x = _solve(lambda x: 2.0 * (x - 2.0), [0.5], [4.0])
        assert x[0] == pytest.approx(2.0, abs=1e-12)

    def test_several_rows_in_one_call(self):
        # row 0: linear; row 1: cubic with a flat root; row 2: exponential;
        # row 3: the root sits on the bracket's lower end
        root = np.array([2.0, -1.0, 0.3, 1.0])

        def rows(x):
            return np.array([x[0] - 2.0, (x[1] + 1.0) ** 3, np.expm1(5.0 * (x[2] - 0.3)), x[3] - 1.0])

        a, z = np.array([0.5, -3.0, -2.0, 1.0]), np.array([4.0, 0.5, 2.0, 3.0])
        x = _solve(rows, a, z)
        np.testing.assert_allclose(x, root, atol=1e-6)
        assert abs(x[0] - 2.0) <= 1e-12 and abs(x[2] - 0.3) <= 1e-12 and abs(x[3] - 1.0) <= 1e-12
        # each row stops on its own bracket width, independent of the others
        fns = [lambda x: x - 2.0, lambda x: (x + 1.0) ** 3,
               lambda x: np.expm1(5.0 * (x - 0.3)), lambda x: x - 1.0]
        for i, fn in enumerate(fns):
            assert _solve(fn, a[i : i + 1], z[i : i + 1])[0] == x[i]

    def test_non_finite_rows_return_nan(self):
        # row 0 is bracketed; row 1's function is NaN; row 2 holds no sign
        # change; row 3's upper end is infinite
        def h(x):
            return np.array([x[0] - 1.0, np.nan, x[2] + 5.0, np.inf if x[3] > 1 else x[3]])

        x = _solve(h, [0.0, 0.0, 0.0, -1.0], [2.0, 2.0, 2.0, 2.0])
        assert x[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isnan(x[1:]))

    def test_bracket_moves_to_a_far_root(self):
        # the seed from the law's limits sits at u = 0; the bracket follows
        # the root 50 e-folds down or up instead of stopping at a window edge
        for root in (-50.0, 50.0):
            law = _Law(lambda u, r=root: (u - r, np.ones_like(u)), 0.0, 0.0, n=1.0, c=1.0)
            u = _law_roots(law, np.zeros(1), with_slope=False)
            assert u[0] == pytest.approx(root, abs=1e-12)


class TestGhzStationarity:
    """log chi + log slope, whose root is the GHZ optimum, increases in log t."""

    U = np.linspace(-60.0, 60.0, 120_001)

    @pytest.mark.parametrize("m", np.logspace(-6, 6, 13))
    def test_free_evolution(self, m):
        log_chi, slope = _free_law(1.0, m).log_chi(self.U)
        assert np.all(np.diff(log_chi + np.log(slope)) > 0)

    @pytest.mark.parametrize("n", [1.0, 2.0, 3.0, 4.0, 5.8])
    @pytest.mark.parametrize("c", [0.1, 2.0, 50.0])
    def test_pulsed_control(self, n, c):
        log_chi, slope = _dd_law(OUNoise(1.0, 1.0), DDProfile(n, c)).log_chi(self.U)
        assert np.all(np.diff(log_chi + np.log(slope)) > 0)

    def test_pulsed_control_beyond_the_bound(self):
        # at n = 6 the function turns over, so its root need not be the optimum
        log_chi, slope = _dd_law(OUNoise(1.0, 1.0), DDProfile(6.0)).log_chi(self.U)
        assert np.any(np.diff(log_chi + np.log(slope)) < 0)
        with pytest.raises(ValueError, match="3 \\+ 2 sqrt"):
            dd_scaling(DDProfile(6.0), np.logspace(0, 1, 8), OUNoise(1.0, 100.0))


class TestYieldRate:
    def test_quasi_static_asymptote(self):
        # memory parameter 2 S b tau_c = 100
        s, noise = SpinQuantumNumber(1), OUNoise(1.0, 100.0)
        result = yield_rate(s, noise)
        assert result.rate == pytest.approx(SQRT_2_OVER_E * s.s / noise.b, rel=0.02)
        assert result.tau_opt == pytest.approx(1.0 / (math.sqrt(2.0) * s.two_s * noise.b), rel=0.02)
        assert classify(s.two_s * noise.b * noise.tau_c) is RegimeKind.QUASI_STATIC

    def test_markovian_asymptote(self):
        # memory parameter 0.01
        s, noise = SpinQuantumNumber(1), OUNoise(1.0, 0.01)
        result = yield_rate(s, noise)
        assert result.rate == pytest.approx(1.0 / (2.0 * math.e * noise.b**2 * noise.tau_c), rel=0.02)
        assert result.tau_opt == pytest.approx(
            1.0 / (2.0 * (s.two_s * noise.b) ** 2 * noise.tau_c), rel=0.02
        )

    def test_order_of_magnitude_law(self):
        # R stays within [0.1, 10] x (2S)^2 T2 across every regime
        for two_s in (1, 4, 16):
            for tau_c in np.logspace(-3, 3, 9):
                s, noise = SpinQuantumNumber(two_s), OUNoise(1.0, tau_c)
                rate = yield_rate(s, noise).rate
                scale = two_s**2 * t2(s, noise)
                assert 0.1 * scale <= rate <= 10.0 * scale

    def test_tau_opt_tracks_half_t2(self):
        for tau_c in np.logspace(-3, 3, 13):
            s, noise = SpinQuantumNumber(2), OUNoise(1.0, tau_c)
            result = yield_rate(s, noise)
            ratio = result.tau_opt / t2(s, noise)
            assert 0.3 <= ratio <= 1.5
        for tau_c in (1e-3, 1e3):
            s, noise = SpinQuantumNumber(2), OUNoise(1.0, tau_c)
            ratio = yield_rate(s, noise).tau_opt / t2(s, noise)
            assert ratio == pytest.approx(0.5, rel=0.02)

    def test_unimodality_on_scan_grid(self):
        for two_s, tau_c in [(1, 1e-3), (2, 0.3), (8, 2.0), (16, 500.0)]:
            s, noise = SpinQuantumNumber(two_s), OUNoise(1.0, tau_c)
            t2_val = t2(s, noise)
            taus = np.logspace(np.log10(t2_val / 100), np.log10(t2_val * 100), 200)
            g = ghz_qfi_values(s, noise, taus) / taus
            signs = np.sign(np.diff(g))
            changes = np.count_nonzero(np.diff(signs[signs != 0]))
            assert changes == 1  # rises once, falls once


class TestYieldRateAsymptotic:
    def test_quasi_static_value(self):
        result = yield_rate_asymptotic(SpinQuantumNumber(2), OUNoise(1.0, 100.0),
                                       RegimeKind.QUASI_STATIC)
        assert result.rate == pytest.approx(0.857763884960707, rel=1e-12)
        assert result.tau_opt == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)

    def test_markovian_value(self):
        result = yield_rate_asymptotic(SpinQuantumNumber(1), OUNoise(1.0, 1e-3),
                                       RegimeKind.MARKOVIAN)
        assert result.rate == pytest.approx(183.93972058572117, rel=1e-12)

    def test_rejects_intermediate(self):
        with pytest.raises(ValueError):
            yield_rate_asymptotic(SpinQuantumNumber(1), OUNoise(1.0, 1.0),
                                  RegimeKind.INTERMEDIATE)

    @pytest.mark.parametrize(
        "two_s,tau_c,kind",
        [(1, 150.0, RegimeKind.QUASI_STATIC), (1, 0.005, RegimeKind.MARKOVIAN),
         (8, 30.0, RegimeKind.QUASI_STATIC), (2, 0.004, RegimeKind.MARKOVIAN)],
    )
    def test_consistent_with_numeric_deep_in_regime(self, two_s, tau_c, kind):
        s, noise = SpinQuantumNumber(two_s), OUNoise(1.0, tau_c)
        numeric = yield_rate(s, noise)
        closed = yield_rate_asymptotic(s, noise, kind)
        assert numeric.rate == pytest.approx(closed.rate, rel=0.02)
        assert numeric.tau_opt == pytest.approx(closed.tau_opt, rel=0.02)


class TestSweep:
    def test_markovian_s_window_is_flat(self):
        table = sweep("s", np.logspace(np.log10(0.5), np.log10(5.0), 10), b=1.0, tau_c=1e-3)
        assert "markovian" in table.fits
        assert table.fits["markovian"].slope == pytest.approx(0.0, abs=0.05)

    def test_quasi_static_b_window(self):
        table = sweep("b", np.logspace(2.1, 3.5, 10), s=0.5, tau_c=1.0)
        assert table.fits["quasi_static"].slope == pytest.approx(-1.0, abs=0.05)

    def test_rows_sorted_and_lengths_match(self):
        table = sweep("tau_c", np.logspace(-2, 2, 12), s=1.0, b=1.0)
        assert np.all(np.diff(table.values) > 0)
        assert len(table.rates) == len(table.values) == len(table.tau_opts) == len(table)

    def test_spin_grid_rounds_to_half_integers(self):
        table = sweep("s", np.logspace(np.log10(0.5), np.log10(4.0), 12), b=1.0, tau_c=1e-3)
        assert np.all(np.round(2 * table.values) == 2 * table.values)
        assert len(np.unique(table.values)) == len(table.values)

    def test_rejects_short_or_unsorted_grid(self):
        with pytest.raises(ValueError):
            sweep("b", np.array([1.0, 2.0, 3.0]), s=0.5, tau_c=1.0)
        with pytest.raises(ValueError):
            sweep("b", np.linspace(5.0, 1.0, 10), s=0.5, tau_c=1.0)

    def test_rejects_spin_whose_two_s_overflows(self):
        # 2S of the top value is past the float range; finite huge spins are solved
        grid = np.logspace(0, np.log10(1.7e308), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="with 2S finite"):
                sweep("s", grid, b=1.0, tau_c=1.0)
            with pytest.raises(ValueError, match="with 2S finite"):
                dd_scaling(DDProfile(3.0), grid, OUNoise(1.0, 1.0))
            table = sweep("s", np.logspace(0, 300, 8), b=1.0, tau_c=1.0)
        assert len(table) == 8 and np.all(np.isfinite(table.rates))

    def test_rejects_missing_fixed_parameters(self):
        with pytest.raises(ValueError):
            sweep("s", np.logspace(0, 1, 8), b=1.0)
        with pytest.raises(ValueError):
            sweep("nope", np.logspace(0, 1, 8), b=1.0, tau_c=1.0)

    @pytest.mark.parametrize("param,fixed,message", [
        ("s", dict(b=1.0), "s-sweep requires fixed b and tau_c"),
        ("b", dict(tau_c=1.0), "b-sweep requires fixed s and tau_c"),
        ("tau_c", dict(b=1.0), "tau_c-sweep requires fixed s and b"),
    ])
    def test_missing_fixed_value_messages(self, param, fixed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(param, np.logspace(0, 1, 8), **fixed)


def _chi_closed_form(b, tau_c, tau):
    # b^2 tau_c^2 (x + expm1(-x)), x = tau/tau_c, by its series where that cancels
    x = tau / tau_c
    series = x * x * (0.5 - x * (1 / 6 - x * (1 / 24 - x / 120)))
    return b * b * tau_c * tau_c * np.where(x < 1e-3, series, x + np.expm1(-x))


def _dense_grid_max(rate, lo, hi, levels=4, n=1001):
    """max of rate(tau) over log tau in [lo, hi] on nested dense log grids,
    each spanning the two cells around the last one's best point."""
    for _ in range(levels):
        u = np.linspace(lo, hi, n)
        vals = rate(np.exp(u))
        i = int(np.argmax(vals))
        assert 0 < i < n - 1
        lo, hi = u[i - 1], u[i + 1]
    return float(vals[i])


def _dense_grid_rate(two_s, b, tau_c, levels=4, n=1001):
    """max over tau of (2S tau)^2 exp(-2 (2S)^2 chi)/tau on nested dense log
    grids, rows at once, bracketed by the two asymptotic optima."""
    two_s, b, tau_c = (np.asarray(v, dtype=float)[:, None] for v in (two_s, b, tau_c))
    t_qs, t_m = 1 / (math.sqrt(2) * two_s * b), 1 / (2 * (two_s * b) ** 2 * tau_c)
    a, z = np.log(np.minimum(t_qs, t_m) / 100), np.log(np.maximum(t_qs, t_m) * 100)
    rows = np.arange(len(a))
    for _ in range(levels):
        u = a + (z - a) * np.linspace(0.0, 1.0, n)
        log_rate = 2 * np.log(two_s) + u - 2 * two_s**2 * _chi_closed_form(b, tau_c, np.exp(u))
        i = np.argmax(log_rate, axis=1)
        assert np.all((i > 0) & (i < n - 1))
        a, z = u[rows, i - 1][:, None], u[rows, i + 1][:, None]
    return np.exp(log_rate[rows, i])


class TestSweepAgainstDenseGrid:
    """Every sweep rate against an optimum found without protocol's solver."""

    CASES = {
        "s": (np.logspace(np.log10(0.5), 6, 16), dict(b=1.0, tau_c=1e-3)),
        "b": (np.logspace(-3, 3, 16), dict(s=0.5, tau_c=1.0)),
        "tau_c": (np.logspace(-3, 3, 16), dict(s=0.5, b=1.0)),
        # tau_opt = 1/(sqrt(2) 2S b) is below the smallest normal double in
        # every row at b = 1e308, and in all but the first at b = 1e305
        "s, b=1e308": (np.logspace(np.log10(0.5), 20, 8), dict(b=1e308, tau_c=1.0)),
        "s, b=1e305": (np.logspace(np.log10(0.5), 20, 8), dict(b=1e305, tau_c=1.0)),
    }

    @staticmethod
    def _rows(param, table, fixed):
        n = len(table)
        col = lambda name: table.values if param == name else np.full(n, fixed[name])
        two_s = 2 * table.values if param == "s" else np.full(n, 2 * fixed["s"])
        return two_s, col("b"), col("tau_c")

    @pytest.mark.parametrize("param", ["s", "b", "tau_c"])
    def test_rates_match_dense_grid(self, param):
        grid, fixed = self.CASES[param]
        table = sweep(param, grid, **fixed)
        assert table.status == ("ok",) * len(table)
        two_s, b, tau_c = self._rows(param, table, fixed)
        np.testing.assert_allclose(table.rates, _dense_grid_rate(two_s, b, tau_c), rtol=1e-9)

    @pytest.mark.parametrize("case", ["s", "b", "tau_c", "s, b=1e308", "s, b=1e305"])
    def test_rows_equal_yield_rate_exactly(self, case):
        # a failed row is one where yield_rate raises
        grid, fixed = self.CASES[case]
        param = case.split(",")[0]
        table = sweep(param, grid, **fixed)
        for two_s, b, tau_c, rate, tau_opt in zip(*self._rows(param, table, fixed),
                                                  table.rates, table.tau_opts):
            spin, noise = SpinQuantumNumber(int(two_s)), OUNoise(b, tau_c)
            if np.isnan(rate):
                with pytest.raises(FloatingPointError):
                    yield_rate(spin, noise)
                continue
            single = yield_rate(spin, noise)
            assert (single.rate, single.tau_opt) == (rate, tau_opt)
        if case == "s, b=1e305":
            assert table.status == ("ok",) + ("failed",) * (len(table) - 1)

    @pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 4.0, 5.8])
    @pytest.mark.parametrize("tau_c", [1e-4, 1.0, 100.0])
    def test_dd_rows_match_dense_grid(self, n, tau_c):
        profile, noise = DDProfile(n), OUNoise(1.0, tau_c)
        table = dd_scaling(profile, np.logspace(0, np.log10(64), 10), noise)
        assert table.status == ("ok",) * len(table)
        for s_val, rate, tau_opt in zip(table.values, table.rates, table.tau_opts):
            two_s = 2 * s_val
            ref = _dense_grid_max(
                lambda t: (two_s * t) ** 2 * np.exp(-2.0 * two_s**2 * dd_chi(noise, profile, t)) / t,
                math.log(tau_opt / 1e4), math.log(tau_opt * 1e4))
            assert rate == pytest.approx(ref, rel=1e-9)

    def test_failed_rows_left_out_of_fits(self):
        # the Markovian rate 1/(2e b^2 tau_c) overflows at tau_c = 1e-300
        table = sweep("tau_c", np.logspace(-300, 300, 16), s=0.5, b=1e-5)
        failed = [i for i, st in enumerate(table.status) if st == "failed"]
        assert failed == [0] and np.all(np.isnan(table.rates[failed]))
        for fit in table.fits.values():
            assert not set(range(*fit.window)) & set(failed)

    def test_underflowed_rate_raises_floating_point_error(self):
        with pytest.raises(FloatingPointError):
            yield_rate(SpinQuantumNumber(10**17), OUNoise(1e308, 1.0))

    def test_spin_rows_where_the_markov_parameter_overflows(self):
        # 2S b tau_c overflows: no RuntimeWarning, and it is quasi-static
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = dd_scaling(DDProfile(3.0), np.logspace(0, 2, 8), OUNoise(1e200, 1e200))
        assert np.all(np.isinf(table.markov_params))
        assert set(table.regimes) == {RegimeKind.QUASI_STATIC}


def _ghz_optimum_highprec(two_s, b, tau_c):
    """tau_opt and rate of the GHZ curve at 40 digits, from the mpmath closed
    form: the root of 2 (2S)^2 tau chi'(tau) = 1 in log tau."""
    with mp.workdps(40):
        k, b, tau_c = map(mp.mpf, (two_s, b, tau_c))
        # tau chi'(tau) = b^2 tau_c tau (1 - e^(-tau/tau_c))
        g = lambda lt: mp.log(2 * k**2 * b**2 * tau_c) + lt + mp.log(-mp.expm1(-mp.exp(lt) / tau_c))
        seed = max(-mp.log(mp.sqrt(2) * k * b), -mp.log(2 * k**2 * b**2 * tau_c))
        tau = mp.exp(mp.findroot(g, seed))
        x = tau / tau_c
        # x + expm1(-x) cancels 2 |log10 x| digits where x is small
        with mp.workdps(40 + 2 * max(0, int(-mp.log10(x)))):
            rate = k**2 * tau * mp.exp(-2 * k**2 * b**2 * tau_c**2 * (x + mp.expm1(-x)))
        return float(tau), float(rate)


class TestGhzOptimumAtTheFloatRange:
    """Optima whose intermediate products (b tau_c)^2 or tau^2 leave the float range."""

    @pytest.mark.parametrize(
        "two_s,b,tau_c",
        [(1, 2.1544346900319308e-147, 1.0), (1, 1e200, 1.0), (2_000_000, 1e-150, 1e150),
         (1, 1e150, 1e-150), (1, 1e-100, 1e150), (1, 1e-60, 1e-60), (7, 3e140, 2e-141),
         # (2S)^2 overflows
         pytest.param(2 * 10**300, 1.0, 1.0, id="2e300-1.0-1.0"),
         pytest.param(3 * 10**154, 1.0, 1.0, id="3e154-1.0-1.0"),
         pytest.param(2 * 10**160, 1e-100, 1.0, id="2e160-1e-100-1.0")],
    )
    def test_against_high_precision(self, two_s, b, tau_c):
        result = yield_rate(SpinQuantumNumber(two_s), OUNoise(b, tau_c))
        tau_ref, rate_ref = _ghz_optimum_highprec(two_s, b, tau_c)
        assert result.rate == pytest.approx(rate_ref, rel=1e-12)
        assert result.tau_opt == pytest.approx(tau_ref, rel=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(
        two_s=st.tuples(st.integers(1, 2_000_000), st.integers(1, 2_000_000)),
        log_m=st.floats(-290.0, 290.0),
        where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_rate_depends_on_the_memory_parameter_alone(self, two_s, log_m, where):
        # R = (2S)^2 tau_c g(m) with m = 2 S b tau_c: two rows with the same m,
        # each with S in [1/2, 1e6] and b, tau_c in [1e-150, 1e150]
        two_s = np.array(two_s, dtype=float)
        lo = np.maximum(-150.0, log_m - np.log10(two_s) - 150.0)
        hi = np.minimum(150.0, log_m - np.log10(two_s) + 150.0)
        tau_c = 10.0 ** (lo + (hi - lo) * np.array(where))
        b = 10.0**log_m / (two_s * tau_c)
        assert np.all((b >= 1e-150 * (1 - 1e-9)) & (b <= 1e150 * (1 + 1e-9)))
        tau, rate = protocol._ghz_optima(_free_law(b, tau_c), two_s)
        finite = np.isfinite(rate) & np.isfinite(tau)
        # a row may fail only where its rate or tau_opt leaves the float range
        log_k = np.log10(two_s * b)
        log_tau = np.maximum(-np.log10(math.sqrt(2.0)) - log_k, -np.log10(2.0) - 2 * log_k - np.log10(tau_c))
        assert np.all(finite | (np.maximum(log_tau, 2 * np.log10(two_s) + log_tau) > 307.5))
        if np.all(finite):  # R/((2S)^2 tau_c) agree to 1e-12 relative; it may itself overflow
            log_scaled = np.log(rate) - 2 * np.log(two_s) - np.log(tau_c)
            assert abs(log_scaled[0] - log_scaled[1]) <= 1e-12


class TestFitLogLog:
    @staticmethod
    def _table(values, rates):
        n = len(values)
        return SweepTable(
            values=np.asarray(values, float),
            rates=np.asarray(rates, float),
            tau_opts=np.ones(n),
            markov_params=np.ones(n),
            regimes=tuple([RegimeKind.INTERMEDIATE] * n),
        )

    def test_exact_power_law(self):
        x = np.logspace(0, 2, 9)
        fit = fit_loglog_exponent(self._table(x, 3.7 * x**-2.25), (0, 9))
        assert fit.slope == pytest.approx(-2.25, abs=1e-10)
        assert fit.max_residual < 1e-12

    def test_constant_rate(self):
        x = np.logspace(0, 1, 8)
        fit = fit_loglog_exponent(self._table(x, np.full(8, 4.2)), (0, 8))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_small_window(self):
        # too few rows, and windows that reach past either end of the table
        x = np.logspace(0, 1, 10)
        for window in [(0, 3), (0, 1000), (-4, 10), (-1, 5), (6, 11)]:
            with pytest.raises(ValueError):
                fit_loglog_exponent(self._table(x, x), window)

    def test_rejects_nonpositive_rates(self):
        # a zero, a negative and a failed (NaN) row, and an infinite rate
        x = np.logspace(0, 1, 8)
        for bad in [0.0, -1.0, np.nan, np.inf]:
            rates = np.ones(8)
            rates[3] = bad
            with pytest.raises(ValueError):
                fit_loglog_exponent(self._table(x, rates), (0, 8))


# amplitude angles, with the axes drawn often: there sin(theta) or Q(D)
# vanishes in exact arithmetic
_ANGLE = st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2))


class TestSpin1Scan:
    """The state search ranks by the matrix-product scan, which no oracle sees."""

    @settings(max_examples=300, deadline=None)
    @given(states=st.lists(st.tuples(_ANGLE, _ANGLE), min_size=1, max_size=12),
           points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-6, 1e6)),
                           min_size=1, max_size=8),
           chunk_rows=st.integers(1, 5))
    def test_scan_equals_horner(self, states, points, chunk_rows):
        theta, phi = np.array(states).T
        d, tau = np.array(points).T
        p, q = _spin1_coefficients(theta, phi)
        # F/tau of every state at every point, by Horner's rule
        ref = _spin1_from_coefficients([c[:, None] for c in p], [c[:, None] for c in q], d, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i, best = protocol._spin1_scanner(d, tau, chunk_rows)(p, q)
        # relative, down to the smallest normal double: below it neither
        # route keeps all digits (sin^2 theta is subnormal at theta ~ 1e-160)
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(best, ref.max(axis=1), rtol=1e-13, atol=tiny)
        np.testing.assert_allclose(ref[np.arange(len(i)), i], best, rtol=1e-13, atol=tiny)
        # the axis states carry no information: 0 to the rounding of pi/2
        axis = np.isin(theta, (0.0, math.pi / 2)) & np.isin(phi, (0.0, math.pi / 2))
        assert np.all(best[axis] <= 1e-30 * tau.max())
        assert np.all(best[theta == 0.0] == 0.0)

    def test_vanishing_q_gives_zero(self):
        p, _ = _spin1_coefficients(np.array([0.3, 1.2, 0.9]), np.array([1.1, 0.2, 0.7]))
        q = tuple(np.zeros(3) for _ in range(4))
        d, tau = np.array([0.0, 0.5, 1.0]), np.array([1e-3, 1.0, 1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, best = protocol._spin1_scanner(d, tau, 2)(p, q)
        assert best.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("tau_c", [50.0, 100.0])
    def test_coarse_scan_equals_unflushed_tables(self, tau_c, monkeypatch):
        # the scanner sets subnormal table entries to 0; the coarse 64 x 64 scan
        # of the state search picks the same point and F/tau as the tables as computed
        built, scanner = [], protocol._spin1_scanner

        def keep_tables(d, tau, chunk_rows):
            built.append((d, tau, chunk_rows))
            return scanner(d, tau, chunk_rows)

        monkeypatch.setattr(protocol, "_spin1_scanner", keep_tables)
        scan, _, _ = protocol._spin1_rates(OUNoise(1.0, tau_c))
        (d, tau, chunk_rows), = built
        n = config.STATE_GRID_SIZE
        angles = (np.arange(n) + 0.5) * (np.pi / 2) / n
        th, ph = np.meshgrid(angles, angles, indexing="ij")
        p, q = _spin1_coefficients(th.ravel(), ph.ravel())
        i, best = scan(p, q)

        vp = d ** np.arange(1, 8)[:, None] * tau
        vq = d ** np.arange(4)[:, None]
        tiny = np.finfo(float).tiny
        assert np.any((vp > 0) & (vp < tiny))  # there is something to flush
        p, q = np.stack(p, axis=1), np.stack(q, axis=1)
        for k in range(0, len(p), chunk_rows):  # the chunks and masked divide of the scan
            f, g = p[k : k + chunk_rows] @ vp, q[k : k + chunk_rows] @ vq
            good = g > 1e-280
            f *= good
            np.divide(f, g, out=f, where=good)
            j = np.argmax(f, axis=1)
            assert i[k : k + chunk_rows].tolist() == j.tolist()
            assert best[k : k + chunk_rows].tolist() == f[np.arange(len(j)), j].tolist()


class TestStateOptimization:
    def test_quasi_static_ghz_is_nearly_optimal(self):
        result = optimize_initial_state_spin1(OUNoise(1.0, 100.0))
        assert result.fidelity_with_ghz > 0.99
        assert result.r_max / result.r_ghz < 1.01
        assert result.r_max >= result.r_ghz - 1e-9

    def test_markovian_constant_improvement(self):
        r1 = optimize_initial_state_spin1(OUNoise(1.0, 1e-3))
        r2 = optimize_initial_state_spin1(OUNoise(1.0, 1e-4))
        assert r1.r_max / r1.r_ghz > 1.1
        assert r1.r_max / r1.r_ghz == pytest.approx(r2.r_max / r2.r_ghz, rel=0.02)

    @pytest.mark.parametrize("tau_c", [1e-3, 1.0, 100.0])  # Markovian, intermediate, quasi-static
    def test_internal_rate_equals_yield_rate(self, tau_c):
        noise = OUNoise(1.0, tau_c)
        pairs = np.array([(np.pi / 4, np.pi / 2), (0.3, 1.2), (1.1, 0.4), (0.02, 1.5),
                          (1.5, 0.05), (0.9, 0.7)])
        _, rates, unbracketed = protocol._spin1_rates(noise)
        batched = rates(pairs[:, 0], pairs[:, 1])
        assert unbracketed == [0]
        # the maximum of F/tau over the scan window [T2/100, 100 T2], on dense grids
        log_t2 = math.log(t2(SpinQuantumNumber(2), noise))
        for (theta, phi), got in zip(pairs, batched):
            ref = _dense_grid_max(lambda t: spin1_qfi_values(theta, phi, chi(noise, t), t) / t,
                                  log_t2 - math.log(100.0), log_t2 + math.log(100.0))
            assert got == pytest.approx(ref, rel=1e-12)

    def test_batched_rate_does_not_depend_on_the_batch(self):
        # a row solved alone equals the same row inside a starts x 9 x 9 batch
        noise = OUNoise(1.0, 1e-3)
        _, rates, _ = protocol._spin1_rates(noise)
        rng = np.random.default_rng(7)
        theta, phi = rng.uniform(1e-9, np.pi / 2, size=(2, 5, 81))
        batch = rates(theta, phi)
        assert batch.shape == (5, 81)
        for i, j in [(0, 0), (2, 40), (4, 80)]:
            alone = rates(theta[i, j : j + 1], phi[i, j : j + 1])
            assert alone[0] == batch[i, j]

    def test_every_rate_row_bracketed_at_the_dataset_points(self):
        # the tau_c grid of scripts/make_datasets.py
        for tau_c in np.logspace(-4, 2, 13):
            assert optimize_initial_state_spin1(OUNoise(1.0, tau_c)).unbracketed == 0

    def test_result_diagnostics(self):
        result = optimize_initial_state_spin1(OUNoise(1.0, 1e-3))
        # from one coarse cell down to xatol: (pi/2)/64/4**7 >= 1e-6 > (pi/2)/64/4**8
        assert result.passes == 8
        assert result.rate_evaluations == (
            1 + result.passes * len(result.starts) * protocol._STATE_GRID_POINTS**2)
        assert 1 <= len(result.starts) <= config.STATE_REFINE_STARTS
        assert max(r for _, _, r in result.starts) == result.r_max
        assert not result.ghz_won
        assert result.unbracketed == 0

    def test_nine_point_grids_match_five_point_grids(self, monkeypatch):
        # at the tau_c grid of scripts/make_datasets.py, 8 passes of 9 x 9
        # grids end where 15 passes of 5 x 5 grids do
        fine = [optimize_initial_state_spin1(OUNoise(1.0, tc)) for tc in np.logspace(-4, 2, 13)]
        monkeypatch.setattr(protocol, "_STATE_GRID_POINTS", 5)
        for tau_c, nine in zip(np.logspace(-4, 2, 13), fine):
            five = optimize_initial_state_spin1(OUNoise(1.0, tau_c))
            assert (five.passes, nine.passes) == (15, 8)
            assert nine.r_max >= five.r_max * (1 - 1e-14)
            assert abs(nine.theta_opt - five.theta_opt) <= 2 * config.STATE_XATOL
            assert abs(nine.phi_opt - five.phi_opt) <= 2 * config.STATE_XATOL

    @pytest.mark.parametrize("tau_c", [1e-3, 0.2, 100.0])
    def test_starts_are_distinct_coarse_peaks(self, tau_c):
        n, noise = config.STATE_GRID_SIZE, OUNoise(1.0, tau_c)
        cell = (np.pi / 2) / n
        result = optimize_initial_state_spin1(noise)
        # the coarse ranking, rebuilt from the same scan
        th, ph = np.meshgrid((np.arange(n) + 0.5) * cell, (np.arange(n) + 0.5) * cell,
                             indexing="ij")
        scan, _, _ = protocol._spin1_rates(noise)
        _, coarse = scan(*_spin1_coefficients(th.ravel(), ph.ravel()))
        coarse = np.pad(coarse.reshape(n, n), 1, constant_values=-np.inf)
        cells = [(round(theta / cell - 0.5), round(phi / cell - 0.5))
                 for theta, phi, _ in result.starts]
        for k, (i, j) in enumerate(cells):
            assert coarse[i + 1, j + 1] == coarse[i : i + 3, j : j + 3].max()
            for i2, j2 in cells[k + 1 :]:
                assert max(abs(i - i2), abs(j - j2)) > 1

    def test_grid_peaks_are_never_adjacent(self):
        values = np.zeros((6, 7))
        values[1, 1] = values[1, 2] = 5.0  # a plateau: only its first cell counts
        values[4, 5] = 3.0
        values[5, 0] = 4.0  # at the edge, against -inf beyond it
        values[3, 4] = values[2, 4] = 2.0
        assert protocol._grid_peaks(values, 10).tolist() == [1 * 7 + 1, 5 * 7 + 0, 4 * 7 + 5,
                                                             2 * 7 + 4]
        assert protocol._grid_peaks(values, 2).tolist() == [8, 35]
        rng = np.random.default_rng(3)
        grid = rng.integers(0, 3, size=(16, 16)).astype(float)  # many ties
        peaks = [divmod(int(k), 16) for k in protocol._grid_peaks(grid, 256)]
        assert peaks
        for k, (i, j) in enumerate(peaks):
            assert all(max(abs(i - i2), abs(j - j2)) > 1 for i2, j2 in peaks[k + 1 :])

    def test_phase_angles_do_not_enter_objective(self):
        # the optimizer's objective is built from the phase-free closed form;
        # spot-check that states differing only by phases give the same QFI
        chi_val, tau = 0.15, 0.8
        base = spin1_qfi_values(0.9, 0.7, chi_val, tau)
        for l1, l2 in [(0.3, 1.1), (2.0, 4.0), (5.5, 0.2)]:
            state = _spin1_amplitudes(0.9, 0.7, l1, l2)
            assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0)
            same = qfi_generic(dephase(state, 0.4, tau, chi_val),
                               drho_domega(state, 0.4, tau, chi_val))
            assert same == pytest.approx(base, rel=1e-14)


class TestDDScaling:
    def test_free_evolution_exponent(self):
        table = dd_scaling(DDProfile(2), np.logspace(0, np.log10(64), 10), OUNoise(1.0, 100.0))
        assert table.fits["quasi_static"].slope == pytest.approx(1.0, abs=0.1)

    def test_super_classical_exponent(self):
        table = dd_scaling(DDProfile(3), np.logspace(0, np.log10(64), 10), OUNoise(1.0, 100.0))
        assert table.fits["quasi_static"].slope == pytest.approx(2 - 2 / 3, abs=0.1)

    def test_markovian_flat_for_any_n(self):
        table = dd_scaling(DDProfile(4), np.logspace(np.log10(0.5), np.log10(8), 9),
                           OUNoise(1.0, 1e-4))
        assert table.fits["markovian"].slope == pytest.approx(0.0, abs=0.1)


class TestQuasiStaticExponentChain:
    def test_same_data_satisfies_all_three_laws(self):
        # deep quasi-static: R = sqrt(2/e) S / b independent of tau_c
        s_fit = sweep("s", np.logspace(np.log10(100), np.log10(1000), 9),
                      b=1.0, tau_c=10.0).fits["quasi_static"]
        b_fit = sweep("b", np.logspace(-2, -1, 9), s=10.0, tau_c=1000.0).fits["quasi_static"]
        tc_fit = sweep("tau_c", np.logspace(2, 3, 9), s=1.0, b=1.0).fits["quasi_static"]
        assert s_fit.slope == pytest.approx(1.0, abs=0.05)
        assert b_fit.slope == pytest.approx(-1.0, abs=0.05)
        assert tc_fit.slope == pytest.approx(0.0, abs=0.05)


# a smooth concave objective, separable so that on every grid the best point
# of each axis is the one nearest the maximum
def _concave(x_star, y_star, a, c):
    def objective(x, y):
        return -a * (x - x_star) ** 2 - c * (y - y_star) ** 2 - (x - x_star) ** 4
    return objective


_CELL = (np.pi / 2) / 64
_BOUNDS = (1e-9, np.pi / 2)


class TestGridMax2d:
    @settings(max_examples=60, deadline=None)
    @given(
        x_star=st.floats(0.1, 1.4),
        y_star=st.floats(0.1, 1.4),
        a=st.floats(0.1, 100.0),
        c=st.floats(0.1, 100.0),
        dx=st.floats(-1.0, 1.0),
        dy=st.floats(-1.0, 1.0),
    )
    def test_interior_maximum(self, x_star, y_star, a, c, dx, dy):
        # starts within one coarse cell of the maximum, as a ranked grid cell is
        xatol = 1e-6
        x, y, fx, passes = protocol._grid_max_2d(
            _concave(x_star, y_star, a, c), [x_star + dx * _CELL], [y_star + dy * _CELL],
            _CELL, _BOUNDS, xatol,
        )
        assert abs(x[0] - x_star) <= xatol and abs(y[0] - y_star) <= xatol
        # (pi/2)/64/4**7 >= 1e-6 > (pi/2)/64/4**8
        assert passes == 8

    @settings(max_examples=60, deadline=None)
    @given(
        x_star=st.floats(0.1, 1.4),
        beyond=st.floats(0.0, 1.0),
        a=st.floats(0.1, 100.0),
        c=st.floats(0.1, 100.0),
        dx=st.floats(-1.0, 1.0),
        dy=st.floats(-1.0, 0.0),
    )
    def test_maximum_on_the_phi_bound(self, x_star, beyond, a, c, dx, dy):
        # the unconstrained maximum lies at or past phi = pi/2, so the
        # constrained one sits on the bound
        objective = _concave(x_star, np.pi / 2 + beyond, a, c)
        x, y, _, _ = protocol._grid_max_2d(
            objective, [x_star + dx * _CELL, x_star + dx * _CELL],
            [np.pi / 2 + dy * _CELL, np.pi / 2], _CELL, _BOUNDS, 1e-6,
        )
        assert np.all(np.abs(x - x_star) <= 1e-6)
        assert np.all(np.abs(y - np.pi / 2) <= 1e-6)
        assert y[1] == np.pi / 2  # a start on the bound stays exactly on it
        assert np.all(y <= np.pi / 2)

    def test_nan_never_wins(self):
        def objective(x, y):
            return np.where(x > 0.5, np.nan, -((x - 0.4) ** 2) - (y - 0.4) ** 2)

        x, y, fx, _ = protocol._grid_max_2d(objective, [0.45], [0.4], 0.1, _BOUNDS, 1e-6)
        assert np.isfinite(fx[0]) and abs(x[0] - 0.4) <= 1e-6 and abs(y[0] - 0.4) <= 1e-6
