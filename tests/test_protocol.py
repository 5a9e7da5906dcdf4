import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsense import (
    DDProfile,
    Spin1Params,
    OUNoise,
    RegimeKind,
    SpinQuantumNumber,
    SweepTable,
    YieldMethod,
    chi,
    dd_chi,
    dd_scaling,
    dd_t2,
    fit_loglog_exponent,
    ghz_qfi_values,
    optimize_initial_state_spin1,
    qfi_spin1_closed,
    spin1_param_state,
    spin1_qfi_values,
    sweep,
    t2,
    yield_rate,
    yield_rate_asymptotic,
)
from spinsense import config, protocol
from spinsense.protocol import _refine_max

SQRT_2_OVER_E = math.sqrt(2.0 / math.e)


class TestRefineMax:
    def test_parabola(self):
        # position accuracy near a smooth maximum is limited to ~sqrt(eps)
        # by comparisons of nearly equal function values
        x, fx = _refine_max(lambda t: -(t - 2.0) ** 2 + 5.0, [0.5], [4.0], 1e-10)
        assert x[0] == pytest.approx(2.0, rel=1e-6)
        assert fx[0] == pytest.approx(5.0)

    def test_several_brackets_in_one_call(self):
        # row 0: parabola peaked at 2; row 1: increasing, so the maximum is
        # the bracket's upper edge; row 2: flat
        peak = np.array([2.0, 0.0, 0.0])[:, None]
        slope = np.array([0.0, 1.0, 0.0])[:, None]
        curv = np.array([1.0, 0.0, 0.0])[:, None]
        objective = lambda t: 5.0 - curv * (t - peak) ** 2 + slope * t
        lo, hi = [0.5, 1.0, 3.0], [4.0, 2.0, 7.0]
        x, fx = _refine_max(objective, lo, hi, 1e-10)
        assert x[0] == pytest.approx(2.0, rel=1e-6) and fx[0] == pytest.approx(5.0)
        assert x[1] == pytest.approx(2.0, rel=1e-9) and fx[1] == pytest.approx(7.0, rel=1e-9)
        assert 3.0 <= x[2] <= 7.0 and fx[2] == 5.0
        # each row stops on its own bracket width, independent of the others
        for i in range(3):
            row = slice(i, i + 1)
            xi, fi = _refine_max(lambda t: objective(t)[row], lo[row], hi[row], 1e-10)
            assert (xi[0], fi[0]) == (x[i], fx[i])

    def test_nan_never_wins(self):
        objective = lambda t: np.where(t > 1.5, np.nan, -((t - 1.0) ** 2))
        x, fx = _refine_max(objective, [0.0], [2.0], 1e-9)
        assert x[0] == pytest.approx(1.0, abs=1e-6) and fx[0] == pytest.approx(0.0, abs=1e-12)


class TestYieldRate:
    def test_quasi_static_asymptote(self):
        # memory parameter 2 S b tau_c = 100
        s, noise = SpinQuantumNumber(1), OUNoise(1.0, 100.0)
        result = yield_rate(s, noise)
        assert result.rate == pytest.approx(SQRT_2_OVER_E * s.s / noise.b, rel=0.02)
        assert result.tau_opt == pytest.approx(1.0 / (math.sqrt(2.0) * s.two_s * noise.b), rel=0.02)
        assert result.regime.kind is RegimeKind.QUASI_STATIC
        assert not result.on_boundary

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

    def test_custom_curve_and_boundary_flag(self):
        s, noise = SpinQuantumNumber(1), OUNoise(1.0, 1.0)
        # a curve maximized far outside the scan window gets flagged
        result = yield_rate(s, noise, lambda t: np.asarray(t) ** 0.5)
        assert result.on_boundary

    def test_method_tag(self):
        assert yield_rate(SpinQuantumNumber(1), OUNoise(1.0, 1.0)).method is YieldMethod.NUMERIC


class TestYieldRateAsymptotic:
    def test_quasi_static_value(self):
        result = yield_rate_asymptotic(SpinQuantumNumber(2), OUNoise(1.0, 100.0),
                                       RegimeKind.QUASI_STATIC)
        assert result.rate == pytest.approx(0.857763884960707, rel=1e-12)
        assert result.method is YieldMethod.ASYMPTOTIC_QUASI_STATIC

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

    def test_rejects_missing_fixed_parameters(self):
        with pytest.raises(ValueError):
            sweep("s", np.logspace(0, 1, 8), b=1.0)
        with pytest.raises(ValueError):
            sweep("nope", np.logspace(0, 1, 8), b=1.0, tau_c=1.0)


def _chi_closed_form(b, tau_c, tau):
    # b^2 tau_c^2 (x + expm1(-x)), x = tau/tau_c, by its series where that cancels
    x = tau / tau_c
    series = x * x * (0.5 - x * (1 / 6 - x * (1 / 24 - x / 120)))
    return b * b * tau_c * tau_c * np.where(x < 1e-3, series, x + np.expm1(-x))


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

    @pytest.mark.parametrize("param", ["s", "b", "tau_c"])
    def test_rows_equal_yield_rate_exactly(self, param):
        grid, fixed = self.CASES[param]
        table = sweep(param, grid, **fixed)
        for two_s, b, tau_c, rate, tau_opt in zip(*self._rows(param, table, fixed),
                                                  table.rates, table.tau_opts):
            single = yield_rate(SpinQuantumNumber(int(two_s)), OUNoise(b, tau_c))
            assert (single.rate, single.tau_opt) == (rate, tau_opt)

    def test_dd_rows_equal_yield_rate_exactly(self):
        profile, noise = DDProfile(3), OUNoise(1.0, 100.0)
        table = dd_scaling(profile, np.logspace(0, np.log10(64), 10), noise)
        for s_val, rate in zip(table.values, table.rates):
            sq = SpinQuantumNumber.from_s(s_val)
            curve = lambda t: (sq.two_s * t) ** 2 * np.exp(
                -2.0 * sq.two_s**2 * dd_chi(noise, profile, t))
            single = yield_rate(sq, noise, curve, t2_time=dd_t2(sq, noise, profile))
            assert single.rate == rate

    def test_failed_rows_left_out_of_fits(self):
        table = sweep("tau_c", np.logspace(-300, 300, 16), s=0.5, b=1.0)
        failed = [i for i, st in enumerate(table.status) if st == "failed"]
        assert failed and np.all(np.isnan(table.rates[failed]))
        lo, hi = table.fits["quasi_static"].window
        assert not set(range(lo, hi)) & set(failed)


class TestFitLogLog:
    @staticmethod
    def _table(values, rates):
        n = len(values)
        return SweepTable(
            param_name="b",
            values=np.asarray(values, float),
            rates=np.asarray(rates, float),
            tau_opts=np.ones(n),
            markov_params=np.ones(n),
            regimes=tuple([RegimeKind.INTERMEDIATE] * n),
            on_boundary=tuple([False] * n),
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
        x = np.logspace(0, 1, 8)
        with pytest.raises(ValueError):
            fit_loglog_exponent(self._table(x, x), (0, 3))

    def test_rejects_nonpositive_rates(self):
        x = np.logspace(0, 1, 8)
        rates = np.ones(8)
        rates[3] = 0.0
        with pytest.raises(ValueError):
            fit_loglog_exponent(self._table(x, rates), (0, 8))


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
        _, _, rates = protocol._spin1_rates(noise, config.YieldSearchConfig())
        batched = rates(pairs[:, 0], pairs[:, 1])
        sq = SpinQuantumNumber(2)
        for (theta, phi), got in zip(pairs, batched):
            curve = lambda t: spin1_qfi_values(theta, phi, chi(noise, t), t)
            assert got == pytest.approx(yield_rate(sq, noise, curve).rate, rel=1e-12)

    def test_batched_rate_does_not_depend_on_the_batch(self):
        # a row solved alone equals the same row inside a starts x 5 x 5 batch
        noise = OUNoise(1.0, 1e-3)
        _, _, rates = protocol._spin1_rates(noise, config.YieldSearchConfig())
        rng = np.random.default_rng(7)
        theta, phi = rng.uniform(1e-9, np.pi / 2, size=(2, 5, 25))
        batch = rates(theta, phi)
        assert batch.shape == (5, 25)
        for i, j in [(0, 0), (2, 12), (4, 24)]:
            alone = rates(theta[i, j : j + 1], phi[i, j : j + 1])
            assert alone[0] == batch[i, j]

    def test_result_diagnostics(self):
        search = config.StateSearchConfig()
        result = optimize_initial_state_spin1(OUNoise(1.0, 1e-3), search=search)
        # from one coarse cell down to xatol: (pi/2)/64 / 2**14 >= 1e-6 > (pi/2)/64 / 2**15
        assert result.passes == 15
        assert result.rate_evaluations == 1 + result.passes * search.refine_starts * 25
        assert len(result.starts) == search.refine_starts
        assert max(r for _, _, r in result.starts) == result.r_max
        assert not result.ghz_won

    def test_phase_angles_do_not_enter_objective(self):
        # the optimizer's objective is built from the phase-free closed form;
        # spot-check that states differing only by phases give the same QFI
        chi_val, tau = 0.15, 0.8
        base = qfi_spin1_closed(Spin1Params(0.9, 0.7), chi_val, tau).value
        for l1, l2 in [(0.3, 1.1), (2.0, 4.0), (5.5, 0.2)]:
            state = spin1_param_state(Spin1Params(0.9, 0.7, l1, l2))
            assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0)
            same = qfi_spin1_closed(Spin1Params(0.9, 0.7, l1, l2),
                                    chi_val, tau).value
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
        assert passes == 15

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
