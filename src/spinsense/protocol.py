"""Protocol-level optimization of the information yield rate.

With a fixed total sensing budget T split into repetitions of duration tau,
the figure of merit is the yield rate R = max_tau F(tau)/tau, which fixes
the precision per unit time through delta_omega sqrt(T) = 1/sqrt(R).  This
module maximizes R over tau, sweeps it against the spin size and the noise
parameters with power-law exponent fits, optimizes the spin-1 initial
state, and evaluates the same pipeline under pulsed-control coherence
profiles.

Every maximization runs through one batched solver: a log-grid scan of all
rows at once, then nested uniform grids on every row's bracket together.
A single ``yield_rate`` call is its one-row case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from . import config
from .ou_noise import (
    DDProfile,
    NoiseRegime,
    OUNoise,
    RegimeKind,
    _chi,
    _dd_t2_rows,
    _free_t2_rows,
    _regime_kind,
    chi,
    classify,
    dd_chi,
    t2,
)
from .qfi import _ghz_values, _spin1_coefficients, _spin1_from_coefficients, ghz_qfi_values
from .spin_ops import SpinQuantumNumber

# Interior points per refinement pass: each pass keeps two of the 64 cells,
# shrinking every bracket 32-fold, so five passes take the ~0.1 relative
# width of a scan bracket below 1e-8.
_REFINE_POINTS = 63


class YieldMethod(enum.Enum):
    NUMERIC = "numeric"
    ASYMPTOTIC_QUASI_STATIC = "asymptotic_quasi_static"
    ASYMPTOTIC_MARKOVIAN = "asymptotic_markovian"


@dataclass(frozen=True)
class YieldResult:
    rate: float
    tau_opt: float
    regime: NoiseRegime
    method: YieldMethod
    on_boundary: bool = False

    def __post_init__(self):
        if self.rate < 0 or self.tau_opt <= 0:
            raise ValueError("yield rate must be >= 0 and tau_opt > 0")


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log R against log of the swept parameter."""

    slope: float
    intercept: float
    max_residual: float
    window: tuple[int, int]  # half-open row range [lo, hi)
    n_points: int


@dataclass(frozen=True, eq=False)
class SweepTable:
    """One optimized protocol per grid value, plus per-window exponent fits."""

    param_name: str
    values: np.ndarray
    rates: np.ndarray
    tau_opts: np.ndarray
    markov_params: np.ndarray
    regimes: tuple[RegimeKind, ...]
    on_boundary: tuple[bool, ...]
    fits: dict[str, ExponentFit] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def status(self) -> tuple[str, ...]:
        """Per row: "failed" where no finite positive rate was found (its rate
        and tau_opt are NaN), "boundary" where the scan's best point sits on a
        grid edge, else "ok"."""
        return tuple(
            "failed" if not np.isfinite(rate) else "boundary" if edge else "ok"
            for rate, edge in zip(self.rates, self.on_boundary)
        )


@dataclass(frozen=True)
class StateOptResult:
    theta_opt: float
    phi_opt: float
    r_max: float
    r_ghz: float
    fidelity_with_ghz: float
    # solver diagnostics: yield-rate solves made, (nfev, success) of each
    # Nelder-Mead start, and whether no start beat the GHZ point
    rate_evaluations: int = 0
    starts: tuple[tuple[int, bool], ...] = ()
    ghz_won: bool = False


def _scan_taus(t2_vals, search: config.YieldSearchConfig) -> np.ndarray:
    """Log scan grids over [T2 tau_lo_factor, T2 tau_hi_factor], one row per T2."""
    t2_vals = np.asarray(t2_vals, dtype=float)
    return np.logspace(
        np.log10(t2_vals * search.tau_lo_factor),
        np.log10(t2_vals * search.tau_hi_factor),
        search.grid_points,
        axis=-1,
    )


def _refine_max(objective: Callable[[np.ndarray], np.ndarray], lo, hi, rel_tol: float):
    """Maximize a unimodal objective on every bracket [lo_i, hi_i] at once.

    ``objective`` maps a (rows, k) array of points to their values.  Each
    pass evaluates ``_REFINE_POINTS`` evenly spaced interior points of every
    bracket and keeps the two cells around the best one; a row stops once
    its bracket is at most ``rel_tol`` times its midpoint wide, so its result
    does not depend on the other rows.  NaN values never win.  Returns the
    best point of each row's last pass and its value.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    rows = np.arange(len(lo))
    cells = np.arange(_REFINE_POINTS + 2) / (_REFINE_POINTS + 1)
    x, fx = np.full(len(lo), np.nan), np.full(len(lo), np.nan)
    active = np.ones(len(lo), dtype=bool)
    while np.any(active):
        grid = lo[:, None] + (hi - lo)[:, None] * cells
        vals = np.asarray(objective(grid[:, 1:-1]), dtype=float)
        j = np.argmax(np.where(np.isnan(vals), -np.inf, vals), axis=1)
        x = np.where(active, grid[rows, j + 1], x)
        fx = np.where(active, vals[rows, j], fx)
        lo = np.where(active, grid[rows, j], lo)
        hi = np.where(active, grid[rows, j + 2], hi)
        active &= hi - lo > rel_tol * 0.5 * (lo + hi)
    return x, fx


def _maximize_rate(curve, taus: np.ndarray, rel_tol: float):
    """Per row of the scan grids ``taus``, the maximum of curve(tau)/tau.

    The curve maps a (rows, k) array of times to QFI values.  Each row's
    scan argmax and its two neighbours bracket the refinement.  Rows that
    over- or underflow come out non-finite, without a warning.  Returns
    tau_opt, the rate there, and whether the scan argmax sat on a grid edge.
    """
    def objective(t):
        return np.asarray(curve(t), dtype=float) / t

    rows, n = np.arange(len(taus)), taus.shape[1]
    with np.errstate(all="ignore"):
        scan = objective(taus)
        i = np.argmax(np.where(np.isnan(scan), -np.inf, scan), axis=1)
        lo = taus[rows, np.maximum(i - 1, 0)]
        hi = taus[rows, np.minimum(i + 1, n - 1)]
        tau_opt, rate = _refine_max(objective, lo, hi, rel_tol)
    return tau_opt, rate, (i == 0) | (i == n - 1)


def yield_rate(
    s: SpinQuantumNumber,
    noise: OUNoise,
    qfi_curve: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    t2_time: float | None = None,
    search: config.YieldSearchConfig = config.YieldSearchConfig(),
) -> YieldResult:
    """Maximize F(tau)/tau over tau by log-grid scan plus nested-grid refinement.

    The scan covers [T2 * tau_lo_factor, T2 * tau_hi_factor]; the curve is
    the GHZ closed form unless a custom one is supplied (it must accept
    arrays of tau).  A maximum sitting on a scan edge is flagged rather than
    treated as an error; a rate that is not finite raises FloatingPointError.
    This is the one-row case of the solver that ``sweep`` runs on all rows.
    """
    if qfi_curve is None:
        qfi_curve = lambda t: ghz_qfi_values(s, noise, t)
    t2_val = t2(s, noise) if t2_time is None else t2_time
    tau_opt, rate, on_boundary = _maximize_rate(
        qfi_curve, _scan_taus([t2_val], search), search.rel_tol
    )
    if not (np.isfinite(rate[0]) and np.isfinite(tau_opt[0])):
        raise FloatingPointError(f"yield rate at 2S={s.two_s}, {noise!r} is not finite")
    return YieldResult(
        float(rate[0]), float(tau_opt[0]), classify(s, noise), YieldMethod.NUMERIC,
        bool(on_boundary[0]),
    )


def yield_rate_asymptotic(s: SpinQuantumNumber, noise: OUNoise, regime: RegimeKind) -> YieldResult:
    """Closed-form yield rate deep in a limiting regime.

    Quasi-static: R = sqrt(2/e) S/b at tau_opt = 1/(sqrt(2) 2S b).
    Markovian:    R = 1/(2e b^2 tau_c) at tau_opt = 1/(2 (2Sb)^2 tau_c).
    Both optima equal T2/2 in their regime.
    """
    if regime == RegimeKind.QUASI_STATIC:
        rate = math.sqrt(2.0 / math.e) * s.s / noise.b
        tau_opt = 1.0 / (math.sqrt(2.0) * s.two_s * noise.b)
        method = YieldMethod.ASYMPTOTIC_QUASI_STATIC
    elif regime == RegimeKind.MARKOVIAN:
        rate = 1.0 / (2.0 * math.e * noise.b**2 * noise.tau_c)
        tau_opt = 1.0 / (2.0 * (s.two_s * noise.b) ** 2 * noise.tau_c)
        method = YieldMethod.ASYMPTOTIC_MARKOVIAN
    else:
        raise ValueError(f"no closed form in regime {regime!r}")
    return YieldResult(rate, tau_opt, classify(s, noise), method)


def _fit_window(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    logx, logy = np.log(x), np.log(y)
    slope, intercept = np.polyfit(logx, logy, 1)
    resid = np.max(np.abs(logy - (slope * logx + intercept)))
    return float(slope), float(intercept), float(resid)


def fit_loglog_exponent(table: SweepTable, window: tuple[int, int]) -> ExponentFit:
    """Power-law exponent of rate vs swept value over rows [lo, hi)."""
    lo, hi = window
    if hi - lo < 4:
        raise ValueError(f"fit window needs >= 4 points, got {hi - lo}")
    x = table.values[lo:hi]
    y = table.rates[lo:hi]
    if np.any(y <= 0):
        raise ValueError("all rates in the fit window must be positive")
    slope, intercept, resid = _fit_window(x, y)
    return ExponentFit(slope, intercept, resid, (lo, hi), hi - lo)


def _deep_windows(markov_params: np.ndarray, usable: np.ndarray) -> dict[str, tuple[int, int]]:
    """Row ranges deep inside each limiting regime, over usable rows only.

    The memory parameter is monotone in any single swept variable, so the
    qualifying rows form a prefix or a suffix of the table; rows that failed
    (at the far ends, where chi over- or underflows) are left out, and the
    longest contiguous run of what remains is the window.
    """
    windows: dict[str, tuple[int, int]] = {}
    deep = {
        "markovian": markov_params <= config.DEEP_MARKOVIAN_BELOW,
        "quasi_static": markov_params >= config.DEEP_QUASI_STATIC_ABOVE,
    }
    for label, rows in deep.items():
        idx = np.flatnonzero(rows & usable)
        run = max(np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1), key=len)
        if len(run) >= 4:
            windows[label] = (int(run[0]), int(run[-1]) + 1)
    return windows


def _validated_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 8:
        raise ValueError("grid must be one-dimensional with >= 8 points")
    if not np.all(np.isfinite(g)) or np.any(g <= 0) or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be finite, positive and strictly increasing")
    return g


def _spin_rows(grid: np.ndarray) -> np.ndarray:
    """2S for each distinct half-integer nearest to a grid value, ascending."""
    return np.array(sorted({max(1, round(2 * v)) for v in grid}), dtype=float)


def _solve_table(
    param_name: str,
    values: np.ndarray,
    markov_params: np.ndarray,
    curve,
    t2_vals: np.ndarray,
    search: config.YieldSearchConfig,
) -> SweepTable:
    """Optimize every row of a sweep in one batched solve and fit its exponents.

    A row without a finite positive rate (its T2 or its optimum over- or
    underflowed) gets NaN rate and tau_opt and is left out of the fits.
    """
    tau_opt, rate, on_boundary = _maximize_rate(
        curve, _scan_taus(t2_vals, search), search.rel_tol
    )
    ok = np.isfinite(rate) & np.isfinite(tau_opt) & (rate > 0)
    table = SweepTable(
        param_name=param_name,
        values=values,
        rates=np.where(ok, rate, np.nan),
        tau_opts=np.where(ok, tau_opt, np.nan),
        markov_params=markov_params,
        regimes=tuple(_regime_kind(p) for p in markov_params),
        on_boundary=tuple(bool(v) for v in on_boundary & ok),
    )
    fits = {
        label: fit_loglog_exponent(table, window)
        for label, window in _deep_windows(markov_params, ok).items()
    }
    return replace(table, fits=fits)


def sweep(
    parameter: str,
    grid,
    *,
    s: float | None = None,
    b: float | None = None,
    tau_c: float | None = None,
    search: config.YieldSearchConfig = config.YieldSearchConfig(),
) -> SweepTable:
    """Optimized yield rate along a log grid of one parameter.

    ``parameter`` is one of "s", "b", "tau_c"; the other two must be given
    as fixed values.  Spin grid values are rounded to the nearest
    half-integer and deduplicated.  All rows are solved together; row i
    equals ``yield_rate`` at the same inputs.  Exponent fits are attached
    for every deep-regime window containing at least four usable rows.
    """
    g = _validated_grid(grid)
    if parameter == "s":
        if b is None or tau_c is None:
            raise ValueError("s-sweep requires fixed b and tau_c")
        two_s = _spin_rows(g)
        n = len(two_s)
        values, b_rows, tc_rows = two_s / 2.0, np.full(n, b, float), np.full(n, tau_c, float)
    elif parameter == "b":
        if s is None or tau_c is None:
            raise ValueError("b-sweep requires fixed s and tau_c")
        two_s = np.full(len(g), float(SpinQuantumNumber.from_s(s).two_s))
        values, b_rows, tc_rows = g, g, np.full(len(g), tau_c, float)
    elif parameter == "tau_c":
        if s is None or b is None:
            raise ValueError("tau_c-sweep requires fixed s and b")
        two_s = np.full(len(g), float(SpinQuantumNumber.from_s(s).two_s))
        values, b_rows, tc_rows = g, np.full(len(g), b, float), g
    else:
        raise ValueError(f"parameter must be 's', 'b' or 'tau_c', got {parameter!r}")
    for name, col in (("b", b_rows), ("tau_c", tc_rows)):
        if not np.all((col > 0) & (col < math.inf)):
            raise ValueError(f"{name} must be positive and finite")

    k, bb, tc = two_s[:, None], b_rows[:, None], tc_rows[:, None]
    return _solve_table(
        parameter, values, two_s * b_rows * tc_rows,
        lambda t: _ghz_values(k, _chi(bb, tc, t), t),
        _free_t2_rows(two_s, b_rows, tc_rows), search,
    )


def optimize_initial_state_spin1(
    noise: OUNoise,
    *,
    search: config.StateSearchConfig = config.StateSearchConfig(),
    tau_search: config.YieldSearchConfig = config.YieldSearchConfig(),
) -> StateOptResult:
    """Best spin-1 initial state for the yield rate, against the GHZ baseline.

    Scans a grid over the two amplitude angles (the relative phases do not
    enter the QFI), refines the best grid points with a bounded simplex, and
    reports the overlap of the winner with the GHZ-like state after zeroing
    the phases of both.  The GHZ point itself is part of the candidate set,
    so r_max can never fall below r_ghz.  Each rate is the yield rate of the
    spin-1 curve, solved as ``yield_rate`` solves it; a rate that is not
    finite raises FloatingPointError.
    """
    sq = SpinQuantumNumber(2)
    tau_grid = _scan_taus([t2(sq, noise)], tau_search)  # the scan of every rate below
    d_grid = np.exp(-2.0 * chi(noise, tau_grid))
    evaluations = 0

    def rate(theta: float, phi: float) -> float:
        nonlocal evaluations
        evaluations += 1
        p, q = _spin1_coefficients(theta, phi)  # fixed for the whole tau search

        def curve(t):
            # the scan runs on tau_grid itself, whose D is computed once
            d = d_grid if t is tau_grid else np.exp(-2.0 * _chi(noise.b, noise.tau_c, t))
            return _spin1_from_coefficients(p, q, d, t)

        tau_opt, r, _ = _maximize_rate(curve, tau_grid, tau_search.rel_tol)
        if not (np.isfinite(r[0]) and np.isfinite(tau_opt[0])):
            raise FloatingPointError(f"spin-1 yield rate at {noise!r} is not finite")
        return float(r[0])

    n = search.grid_size
    angles = (np.arange(n) + 0.5) * (math.pi / 2) / n  # interior of (0, pi/2)
    th, ph = np.meshgrid(angles, angles, indexing="ij")
    th, ph = th.ravel(), ph.ravel()

    # coarse rate on the tau grid only, to rank refinement starts
    coarse = np.empty(len(th))
    step = search.chunk_rows
    for k in range(0, len(th), step):
        p, q = _spin1_coefficients(th[k : k + step, None], ph[k : k + step, None])
        f = _spin1_from_coefficients(p, q, d_grid, tau_grid)
        coarse[k : k + step] = np.max(f / tau_grid, axis=1)

    r_ghz = rate(math.pi / 4, math.pi / 2)
    best_theta, best_phi, best_rate = math.pi / 4, math.pi / 2, r_ghz
    starts = []
    for idx in np.argsort(coarse)[::-1][: search.refine_starts]:
        res = minimize(
            lambda x: -rate(x[0], x[1]),
            [th[idx], ph[idx]],
            method="Nelder-Mead",
            bounds=[(1e-9, math.pi / 2), (1e-9, math.pi / 2)],
            options={"xatol": search.xatol, "fatol": 1e-12},
        )
        starts.append((int(res.nfev), bool(res.success)))
        if -res.fun > best_rate:
            best_theta, best_phi, best_rate = float(res.x[0]), float(res.x[1]), float(-res.fun)

    fid = abs(math.cos(best_theta) + math.sin(best_theta) * math.sin(best_phi)) / math.sqrt(2.0)
    return StateOptResult(
        best_theta, best_phi, best_rate, r_ghz, fid,
        rate_evaluations=evaluations, starts=tuple(starts), ghz_won=best_rate == r_ghz,
    )


def dd_scaling(
    profile: DDProfile,
    s_grid: Sequence[float],
    noise: OUNoise,
    *,
    search: config.YieldSearchConfig = config.YieldSearchConfig(),
) -> SweepTable:
    """Spin-size sweep of the yield rate with the pulsed-control coherence law.

    In the short-time branch the fitted exponent approaches 2 - 2/n; deep in
    the Markovian branch the control is ineffective and the rate is flat.
    """
    g = _validated_grid(s_grid)
    two_s = _spin_rows(g)
    k = two_s[:, None]
    return _solve_table(
        "s", two_s / 2.0, two_s * noise.b * noise.tau_c,
        lambda t: _ghz_values(k, dd_chi(noise, profile, t), t),
        _dd_t2_rows(two_s, noise, profile), search,
    )
