"""Protocol-level optimization of the information yield rate.

With a fixed total sensing budget T split into repetitions of duration tau,
the figure of merit is the yield rate R = max_tau F(tau)/tau, which fixes
the precision per unit time through delta_omega sqrt(T) = 1/sqrt(R).  This
module maximizes R over tau, sweeps it against the spin size and the noise
parameters with power-law exponent fits, optimizes the spin-1 initial
state, and evaluates the same pipeline under pulsed-control coherence
profiles.

Every optimum over tau is a root in u = log tau, solved for all rows at
once by the safeguarded Newton solver of ``ou_noise`` on closed-form
derivatives: for the GHZ curve on the coherence law's log form, so nothing
overflows where the answer is finite; for the spin-1 curve, which need not
be unimodal, inside the bracket of a log-grid scan.  A ``yield_rate`` call
is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import config
from .ou_noise import (
    DDProfile,
    OUNoise,
    _dd_law,
    _free_law,
    _is_normal,
    _Law,
    _law_roots,
    _newton_roots,
    classify,
    t2,
)
from .qfi import _Q_VANISHES, _spin1_coefficients, _spin1_from_coefficients, _spin1_log_slope
from .spin_ops import SpinQuantumNumber

# Largest pulsed-control n for which log chi + log slope rises in log tau at
# every shape constant, so its root is the one GHZ optimum:
# 2k^2y^2 + (2k - k^2)y + 1 >= 0 on (0, 1), k = n - 1, holds to k = 2 + 2 sqrt 2.
_DD_MAX_N = 3.0 + 2.0 * math.sqrt(2.0)

# Angle grid points per axis in each pass of the spin-1 state search (odd,
# at least 5): the spacing of a 9 x 9 grid is a quarter of its half-width, so
# recentering on the best point and quartering the half-width shrinks the box
# by (k - 1)/2 = 4 per pass.  A pass is one batched rate solve whose time is
# mostly fixed per-call overhead at these row counts, so fewer, wider passes
# are faster: 8 from one coarse cell down to config.STATE_XATOL.
_STATE_GRID_POINTS = 9


@dataclass(frozen=True)
class YieldResult:
    rate: float
    tau_opt: float


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

    values: np.ndarray
    rates: np.ndarray
    tau_opts: np.ndarray
    markov_params: np.ndarray
    regimes: tuple[str, ...]  # classify's label per row
    fits: dict[str, ExponentFit] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def status(self) -> tuple[str, ...]:
        """Per row: "failed" where ``_ghz_optima`` found no usable optimum (its
        rate and tau_opt are NaN), else "ok"."""
        return tuple("ok" if np.isfinite(rate) else "failed" for rate in self.rates)


@dataclass(frozen=True)
class StateOptResult:
    theta_opt: float
    phi_opt: float
    r_max: float
    r_ghz: float
    fidelity_with_ghz: float
    # solver diagnostics: rate rows solved (1 at the GHZ point plus
    # passes x starts x _STATE_GRID_POINTS**2 = 81), the nested-grid passes,
    # (theta, phi) of each start (the distinct coarse peaks, at most
    # config.STATE_REFINE_STARTS) with the rate it ended on, whether no start
    # beat the GHZ point, and the rate rows whose scan bracket held no root
    # (they keep their scan point)
    rate_evaluations: int = 0
    starts: tuple[tuple[float, float, float], ...] = ()
    ghz_won: bool = False
    passes: int = 0
    unbracketed: int = 0


def _ghz_optima(law: _Law, two_s) -> tuple[np.ndarray, np.ndarray]:
    """tau_opt and R = max_tau F/tau of the GHZ curve (2S tau)^2 exp(-2 (2S)^2 chi), per row.

    d log(F/tau)/d log tau = 1 - 2 (2S)^2 chi slope, so tau_opt is the root
    of log(2 (2S)^2) + log chi + log slope, which increases in log tau; the
    rate is evaluated there as (2S)^2 tau exp(-2 (2S)^2 chi), with the
    exponent taken from log chi, and as 2S (2S tau) exp(...) where (2S)^2
    overflows.  A row whose rate or tau_opt is not a normal double
    (``_is_normal``, the rule of ``t2`` as well) is NaN in both.
    """
    two_s = np.asarray(two_s, dtype=float)
    log_a = math.log(2.0) + 2.0 * np.log(two_s)
    u = _law_roots(law, log_a, with_slope=True)
    with np.errstate(all="ignore"):
        tau, square = np.exp(u), two_s**2
        rate = (np.where(np.isinf(square), two_s * (two_s * tau), square * tau)
                * np.exp(-np.exp(log_a + law.log_chi(u)[0])))
    usable = _is_normal(rate) & _is_normal(tau)
    return np.where(usable, tau, np.nan), np.where(usable, rate, np.nan)


def yield_rate(s: SpinQuantumNumber, noise: OUNoise) -> YieldResult:
    """Maximize the GHZ curve's F(tau)/tau over tau by one root solve in log tau.

    The one-row case of the solve that ``sweep`` runs on all rows: where
    ``_ghz_optima`` finds no usable optimum (a row ``sweep`` marks failed),
    it raises FloatingPointError.
    """
    tau_opt, rate = _ghz_optima(_free_law(noise.b, noise.tau_c), [s.two_s])
    if np.isnan(rate[0]):
        raise FloatingPointError(
            f"yield rate or tau_opt at 2S={s.two_s:.16g}, {noise!r} is not a normal double")
    return YieldResult(float(rate[0]), float(tau_opt[0]))


def fit_loglog_exponent(table: SweepTable, window: tuple[int, int]) -> ExponentFit:
    """Power-law exponent of rate vs swept value over rows [lo, hi), which
    must be >= 4 rows of the table, all with finite positive rates."""
    lo, hi = window
    if lo < 0 or hi > len(table):
        raise ValueError(f"fit window {window!r} is not within the table's {len(table)} rows")
    if hi - lo < 4:
        raise ValueError(f"fit window needs >= 4 points, got {hi - lo}")
    x, y = table.values[lo:hi], table.rates[lo:hi]
    if not np.all(np.isfinite(y) & (y > 0)):
        raise ValueError("all rates in the fit window must be finite and positive")
    # least squares on centred logs, in closed form: a line needs no LAPACK,
    # whose first call costs a process 1.4 MB of resident memory
    logx, logy = np.log(x), np.log(y)
    dx = logx - logx.mean()
    slope = float(np.sum(dx * (logy - logy.mean())) / np.sum(dx * dx))
    intercept = float(logy.mean() - slope * logx.mean())
    resid = float(np.max(np.abs(logy - (slope * logx + intercept))))
    return ExponentFit(slope, intercept, resid, (lo, hi), hi - lo)


def _deep_windows(markov_params: np.ndarray, rates: np.ndarray) -> dict[str, tuple[int, int]]:
    """Row ranges deep inside each limiting regime, over rows with a rate only.

    The memory parameter is monotone in any single swept variable, so the
    qualifying rows form a prefix or a suffix of the table; rows that failed
    (NaN rate, at the far ends, where the optimum leaves the range of normal
    doubles) are left out, and the longest contiguous run of what remains is
    the window.
    """
    windows: dict[str, tuple[int, int]] = {}
    deep = {
        "markovian": markov_params <= config.DEEP_MARKOVIAN_BELOW,
        "quasi_static": markov_params >= config.DEEP_QUASI_STATIC_ABOVE,
    }
    for label, rows in deep.items():
        idx = np.flatnonzero(rows & ~np.isnan(rates))
        run = max(np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1), key=len)
        if len(run) >= 4:
            windows[label] = (int(run[0]), int(run[-1]) + 1)
    return windows


def _sweep_rows(parameter: str, grid, s, b, tau_c):
    """The rows of a sweep, one array each: the swept values, 2S, b, tau_c and
    2S b tau_c.  Spin grid values are rounded to the nearest half-integer and
    deduplicated."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 8:
        raise ValueError("grid must be one-dimensional with >= 8 points")
    if not np.all(np.isfinite(g)) or np.any(g <= 0) or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be finite, positive and strictly increasing")
    fixed = {"s": s, "b": b, "tau_c": tau_c}
    if parameter not in fixed:
        raise ValueError(f"parameter must be 's', 'b' or 'tau_c', got {parameter!r}")
    required = [name for name in fixed if name != parameter]
    if any(fixed[name] is None for name in required):
        raise ValueError(f"{parameter}-sweep requires fixed {' and '.join(required)}")
    if parameter == "s":
        if not math.isfinite(2 * float(g[-1])):  # g increases: only its last 2S can overflow
            raise ValueError(f"spin must be finite, with 2S finite, got {float(g[-1])!r}")
        two_s = np.array(sorted({max(1, round(2 * v)) for v in g}), dtype=float)
        values = two_s / 2.0
    else:
        values, two_s = g, np.full(len(g), float(SpinQuantumNumber.from_s(s).two_s))
    b_rows, tc_rows = (values if name == parameter else np.full(len(values), fixed[name], float)
                       for name in ("b", "tau_c"))
    for name, col in (("b", b_rows), ("tau_c", tc_rows)):
        if not np.all((col > 0) & (col < math.inf)):
            raise ValueError(f"{name} must be positive and finite")
    with np.errstate(over="ignore"):
        return values, two_s, b_rows, tc_rows, two_s * b_rows * tc_rows


def _solve_table(values, markov_params, two_s, law: _Law) -> SweepTable:
    """Optimize every row of a sweep in one batched solve and fit its exponents.

    A row that ``_ghz_optima`` leaves NaN is failed and left out of the fits.
    """
    tau_opt, rate = _ghz_optima(law, two_s)
    table = SweepTable(values, rate, tau_opt, markov_params, tuple(map(classify, markov_params)))
    windows = _deep_windows(markov_params, rate).items()
    return replace(table, fits={label: fit_loglog_exponent(table, w) for label, w in windows})


def sweep(
    parameter: str,
    grid,
    *,
    s: float | None = None,
    b: float | None = None,
    tau_c: float | None = None,
) -> SweepTable:
    """Optimized yield rate along a log grid of one parameter.

    ``parameter`` is one of "s", "b", "tau_c"; the other two must be given
    as fixed values.  Spin grid values are rounded to the nearest
    half-integer and deduplicated.  All rows are solved together; row i
    equals ``yield_rate`` at the same inputs, and is failed (NaN) exactly
    where ``yield_rate`` raises.  Exponent fits are attached for every
    deep-regime window containing at least four usable rows.
    """
    values, two_s, b_rows, tc_rows, markov_params = _sweep_rows(parameter, grid, s, b, tau_c)
    return _solve_table(values, markov_params, two_s, _free_law(b_rows, tc_rows))


def _grid_max_2d(objective, x, y, half_width: float, bounds: tuple[float, float], xatol: float):
    """Maximize ``objective`` around every start (x_i, y_i) at once by nested grids.

    ``objective`` maps two (starts, k*k) arrays of points to their values,
    k = ``_STATE_GRID_POINTS``.  Each pass evaluates a k x k grid of the
    given half-width around every start, clipped to ``bounds`` on both axes,
    recenters each start on its best point and divides the half-width by
    (k - 1)/2, so the next half-width is this grid's spacing, while the
    half-width is at least ``xatol`` (at least one pass).  NaN values never
    win, and the center is always on the grid, so a start's value never
    falls.  Returns the final points, their values and the passes made.
    """
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    rows = np.arange(len(x))
    offsets = np.linspace(-1.0, 1.0, _STATE_GRID_POINTS)
    dx, dy = (a.ravel() for a in np.meshgrid(offsets, offsets, indexing="ij"))
    shrink = (_STATE_GRID_POINTS - 1) // 2
    # counted on the half-widths the passes use, not from a rounded logarithm
    passes = 1
    while half_width / shrink**passes >= xatol:
        passes += 1
    for n in range(passes):
        h = half_width / shrink**n
        gx = np.clip(x[:, None] + h * dx, *bounds)
        gy = np.clip(y[:, None] + h * dy, *bounds)
        vals = np.asarray(objective(gx, gy), dtype=float)
        j = np.argmax(np.where(np.isnan(vals), -np.inf, vals), axis=1)
        x, y, fx = gx[rows, j], gy[rows, j], vals[rows, j]
    return x, y, fx, passes


def _grid_peaks(values: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of the <= ``count`` best local maxima of a 2-d grid, best first.

    A cell is a local maximum when it is at least each of its 8 neighbours,
    with -inf beyond the edges; on a plateau only the first of equal
    neighbours in row-major order counts, so no two peaks are adjacent.
    """
    rows, cols = values.shape
    padded = np.pad(values, 1, constant_values=-np.inf)
    peak = np.ones(values.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                near = padded[1 + di : 1 + di + rows, 1 + dj : 1 + dj + cols]
                peak &= values > near if (di, dj) < (0, 0) else values >= near
    idx = np.flatnonzero(peak)
    return idx[np.argsort(values.ravel()[idx])[::-1][:count]]


def _spin1_scanner(d: np.ndarray, tau: np.ndarray, chunk_rows: int):
    """F/tau of many spin-1 states on one row of (D, tau) points, by two small matrix products.

    With F/tau = tau D p(D)/q(D), builds the tables Vp[k] = D^(k+1) tau
    (k = 0..6) and Vq[k] = D^k (k = 0..3) once, so a chunk of states is
    stack(p) @ Vp over stack(q) @ Vq and tau^2 is never formed.  Returns a
    function that maps 1-d coefficient arrays (``qfi._spin1_coefficients``)
    to each state's best point index and F/tau there, 0 where q vanishes.
    It works ``chunk_rows`` states at a time, in two buffers of chunk_rows x
    points that every chunk reuses.  Table entries below the smallest normal
    double are 0: subnormal operands make each product several times slower.
    """
    vp = d ** np.arange(1, 8)[:, None] * tau
    vq = d ** np.arange(4)[:, None]
    tiny = np.finfo(float).tiny
    vp[vp < tiny] = 0.0
    vq[vq < tiny] = 0.0
    num = np.empty((chunk_rows, len(d)))
    den, bad = np.empty_like(num), np.empty(num.shape, dtype=bool)

    def scan(p, q):
        p, q = np.stack(p, axis=1), np.stack(q, axis=1)
        i, best = np.empty(len(p), dtype=np.intp), np.empty(len(p))
        for k in range(0, len(p), chunk_rows):
            m = min(chunk_rows, len(p) - k)
            f, g, vanish = num[:m], den[:m], bad[:m]
            np.matmul(p[k : k + m], vp, out=f)
            np.matmul(q[k : k + m], vq, out=g)
            np.logical_not(np.greater(g, _Q_VANISHES, out=vanish), out=vanish)
            np.copyto(g, np.inf, where=vanish)  # F/tau is then 0 where q vanishes
            np.divide(f, g, out=f)
            j = np.argmax(f, axis=1)
            i[k : k + m], best[k : k + m] = j, f[np.arange(m), j]
        return i, best

    return scan


def _spin1_rates(noise: OUNoise):
    """The spin-1 yield rate of many (theta, phi) states at one noise point.

    Returns the ``_spin1_scanner`` of the tau scan, a function that maps
    equal-shape theta and phi arrays to the rate of each state, and a list
    that receives, per call, the number of rows whose scan bracket held no
    root.  The scan is one row of 200 tau points over [T2/100, 100 T2] of
    the spin-1 GHZ state, with D = exp(-2 chi) on it.  chi comes from the
    log form of the free law (``_free_law``), so neither b^2 tau_c^2 nor
    tau/tau_c is formed and chi is finite wherever log chi is.  In ``rates``
    a row's best scan point and its two neighbours bracket the root of
    d log(F/tau)/d log tau = 1 - 2 tau chi' L, L = d log(D P/Q)/d log D,
    which ``_newton_roots`` solves from the scan point.  One ``log_chi`` call
    per step gives chi, its slope s and g = d log(tau chi')/d log tau, so
    tau chi' = chi s and the derivative is 2 chi s (g L - 2 chi s dL/d log D).
    The rate there is F/tau in the Horner form of ``qfi``, which the oracle
    suite checks, again without tau^2, so it does not overflow where F does.
    A row with no sign change keeps its scan point, no row depends on the
    others, and a rate that is not finite raises FloatingPointError.
    """
    t2_val = t2(SpinQuantumNumber(2), noise)
    tau_grid = np.logspace(np.log10(t2_val * config.SPIN1_TAU_LO),
                           np.log10(t2_val * config.SPIN1_TAU_HI), config.SPIN1_TAU_POINTS)
    law = _free_law(noise.b, noise.tau_c)
    log_grid, last = np.log(tau_grid), len(tau_grid) - 1
    with np.errstate(all="ignore"):
        scan = _spin1_scanner(np.exp(-2.0 * np.exp(law.log_chi(log_grid)[0])), tau_grid,
                              config.STATE_CHUNK_ROWS)
    unbracketed: list[int] = []

    def rates(theta, phi):
        p, q = _spin1_coefficients(np.ravel(theta), np.ravel(phi))
        i, at_i = scan(p, q)

        def h(u):  # -d log(F/tau)/d log tau at tau = e^u, with tau chi' = chi slope
            log_chi, slope, bend = law.log_chi(u)
            c = np.exp(log_chi)
            log_slope, curve = _spin1_log_slope(p, q, np.exp(-2.0 * c))
            rise = 2.0 * c * slope  # 2 tau chi'
            return rise * log_slope - 1.0, rise * (bend * log_slope - rise * curve)

        with np.errstate(all="ignore"):
            a, z = log_grid[np.maximum(i - 1, 0)], log_grid[np.minimum(i + 1, last)]
            h_a, h_z = h(np.stack([a, z]))[0]
            ok = (h_a <= 0) & (h_z >= 0) & np.isfinite(h_z)
            u = _newton_roots(h, log_grid[i], np.where(ok, a, np.nan), np.where(ok, z, np.nan))
            d = np.exp(-2.0 * np.exp(law.log_chi(u)[0]))
            root = _spin1_from_coefficients(p, q, d, np.exp(u))
        bracketed = np.isfinite(u)
        r = np.where(bracketed, root, at_i)
        if not np.all(np.isfinite(r)):
            raise FloatingPointError(f"spin-1 yield rate at {noise!r} is not finite")
        unbracketed.append(int(np.count_nonzero(~bracketed)))
        return r.reshape(np.shape(theta))

    return scan, rates, unbracketed


def optimize_initial_state_spin1(noise: OUNoise) -> StateOptResult:
    """Best spin-1 initial state for the yield rate, against the GHZ baseline.

    Ranks a grid over the two amplitude angles (the relative phases do not
    enter the QFI) by the best F/tau on the tau scan, two small matrix
    products per chunk of ``config.STATE_CHUNK_ROWS`` cells; refines the best
    distinct peaks of that grid (at most ``config.STATE_REFINE_STARTS`` cells,
    each at least its 8 neighbours) together on nested 9 x 9 angle grids
    (``_STATE_GRID_POINTS``; one batched rate solve per pass, from a
    half-width of one cell, quartered each pass, down to
    ``config.STATE_XATOL``: 8 passes); and reports the overlap of the winner
    with the GHZ-like state after zeroing the phases of both.  The GHZ point
    itself is part of the candidate set, so r_max can never fall below
    r_ghz.  Each rate is the maximum of the spin-1 curve's F/tau, solved by
    ``_spin1_rates``; a rate that is not finite raises FloatingPointError.
    """
    scan, rates, unbracketed = _spin1_rates(noise)
    n = config.STATE_GRID_SIZE
    cell = (math.pi / 2) / n
    angles = (np.arange(n) + 0.5) * cell  # interior of (0, pi/2)
    th, ph = np.meshgrid(angles, angles, indexing="ij")
    th, ph = th.ravel(), ph.ravel()

    # coarse rate on the tau grid only, to rank refinement starts
    _, coarse = scan(*_spin1_coefficients(th, ph))

    r_ghz = float(rates(np.array([math.pi / 4]), np.array([math.pi / 2]))[0])
    idx = _grid_peaks(coarse.reshape(n, n), config.STATE_REFINE_STARTS)
    x, y, fx, passes = _grid_max_2d(
        rates, th[idx], ph[idx], cell, (1e-9, math.pi / 2), config.STATE_XATOL
    )
    best_theta, best_phi, best_rate = math.pi / 4, math.pi / 2, r_ghz
    i = int(np.argmax(fx))
    if fx[i] > best_rate:
        best_theta, best_phi, best_rate = float(x[i]), float(y[i]), float(fx[i])

    fid = abs(math.cos(best_theta) + math.sin(best_theta) * math.sin(best_phi)) / math.sqrt(2.0)
    return StateOptResult(
        best_theta, best_phi, best_rate, r_ghz, fid,
        rate_evaluations=1 + passes * len(idx) * _STATE_GRID_POINTS**2,
        starts=tuple(zip(th[idx].tolist(), ph[idx].tolist(), fx.tolist())),
        ghz_won=best_rate == r_ghz,
        passes=passes,
        unbracketed=sum(unbracketed),
    )


def dd_scaling(profile: DDProfile, s_grid: Sequence[float], noise: OUNoise) -> SweepTable:
    """Spin-size sweep of the yield rate with the pulsed-control coherence law.

    In the short-time branch the fitted exponent approaches 2 - 2/n; deep in
    the Markovian branch the control is ineffective and the rate is flat.
    The optimum is unique only for n <= 3 + 2 sqrt 2; a larger n is rejected.
    """
    if profile.n > _DD_MAX_N:
        raise ValueError(
            f"dd_scaling needs n <= 3 + 2 sqrt(2) = {_DD_MAX_N:.6f} for a unique optimum, "
            f"got {profile.n!r}")
    values, two_s, _, _, markov_params = _sweep_rows("s", s_grid, None, noise.b, noise.tau_c)
    return _solve_table(values, markov_params, two_s, _dd_law(noise, profile))


def __getattr__(name: str):
    """Import and bind scipy's ``minimize`` on first lookup, for the benchmark tracer:
    only that lookup, made with the ``test`` extra installed, imports scipy."""
    # ROADMAP item 1 deletes this hook once the tracer reads the program's own counters
    if name == "minimize":
        from scipy.optimize import minimize

        globals()[name] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
