"""Ornstein-Uhlenbeck dephasing noise: coherence integral, decoherence time,
regime classification, an exact stochastic sampler, and pulsed-control variants.

The noise is a stationary Gaussian process with autocorrelation
b^2 exp(-|t-t'|/tau_c).  Its effect on a spin coherence is governed by the
half-variance of the accumulated random phase,

    chi(tau) = b^2 tau_c^2 (tau/tau_c + exp(-tau/tau_c) - 1),

which crosses over from b^2 tau^2 / 2 (tau << tau_c) to b^2 tau_c tau
(tau >> tau_c).  The dimensionless product 2*S*b*tau_c decides whether the
extremal coherence of a spin-S probe dies in the Gaussian (quasi-static) or
the exponential (Markovian) branch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from . import config
from .spin_ops import SpinQuantumNumber

_CHI_SERIES_BELOW = 1e-4  # below this x, evaluate x + e^-x - 1 by series
_T2_RTOL = 1e-12  # relative bracket width at which the T2 solve stops
_T2_STEP = 0.4 * _T2_RTOL  # smallest step of the T2 solve, in log t
_LN2 = math.log(2.0)  # bracket moves halve or double t
_MC_CHUNK_ROWS = 256  # paths drawn and reduced per chunk of a Monte Carlo block


@dataclass(frozen=True)
class OUNoise:
    """Noise magnitude b (angular frequency) and memory time tau_c."""

    b: float
    tau_c: float

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise ValueError(f"b must be positive and finite, got {self.b!r}")
        if not 0 < self.tau_c < math.inf:
            raise ValueError(f"tau_c must be positive and finite, got {self.tau_c!r}")


class RegimeKind(enum.Enum):
    MARKOVIAN = "markovian"
    INTERMEDIATE = "intermediate"
    QUASI_STATIC = "quasi_static"


@dataclass(frozen=True)
class NoiseRegime:
    """Regime label together with the memory parameter 2*S*b*tau_c it came from."""

    kind: RegimeKind
    markov_param: float


@dataclass(frozen=True)
class DDProfile:
    """Short-time power law tau^n imprinted on chi by pulsed control.

    n = 2 reproduces free evolution; larger n suppresses the early phase
    accumulation.  shape_c sets the crossover of the rational interpolant
    chi = b^2 tau_c^2 x^n / (shape_c + x^{n-1}), whose two power-law limits
    are exact for any shape_c > 0.
    """

    n: float
    shape_c: float = config.DD_SHAPE_CONSTANT

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"exponent n must be >= 1, got {self.n!r}")
        if not self.shape_c > 0:
            raise ValueError(f"shape_c must be positive, got {self.shape_c!r}")


def _chi_core(x: np.ndarray) -> np.ndarray:
    # x + e^-x - 1 as x + expm1(-x), with a series for small x where even
    # that sum cancels
    small = x < _CHI_SERIES_BELOW
    safe = np.where(small, 1.0, x)
    return np.where(small, x * x * (0.5 - x * (1.0 / 6.0 - x / 24.0)), x + np.expm1(-safe))


def _chi(b, tau_c, t: np.ndarray) -> np.ndarray:
    """chi for noise parameters given as arrays that broadcast against t."""
    b, tau_c = np.asarray(b, dtype=float), np.asarray(tau_c, dtype=float)
    return b**2 * tau_c**2 * _chi_core(t / tau_c)


def chi(noise: OUNoise, tau) -> float | np.ndarray:
    """Half-variance of the accumulated random phase after time tau.

    Exact closed form, zero at tau = 0 and strictly increasing.  Accepts a
    scalar or an array of times.
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0):
        raise ValueError("tau must be nonnegative")
    out = _chi(noise.b, noise.tau_c, t)
    return float(out) if out.ndim == 0 else out


def chi_limit(noise: OUNoise, tau, regime: Literal["short", "long"]) -> float | np.ndarray:
    """Asymptote of chi: b^2 tau^2 / 2 (short) or b^2 tau_c tau (long)."""
    t = np.asarray(tau, dtype=float)
    if regime == "short":
        out = 0.5 * noise.b**2 * t**2
    elif regime == "long":
        out = noise.b**2 * noise.tau_c * t
    else:
        raise ValueError(f"regime must be 'short' or 'long', got {regime!r}")
    return float(out) if out.ndim == 0 else out


def _unit_damping_times(chi_fn: Callable[[np.ndarray], np.ndarray], two_s, estimate) -> np.ndarray:
    """Roots of (2S)^2 chi_fn(t) = 1, one per row, by a bracketed solve.

    ``two_s`` and ``estimate`` are arrays of rows; ``chi_fn`` maps an array
    of one time per row to that row's chi.  The solve runs on
    h = log((2S)^2 chi) against log t, close to a straight line of slope 1
    to n.  Each bracket starts at [estimate/2, 5 estimate/2] and is moved by
    halving or doubling until it holds the root, then shrinks by Illinois
    (regula falsi) steps.  A row stops once its bracket is at most
    ``_T2_RTOL`` wide relative to t, so its root does not depend on the other
    rows.  Rows whose damping is not finite wherever the bracket goes (an
    overflowing chi, an underflowing noise) get NaN.
    """
    k2 = np.asarray(two_s, dtype=float) ** 2

    def h(u):  # log of the damping exponent (2S)^2 chi at t = e^u; zero at the root
        return np.log(k2 * chi_fn(np.exp(u)))

    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        est = np.asarray(estimate, dtype=float)
        a, z = np.log(0.5 * est), np.log(2.5 * est)
        h_a, h_z = h(a), h(z)
        move = (h_a > 0) & np.isfinite(h_a)
        while np.any(move):  # root below a: the old a bounds it from above
            z, h_z = np.where(move, a, z), np.where(move, h_a, h_z)
            a = np.where(move, a - _LN2, a)
            h_a = np.where(move, h(a), h_a)
            move &= (h_a > 0) & np.isfinite(h_a)
        move = (h_z < 0) & np.isfinite(z)
        while np.any(move):  # root above z: the old z bounds it from below
            a, h_a = np.where(move, z, a), np.where(move, h_z, h_a)
            z = np.where(move, z + _LN2, z)
            h_z = np.where(move, h(z), h_z)
            move &= h_z < 0
        # h_a may be -inf (chi underflows at the lower end); h_z must be finite
        ok = (h_a <= 0) & (h_z >= 0) & np.isfinite(h_z)

        moved = np.zeros(a.shape)  # -1 if a moved last, +1 if z did
        active = ok & (z - a > _T2_RTOL)
        while np.any(active):
            u = (a * h_z - z * h_a) / (h_z - h_a)
            # a step at least a fraction of the tolerance inside the bracket,
            # so an end that already sits on the root ends the solve
            u = np.clip(np.where(np.isfinite(u), u, 0.5 * (a + z)), a + _T2_STEP, z - _T2_STEP)
            h_u = h(u)
            up = h_u >= 0
            # Illinois: when the same end moves twice running, halve the
            # value kept at the other end so the next step crosses the root
            h_a_next = np.where(up, np.where(moved > 0, 0.5 * h_a, h_a), h_u)
            h_z_next = np.where(up, h_u, np.where(moved < 0, 0.5 * h_z, h_z))
            a = np.where(active & (h_u <= 0), u, a)
            z = np.where(active & up, u, z)
            h_a, h_z = np.where(active, h_a_next, h_a), np.where(active, h_z_next, h_z)
            moved = np.where(active, np.where(up, 1.0, -1.0), moved)
            active &= z - a > _T2_RTOL
    return np.where(ok, np.exp(0.5 * (a + z)), np.nan)


def _free_t2_rows(two_s, b, tau_c) -> np.ndarray:
    """Free-evolution T2 for rows of (2S, b, tau_c); NaN where chi over- or underflows."""
    b, tau_c = np.asarray(b, dtype=float), np.asarray(tau_c, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        k = np.asarray(two_s, dtype=float) * b
        estimate = np.maximum(math.sqrt(2.0) / k, 1.0 / (k**2 * tau_c))
    return _unit_damping_times(lambda t: _chi(b, tau_c, t), two_s, estimate)


def _dd_t2_rows(two_s, noise: OUNoise, profile: DDProfile) -> np.ndarray:
    """Pulsed-control T2 for rows of 2S; NaN where chi over- or underflows.

    ``dd_chi`` squares b as a Python float, so a b^2 beyond the float range
    raises OverflowError instead.
    """
    with np.errstate(over="ignore", divide="ignore"):
        k = np.asarray(two_s, dtype=float) * noise.b
        t_short = noise.tau_c * (profile.shape_c / (k * noise.tau_c) ** 2) ** (1.0 / profile.n)
        estimate = np.maximum(t_short, 1.0 / (k**2 * noise.tau_c))
    return _unit_damping_times(lambda t: dd_chi(noise, profile, t), two_s, estimate)


def _one_root(roots: np.ndarray, what: str) -> float:
    root = float(roots[0])
    if not math.isfinite(root):
        raise FloatingPointError(f"{what} is not finite (chi over- or underflows)")
    return root


def t2(s: SpinQuantumNumber, noise: OUNoise) -> float:
    """Decoherence time: the extremal coherence decays to 1/e, (2S)^2 chi(T2) = 1.

    The bracket is seeded from the two asymptotic roots 1/(sqrt(2) S b) and
    1/((2Sb)^2 tau_c), which bound the exact root within a factor of 2.  This
    is the one-row case of the batched solve; it raises FloatingPointError
    where chi over- or underflows before the root is bracketed.
    """
    roots = _free_t2_rows(np.array([s.two_s]), noise.b, noise.tau_c)
    return _one_root(roots, f"T2 at 2S={s.two_s}, b={noise.b!r}, tau_c={noise.tau_c!r}")


def dd_t2(s: SpinQuantumNumber, noise: OUNoise, profile: DDProfile) -> float:
    """Decoherence time under pulsed control, (2S)^2 chi_dd(T2) = 1."""
    roots = _dd_t2_rows(np.array([s.two_s]), noise, profile)
    return _one_root(roots, f"pulsed-control T2 at 2S={s.two_s}, n={profile.n!r}")


def classify(s: SpinQuantumNumber, noise: OUNoise) -> NoiseRegime:
    """Bin the noise by the memory parameter 2*S*b*tau_c.

    Below ``config.MARKOVIAN_BELOW`` the decay is effectively exponential,
    above ``config.QUASI_STATIC_ABOVE`` effectively Gaussian; the parameter
    is reported so callers can re-bin with their own thresholds.
    """
    param = s.two_s * noise.b * noise.tau_c
    return NoiseRegime(_regime_kind(param), param)


def _regime_kind(param: float) -> RegimeKind:
    """Regime of a memory parameter 2*S*b*tau_c under the config thresholds."""
    if param < config.MARKOVIAN_BELOW:
        return RegimeKind.MARKOVIAN
    if param > config.QUASI_STATIC_ABOVE:
        return RegimeKind.QUASI_STATIC
    return RegimeKind.INTERMEDIATE


def _ou_step(noise: OUNoise, dt: float) -> tuple[float, float]:
    """Exact transition over dt: decay factor alpha and innovation scale sigma_step."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return math.exp(-dt / noise.tau_c), noise.b * math.sqrt(-math.expm1(-2.0 * dt / noise.tau_c))


def sample_ou_paths(noise: OUNoise, dt: float, steps: int, n_paths: int, seed: int) -> np.ndarray:
    """Stationary exact-discretization paths, shape (n_paths, steps + 1).

    x_0 ~ Normal(0, b^2) and
    x_{k+1} = x_k e^{-dt/tau_c} + b sqrt(1 - e^{-2 dt/tau_c}) xi_k,
    so every marginal is exactly stationary at any dt.  Paths are generated
    in fixed blocks of ``config.MC_BLOCK_SIZE``, block j seeded as
    (seed, j), path i taking its steps + 1 normals from row i mod block of
    that block's stream; path i is therefore independent of n_paths and of
    how blocks are distributed over workers.
    """
    alpha, sigma_step = _ou_step(noise, dt)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    from scipy.signal import lfilter  # here, so that importing spinsense loads no scipy

    block = config.MC_BLOCK_SIZE
    out = np.empty((n_paths, steps + 1))
    for j in range((n_paths + block - 1) // block):
        rows = slice(j * block, min((j + 1) * block, n_paths))
        w = np.random.default_rng([seed, j]).standard_normal((rows.stop - rows.start, steps + 1))
        w[:, 0] *= noise.b
        w[:, 1:] *= sigma_step
        out[rows] = lfilter([1.0], [1.0, -alpha], w, axis=1)
    return out


def _phase_weights(noise: OUNoise, dt: float, steps: int) -> np.ndarray:
    """Weights c with trapezoid phase = xi @ c for the raw normals xi of one path.

    The path is x_k = sum_{j<=k} alpha^(k-j) e_j with alpha = e^{-dt/tau_c},
    e_0 = b xi_0 and e_j = sigma_step xi_j, so the phase sum_k w_k x_k equals
    sum_j e_j G_j with G_j = sum_{k>=j} w_k alpha^(k-j), built by the backward
    recursion G_k = w_k + alpha G_{k+1}.
    """
    alpha, sigma_step = _ou_step(noise, dt)
    g = np.empty(steps + 1)
    acc = 0.5 * dt  # the trapezoid's end weight
    g[steps] = acc
    for k in range(steps - 1, 0, -1):
        acc = dt + alpha * acc
        g[k] = acc
    g[0] = 0.5 * dt + alpha * acc
    g[1:] *= sigma_step
    g[0] *= noise.b
    return g


@dataclass(frozen=True)
class McCoherence:
    """Monte Carlo estimate of the dephasing factor E[exp(-i 2S phase)]."""

    mean: complex
    stderr_real: float
    stderr_imag: float
    n_paths: int


def mc_coherence(
    s: SpinQuantumNumber,
    noise: OUNoise,
    tau: float,
    paths: int,
    dt: float,
    seed: int,
) -> McCoherence:
    """Brute-force estimate of the extremal coherence of a dephased spin-S.

    Each path accumulates the random phase by trapezoidal integration of a
    sampled noise trajectory over [0, tau]; the analytic target of the mean
    is exp(-(2S)^2 chi(tau)), with zero imaginary part.  The requested dt is
    shrunk so that an integer number of steps lands exactly on tau.

    The phase is linear in the path's steps + 1 raw normals xi, so it is
    one dot product xi @ c with folded weights c_0 = b G_0 and
    c_k = sigma_step G_k (k >= 1), where G_k = w_k + alpha G_{k+1} runs
    backward over the trapezoid weights w, alpha = e^{-dt/tau_c}.  This is
    the trapezoid sum over the paths of ``sample_ou_paths`` at the same seed,
    up to rounding, without forming them.  The weights come from the
    discretization alone and ``chi`` is not used, so the estimate stays an
    independent check of the closed form.  Seeding is unchanged: block j of
    ``config.MC_BLOCK_SIZE`` paths draws one normal per path per step from
    (seed, j), and only the requested paths' rows are drawn.
    """
    if paths < config.MC_MIN_PATHS:
        raise ValueError(f"paths must be >= {config.MC_MIN_PATHS}, got {paths!r}")
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be nonnegative and finite, got {tau!r}")
    _ou_step(noise, dt)  # rejects a dt that is not positive and finite
    if dt > noise.tau_c / config.MC_DT_RESOLUTION:
        raise ValueError(
            f"dt = {dt!r} too coarse for tau_c = {noise.tau_c!r}: the sampler "
            f"requires dt <= tau_c/{config.MC_DT_RESOLUTION:g} to resolve the "
            "noise memory"
        )
    if tau == 0:
        return McCoherence(1.0 + 0.0j, 0.0, 0.0, paths)
    steps = max(1, math.ceil(tau / dt))
    c = _phase_weights(noise, tau / steps, steps)
    block = config.MC_BLOCK_SIZE
    phase = np.empty(paths)
    buf = np.empty((min(_MC_CHUNK_ROWS, paths), steps + 1))
    for j in range((paths + block - 1) // block):
        rng = np.random.default_rng([seed, j])
        end = min((j + 1) * block, paths)
        # consecutive row chunks of one stream are the rows of the whole block
        for lo in range(j * block, end, _MC_CHUNK_ROWS):
            xi = buf[: min(_MC_CHUNK_ROWS, end - lo)]
            rng.standard_normal(out=xi)
            np.matmul(xi, c, out=phase[lo : lo + len(xi)])
    z = np.exp(-1j * s.two_s * phase)
    return McCoherence(
        mean=complex(z.mean()),
        stderr_real=float(z.real.std(ddof=1) / math.sqrt(paths)),
        stderr_imag=float(z.imag.std(ddof=1) / math.sqrt(paths)),
        n_paths=paths,
    )


def dd_chi(noise: OUNoise, profile: DDProfile, tau) -> float | np.ndarray:
    """Coherence integral under pulsed control with short-time law tau^n.

    Rational interpolant b^2 tau_c^2 x^n / (c + x^{n-1}) with x = tau/tau_c:
    exact limits (b^2 tau_c^2 / c) x^n for x << 1 and b^2 tau_c tau for
    x >> 1, strictly increasing in between.  n = 2, c = 2 reproduces the
    free-evolution asymptotes.  The crossover shape between the two limits
    is a modeling choice of this family, not a derived result.
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0):
        raise ValueError("tau must be nonnegative")
    x = t / noise.tau_c
    n, c = profile.n, profile.shape_c
    # two algebraically identical branches, each overflow-free on its side
    lo = np.minimum(x, 1.0)
    hi = np.maximum(x, 1.0)
    out = np.where(
        x <= 1.0,
        lo**n / (c + lo ** (n - 1.0)),
        hi / (1.0 + c * hi ** (1.0 - n)),
    )
    out = noise.b**2 * noise.tau_c**2 * out
    return float(out) if out.ndim == 0 else out


def __getattr__(name: str):
    """Import and bind ``lfilter`` on first lookup, for the benchmark tracer."""
    # ROADMAP item 1 deletes this hook once the tracer reads the program's own counters
    if name == "lfilter":
        from scipy.signal import lfilter

        globals()[name] = lfilter
        return lfilter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
