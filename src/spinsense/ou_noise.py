"""Ornstein-Uhlenbeck dephasing noise: coherence integral, decoherence time,
regime classification, a Monte Carlo coherence estimate, and pulsed-control variants.

The noise is a stationary Gaussian process with autocorrelation
b^2 exp(-|t-t'|/tau_c).  Its effect on a spin coherence is governed by the
half-variance of the accumulated random phase,

    chi(tau) = b^2 tau_c^2 (tau/tau_c + exp(-tau/tau_c) - 1),

which crosses over from b^2 tau^2 / 2 (tau << tau_c) to b^2 tau_c tau
(tau >> tau_c).  The dimensionless product 2*S*b*tau_c decides whether the
extremal coherence of a spin-S probe dies in the Gaussian (quasi-static) or
the exponential (Markovian) branch.  T2 and the yield optima are roots in
log t, solved by one safeguarded Newton solver on log chi, its slope and the
slope of log(t chi'), which each coherence law (free or pulsed) gives in
closed form.  chi itself is exp(log chi) of the same law: over x = tau/tau_c
in [1e-8, 1e8] it is within 3.4e-14 relative of a 40-digit reference, the
worst just below the series switch at x = 0.03.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import config
from .spin_ops import SpinQuantumNumber

# below this x, log chi takes x + e^-x - 1 from a six-term series: at 1e-4 the
# difference x + expm1(-x) has lost 12 digits, at 0.03 only 2
_LOG_CHI_SERIES_BELOW = 0.03
_ROOT_TOL = 1e-12  # a row of a root solve stops once its step in log t is at most this
_ROOT_MAX_STEPS = 100  # a row not stopped after this many steps has no root (NaN)
_LN2 = math.log(2.0)  # a step toward an open bracket end halves or doubles t
_MC_CHUNK_ROWS = 64  # paths drawn and reduced per chunk, in each drawing thread's own buffer


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


@dataclass(frozen=True)
class _Law:
    """A coherence law on rows: ``log_chi`` maps u = log t (one per row) to log chi,
    the slope d log chi / d log t and d log(t chi') / d log t, with no intermediate
    product that leaves the float range where log chi is in it.  chi runs from
    b^2 tau_c^2 x^n / c at x = t/tau_c << 1 to b^2 tau_c t at x >> 1."""

    log_chi: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    log_b: np.ndarray
    log_tau_c: np.ndarray
    n: float = 2.0
    c: float = 2.0


def _log_core_series(lx, x):
    """log core(x), its slope d log core / d log x and d log(x core') / d log x
    = 1 + x/(e^x - 1) from series, for x < ``_LOG_CHI_SERIES_BELOW``; lx = log x."""
    # core(x)/x^2 = sum_k (-x)^k/(k+2)!, cut where its next term is below 4e-14
    head = 0.5 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x * (1 / 720 - x / 5040))))
    # slope x (1 - e^-x) / core(x), which is 1/head - x on the series; x/(e^x - 1)
    # from its Bernoulli series, whose next term is below 1e-18
    return (2.0 * lx + np.log(head), 1.0 / head - x,
            2.0 - x * (0.5 - x * (1 / 12 - x * x * (1 / 720 - x * x / 30240))))


def _log_core_direct(lx, x):
    """log core(x) = log(x + expm1(-x)), its slope and 1 + x e^-x / (1 - e^-x), for
    x >= ``_LOG_CHI_SERIES_BELOW``; at x = inf (t/tau_c overflowed) log x, 1 and 1."""
    rise = -np.expm1(-x)  # 1 - e^-x
    return (np.where(x < np.inf, np.log(x - rise), lx), rise / (1.0 - rise / x),
            1.0 + np.where(x < np.inf, x, 0.0) * (1.0 - rise) / rise)


def _free_law(b, tau_c) -> _Law:
    """Free evolution, chi = b^2 tau_c^2 core(x); b and tau_c broadcast against u."""
    log_b, log_tau_c = np.log(b), np.log(tau_c)

    def log_chi(u):
        lx = u - log_tau_c
        x = np.exp(lx)
        small = x < _LOG_CHI_SERIES_BELOW
        # a branch no row takes is not evaluated; rows get the same values either way
        n_small = np.count_nonzero(small)
        if n_small == small.size:
            log_core, slope, bend = _log_core_series(lx, x)
        elif n_small == 0:
            log_core, slope, bend = _log_core_direct(lx, x)
        else:  # each branch on inputs safe for it, joined per row
            parts = zip(_log_core_series(lx, np.where(small, x, 0.0)),
                        _log_core_direct(lx, np.where(small, 1.0, x)))
            log_core, slope, bend = (np.where(small, on_s, on_d) for on_s, on_d in parts)
        return 2.0 * (log_b + log_tau_c) + log_core, slope, bend

    return _Law(log_chi, log_b, log_tau_c)


def _dd_law(noise: OUNoise, profile: DDProfile) -> _Law:
    """The pulsed-control law of ``dd_chi``: n log x - log(c + x^(n-1)) plus
    2 log(b tau_c)."""
    n, log_c = profile.n, math.log(profile.shape_c)
    log_b, log_tau_c = math.log(noise.b), math.log(noise.tau_c)

    def log_chi(u):
        lx = u - log_tau_c
        log_den = np.logaddexp(log_c, (n - 1.0) * lx)
        # slope n - (n - 1) y with y = x^(n-1) / (c + x^(n-1)), whose log-derivative
        # (n - 1) (1 - y) gives the last value; y (1 - y) is taken from logs
        slope = n - (n - 1.0) * np.exp((n - 1.0) * lx - log_den)
        return (2.0 * (log_b + log_tau_c) + n * lx - log_den, slope,
                slope - (n - 1.0) ** 2 * np.exp((n - 1.0) * lx + log_c - 2.0 * log_den) / slope)

    return _Law(log_chi, log_b, log_tau_c, n, profile.shape_c)


def _law_chi(law: _Law, tau, log_scale: float = 0.0) -> float | np.ndarray:
    """chi of a scalar law at a time or an array of times, as exp(log chi), times
    exp(log_scale) taken inside the exponential; exactly 0 at tau = 0, where log
    chi is -inf, and inf above the float range."""
    t = np.asarray(tau, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise ValueError("tau must be nonnegative and finite")
    out = np.zeros(t.shape)
    positive = t > 0
    log_chi = law.log_chi(np.log(t[positive]))[0]
    with np.errstate(over="ignore"):
        out[positive] = np.exp(log_chi + log_scale)
    return float(out) if out.ndim == 0 else out


def chi(noise: OUNoise, tau) -> float | np.ndarray:
    """Half-variance of the accumulated random phase after time tau,
    b^2 tau_c^2 (tau/tau_c + exp(-tau/tau_c) - 1).

    Exact closed form, zero at tau = 0 and strictly increasing.  Accepts a
    scalar or an array of times.
    """
    return _law_chi(_free_law(noise.b, noise.tau_c), tau)


def _ghz_decay(two_s, noise: OUNoise, tau) -> float | np.ndarray:
    """(2S)^2 chi(tau), the exponent of the GHZ coherence, at a time or an array of times:
    (2S)^2 chi where (2S)^2 fits in a double, else exp(2 log 2S + log chi)."""
    if (square := int(two_s) ** 2) <= sys.float_info.max:
        with np.errstate(over="ignore"):  # inf above the float range, as chi is
            return float(square) * chi(noise, tau)
    return _law_chi(_free_law(noise.b, noise.tau_c), tau, 2.0 * math.log(two_s))


def _is_normal(x):
    """Where x is finite and at least the smallest normal double: a usable T2 or optimum."""
    return (x >= np.finfo(float).tiny) & (x < math.inf)


def _newton_roots(h, u, lo, hi) -> np.ndarray:
    """Per row, the root of an increasing h by safeguarded Newton steps from u.

    ``h`` maps one point per row to each row's value and derivative.  A row
    keeps its bracket [lo, hi] (ends may be infinite) from the signs of its
    own iterates: h <= 0 raises lo, h >= 0 lowers hi.  A Newton step that
    leaves it is replaced by its midpoint, or by ln 2 toward an end still
    infinite.  A row stops once its step is at most ``_ROOT_TOL``, apart from
    the other rows.  Rows with a NaN end, a value not finite, or no stop in
    ``_ROOT_MAX_STEPS`` steps get NaN.
    """
    root = np.full(np.shape(u), np.nan)
    active = np.isfinite(u) & ~np.isnan(lo) & ~np.isnan(hi)
    with np.errstate(all="ignore"):
        for _ in range(_ROOT_MAX_STEPS):
            v, dv = h(u)
            active &= np.isfinite(v)
            lo, hi = np.where(v <= 0, u, lo), np.where(v >= 0, u, hi)
            step = u - v / dv
            inside = (lo <= step) & (step <= hi) & (np.abs(step) < np.inf)
            if not inside.all():
                mid = 0.5 * (lo + hi)  # +-inf while one end is open
                mid = np.where(np.isfinite(mid), mid, u + np.copysign(_LN2, mid))
                step = np.where(inside, step, mid)
            done = active & (np.abs(step - u) <= _ROOT_TOL)
            np.copyto(root, step, where=done)
            active ^= done
            if not active.any():
                break
            u = step  # rows that stopped or failed keep their root
    return root


def _law_roots(law: _Law, log_a, with_slope: bool) -> np.ndarray:
    """Per row, the u = log t where log_a + log chi (+ log slope) crosses zero.

    Without the slope the root solves A chi(t) = 1; with it, A t chi'(t) = 1.
    Both increase in u (for ``DDProfile`` the second only up to n = 3 + 2 sqrt 2),
    with derivative slope or d log(t chi') / d log t.  ``_newton_roots`` starts
    at sqrt(t_short^2 + t_long^2) of the two limits' roots, with an open bracket.
    """

    def h(u):
        log_chi, slope, bend = law.log_chi(u)
        return (log_a + log_chi + np.log(slope), bend) if with_slope else (log_a + log_chi, slope)

    with np.errstate(all="ignore"):
        # the roots of the short-time (slope n) and long-time (slope 1) limits
        log_short = (2.0 * (law.log_b + law.log_tau_c) - math.log(law.c)
                     + with_slope * math.log(law.n))
        u_short = law.log_tau_c - (log_a + log_short) / law.n
        u_long = -(log_a + 2.0 * law.log_b + law.log_tau_c)
        u0 = 0.5 * np.logaddexp(2.0 * u_short, 2.0 * u_long)
    return _newton_roots(h, u0, -np.inf, np.inf)


def _t2(law: _Law, s: SpinQuantumNumber, what: str) -> float:
    """T2 of one spin, the root of 2 log 2S + log chi = 0; FloatingPointError
    where it is not a normal double (``_is_normal``)."""
    with np.errstate(over="ignore"):
        root = float(np.exp(_law_roots(law, np.array([2.0 * math.log(s.two_s)]), False)[0]))
    if not _is_normal(root):
        raise FloatingPointError(f"{what} is not a normal double (it over- or underflows)")
    return root


def t2(s: SpinQuantumNumber, noise: OUNoise) -> float:
    """Decoherence time: the extremal coherence decays to 1/e, (2S)^2 chi(T2) = 1."""
    return _t2(_free_law(noise.b, noise.tau_c), s,
               f"T2 at 2S={s.two_s:.16g}, b={noise.b!r}, tau_c={noise.tau_c!r}")


def dd_t2(s: SpinQuantumNumber, noise: OUNoise, profile: DDProfile) -> float:
    """Decoherence time under pulsed control, (2S)^2 chi_dd(T2) = 1."""
    return _t2(_dd_law(noise, profile), s,
               f"pulsed-control T2 at 2S={s.two_s:.16g}, n={profile.n!r}")


def classify(markov_param: float) -> str:
    """Regime of the memory parameter 2*S*b*tau_c, which the caller computes.

    Below ``config.MARKOVIAN_BELOW`` the decay is effectively exponential
    ("markovian"), above ``config.QUASI_STATIC_ABOVE`` effectively Gaussian
    ("quasi_static"), else "intermediate".
    """
    if markov_param < config.MARKOVIAN_BELOW:
        return "markovian"
    if markov_param > config.QUASI_STATIC_ABOVE:
        return "quasi_static"
    return "intermediate"


def _check_count(name: str, value, least: int = 1) -> None:
    """ValueError unless value is an integer (not a bool) of at least ``least``."""
    # bool is an int subclass; a float, even 500.0, is refused: binomial truncates
    # a non-integral count, and a float size or seed fails deep inside numpy
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def _ou_step(noise: OUNoise, dt: float) -> tuple[float, float]:
    """Exact transition over dt: decay factor alpha and innovation scale sigma_step."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return math.exp(-dt / noise.tau_c), noise.b * math.sqrt(-math.expm1(-2.0 * dt / noise.tau_c))


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _mc_steps(tau: float, dt: float) -> int:
    """Trapezoid steps of a Monte Carlo phase over [0, tau]: dt shrunk onto tau."""
    return max(1, math.ceil(tau / dt))


def _mc_draw_threads(paths: int) -> int:
    """Threads that draw one ``mc_coherence`` call: one per usable CPU, at
    most one per block of ``config.MC_BLOCK_SIZE`` paths."""
    return min(_usable_cpus(), -(-paths // config.MC_BLOCK_SIZE))


def _on_threads(task: Callable[[int, int], None], workers: int) -> None:
    """Run task(k, workers) for k = 0 .. workers - 1: k = 0 in the calling
    thread, the others on helper threads, all joined before this returns.
    An error raised in any of them reaches the caller."""
    errors: list[BaseException] = []

    def helper(k: int) -> None:
        try:
            task(k, workers)
        except BaseException as exc:
            errors.append(exc)

    threads: list[threading.Thread] = []
    try:
        for k in range(1, workers):
            threads.append(threading.Thread(target=helper, args=(k,)))
            threads[-1].start()
        task(0, workers)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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

    The trajectories are exact OU transitions, stationary at any dt:
    x_0 = b xi_0 and x_{k+1} = alpha x_k + sigma_step xi_{k+1}, with
    alpha = e^{-dt/tau_c} and sigma_step = b sqrt(1 - alpha^2).  The phase
    is linear in the path's steps + 1 raw normals xi, so it is one dot
    product xi @ c with folded weights c_0 = b G_0 and
    c_k = sigma_step G_k (k >= 1), where G_k = w_k + alpha G_{k+1} runs
    backward over the trapezoid weights w.  This is the trapezoid sum over
    those paths, up to rounding, without forming them; the tests check it
    against a path sampler of their own.  The weights come from the
    discretization alone and ``chi`` is not used, so the estimate stays an
    independent check of the closed form.  Seeding: block j of
    ``config.MC_BLOCK_SIZE`` paths draws one normal per path per step from
    (seed, j), and only the requested paths' rows are drawn.

    The blocks are spread over one thread per usable CPU (at most one per
    block): thread k draws blocks k, k + threads, ... in chunks of
    _MC_CHUNK_ROWS rows into its own buffer, reduces them into its own block
    of phases and writes exp(-i 2S phase) of the block, exponentiated in
    place, into its slice of the call's one complex array.  Drawing, the dot
    products and the exp release the GIL, so the threads run on separate
    cores.  Every draw, row and reduction is the same as in one thread, so
    the result does not depend on the number of CPUs.  At its peak a call
    holds 24 bytes per path, that array and the float temporary of one
    std, plus each thread's buffers.  paths must be an integer >=
    ``config.MC_MIN_PATHS`` and seed an integer >= 0 (a bool or a float is
    refused).
    """
    _check_count("paths", paths, config.MC_MIN_PATHS)
    _check_count("seed", seed, 0)
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
    steps = _mc_steps(tau, dt)
    c = _phase_weights(noise, tau / steps, steps)
    block = config.MC_BLOCK_SIZE
    scale = -float(s.two_s)
    z = np.empty(paths, dtype=complex)

    def draw(first: int, stride: int) -> None:
        # blocks first, first + stride, ... into this thread's own buffers; each
        # block's rows of z are written by one thread only
        buf = np.empty((min(_MC_CHUNK_ROWS, paths), steps + 1))
        phase = np.empty(min(block, paths))
        for j in range(first, -(-paths // block), stride):
            rng = np.random.default_rng([seed, j])
            z_block = z[j * block : min((j + 1) * block, paths)]
            # consecutive row chunks of one stream are the rows of the whole block
            for lo in range(0, len(z_block), _MC_CHUNK_ROWS):
                xi = buf[: min(_MC_CHUNK_ROWS, len(z_block) - lo)]
                rng.standard_normal(out=xi)
                np.matmul(xi, c, out=phase[lo : lo + len(xi)])
            # exp(-i 2S phase), the imaginary part -2S phase + 0.0 as in the complex product
            z_block.real = 0.0
            np.multiply(phase[: len(z_block)], scale, out=z_block.imag)
            z_block.imag += 0.0
            np.exp(z_block, out=z_block)

    _on_threads(draw, _mc_draw_threads(paths))
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
    return _law_chi(_dd_law(noise, profile), tau)


def __getattr__(name: str):
    """Import and bind scipy's ``lfilter`` on first lookup, for the benchmark tracer:
    only that lookup, made with the ``test`` extra installed, imports scipy."""
    # ROADMAP item 1 deletes this hook once the tracer reads the program's own counters
    if name == "lfilter":
        from scipy.signal import lfilter

        globals()[name] = lfilter
        return lfilter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
