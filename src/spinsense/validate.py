"""Self-validation suites: every analytic result against an independent route.

Four suites, each returning a list of check records:

* ``mc``        sampled-noise coherence against the closed-form decay
* ``oracle``    closed-form QFI against the generic eigendecomposition route,
                on tuples replayed in bulk from the generator's raw words (a
                seed fixes them) and density matrices built, checked and
                diagonalized in stacks
* ``estimator`` measurement Fisher information and likelihood-estimator
                efficiency against the error bound
* ``dd``        pulsed-control scaling exponents against 2 - 2/n
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import config
from .estimation import classical_fisher, simulate_and_estimate
from .ou_noise import DDProfile, OUNoise, _mc_draw_threads, _mc_steps, chi, classify, mc_coherence
from .protocol import dd_scaling, yield_rate
from .qfi import _ghz_values, ghz_qfi_values, qfi_generic, spin1_qfi_values
from .spin_ops import SpinQuantumNumber, _delta_m, _spin1_amplitudes, dephase, ghz_like_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool


def _check(name: str, measured: float, expected: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(measured), float(expected), float(tolerance),
                       bool(abs(measured - expected) <= tolerance))


# (S, b, tau_c, tau) spanning Markovian, intermediate and quasi-static noise
MC_GRID: tuple[tuple[float, float, float, float], ...] = (
    (0.5, 1.0, 0.02, 0.2),
    (0.5, 1.0, 0.02, 0.5),
    (1.0, 1.0, 0.04, 0.4),
    (0.5, 2.0, 0.02, 0.3),
    (0.5, 1.0, 1.0, 1.0),
    (1.0, 1.0, 0.5, 0.5),
    (2.0, 1.0, 0.1, 0.2),
    (4.0, 1.0, 0.1, 0.2),
    (0.5, 1.0, 50.0, 1.0),
    (1.0, 1.0, 100.0, 0.5),
    (2.0, 0.5, 100.0, 0.5),
    (4.0, 1.0, 1000.0, 0.05),
)

MC_PATHS = 100_000


def mc_suite(seed: int) -> list[CheckResult]:
    """Sampled coherence vs exp(-(2S)^2 chi) over the three-regime grid, MC_PATHS
    paths per row; the diagnostics record the paths, the trapezoid steps per
    grid row, the normals drawn and the threads that draw them."""
    checks: list[CheckResult] = []
    steps = []
    for i, (s_val, b, tau_c, tau) in enumerate(MC_GRID):
        s = SpinQuantumNumber.from_s(s_val)
        noise = OUNoise(b, tau_c)
        dt = min(tau_c / 40.0, tau / 50.0)
        steps.append(_mc_steps(tau, dt))
        est = mc_coherence(s, noise, tau, MC_PATHS, dt, seed + i)
        target = math.exp(-s.two_s**2 * chi(noise, tau))
        regime = classify(s.two_s * b * tau_c).value
        tag = f"mc[{i}] {regime} S={s_val:g} b={b:g} tau_c={tau_c:g} tau={tau:g}"
        checks.append(_check(f"{tag} re", est.mean.real, target, 3.0 * est.stderr_real))
        checks.append(_check(f"{tag} im", est.mean.imag, 0.0, 3.0 * est.stderr_imag))
        if target > 0.1:
            checks.append(_check(f"{tag} re rel", est.mean.real / target, 1.0, 0.01))
    _DIAGNOSTICS.get({}).update(paths=MC_PATHS, steps=steps,
                                normals=MC_PATHS * sum(k + 1 for k in steps),
                                draw_threads=_mc_draw_threads(MC_PATHS))
    return checks


# matrix entries (rows x d^2) per stack of the oracle's SLD route: 32 rows at
# d = 9, the largest dimension drawn, so no stack is larger than a 9 x 9 one
_SLD_STACK_ENTRIES = 32 * 9**2


def _sld_values(amps, omega, tau, chi_val, counts: dict) -> np.ndarray:
    """SLD-route QFI of each dephased amplitude row, in stacks of at most
    _SLD_STACK_ENTRIES matrix entries (at least one matrix each), so small
    matrices go in few wide stacks; each value is computed matrix by matrix
    and does not depend on the stacking.  ``counts["sld_matrices"]`` and
    ``counts["sld_stacks"]`` tally the matrices and stacks per dimension."""
    n, dim = amps.shape
    step = max(1, _SLD_STACK_ENTRIES // dim**2)
    omega, tau, chi_val = (np.broadcast_to(a, (n,)) for a in (omega, tau, chi_val))
    out = np.empty(n)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        rho = dephase(amps[rows], omega[rows], tau[rows], chi_val[rows])
        out[rows] = qfi_generic(rho, rho * (-1j * _delta_m(dim) * tau[rows, None, None]))
    for name, added in (("sld_matrices", n), ("sld_stacks", -(-n // step))):
        tally = counts.setdefault(name, {})
        tally[str(dim)] = tally.get(str(dim), 0) + added
    return out


def _worst_rel(generic: np.ndarray, closed: np.ndarray) -> float:
    return float(np.max(np.abs(generic - closed) / np.maximum(generic, closed), initial=0.0))


# oracle draws: 2S from _ORACLE_TWO_S, (b, tau_c, tau) log-uniform and
# (omega, theta, phi, lambda1, lambda2) uniform over these ranges
_ORACLE_TWO_S = (1, 2, 3, 4, 8)
_LOG_LO = np.log([0.05, 0.01, 0.05])
_LOG_SPAN = np.log([2.0, 10.0, 2.0]) - _LOG_LO
_UNIFORM_LO = np.array([-2.0, 0.1, 0.1, 0.0, 0.0])
_UNIFORM_SPAN = np.array([2.0, math.pi / 2 - 0.1, math.pi / 2 - 0.1, 2 * math.pi, 2 * math.pi]) - _UNIFORM_LO
_TWO_S_SQUARED = np.array(_ORACLE_TWO_S)[:, None] ** 2
_REPLAY_CHUNK_WORDS = 1024  # PCG64 output words per chunk of the replayed draws


def _draw_index(half_words: np.ndarray) -> list[int]:
    """``integers(5)`` from each 32-bit half-word x: Lemire's (5 x) >> 32,
    or -1 where the draw is rejected (x = 0, the only leftover below the
    threshold (2^32 - 5) mod 5 = 1) and the next half-word is taken."""
    picks = ((half_words * 5) >> 32).astype(np.int64)
    picks[half_words == 0] = -1
    return picks.tolist()


def _oracle_draws(bit_generator: np.random.PCG64, n_tuples: int) -> tuple[np.ndarray, int]:
    """The oracle's tuples as ``np.random.Generator(bit_generator)`` draws
    them, replayed from the raw PCG64 output words of a bit generator that
    holds no pending half-word (a fresh one); returns the (n_tuples, 8)
    rows (2S, tau, chi, omega, theta, phi, lambda1, lambda2) and the number
    of (2S, b, tau_c, tau) attempts rejected for a decoherence exponent
    (2S)^2 chi above 3.

    Each attempt is ``integers(5)`` (the index into _ORACLE_TWO_S) and
    ``random(3)`` (log b, log tau_c, log tau); an accepted one adds
    ``random(5)`` (omega, theta, phi, lambda1, lambda2).  numpy builds these
    from PCG64 words w in a fixed way: ``random()`` is (w >> 11) 2^-53, one
    word each, and ``integers(5)`` takes a 32-bit half-word, the low half of
    a fresh word whose high half the generator keeps for the next call.  So
    the words are taken in chunks, the doubles, exponentials and chi of
    every length-3 window of a chunk are evaluated at once, and a short loop
    walks the chunk as the generator calls would: a fresh word advances the
    cursor one word, a rejected attempt three, an accepted one eight.
    """
    chunks, rejected, drawn, half = [np.empty((0, 8))], 0, 0, None
    words = np.empty(0, dtype=np.uint64)
    while drawn < n_tuples:
        words = np.concatenate([words, bit_generator.random_raw(_REPLAY_CHUNK_WORDS)])
        doubles = (words >> 11) * 2.0**-53
        noise = np.exp(_LOG_LO + _LOG_SPAN * sliding_window_view(doubles, 3))  # b, tau_c, tau
        # chi in the arithmetic the pinned tuples were drawn with: x >= 0.05/10 needs
        # no series, and chi is an input to both routes, not the library's chi
        b, tau_c, tau = noise.T
        x = tau / tau_c
        chi_val = b**2 * tau_c**2 * (x + np.expm1(-x))
        # _ORACLE_TWO_S ascends, so a window accepts exactly the picks below its count
        allowed = np.sum(_TWO_S_SQUARED * chi_val <= 3.0, axis=0).tolist()
        low, high = _draw_index(words & 0xFFFFFFFF), _draw_index(words >> 32)
        starts, picks = [], []
        pos = 0
        while pos <= len(words) - 9 and drawn < n_tuples:  # room for a fresh word and 8 doubles
            if half is None:
                pick, half = low[pos], high[pos]
                pos += 1
            else:
                pick, half = half, None
            if pick < 0:
                continue
            if pick < allowed[pos]:
                starts.append(pos)
                picks.append(pick)
                drawn += 1
                pos += 8
            else:
                rejected += 1
                pos += 3
        at = np.array(starts, dtype=np.intp)
        chunks.append(np.column_stack([
            np.take(_ORACLE_TWO_S, picks), noise[at, 2], chi_val[at],
            _UNIFORM_LO + _UNIFORM_SPAN * doubles[at[:, None] + np.arange(3, 8)]]))
        words = words[pos:]
    return np.concatenate(chunks), rejected


def oracle_checks(seed: int, n_tuples: int) -> tuple[float, float, float]:
    """Worst relative disagreements of the two closed forms vs the SLD route,
    and the worst absolute spread of the spin-1 QFI over the state phases.

    A seed fixes the tuples: they are the draws of a fixed sequence of
    ``rng.choice`` and ``rng.uniform`` calls on ``default_rng(seed)``,
    replayed in bulk from the generator's raw words (``_oracle_draws``).
    The SLD route then builds, checks and diagonalizes the density matrices
    in stacks of at most _SLD_STACK_ENTRIES matrix entries (GHZ states
    grouped by dimension, spin-1 states at d = 3), sharing no code with the
    closed forms; the diagnostics count the matrices and stacks per
    dimension.

    ``choice`` over five values is ``integers(5)`` and an index, and
    ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()`` with one double per
    value, which the replay reproduces bit for bit.  The exponentials stay
    numpy's ``exp`` (and chi numpy's ``expm1``): ``math.exp`` and
    ``math.expm1`` round differently on a few percent of these draws and
    would change the tuples.
    """
    rows, rejected = _oracle_draws(np.random.PCG64(seed), n_tuples)
    two_s, tau, chi_val, omega, theta, phi, l1, l2 = rows.T

    counts: dict[str, dict[str, int]] = {}
    generic = np.empty(n_tuples)
    for k in np.unique(two_s):
        at = np.flatnonzero(two_s == k)
        amps = np.tile(ghz_like_state(SpinQuantumNumber(int(k))), (len(at), 1))
        generic[at] = _sld_values(amps, omega[at], tau[at], chi_val[at], counts)
    worst_ghz = _worst_rel(generic, _ghz_values(two_s, chi_val, tau))

    chi1 = np.minimum(chi_val, 0.75)
    generic1 = _sld_values(_spin1_amplitudes(theta, phi, l1, l2), omega, tau, chi1, counts)
    worst_spin1 = _worst_rel(generic1, spin1_qfi_values(theta, phi, chi1, tau))

    # phase independence at a fixed interior point
    phases1, phases2 = np.meshgrid(np.linspace(0.0, 2 * math.pi, 7, endpoint=False),
                                   np.linspace(0.0, 2 * math.pi, 5, endpoint=False), indexing="ij")
    phase_amps = _spin1_amplitudes(0.7, 0.9, phases1.ravel(), phases2.ravel())
    vals = _sld_values(phase_amps, 0.8, 0.6, 0.2, counts)
    phase_spread = float(np.max(vals) - np.min(vals))
    _DIAGNOSTICS.get({}).update(tuples=n_tuples, draws_rejected=rejected,
                                **{name: dict(sorted(t.items())) for name, t in counts.items()})
    return worst_ghz, worst_spin1, phase_spread


def oracle_suite(seed: int) -> list[CheckResult]:
    """``oracle_checks`` on 1000 tuples against their bounds."""
    worst_ghz, worst_spin1, phase_spread = oracle_checks(seed, 1000)
    return [
        _check("oracle ghz closed-form vs sld (worst rel)", worst_ghz, 0.0, 1e-8),
        _check("oracle spin-1 closed-form vs sld (worst rel)", worst_spin1, 0.0, 1e-8),
        _check("oracle spin-1 phase independence (abs spread)", phase_spread, 0.0, 1e-10),
    ]


def estimator_suite(seed: int) -> list[CheckResult]:
    """Fisher-information saturation and estimator efficiency at quadrature."""
    s = SpinQuantumNumber(8)
    noise = OUNoise(1.0, 0.1)
    tau = yield_rate(s, noise).tau_opt
    omega = math.pi / (2.0 * s.two_s * tau)
    cfi = classical_fisher(s, noise, tau, omega)
    qfi = ghz_qfi_values(s, noise, tau)
    # 4000 repetitions scatter std/CRB by ~1.1%, well inside the 5% bound
    run = simulate_and_estimate(s, noise, tau, omega, nu=10_000, seed=seed, repetitions=4000)
    _DIAGNOSTICS.get({}).update(
        repetitions=run.repetitions, rng_blocks=-(-run.repetitions // config.MC_BLOCK_SIZE),
        flagged=run.n_flagged)
    return [
        _check("estimator cfi/qfi at quadrature", cfi / qfi, 1.0, 1e-12),
        _check("estimator sample std / crb", run.sample_std / run.crb, 1.0, 0.05),
        _check("estimator flagged runs", run.n_flagged, 0.0, 0.0),
    ]


def dd_suite(seed: int = 0) -> list[CheckResult]:
    """Fitted rate-vs-S exponents for pulsed control in both deep regimes."""
    checks = []
    s_grid = np.logspace(np.log10(1.0), np.log10(128.0), 12)
    qs_noise = OUNoise(1.0, 100.0)  # memory parameter >= 200 over the grid
    for n in (2.0, 3.0, 4.0):
        table = dd_scaling(DDProfile(n), s_grid, qs_noise)
        slope = table.fits["quasi_static"].slope
        checks.append(_check(f"dd quasi-static exponent n={n:g}", slope, 2.0 - 2.0 / n, 0.1))
    mk_noise = OUNoise(1.0, 1e-4)  # memory parameter <= 3e-3 over the grid
    s_grid_m = np.logspace(np.log10(0.5), np.log10(8.0), 10)
    table = dd_scaling(DDProfile(3.0), s_grid_m, mk_noise)
    checks.append(_check("dd markovian exponent n=3", table.fits["markovian"].slope, 0.0, 0.1))
    return checks


SUITES = {
    "mc": mc_suite,
    "oracle": oracle_suite,
    "estimator": estimator_suite,
    "dd": dd_suite,
}


# solver diagnostics of the suite that run_suite is running, filled by the suite
_DIAGNOSTICS: ContextVar[dict] = ContextVar("spinsense_validate_diagnostics")


def run_suite(name: str, seed: int, diagnostics: dict | None = None) -> list[CheckResult]:
    """Run one suite; ``diagnostics``, if given, receives its solver counts."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    token = _DIAGNOSTICS.set({} if diagnostics is None else diagnostics)
    try:
        return SUITES[name](seed)
    finally:
        _DIAGNOSTICS.reset(token)
