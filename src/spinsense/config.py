"""Tunable numerical constants, collected so studies can rebin or tighten them."""

from __future__ import annotations

from dataclasses import dataclass

# Classification thresholds on the dimensionless memory parameter 2*S*b*tau_c.
# Chosen so the asymptotic closed forms hold to ~2% at the boundaries.
MARKOVIAN_BELOW = 0.1
QUASI_STATIC_ABOVE = 10.0

# Deep-regime windows used for power-law exponent fits (stricter than the
# classification thresholds so the asymptotes are clean over the window).
DEEP_MARKOVIAN_BELOW = 0.01
DEEP_QUASI_STATIC_ABOVE = 100.0

# Shape constant of the rational interpolant used for the pulsed-control
# coherence integral; c=2 with exponent n=2 reproduces free evolution.
DD_SHAPE_CONSTANT = 2.0

# Modes with eigenvalue-pair sums below this are dropped from the SLD sum.
SLD_EIGENVALUE_CUTOFF = 1e-12

# Random draws in fixed-size blocks, each block seeded as (seed, block_index),
# so draw i never depends on how many were requested or how blocks are
# scheduled: Monte Carlo paths (mc_coherence, sample_ou_paths) and the
# estimator's binomial counts (simulate_and_estimate) share the block size.
MC_BLOCK_SIZE = 4096
MC_MIN_PATHS = 100
# Time step must resolve the noise memory: dt <= tau_c / MC_DT_RESOLUTION.
MC_DT_RESOLUTION = 20.0

RNG_ALGORITHM = "PCG64 (numpy default_rng, block-partitioned seeds)"


@dataclass(frozen=True)
class YieldSearchConfig:
    """Log-spaced tau scan of the spin-1 yield rate, whose best point and two
    neighbours bracket the root refinement.  GHZ optima need no scan."""

    tau_lo_factor: float = 0.01   # scan starts at tau = T2 * tau_lo_factor
    tau_hi_factor: float = 100.0
    grid_points: int = 200


@dataclass(frozen=True)
class StateSearchConfig:
    """Grid plus nested-grid settings for the spin-1 initial-state optimization."""

    grid_size: int = 64           # grid_size x grid_size over (Theta, Phi)
    refine_starts: int = 5        # at most this many distinct grid peaks refined together
    xatol: float = 1e-6           # refinement stops below this angle half-width
    # state rows per chunk of the tau scan; one search allocates two float
    # buffers of rows x 200 tau points (0.4 MB each at 256), which hold each
    # chunk's numerator and denominator of F/tau and which every chunk reuses
    chunk_rows: int = 256
