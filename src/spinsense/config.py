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

# Monte Carlo path sampling: paths are generated in fixed-size blocks, each
# block seeded as (seed, block_index), so path i never depends on how many
# paths or workers were requested.
MC_BLOCK_SIZE = 4096
MC_MIN_PATHS = 100
# Time step must resolve the noise memory: dt <= tau_c / MC_DT_RESOLUTION.
MC_DT_RESOLUTION = 20.0

RNG_ALGORITHM = "PCG64 (numpy default_rng, block-partitioned seeds)"


@dataclass(frozen=True)
class YieldSearchConfig:
    """Search window and tolerances for the evolution-time optimization."""

    tau_lo_factor: float = 0.01   # scan starts at tau = T2 * tau_lo_factor
    tau_hi_factor: float = 100.0
    grid_points: int = 200
    rel_tol: float = 1e-8         # relative bracket width in tau that ends refinement


@dataclass(frozen=True)
class StateSearchConfig:
    """Grid plus nested-grid settings for the spin-1 initial-state optimization."""

    grid_size: int = 64           # grid_size x grid_size over (Theta, Phi)
    refine_starts: int = 5        # best grid cells refined together
    xatol: float = 1e-6           # refinement stops below this angle half-width
    chunk_rows: int = 1024        # grid rows evaluated per vectorized slab
