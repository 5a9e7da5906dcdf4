"""Tunable numerical constants, collected so studies can rebin or tighten them."""

from __future__ import annotations

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
# scheduled: Monte Carlo paths (mc_coherence, and the tests' path sampler that
# checks it) and the estimator's binomial counts (simulate_and_estimate) share
# the block size.
# mc_coherence draws its blocks on one thread per usable CPU (at most one per
# block), keeps of each block only its sum and sums of squares, which it
# merges in block order, and gives the same result for any number of CPUs; it
# holds no array with one entry per path.
MC_BLOCK_SIZE = 4096
MC_MIN_PATHS = 100
# Time step must resolve the noise memory: dt <= tau_c / MC_DT_RESOLUTION.
MC_DT_RESOLUTION = 20.0

RNG_ALGORITHM = "PCG64 (numpy default_rng, block-partitioned seeds)"


# Spin-1 yield rate: a log-spaced tau scan of SPIN1_TAU_POINTS points over
# [T2 * SPIN1_TAU_LO, T2 * SPIN1_TAU_HI], whose best point and two neighbours
# bracket the root refinement.  GHZ optima need no scan.
SPIN1_TAU_LO = 0.01
SPIN1_TAU_HI = 100.0
SPIN1_TAU_POINTS = 200

# Spin-1 initial-state search: a STATE_GRID_SIZE x STATE_GRID_SIZE grid over
# (Theta, Phi), whose best distinct peaks (at most STATE_REFINE_STARTS) are
# refined together on nested grids until the angle half-width is below
# STATE_XATOL.
STATE_GRID_SIZE = 64
STATE_REFINE_STARTS = 5
STATE_XATOL = 1e-6
# State rows per chunk of the tau scan; one search allocates two float buffers
# of rows x SPIN1_TAU_POINTS (0.4 MB each at 256), which hold each chunk's
# numerator and denominator of F/tau and which every chunk reuses.
STATE_CHUNK_ROWS = 256
