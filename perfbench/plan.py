"""Workloads: the spinsense CLI commands that make up one round, drawn from the seed.

A round is the fixed list of commands a workload runs; every round of a run
repeats the same list, so each command must write byte-identical data files
every time.  The seed only selects the inputs (fixed parameters of the
sweeps, memory times of the state optimization, suite seeds); the program
sees nothing but the resulting command lines.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweeps", "state_opt", "mc", "oracle")

SWEEP_SETTINGS = 4  # fixed-parameter settings per round of the sweeps workload
SWEEP_POINTS = 64
ORACLE_SEEDS = 4  # oracle-suite runs per round
ORACLE_TUPLES = 1000  # (S, noise, tau) tuples per oracle-suite run
MC_PATHS = 100_000  # sampled paths per mc grid point

# log10(tau_c) bands of the state optimization at b = 1 (memory parameter
# 2*S*b*tau_c with S = 1): deep Markovian, intermediate and deep quasi-static.
# The bands are narrow so the simplex work, and with it the round time,
# hardly depends on the seed.
STATE_BANDS = {
    "markovian": (-4.0, -3.5),
    "intermediate": (-0.3, 0.3),
    "quasi_static": (1.5, 2.0),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv`` lacks ``--out``, which the runner adds."""

    kind: str  # CLI subcommand
    stem: str  # output file name without extension
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def out_name(self) -> str:
        return self.stem + (".json" if self.kind == "validate" else ".csv")

    def data_files(self) -> list[str]:
        """Outputs that must be byte-identical on every round (manifests are not:
        they record the run's duration)."""
        files = [self.out_name]
        if self.kind == "sweep":
            files.append(self.stem + ".summary.json")
        return files

    def manifest_name(self) -> str:
        return self.stem + ".manifest.json"

    def full_argv(self, out_dir: str) -> list[str]:
        return [*self.argv, "--out", os.path.join(out_dir, self.out_name)]

    @property
    def verdict_replaced(self) -> bool:
        """The mc suite's exit 1 comes from 3-sigma tests on each of its checks, which
        a correct sampler fails on some seeds; the benchmark records that verdict and
        judges the output by its own family-wise bound instead."""
        return self.argv[:3] == ("validate", "--suite", "mc")


def _num(x: float) -> str:
    return repr(float(x))  # shortest text that parses back to the same double


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _sweeps(seed: int) -> list[Command]:
    # Each draw keeps both deep-regime fit windows (memory parameter <= 0.01
    # and >= 100) at least five rows wide on the 64-point grid.
    rng = _rng("sweeps", seed)
    cmds = []
    for k in range(SWEEP_SETTINGS):
        b = 10 ** rng.uniform(-0.125, 0.125)
        tau_c = 10 ** (-3.0 + rng.uniform(-0.125, 0.125))
        cmds.append(_sweep(f"sweep_s_{k}", "s", 0.5, 1e6, b=b, tau_c=tau_c))
        tau_c = 10 ** rng.uniform(-0.25, 0.25)
        cmds.append(_sweep(f"sweep_b_{k}", "b", 1e-3, 1e3, s=0.5, tau_c=tau_c))
        b = 10 ** rng.uniform(-0.25, 0.25)
        cmds.append(_sweep(f"sweep_tau_c_{k}", "tau-c", 1e-3, 1e3, s=0.5, b=b))
    cmds.append(Command("validate", "validate_dd", ("validate", "--suite", "dd")))
    return cmds


def _sweep(stem: str, param: str, lo: float, hi: float, **fixed: float) -> Command:
    argv = ["sweep", "--param", param, "--min", _num(lo), "--max", _num(hi),
            "--points", str(SWEEP_POINTS)]
    for name, value in fixed.items():
        argv += [f"--{name.replace('_', '-')}", _num(value)]
    params = dict(fixed, param=param.replace("-", "_"), min=lo, max=hi, points=SWEEP_POINTS)
    return Command("sweep", stem, tuple(argv), params)


def _state_opt(seed: int) -> list[Command]:
    rng = _rng("state_opt", seed)
    cmds = []
    for band, (lo, hi) in STATE_BANDS.items():
        tau_c = 10 ** rng.uniform(lo, hi)
        argv = ("optimize-state", "--b", "1", "--tau-c-min", _num(tau_c),
                "--tau-c-max", _num(tau_c), "--points", "1")
        cmds.append(Command("optimize-state", f"state_{band}", argv,
                            {"band": band, "b": 1.0, "tau_c": tau_c}))
    return cmds


def _mc(seed: int) -> list[Command]:
    return [Command("validate", "validate_mc", ("validate", "--suite", "mc", "--seed", str(seed)),
                    {"seed": seed})]


def _oracle(seed: int) -> list[Command]:
    rng = _rng("oracle", seed)
    cmds = []
    for k in range(ORACLE_SEEDS):
        suite_seed = rng.randrange(2**31)
        cmds.append(Command("validate", f"validate_oracle_{k}",
                            ("validate", "--suite", "oracle", "--seed", str(suite_seed)),
                            {"seed": suite_seed}))
    # The estimator suite's 5% std/CRB check is statistical (500 repetitions
    # give a 3% standard error; 27 of seeds 0-199 fail it), so it runs at the
    # CLI's default seed, not at one drawn here.  At that seed it fails
    # (std/CRB = 1.053) every time: the one failed operation of this workload.
    cmds.append(Command("validate", "validate_estimator", ("validate", "--suite", "estimator")))
    spins = sorted(rng.sample([0.5, 1.0, 2.0, 4.0], 2))
    b = 10 ** rng.uniform(-1.0, -0.5)
    tau_c = 10 ** rng.uniform(-1.0, 1.0)
    tau_max = 10 ** rng.uniform(-1.0, 0.0)
    argv = ["qfi-curve"]
    for s in spins:
        argv += ["--s", _num(s)]
    argv += ["--b", _num(b), "--tau-c", _num(tau_c), "--tau-min", _num(tau_max / 100),
             "--tau-max", _num(tau_max), "--points", "16"]
    cmds.append(Command("qfi-curve", "qfi_curve", tuple(argv),
                        {"s": spins, "b": b, "tau_c": tau_c, "tau_min": tau_max / 100,
                         "tau_max": tau_max, "points": 16}))
    return cmds


_BUILDERS = {"sweeps": _sweeps, "state_opt": _state_opt, "mc": _mc, "oracle": _oracle}


def make_plan(workload: str, seed: int) -> list[Command]:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](seed)
