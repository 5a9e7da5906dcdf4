"""Command-line front end: figure datasets as CSV plus JSON run manifests.

Subcommands
    qfi-curve       QFI against evolution time for one or more spins
    sweep           optimized yield rate along a parameter grid, with fits
    optimize-state  spin-1 initial-state optimization across memory times
    validate        self-validation suites (exit 1 if any check fails)

Exit codes: 0 success, 1 a validation suite failed, 2 usage error (bad
flags or input), 3 numerical failure (a result over- or underflowed).

All numeric output uses 17 significant digits and '.' decimals; re-running
a command with identical flags reproduces byte-identical CSV.  Every
command writes a ``<out>.manifest.json`` recording parameters, seeds, the
RNG algorithm, the produced files and solver diagnostics (for a sweep, the
rows written, de-duplicated, failed and on the scan boundary; for a state
optimization, per point the rate rows solved, the nested-grid passes, each
start's angles and the rate it ended on, and whether the GHZ point won; for
the oracle suite, the tuples drawn, the draws rejected and the SLD matrices
per dimension).  The default output directory is ``$SPINSENSE_OUTDIR``
(falling back to the working directory).

Units: the gyromagnetic ratio is fixed to 1, so the estimated parameter is
the angular precession frequency, identical to the field magnitude.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, config
from .ou_noise import OUNoise
from .protocol import optimize_initial_state_spin1, sweep
from .qfi import ghz_qfi_values
from .spin_ops import SpinQuantumNumber
from .validate import run_suite

OUTDIR_ENV = "SPINSENSE_OUTDIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    rng_algorithm: str
    version: str
    duration_s: float
    outputs: list[str]
    diagnostics: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _resolve_out(out: str | None, default_name: str) -> str:
    if out is None:
        out = os.path.join(os.environ.get(OUTDIR_ENV, "."), default_name)
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    return out


def _write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    # RFC 4180: comma-separated, CRLF line endings, UTF-8
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\r\n")


def _write_manifest(
    out_path: str, command: str, parameters: dict, seed: int | None,
    started: float, outputs: list[str], diagnostics: dict | None = None,
) -> str:
    manifest = RunManifest(
        command=command,
        parameters=parameters,
        seed=seed,
        rng_algorithm=config.RNG_ALGORITHM,
        version=__version__,
        duration_s=time.time() - started,
        outputs=[os.path.basename(p) for p in outputs],
        diagnostics=diagnostics or {},
    )
    base, _ = os.path.splitext(out_path)
    path = base + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _half_integer(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf or abs(2 * value - round(2 * value)) > 1e-9:
        raise argparse.ArgumentTypeError(f"spin must be a positive half-integer, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _require_ordered(low: float, high: float, low_flag: str, high_flag: str) -> None:
    if low > high:
        raise ValueError(f"{low_flag} ({low!r}) must not exceed {high_flag} ({high!r})")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def cmd_qfi_curve(args: argparse.Namespace) -> int:
    started = time.time()
    _require_ordered(args.tau_min, args.tau_max, "--tau-min", "--tau-max")
    spins = [SpinQuantumNumber.from_s(v) for v in args.s]
    noise = OUNoise(args.b, args.tau_c)
    if args.points == 1:
        taus = np.array([args.tau_min])
    else:
        taus = np.logspace(math.log10(args.tau_min), math.log10(args.tau_max), args.points)
    columns = [ghz_qfi_values(sq, noise, taus) for sq in spins]
    header = ["tau"] + [f"qfi_{sq.s:g}" for sq in spins]
    rows = [[float(t)] + [float(col[i]) for col in columns] for i, t in enumerate(taus)]
    out = _resolve_out(args.out, "qfi_curve.csv")
    _write_csv(out, header, rows)
    params = {
        "s": [sq.s for sq in spins], "b": args.b, "tau_c": args.tau_c,
        "tau_min": args.tau_min, "tau_max": args.tau_max, "points": args.points,
    }
    _write_manifest(out, "qfi-curve", params, None, started, [out])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.time()
    param = args.param.replace("-", "_")
    fixed = {}
    if param != "s":
        fixed["s"] = args.s[0] if args.s else None
        if fixed["s"] is None:
            print("sweep: --s is required when it is not the swept parameter", file=sys.stderr)
            return EXIT_USAGE
    if param != "b":
        if args.b is None:
            print("sweep: --b is required when it is not the swept parameter", file=sys.stderr)
            return EXIT_USAGE
        fixed["b"] = args.b
    if param != "tau_c":
        if args.tau_c is None:
            print("sweep: --tau-c is required when it is not the swept parameter", file=sys.stderr)
            return EXIT_USAGE
        fixed["tau_c"] = args.tau_c
    grid = np.logspace(math.log10(args.min), math.log10(args.max), args.points)
    table = sweep(param, grid, **fixed)
    header = ["param", "rate", "tau_opt", "markov_param", "regime", "status"]
    status = table.status
    rows = [
        [
            float(table.values[i]), float(table.rates[i]), float(table.tau_opts[i]),
            float(table.markov_params[i]), table.regimes[i].value, status[i],
        ]
        for i in range(len(table))
    ]
    out = _resolve_out(args.out, f"sweep_{param}.csv")
    _write_csv(out, header, rows)
    summary = {
        "param": param,
        "fixed": fixed,
        "fits": {label: asdict(fit) for label, fit in sorted(table.fits.items())},
        "regime_thresholds": {
            "markovian_below": config.MARKOVIAN_BELOW,
            "quasi_static_above": config.QUASI_STATIC_ABOVE,
            "fit_window_markovian_below": config.DEEP_MARKOVIAN_BELOW,
            "fit_window_quasi_static_above": config.DEEP_QUASI_STATIC_ABOVE,
        },
    }
    base, _ = os.path.splitext(out)
    summary_path = base + ".summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    params = dict(fixed, param=param, min=args.min, max=args.max, points=args.points)
    diagnostics = {
        "points": args.points,
        "rows": len(table),
        "deduplicated": args.points - len(table),
        "failed": status.count("failed"),
        "boundary": status.count("boundary"),
    }
    _write_manifest(out, "sweep", params, None, started, [out, summary_path], diagnostics)
    return EXIT_OK


def cmd_optimize_state(args: argparse.Namespace) -> int:
    started = time.time()
    _require_ordered(args.tau_c_min, args.tau_c_max, "--tau-c-min", "--tau-c-max")
    if args.points == 1:
        tau_cs = np.array([args.tau_c_min])
    else:
        tau_cs = np.logspace(math.log10(args.tau_c_min), math.log10(args.tau_c_max), args.points)
    header = ["tau_c", "r_ghz", "r_opt", "theta_opt", "phi_opt", "fidelity"]
    rows, solves = [], []
    for tc in tau_cs:
        res = optimize_initial_state_spin1(OUNoise(args.b, float(tc)))
        rows.append([float(tc), res.r_ghz, res.r_max, res.theta_opt, res.phi_opt,
                     res.fidelity_with_ghz])
        solves.append({
            "tau_c": float(tc),
            "rate_evaluations": res.rate_evaluations,
            "passes": res.passes,
            "starts": [{"theta": th, "phi": ph, "rate": r} for th, ph, r in res.starts],
            "ghz_won": res.ghz_won,
        })
    out = _resolve_out(args.out, "optimize_state.csv")
    _write_csv(out, header, rows)
    params = {"b": args.b, "tau_c_min": args.tau_c_min, "tau_c_max": args.tau_c_max,
              "points": args.points}
    _write_manifest(out, "optimize-state", params, None, started, [out], {"points": solves})
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    started = time.time()
    diagnostics: dict = {}
    checks = run_suite(args.suite, args.seed, diagnostics)
    all_passed = all(c.passed for c in checks)
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all_passed,
        "checks": [c.as_dict() for c in checks],
    }
    out = _resolve_out(args.out, f"validate_{args.suite}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "validate", {"suite": args.suite}, args.seed, started, [out], diagnostics)
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: "
              f"measured={c.measured:.6g} expected={c.expected:.6g} tol={c.tolerance:.3g}")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsense",
        description="Spin-S magnetometry under Ornstein-Uhlenbeck dephasing: "
                    "information curves, yield-rate sweeps, state optimization "
                    "and self-validation.",
        epilog="The gyromagnetic ratio is fixed to 1: frequencies and field "
               "magnitudes are interchangeable. Default output directory: "
               f"${OUTDIR_ENV} (else the working directory).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qfi-curve", help="QFI vs evolution time for one or more spins")
    p.add_argument("--s", action="append", type=_half_integer, required=True,
                   help="spin quantum number (half-integer); repeatable")
    p.add_argument("--b", type=_positive, required=True, help="noise magnitude")
    p.add_argument("--tau-c", dest="tau_c", type=_positive, required=True,
                   help="noise memory time")
    p.add_argument("--tau-min", dest="tau_min", type=_positive, default=1e-3)
    p.add_argument("--tau-max", dest="tau_max", type=_positive, default=10.0)
    p.add_argument("--points", type=_positive_int, default=400)
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=cmd_qfi_curve)

    p = sub.add_parser("sweep", help="optimized yield rate along a parameter grid")
    p.add_argument("--param", choices=["s", "b", "tau-c"], required=True)
    p.add_argument("--min", type=_positive, required=True)
    p.add_argument("--max", type=_positive, required=True)
    p.add_argument("--points", type=_positive_int, default=64)
    p.add_argument("--s", action="append", type=_half_integer, default=None,
                   help="fixed spin (when not swept)")
    p.add_argument("--b", type=_positive, default=None, help="fixed noise magnitude")
    p.add_argument("--tau-c", dest="tau_c", type=_positive, default=None,
                   help="fixed memory time")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize-state", help="spin-1 initial-state optimization")
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--tau-c-min", dest="tau_c_min", type=_positive, required=True)
    p.add_argument("--tau-c-max", dest="tau_c_max", type=_positive, required=True)
    p.add_argument("--points", type=_positive_int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_optimize_state)

    p = sub.add_parser("validate", help="run a self-validation suite")
    p.add_argument("--suite", choices=["mc", "oracle", "estimator", "dd"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state in the parser, so one instance serves every call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
