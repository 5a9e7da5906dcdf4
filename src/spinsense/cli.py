"""Command-line front end: figure datasets as CSV plus JSON run manifests.

Subcommands
    qfi-curve       QFI against evolution time for one or more spins
    sweep           optimized yield rate along a parameter grid, with fits
    optimize-state  spin-1 initial-state optimization across memory times
    validate        self-validation suites (exit 1 if any check fails)

Exit codes: 0 success, 1 a validation suite failed, 2 usage error (bad
flags or input, or an input too large to hold in memory) or an output that
cannot be written, 3 numerical failure (a result over- or underflowed).

All numeric output uses 17 significant digits and '.' decimals; re-running
a command with identical flags reproduces byte-identical CSV.  An existing
output file is rewritten in place and cut to its new length, so a rewrite
killed between the write and the cut can leave the old file's tail behind
the new text.  Every
command writes a ``<out>.manifest.json`` recording parameters, seeds, the
RNG algorithm, the produced files and solver diagnostics (for a sweep, the
rows written, de-duplicated and failed; for a state optimization, per point
the rate rows solved, the nested-grid passes, each start's angles and the
rate it ended on, whether the GHZ point won, and the rate rows whose tau
scan bracketed no root; for the mc suite, the ``paths``, the trapezoid
``steps`` per grid row, the ``normals`` drawn and the ``draw_threads``; for
the oracle suite, the tuples drawn, the draws rejected and the SLD matrices
and stacks per dimension (``sld_matrices``, ``sld_stacks``); for the
estimator suite, the ``repetitions``, the generator blocks ``rng_blocks``
and the ``flagged`` repetitions).  The default output directory is
``$SPINSENSE_OUTDIR`` (falling back to the working directory).

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
from dataclasses import asdict

import numpy as np

from . import __version__, config
from .ou_noise import OUNoise
from .protocol import optimize_initial_state_spin1, sweep
from .qfi import ghz_qfi_values
from .spin_ops import SpinQuantumNumber
from .validate import SUITES

OUTDIR_ENV = "SPINSENSE_OUTDIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _resolve_out(out: str | None, default_name: str) -> str:
    if out is None:
        out = os.path.join(os.environ.get(OUTDIR_ENV, "."), default_name)
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    return out


def _write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path``, then cut a longer old file to length.

    No O_TRUNC: on a journalling file system, truncating an existing file on
    open costs far more than writing over it and cutting what is left."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        # only a longer old file is cut, so a device such as /dev/null still works
        if os.fstat(fh.fileno()).st_size > len(data):
            fh.truncate()


def _write_csv(path: str, header: list[str], columns) -> None:
    # RFC 4180: comma-separated, CRLF line endings, UTF-8
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\r\n"
    lines = [",".join(header) + "\r\n"]
    lines += [row % cells for cells in zip(*(c.tolist() for c in cols))]
    _write_text(path, "".join(lines))


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    out_path: str, command: str, parameters: dict, seed: int | None,
    started: float, outputs: list[str], diagnostics: dict | None = None,
) -> None:
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "rng_algorithm": config.RNG_ALGORITHM,
        "version": __version__,
        "duration_s": time.time() - started,
        "outputs": [os.path.basename(p) for p in outputs],
        "diagnostics": diagnostics or {},
    }
    _write_json(os.path.splitext(out_path)[0] + ".manifest.json", manifest)


def _parsed(convert, text: str, expected: str, ok):
    """``convert(text)`` if it parses and passes ``ok``; otherwise an
    ArgumentTypeError that names the expected value."""
    try:
        value = convert(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{expected}, got {text!r}")


def _half_integer(text: str) -> float:
    # the value as typed, so that manifests record it; from_s decides what is a spin
    return _parsed(float, text, "spin must be a positive half-integer",
                   lambda v: SpinQuantumNumber.from_s(v) is not None)


def _positive(text: str) -> float:
    return _parsed(float, text, "expected a positive finite number", lambda v: 0 < v < math.inf)


def _log_grid(low: float, high: float, points: int, low_flag: str, high_flag: str) -> np.ndarray:
    """points log-spaced values from low to high, or low alone for one point."""
    if low > high:
        raise ValueError(f"{low_flag} ({low!r}) must not exceed {high_flag} ({high!r})")
    if points == 1:
        return np.array([low])
    with np.errstate(over="ignore"):  # 10**log10(high) can round past the largest double
        grid = np.logspace(math.log10(low), math.log10(high), points)
    return np.where(np.isfinite(grid), grid, high)


def _positive_int(text: str) -> int:
    return _parsed(int, text, "expected a positive integer", lambda v: v >= 1)


def _nonnegative_int(text: str) -> int:
    return _parsed(int, text, "expected a non-negative integer", lambda v: v >= 0)


def cmd_qfi_curve(args: argparse.Namespace) -> int:
    started = time.time()
    taus = _log_grid(args.tau_min, args.tau_max, args.points, "--tau-min", "--tau-max")
    spins = [SpinQuantumNumber.from_s(v) for v in args.s]
    noise = OUNoise(args.b, args.tau_c)
    columns = [ghz_qfi_values(sq, noise, taus) for sq in spins]
    header = ["tau"] + [f"qfi_{sq.s:g}" for sq in spins]
    out = _resolve_out(args.out, "qfi_curve.csv")
    _write_csv(out, header, [taus, *columns])
    params = {
        "s": [sq.s for sq in spins], "b": args.b, "tau_c": args.tau_c,
        "tau_min": args.tau_min, "tau_max": args.tau_max, "points": args.points,
    }
    _write_manifest(out, "qfi-curve", params, None, started, [out])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.time()
    param = args.param.replace("-", "_")
    if args.s is not None and len(args.s) > 1:
        raise ValueError(f"--s given {len(args.s)} times; a sweep takes one fixed spin")
    given = {"s": args.s[0] if args.s else None, "b": args.b, "tau_c": args.tau_c}
    if given[param] is not None:
        raise ValueError(f"--{args.param} is the swept parameter; set its range with --min/--max")
    grid = _log_grid(args.min, args.max, args.points, "--min", "--max")
    fixed = {name: value for name, value in given.items() if name != param}
    for name, value in fixed.items():
        if value is None:
            raise ValueError(f"--{name.replace('_', '-')} is required when it is not swept")
    table = sweep(param, grid, **fixed)
    header = ["param", "rate", "tau_opt", "markov_param", "regime", "status"]
    status = table.status
    out = _resolve_out(args.out, f"sweep_{param}.csv")
    _write_csv(out, header, [table.values, table.rates, table.tau_opts, table.markov_params,
                             table.regimes, status])
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
    summary_path = os.path.splitext(out)[0] + ".summary.json"
    _write_json(summary_path, summary)
    params = dict(fixed, param=param, min=args.min, max=args.max, points=args.points)
    diagnostics = {
        "points": args.points,
        "rows": len(table),
        "deduplicated": args.points - len(table),
        "failed": status.count("failed"),
    }
    _write_manifest(out, "sweep", params, None, started, [out, summary_path], diagnostics)
    return EXIT_OK


def cmd_optimize_state(args: argparse.Namespace) -> int:
    started = time.time()
    tau_cs = _log_grid(args.tau_c_min, args.tau_c_max, args.points, "--tau-c-min", "--tau-c-max")
    results = [optimize_initial_state_spin1(OUNoise(args.b, float(tc))) for tc in tau_cs]
    header = ["tau_c", "r_ghz", "r_opt", "theta_opt", "phi_opt", "fidelity"]
    fields = ["r_ghz", "r_max", "theta_opt", "phi_opt", "fidelity_with_ghz"]
    out = _resolve_out(args.out, "optimize_state.csv")
    _write_csv(out, header, [tau_cs] + [[getattr(res, f) for res in results] for f in fields])
    solves = [{
        "tau_c": float(tc),
        "rate_evaluations": res.rate_evaluations,
        "passes": res.passes,
        "starts": [{"theta": th, "phi": ph, "rate": r} for th, ph, r in res.starts],
        "ghz_won": res.ghz_won,
        "unbracketed": res.unbracketed,
    } for tc, res in zip(tau_cs, results)]
    params = {"b": args.b, "tau_c_min": args.tau_c_min, "tau_c_max": args.tau_c_max,
              "points": args.points}
    _write_manifest(out, "optimize-state", params, None, started, [out], {"points": solves})
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    started = time.time()
    checks, diagnostics = SUITES[args.suite](args.seed)
    all_passed = all(c.passed for c in checks)
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all_passed,
        "checks": [asdict(c) for c in checks],
    }
    out = _resolve_out(args.out, f"validate_{args.suite}.json")
    _write_json(out, report)
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
    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
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
    except MemoryError as exc:
        print(f"{parser.prog}: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"{parser.prog}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"{parser.prog}: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
