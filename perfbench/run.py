#!/usr/bin/env python3
"""spinsense benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run spends ``--seconds`` in two worker processes
(half each), plus one process that only imports ``spinsense.cli``, and
reports the end-to-end metrics.  With ``--trace 1`` one worker runs untraced
rounds, then rounds with every public layer function wrapped, and reports the
per-layer metrics.  Every run checks the outputs against references computed
apart from the program.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median

from checks import OutputError, check_outputs, check_repeats, count_items, verdicts
from plan import WORKLOADS, make_plan
from tracer import UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, ".run")  # per-round layer figures of traced runs; scratch outputs
WORKERS = 2  # processes that share the measured time, to average per-process drift
DEADLINE_S = 170.0  # every process of a run is stopped by then

# One thread per numerical library, so a run measures a single-threaded process.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def start_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start worker.py; return the set-up time to its ``ready`` line and its result."""
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--src", SRC]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "ready\n" or code != 0:
        raise WorkerError(f"worker exited with code {code} ({' '.join(args)})")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # compile once, so set-up samples time imports, not byte-compilation
    compileall.compile_dir(SRC, quiet=2)
    os.makedirs(RUN_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=RUN_DIR)
    try:
        base = ["--workload", workload, "--seed", str(seed)]
        setups, results, outs = [], [], []
        if not trace:
            setup_s, _ = start_worker(base + ["--budget", "0", "--out", run_dir, "--setup-only"], deadline)
            setups.append(setup_s)
        n_workers, budget = (1, seconds) if trace else (WORKERS, seconds / WORKERS)
        for k in range(n_workers):
            out = os.path.join(run_dir, f"w{k}")
            setup_s, res = start_worker(
                base + ["--budget", repr(budget), "--trace", str(int(trace)), "--out", out], deadline)
            setups.append(setup_s)
            results.append(res)
            outs.append(out)

        # Operations that failed (the same ones in every round) are counted, not checked.
        failed_stems = {stem for r in results for f in r["failed"] for stem in f}
        plan = make_plan(workload, seed)
        problems = check_outputs([c for c in plan if c.stem not in failed_stems], outs[0])
        problems += check_repeats([d for r in results for d in r["digests"]])
        if trace and not results[0]["counts_repeat"]:
            problems.append("traced rounds gave different counts")
        try:
            items = count_items(workload, plan, outs[0])
            suites = verdicts(plan, outs[0])
        except OutputError as exc:
            items, suites = 0, {}
            problems.append(str(exc))
        walls = [w for r in results for w in r["walls"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(len(f) for r in results for f in r["failed"])

        traced = [round(w, 3) for r in results for w in r.get("traced_walls", [])]
        print(f"{workload} seed={seed}: {len(plan)} commands and {items} items per round; "
              f"round times {[round(w, 3) for w in walls]} s"
              + (f", traced {traced} s" if trace else "")
              + f"; suite verdicts {json.dumps(suites, sort_keys=True)}")
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)

        if trace:
            r = results[0]
            with open(os.path.join(RUN_DIR, f"trace_{workload}_{seed}.json"), "w") as fh:
                json.dump({"untraced_walls": r["walls"], "traced_walls": r["traced_walls"],
                           "lookups_replaced": r["lookups_replaced"],
                           "rounds": r["traced_rounds"]}, fh, indent=1)
            layers = dict(r["layers"], **{"setup.import_s": r["import_s"]})
            metrics = {k: {"value": layers[k], "unit": unit} for k, unit in sorted(UNITS.items())}
        else:
            metrics = {
                "wall_s": {"value": median(walls), "unit": "s"},
                "items_per_s": {"value": items / median(walls), "unit": "1/s"},
                "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
                "setup_s": {"value": median(setups), "unit": "s"},
            }
        return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinsense", "cli.py")):
        print(f"run.py: no spinsense sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
