#!/usr/bin/env python3
"""Paired benchmark runs of two commits, with medians and quartiles per side.

    python3 scripts/bench_pairs.py --base-rev HEAD~1 --head-rev HEAD --out BENCH_12.json

Exports both revisions with ``git archive`` into fresh temporary directories
and, for every workload and seed, runs ``perfbench/run.py`` once in each for
the run length that BENCHMARK.json fixes, alternating which side runs first.
Run it from inside the repository.  Each invocation appends one report to the
JSON list in ``--out``.  A report holds every run's end-to-end metrics,
failed and attempted operations and correctness; per workload and side, the
number of runs that errored or were incorrect and the failed and attempted
operations summed over all runs; and per workload and metric each side's
median and quartiles and the number of pairs the head won (ties count for
neither side), over the pairs in which both runs completed correctly.  If any
run errored or was incorrect, the report is still written and the script
exits 1.  The benchmark files are used as committed; nothing under
``perfbench/`` is edited.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> str:
    """Write the files of ``rev`` under ``dest``; return its full commit id."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return commit


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its last output line, or the error it ended with."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def usable(run: dict) -> bool:
    """Whether a run completed and its output was correct."""
    return "metrics" in run and run["correct"]


def checks(runs: list[dict], side: str) -> dict:
    """Errored and incorrect runs, and failed and attempted operations, of one side."""
    done = [r[side] for r in runs if "metrics" in r[side]]
    return {"runs": len(runs), "errored": len(runs) - len(done),
            "incorrect": sum(not r["correct"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "attempted": sum(r["attempted"] for r in done)}


def summarize(runs: list[dict], name: str, better: str) -> dict:
    """Median and quartiles per side, and the pairs the head won, for one metric.

    Only pairs in which both runs are ``usable`` count.
    """
    pairs = [(r["base"]["metrics"][name], r["head"]["metrics"][name]) for r in runs
             if usable(r["base"]) and usable(r["head"])]
    out: dict = {"pairs": len(pairs)}
    for k, side in enumerate(("base", "head")):
        values = [p[k] for p in pairs]
        if len(values) >= 2:
            q1, _, q3 = quantiles(values, n=4, method="inclusive")
            out[side] = {"median": median(values), "q1": q1, "q3": q3}
        elif values:
            out[side] = {"median": values[0]}
    sign = 1.0 if better == "higher" else -1.0
    out["head_wins"] = sum(sign * (h - b) > 0 for b, h in pairs)
    out["base_wins"] = sum(sign * (h - b) < 0 for b, h in pairs)
    return out


def summarize_workload(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The checks of both sides and the summary of every end-to-end metric."""
    return {
        "checks": {side: checks(runs, side) for side in ("base", "head")},
        "metrics": {m["name"]: dict(unit=m["unit"], better=m["better"],
                                    **summarize(runs, m["name"], m["better"]))
                    for m in end_to_end},
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base-rev", required=True, help="revision measured as the base")
    ap.add_argument("--head-rev", default="HEAD", help="revision measured as the change")
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)),
                    help="one pair of runs per workload and seed")
    ap.add_argument("--out", required=True, help="JSON list of reports, appended to")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in ("base", "head")}
        commits = {}
        for side, rev in (("base", args.base_rev), ("head", args.head_rev)):
            os.makedirs(dirs[side])
            commits[side] = export(rev, dirs[side])
        with open(os.path.join(dirs["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]

        report: dict = {
            "base": {"rev": args.base_rev, "commit": commits["base"]},
            "head": {"rev": args.head_rev, "commit": commits["head"]},
            "seconds": seconds,
            "seeds": args.seeds,
            "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version(),
                     "numpy": importlib.metadata.version("numpy")},
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workloads": {},
        }
        for workload in workloads:
            runs = []
            for k, seed in enumerate(args.seeds):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(dirs[side], workload, seed, seconds)
                    print(f"{workload} seed={seed} {side}: {json.dumps(run[side])}", flush=True)
                runs.append(run)
            report["workloads"][workload] = summarize_workload(runs, bench["end_to_end"])
    reports = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            reports = json.load(fh)
    reports.append(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1)
        fh.write("\n")
    bad = {f"{w} {side}": c for w, s in report["workloads"].items()
           for side, c in s["checks"].items() if c["errored"] or c["incorrect"]}
    if bad:
        print(f"runs errored or were incorrect: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
