"""One benchmark process: import spinsense.cli, then run whole rounds of a workload.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.  It
prints ``ready`` as soon as ``spinsense.cli`` is imported (the parent times
interpreter start-up to that line), then runs the workload's commands
in-process through ``spinsense.cli.main(argv)`` and writes one JSON line of
results.  Import is the first thing it does, so nothing else is timed as
set-up.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import spinsense.cli

    import_s = time.perf_counter() - t0
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import argparse
    import contextlib
    import io
    import json
    import os
    import resource
    from statistics import median

    from checks import digest_outputs
    from plan import make_plan
    from tracer import Tracer, layer_metrics

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of rounds to run")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True, help="directory spinsense must be imported from")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(args.src)
    if os.path.commonpath([os.path.realpath(spinsense.cli.__file__), src]) != src:
        print(f"worker: spinsense imported from {spinsense.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    if args.setup_only:
        return 0

    plan = make_plan(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)

    def run_round():
        codes = []
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in plan:
                codes.append(spinsense.cli.main(cmd.full_argv(args.out)))
        wall = time.perf_counter() - start
        return wall, [cmd.stem for cmd, code in zip(plan, codes)
                      if code != 0 and not (code == 1 and cmd.verdict_replaced)]

    def data_bytes():
        return sum(os.path.getsize(os.path.join(args.out, n))
                   for cmd in plan for n in cmd.data_files()
                   if os.path.isfile(os.path.join(args.out, n)))

    def run_rounds(budget, after_round=None):
        """At least one round, then as many as fill the budget at the first round's pace."""
        walls, failed, digests = [], [], []
        n = 1
        while len(walls) < n:
            wall, f = run_round()
            if after_round is not None:
                after_round()
            walls.append(wall)
            failed.append(f)
            digests.append(digest_outputs(plan, args.out))
            if len(walls) == 1:
                n = max(1, round(budget / wall))
        return walls, failed, digests

    result = {"import_s": import_s}
    if args.trace:
        # untraced rounds first, then traced rounds, half the budget each
        walls, failed, digests = run_rounds(args.budget / 2)
        tracer = Tracer()
        result["lookups_replaced"] = tracer.install()
        traced = []
        t_walls, t_failed, t_digests = run_rounds(
            args.budget / 2, lambda: traced.append(tracer.take_round()))
        tracer.uninstall()
        counts = [c for c, _ in traced]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        per_round = [layer_metrics(c, t) for c, t in traced]
        layers = {k: median(r[k] for r in per_round) for k in per_round[0]}
        layers["cli.bytes_written"] = data_bytes()
        layers["trace.overhead_s"] = median(t_walls) - median(walls)
        result.update(layers=layers, traced_walls=t_walls, traced_rounds=per_round)
        failed += t_failed
        digests += t_digests
    else:
        walls, failed, digests = run_rounds(args.budget)

    result.update(
        walls=walls,
        attempted=len(plan) * len(digests),
        failed=failed,
        digests=digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
