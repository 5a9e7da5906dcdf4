"""Per-layer spans and counts, recorded by wrapping spinsense's public functions.

The wrappers are installed from outside the program, wherever a traced
function can be looked up: every ``spinsense`` module global that refers to
it (``protocol`` imports ``chi``, ``t2``, ``minimize`` ... by name, ``cli``
imports ``sweep`` and ``run_suite``) and every module-level dict that holds it
(``validate.SUITES``).  Spans live in memory with a parent link; a layer's
self time is its spans' durations minus the durations of their direct
children, which is exact because calls are single-threaded and nested.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# traced name -> (module, attribute) of the function wrapped
TARGETS = {
    "protocol.yield_rate": ("spinsense.protocol", "yield_rate"),
    "protocol.sweep": ("spinsense.protocol", "sweep"),
    "protocol.dd_scaling": ("spinsense.protocol", "dd_scaling"),
    "protocol.optimize_initial_state_spin1": ("spinsense.protocol", "optimize_initial_state_spin1"),
    "protocol.minimize": ("spinsense.protocol", "minimize"),
    "ou_noise.chi": ("spinsense.ou_noise", "chi"),
    "ou_noise.t2": ("spinsense.ou_noise", "t2"),
    "ou_noise.dd_chi": ("spinsense.ou_noise", "dd_chi"),
    "ou_noise.dd_t2": ("spinsense.ou_noise", "dd_t2"),
    "ou_noise.mc_coherence": ("spinsense.ou_noise", "mc_coherence"),
    "ou_noise.lfilter": ("spinsense.ou_noise", "lfilter"),
    "qfi.ghz_qfi_values": ("spinsense.qfi", "ghz_qfi_values"),
    "qfi.spin1_qfi_values": ("spinsense.qfi", "spin1_qfi_values"),
    "qfi.qfi_generic": ("spinsense.qfi", "qfi_generic"),
    "qfi.drho_domega": ("spinsense.qfi", "drho_domega"),
    "spin_ops.dephase": ("spinsense.spin_ops", "dephase"),
    "estimation.simulate_and_estimate": ("spinsense.estimation", "simulate_and_estimate"),
    "validate.mc_suite": ("spinsense.validate", "mc_suite"),
    "validate.oracle_suite": ("spinsense.validate", "oracle_suite"),
    "validate.estimator_suite": ("spinsense.validate", "estimator_suite"),
    "validate.dd_suite": ("spinsense.validate", "dd_suite"),
    "cli.main": ("spinsense.cli", "main"),
}

# QFI-curve kernels: a call of one of these made directly by yield_rate (not
# through t2) is one evaluation of the curve being maximized.
_CURVES = {"qfi.ghz_qfi_values", "qfi.spin1_qfi_values", "ou_noise.dd_chi"}

# Per-layer metrics reported by the traced run (units in UNITS below).
COUNTS = (
    "protocol.yield_rate.calls", "protocol.yield_rate.curve_calls",
    "protocol.sweep.rows", "protocol.minimize.nfev",
    "ou_noise.chi.calls", "ou_noise.chi.points", "ou_noise.t2.calls",
    "ou_noise.mc_coherence.draws", "ou_noise.mc_coherence.draws_used",
    "qfi.ghz_qfi_values.calls", "qfi.ghz_qfi_values.points",
    "qfi.spin1_qfi_values.calls", "qfi.spin1_qfi_values.points",
    "qfi.qfi_generic.calls", "spin_ops.dephase.calls",
)
SELF_TIMES = (
    "protocol.yield_rate", "protocol.sweep", "protocol.dd_scaling",
    "protocol.optimize_initial_state_spin1", "ou_noise.chi", "ou_noise.t2",
    "ou_noise.dd_chi", "ou_noise.dd_t2", "ou_noise.mc_coherence", "ou_noise.lfilter",
    "qfi.ghz_qfi_values", "qfi.spin1_qfi_values", "qfi.qfi_generic", "qfi.drho_domega",
    "spin_ops.dephase", "estimation.simulate_and_estimate", "cli.main",
)
INCLUSIVE_TIMES = ("validate.mc_suite", "validate.oracle_suite",
                   "validate.estimator_suite", "validate.dd_suite")
UNITS = {
    **{n: "count" for n in COUNTS},
    "protocol.sweep.rows_per_point": "ratio",
    "spin_ops.dephase.calls_per_qfi": "ratio",
    **{f"{n}.self_s": "s" for n in SELF_TIMES},
    **{f"{n}.s": "s" for n in INCLUSIVE_TIMES},
    "cli.bytes_written": "bytes",  # data files of one round (worker)
    "setup.import_s": "s",  # import of spinsense.cli inside the worker
    "trace.overhead_s": "s",  # median traced minus median untraced round
}


class Tracer:
    """Spans ``[name, start, end, parent]`` of one round, plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.notes: dict[int, dict] = defaultdict(dict)  # per-span scratch for counts
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            self.counts[name + ".calls"] += 1
            if parent >= 0 and name in _CURVES and self.spans[parent][0] == "protocol.yield_rate":
                self.counts["protocol.yield_rate.curve_calls"] += 1
            if count is not None:
                count(index, args, kwargs, result)
            return result

        return traced

    # count hooks: computed from call arguments and results only

    def _count_protocol_sweep(self, index, args, kwargs, result):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self.counts["protocol.sweep.rows"] += len(result)
        self.counts["protocol.sweep.points"] += len(grid)

    def _count_protocol_minimize(self, index, args, kwargs, result):
        self.counts["protocol.minimize.nfev"] += int(result.nfev)

    def _count_ou_noise_chi(self, index, args, kwargs, result):
        self.counts["ou_noise.chi.points"] += int(np.size(args[1] if len(args) > 1 else kwargs["tau"]))

    def _count_qfi_ghz_qfi_values(self, index, args, kwargs, result):
        self.counts["qfi.ghz_qfi_values.points"] += int(np.size(args[2] if len(args) > 2 else kwargs["tau"]))

    def _count_qfi_spin1_qfi_values(self, index, args, kwargs, result):
        self.counts["qfi.spin1_qfi_values.points"] += int(np.size(result))

    def _count_ou_noise_lfilter(self, index, args, kwargs, result):
        # the block of normal variates being filtered, shape (block, steps + 1)
        w = np.asarray(args[2] if len(args) > 2 else kwargs["x"])
        parent = self.spans[index][3]
        if parent >= 0 and self.spans[parent][0] == "ou_noise.mc_coherence":
            self.counts["ou_noise.mc_coherence.draws"] += int(w.size)
            self.notes[parent]["width"] = w.shape[-1]

    def _count_ou_noise_mc_coherence(self, index, args, kwargs, result):
        width = self.notes.pop(index, {}).get("width", 0)
        self.counts["ou_noise.mc_coherence.draws_used"] += int(result.n_paths) * width

    # installation

    def install(self) -> int:
        """Replace every lookup of a traced function; returns how many were replaced."""
        wrappers = {}
        for name, (module, attr) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrappers[id(original)] = (original, self.wrap(name, original))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "spinsense" or modname.startswith("spinsense.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._installed.append((value, key, item))
                            value[key] = wrappers[id(item)][1]
        return len(self._installed)

    def uninstall(self) -> None:
        for where, key, original in reversed(self._installed):
            if isinstance(where, dict):
                where[key] = original
            else:
                setattr(where, key, original)
        self._installed.clear()

    # aggregation

    def take_round(self) -> tuple[dict[str, int], dict[str, float]]:
        """Counts and per-layer times of the spans recorded since the last call."""
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            dur = end - start
            self_s[name] += dur
            incl_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        self.notes.clear()
        times = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIMES}
        times.update({f"{n}.s": incl_s.get(n, 0.0) for n in INCLUSIVE_TIMES})
        return counts, times


def layer_metrics(counts: dict[str, int], times: dict[str, float]) -> dict[str, float]:
    """The reported per-layer metrics of one round (0 where a layer did not run)."""
    out: dict[str, float] = {n: counts.get(n, 0) for n in COUNTS}
    points = counts.get("protocol.sweep.points", 0)
    out["protocol.sweep.rows_per_point"] = counts.get("protocol.sweep.rows", 0) / points if points else 0.0
    qfi_calls = counts.get("qfi.qfi_generic.calls", 0)
    out["spin_ops.dephase.calls_per_qfi"] = (
        counts.get("spin_ops.dephase.calls", 0) / qfi_calls if qfi_calls else 0.0)
    out.update(times)
    return out
