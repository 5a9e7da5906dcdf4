"""Independent checks of every output a round writes.

Nothing here calls spinsense: the references are computed from the physics
alone (the coherence integral chi, the GHZ Fisher information, a 3x3
symmetric-logarithmic-derivative eigendecomposition for spin 1, Gaussian
moments for the sampled coherence).  Each check returns a list of problems;
an empty list means the outputs are right.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from statistics import NormalDist

import numpy as np

from plan import MC_PATHS, ORACLE_TUPLES, Command

RATE_RTOL = 1e-8  # sweep rate against the dense-grid optimum
# tau_opt sits on a flat maximum: a rate error e moves it by ~sqrt(2e) relative,
# and the program's chi loses up to 9e-9 to cancellation near tau/tau_c = 2e-4.
TAU_RTOL = 1e-3
SLD_RTOL = 1e-6  # spin-1 r_opt against the SLD rate at (theta_opt, phi_opt)
EXPONENT_TOL = 0.05  # fitted sweep exponents against their limits
DD_EXPONENT_TOL = 0.1
MC_FAMILY_ALPHA = 1e-6  # chance that a correct sampler fails the pull bound, any seed
MC_STDERR_RTOL = 0.05  # reported standard error against sqrt(var/N) for N = MC_PATHS
ORACLE_MAX_REL = 1e-8
ESTIMATOR_TOL = 0.05

# Fitted log-log slopes of the rate in each deep regime, per swept parameter:
# Markovian R = 1/(2e b^2 tau_c) and quasi-static R = sqrt(2/e) S/b.
SWEEP_LIMITS = {
    "s": {"markovian": 0.0, "quasi_static": 1.0},
    "b": {"markovian": -2.0, "quasi_static": -1.0},
    "tau_c": {"markovian": -1.0, "quasi_static": 0.0},
}
SWEEP_HEADER = ["param", "rate", "tau_opt", "markov_param", "regime", "status"]
STATE_HEADER = ["tau_c", "r_ghz", "r_opt", "theta_opt", "phi_opt", "fidelity"]


class OutputError(Exception):
    """An output file is missing or malformed."""


# ---------------------------------------------------------------- references

def chi_ref(b, tau_c, tau):
    """b^2 tau_c^2 (x + e^-x - 1), x = tau/tau_c, with a series where it cancels."""
    x = np.asarray(tau, dtype=float) / tau_c
    series = x * x * (0.5 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x / 720))))
    return b * b * tau_c * tau_c * np.where(x < 1e-3, series, x + np.expm1(-x))


def zoom_max(log_f, lo, hi, n=401, tol=1e-10):
    """Maximum of log_f(tau) on nested dense log grids, one bracket [lo, hi] per row.

    log_f maps a (rows, n) array of tau to values; each level keeps the two
    grid cells around the best point, shrinking the bracket 200-fold.  The
    maximum must lie strictly inside the first grid.
    """
    a, z = np.log(np.asarray(lo, float)), np.log(np.asarray(hi, float))
    rows = np.arange(len(a))
    level = 0
    while True:
        u = a[:, None] + (z - a)[:, None] * np.linspace(0.0, 1.0, n)
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            v = log_f(np.exp(u))
        i = np.argmax(v, axis=1)
        if level == 0 and np.any((i == 0) | (i == n - 1)):
            raise OutputError("reference maximum on the edge of its tau bracket")
        if np.all(z - a < tol):
            return v[rows, i], np.exp(u[rows, i])
        a, z = u[rows, np.maximum(i - 1, 0)], u[rows, np.minimum(i + 1, n - 1)]
        level += 1


def _tau_bracket(two_s, b, tau_c, widen=100.0):
    """Around the quasi-static and Markovian optima 1/(sqrt2 2S b), 1/(2 (2Sb)^2 tau_c)."""
    t_qs = 1.0 / (math.sqrt(2.0) * two_s * b)
    t_m = 1.0 / (2.0 * (two_s * b) ** 2 * tau_c)
    return np.minimum(t_qs, t_m) / widen, np.maximum(t_qs, t_m) * widen


def ghz_rate_ref(two_s, b, tau_c):
    """max over tau of F/tau with F = (2S tau)^2 exp(-2 (2S)^2 chi); arrays of rows."""
    two_s, b, tau_c = (np.asarray(a, float) for a in (two_s, b, tau_c))
    k, bb, tc = two_s[:, None], b[:, None], tau_c[:, None]
    lo, hi = _tau_bracket(two_s, b, tau_c)
    best, tau = zoom_max(lambda t: 2 * np.log(k) + np.log(t) - 2 * k * k * chi_ref(bb, tc, t), lo, hi)
    return np.exp(best), tau


_M1 = np.array([1.0, 0.0, -1.0])  # m = +1, 0, -1
_DM1 = _M1[:, None] - _M1[None, :]


def spin1_log_rate(theta, phi, b, tau_c):
    """log(F/tau) of the dephased spin-1 state from its 3x3 SLD eigendecomposition.

    Amplitudes (cos T, sin T cos P, sin T sin P) on m = (1, 0, -1); entry
    (m, n) is damped by exp(-(m-n)^2 chi) and d rho/d omega = -i tau (m-n) rho.
    """
    amps = np.stack([np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)], -1)

    def log_f(tau):
        c = chi_ref(b, tau_c, tau)[..., None, None]
        rho = amps[:, None, :, None] * amps[:, None, None, :] * np.exp(-(_DM1**2) * c)
        p, u = np.linalg.eigh(rho)
        m = np.swapaxes(u, -1, -2) @ (_DM1 * rho) @ u
        den = p[..., :, None] + p[..., None, :]
        keep = den > 1e-12
        f = tau**2 * np.sum(2.0 * m**2 * keep / np.where(keep, den, 1.0), axis=(-1, -2))
        return np.log(f / tau)

    return log_f


def spin1_rate_ref(theta, phi, b, tau_c):
    theta, phi = np.atleast_1d(theta).astype(float), np.atleast_1d(phi).astype(float)
    lo, hi = _tau_bracket(2, b, tau_c)
    best, _ = zoom_max(spin1_log_rate(theta, phi, b, tau_c),
                       np.full(len(theta), lo), np.full(len(theta), hi))
    return np.exp(best)


def spin1_grid_lower_bound(b, tau_c, n_angles=8, n_tau=401):
    """A rate some spin-1 state reaches: best of an angle grid on one tau grid."""
    ang = (np.arange(n_angles) + 0.5) * (math.pi / 2) / n_angles
    th, ph = (a.ravel() for a in np.meshgrid(ang, ang, indexing="ij"))
    lo, hi = _tau_bracket(2, b, tau_c)
    taus = np.geomspace(lo, hi, n_tau)[None, :].repeat(len(th), 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.exp(np.max(spin1_log_rate(th, ph, b, tau_c)(taus))))


def _logspace(lo, hi, n):
    return 10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * np.arange(n) / (n - 1))


def _rel(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


# ------------------------------------------------------------------ parsing

def _read(out_dir: str, name: str) -> bytes:
    path = os.path.join(out_dir, name)
    if not os.path.isfile(path):
        raise OutputError(f"{name}: missing")
    with open(path, "rb") as fh:
        return fh.read()


def read_csv(out_dir: str, name: str) -> tuple[list[str], list[list[str]]]:
    text = _read(out_dir, name).decode("utf-8")
    if not text.endswith("\r\n"):
        raise OutputError(f"{name}: does not end in CRLF")
    lines = text[:-2].split("\r\n")
    rows = [line.split(",") for line in lines[1:]]
    header = lines[0].split(",")
    if any(len(r) != len(header) for r in rows):
        raise OutputError(f"{name}: ragged rows")
    return header, rows


def read_json(out_dir: str, name: str) -> dict:
    try:
        return json.loads(_read(out_dir, name))
    except ValueError as exc:
        raise OutputError(f"{name}: not JSON ({exc})") from None


def _floats(rows, col):
    try:
        return np.array([float(r[col]) for r in rows])
    except ValueError as exc:
        raise OutputError(f"non-numeric cell ({exc})") from None


def _checks_by_name(report: dict) -> dict[str, dict]:
    return {c["name"]: c for c in report.get("checks", [])}


# ------------------------------------------------------------------- checks

def check_manifest(cmd: Command, out_dir: str) -> list[str]:
    man = read_json(out_dir, cmd.manifest_name())
    problems = []
    if man.get("command") != cmd.kind:
        problems.append(f"{cmd.manifest_name()}: command {man.get('command')!r}")
    if man.get("outputs") != cmd.data_files():
        problems.append(f"{cmd.manifest_name()}: outputs {man.get('outputs')!r}")
    return problems


def check_sweep(cmd: Command, out_dir: str) -> list[str]:
    p = cmd.params
    name = cmd.out_name
    header, rows = read_csv(out_dir, name)
    if header != SWEEP_HEADER:
        return [f"{name}: header {header}"]
    summary = read_json(out_dir, cmd.stem + ".summary.json")
    problems = []
    grid = _logspace(p["min"], p["max"], p["points"])
    values = _floats(rows, 0)
    if p["param"] == "s":
        expected = np.array(sorted({max(1, round(2 * v)) for v in grid})) / 2.0
    else:
        expected = grid
    if len(values) != len(expected) or np.any(_rel(values, expected) > 1e-12):
        return [f"{name}: parameter column is not the requested grid"]
    n = len(values)
    col = {k: np.full(n, p[k]) if k in p else values for k in ("s", "b", "tau_c")}
    two_s = 2.0 * col["s"]
    rate, tau_opt, markov = _floats(rows, 1), _floats(rows, 2), _floats(rows, 3)
    ref_rate, ref_tau = ghz_rate_ref(two_s, col["b"], col["tau_c"])
    worst = float(np.max(_rel(rate, ref_rate)))
    if worst > RATE_RTOL:
        problems.append(f"{name}: rate off the optimum by {worst:.3g} relative")
    if np.max(_rel(tau_opt, ref_tau)) > TAU_RTOL:
        problems.append(f"{name}: tau_opt off by {np.max(_rel(tau_opt, ref_tau)):.3g} relative")
    if np.max(_rel(markov, two_s * col["b"] * col["tau_c"])) > 1e-12:
        problems.append(f"{name}: markov_param is not 2*S*b*tau_c")
    thr = summary.get("regime_thresholds", {})
    try:
        regimes = np.where(markov < thr["markovian_below"], "markovian",
                           np.where(markov > thr["quasi_static_above"], "quasi_static", "intermediate"))
    except KeyError:
        return problems + [f"{name}: summary lacks regime thresholds"]
    if [r[4] for r in rows] != list(regimes):
        problems.append(f"{name}: regime labels disagree with the memory parameter")
    if any(r[5] != "ok" for r in rows):
        problems.append(f"{name}: a row's optimum sits on the scan boundary")
    if summary.get("param") != p["param"]:
        problems.append(f"{name}: summary param {summary.get('param')!r}")
    fixed = {k: v for k, v in p.items() if k in ("s", "b", "tau_c")}
    if summary.get("fixed") != fixed:
        problems.append(f"{name}: summary fixed values {summary.get('fixed')!r}")
    fits = summary.get("fits", {})
    deep = {
        "markovian": np.flatnonzero(markov <= thr.get("fit_window_markovian_below", -1)),
        "quasi_static": np.flatnonzero(markov >= thr.get("fit_window_quasi_static_above", np.inf)),
    }
    for label, limit in SWEEP_LIMITS[p["param"]].items():
        fit = fits.get(label)
        idx = deep[label]
        if fit is None or len(idx) < 4:
            problems.append(f"{name}: no {label} fit window")
            continue
        lo, hi = fit["window"]
        if (lo, hi) != (int(idx[0]), int(idx[-1]) + 1) or fit["n_points"] != hi - lo:
            problems.append(f"{name}: {label} window {fit['window']} is not the deep rows")
            continue
        lx, ly = np.log(values[lo:hi]), np.log(rate[lo:hi])
        slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / np.sum((lx - lx.mean()) ** 2))
        if abs(fit["slope"] - slope) > 1e-9:
            problems.append(f"{name}: {label} slope {fit['slope']} is not the fit of its rows ({slope})")
        if abs(fit["slope"] - limit) > EXPONENT_TOL:
            problems.append(f"{name}: {label} exponent {fit['slope']:.4f}, limit {limit}")
    return problems


def check_dd(cmd: Command, out_dir: str) -> list[str]:
    report = read_json(out_dir, cmd.out_name)
    checks = _checks_by_name(report)
    expected = {f"dd quasi-static exponent n={n}": 2.0 - 2.0 / n for n in (2, 3, 4)}
    expected["dd markovian exponent n=3"] = 0.0
    problems = []
    if set(checks) != set(expected):
        return [f"{cmd.out_name}: checks {sorted(checks)}"]
    for label, want in expected.items():
        got = checks[label]["measured"]
        if not abs(got - want) <= DD_EXPONENT_TOL:
            problems.append(f"{cmd.out_name}: {label} = {got:.4f}, expected {want:.4f}")
    if report.get("passed") is not True:
        problems.append(f"{cmd.out_name}: suite reports failure")
    return problems


def check_state(cmd: Command, out_dir: str) -> list[str]:
    p = cmd.params
    name = cmd.out_name
    header, rows = read_csv(out_dir, name)
    if header != STATE_HEADER or len(rows) != 1:
        return [f"{name}: header {header} with {len(rows)} rows"]
    tau_c, r_ghz, r_opt, theta, phi, fid = (float(x) for x in rows[0])
    problems = []
    if _rel(tau_c, p["tau_c"]) > 1e-15:
        problems.append(f"{name}: tau_c {tau_c} is not the requested {p['tau_c']}")
    b = p["b"]
    if not r_opt >= r_ghz:
        problems.append(f"{name}: r_opt {r_opt} below r_ghz {r_ghz}")
    ghz, _ = ghz_rate_ref([2.0], [b], [p["tau_c"]])
    if _rel(r_ghz, ghz[0]) > RATE_RTOL:
        problems.append(f"{name}: r_ghz off by {float(_rel(r_ghz, ghz[0])):.3g} relative")
    sld = spin1_rate_ref(theta, phi, b, p["tau_c"])[0]
    if _rel(r_opt, sld) > SLD_RTOL:
        problems.append(f"{name}: r_opt off the SLD rate at its angles by {float(_rel(r_opt, sld)):.3g}")
    bound = spin1_grid_lower_bound(b, p["tau_c"])
    if r_opt < bound * (1 - 1e-9):
        problems.append(f"{name}: r_opt {r_opt} below a state on the reference grid ({bound})")
    if _rel(fid, abs(math.cos(theta) + math.sin(theta) * math.sin(phi)) / math.sqrt(2)) > 1e-12:
        problems.append(f"{name}: fidelity is not |<GHZ|psi(theta, phi)>|")
    if p["band"] == "markovian" and not r_opt / r_ghz > 1.0:
        problems.append(f"{name}: no Markovian gain over GHZ ({r_opt / r_ghz})")
    if p["band"] == "quasi_static" and not fid > 0.99:
        problems.append(f"{name}: quasi-static optimum is not GHZ-like (fidelity {fid})")
    return problems


_MC_NAME = re.compile(
    r"mc\[(\d+)\] \w+ S=(\S+) b=(\S+) tau_c=(\S+) tau=(\S+) (re|im)$")


def mc_pulls(report: dict) -> tuple[np.ndarray, np.ndarray, int]:
    """Pulls of every sampled mean against exp(-(2S)^2 chi) (re) or 0 (im),
    and reported standard errors over sqrt(var/N) for N = MC_PATHS."""
    pulls, ratios, points = [], [], set()
    for c in report.get("checks", []):
        m = _MC_NAME.match(c["name"])
        if not m:
            continue
        i, s, b, tau_c, tau = int(m[1]), *(float(v) for v in m.group(2, 3, 4, 5))
        points.add(i)
        v = 2.0 * (2 * s) ** 2 * float(chi_ref(b, tau_c, tau))  # phase variance
        stderr = c["tolerance"] / 3.0  # the suite's tolerance is 3 standard errors
        if m[6] == "re":
            target, var = math.exp(-v / 2), 0.5 * math.expm1(-v) ** 2
        else:
            target, var = 0.0, -0.5 * math.expm1(-2 * v)
        pulls.append((c["measured"] - target) / stderr if stderr > 0 else math.inf)
        ratios.append(stderr / math.sqrt(var / MC_PATHS))
    return np.array(pulls), np.array(ratios), len(points)


def mc_pull_bound(n_tests: int) -> float:
    """Two-sided Bonferroni bound: a correct sampler exceeds it with chance MC_FAMILY_ALPHA."""
    return NormalDist().inv_cdf(1.0 - MC_FAMILY_ALPHA / (2 * n_tests))


def check_mc(cmd: Command, out_dir: str) -> list[str]:
    report = read_json(out_dir, cmd.out_name)
    pulls, ratios, n_points = mc_pulls(report)
    problems = []
    if report.get("seed") != cmd.params["seed"] or n_points == 0 or len(pulls) != 2 * n_points:
        return [f"{cmd.out_name}: seed {report.get('seed')} with {len(pulls)} re/im checks"]
    bound = mc_pull_bound(len(pulls))
    if np.max(np.abs(pulls)) > bound:
        problems.append(f"{cmd.out_name}: worst pull {np.max(np.abs(pulls)):.2f} > {bound:.2f}")
    if np.max(np.abs(ratios - 1.0)) > MC_STDERR_RTOL:
        problems.append(f"{cmd.out_name}: standard errors do not match {MC_PATHS} paths")
    return problems


def check_oracle(cmd: Command, out_dir: str) -> list[str]:
    report = read_json(out_dir, cmd.out_name)
    checks = _checks_by_name(report)
    limits = {
        "oracle ghz closed-form vs sld (worst rel)": ORACLE_MAX_REL,
        "oracle spin-1 closed-form vs sld (worst rel)": ORACLE_MAX_REL,
        "oracle spin-1 phase independence (abs spread)": 1e-10,
    }
    if set(checks) != set(limits) or report.get("seed") != cmd.params["seed"]:
        return [f"{cmd.out_name}: checks {sorted(checks)} at seed {report.get('seed')}"]
    problems = [f"{cmd.out_name}: {k} = {checks[k]['measured']:.3g}"
                for k, lim in limits.items() if not 0 <= checks[k]["measured"] < lim]
    if report.get("passed") is not True:
        problems.append(f"{cmd.out_name}: suite reports failure")
    return problems


def check_estimator(cmd: Command, out_dir: str) -> list[str]:
    checks = _checks_by_name(read_json(out_dir, cmd.out_name))
    want = {
        "estimator cfi/qfi at quadrature": (1.0, 1e-12),
        "estimator sample std / crb": (1.0, ESTIMATOR_TOL),
        "estimator flagged runs": (0.0, 0.0),
    }
    if set(checks) != set(want):
        return [f"{cmd.out_name}: checks {sorted(checks)}"]
    return [f"{cmd.out_name}: {k} = {checks[k]['measured']!r}"
            for k, (v, tol) in want.items() if not abs(checks[k]["measured"] - v) <= tol]


def check_qfi_curve(cmd: Command, out_dir: str) -> list[str]:
    p = cmd.params
    header, rows = read_csv(out_dir, cmd.out_name)
    if header != ["tau"] + [f"qfi_{s:g}" for s in p["s"]] or len(rows) != p["points"]:
        return [f"{cmd.out_name}: header {header} with {len(rows)} rows"]
    tau = _floats(rows, 0)
    if np.any(_rel(tau, _logspace(p["tau_min"], p["tau_max"], p["points"])) > 1e-12):
        return [f"{cmd.out_name}: tau column is not the requested grid"]
    problems = []
    for j, s in enumerate(p["s"], start=1):
        k = 2 * s
        ref = (k * tau) ** 2 * np.exp(-2 * k * k * chi_ref(p["b"], p["tau_c"], tau))
        if np.max(_rel(_floats(rows, j), ref)) > 1e-12:
            problems.append(f"{cmd.out_name}: qfi_{s:g} off (2S tau)^2 exp(-2 (2S)^2 chi)")
    return problems


def _check_command(cmd: Command, out_dir: str) -> list[str]:
    if cmd.kind == "sweep":
        return check_sweep(cmd, out_dir)
    if cmd.kind == "optimize-state":
        return check_state(cmd, out_dir)
    if cmd.kind == "qfi-curve":
        return check_qfi_curve(cmd, out_dir)
    suite = cmd.argv[cmd.argv.index("--suite") + 1]
    return {"dd": check_dd, "mc": check_mc, "oracle": check_oracle,
            "estimator": check_estimator}[suite](cmd, out_dir)


def check_outputs(plan: list[Command], out_dir: str) -> list[str]:
    """Every problem found in the outputs of one round."""
    problems = []
    for cmd in plan:
        try:
            problems += _check_command(cmd, out_dir) + check_manifest(cmd, out_dir)
        except (OutputError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{cmd.stem}: unreadable output ({type(exc).__name__}: {exc})")
    return problems


def digest_outputs(plan: list[Command], out_dir: str) -> dict[str, str]:
    """SHA-256 of every data file a round wrote."""
    out = {}
    for cmd in plan:
        for name in cmd.data_files():
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_repeats(digests: list[dict[str, str]]) -> list[str]:
    """Every round must write the same bytes as the first."""
    return [f"{name}: round {k} wrote different bytes"
            for k, d in enumerate(digests[1:], start=1)
            for name in sorted(set(d) | set(digests[0])) if d.get(name) != digests[0].get(name)]


def count_items(workload: str, plan: list[Command], out_dir: str) -> int:
    """Work items one round completes: sweep rows written, optimized points,
    sampled paths, or oracle tuples."""
    if workload in ("sweeps", "state_opt"):
        return sum(len(read_csv(out_dir, c.out_name)[1])
                   for c in plan if c.kind in ("sweep", "optimize-state"))
    if workload == "mc":
        return sum(mc_pulls(read_json(out_dir, c.out_name))[2] * MC_PATHS for c in plan)
    return ORACLE_TUPLES * sum("oracle" in c.argv for c in plan)


def verdicts(plan: list[Command], out_dir: str) -> dict[str, bool]:
    """Each validate suite's own pass/fail verdict, recorded next to the checks above."""
    return {c.stem: read_json(out_dir, c.out_name).get("passed") is True
            for c in plan if c.kind == "validate"}
