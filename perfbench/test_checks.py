"""The benchmark's own tests: real outputs pass its checks, perturbed ones do not.

    PYTHONPATH=src python3 -m pytest -q perfbench

Outputs are produced once per workload by running the workload's commands
through ``spinsense.cli.main``; each test perturbs a copy.
"""

import contextlib
import io
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spinsense.cli  # noqa: E402
import spinsense.protocol  # noqa: E402
import spinsense.validate  # noqa: E402
from checks import check_outputs, check_repeats, count_items, digest_outputs  # noqa: E402
from plan import make_plan  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics  # noqa: E402

SEED = 7


def _produce(workload, tmp_path_factory):
    plan = make_plan(workload, SEED)
    out = str(tmp_path_factory.mktemp(workload))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = {c.stem: spinsense.cli.main(c.full_argv(out)) for c in plan}
    return workload, plan, out, codes


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    return _produce("sweeps", tmp_path_factory)


@pytest.fixture(scope="module")
def state_opt(tmp_path_factory):
    return _produce("state_opt", tmp_path_factory)


@pytest.fixture(scope="module")
def mc(tmp_path_factory):
    return _produce("mc", tmp_path_factory)


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    return _produce("oracle", tmp_path_factory)


def _copy(produced, tmp_path):
    workload, plan, out, _ = produced
    dst = str(tmp_path / "out")
    shutil.copytree(out, dst)
    return workload, plan, dst


def _edit_csv(path, row, col, fn):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\r\n")
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines))


def _edit_json(path, fn):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    fn(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


def _shift(delta):
    return lambda cell: repr(float(cell) + delta)


def _cmd(plan, stem):
    return next(c for c in plan if c.stem == stem)


def _problems(plan, out, stem):
    return check_outputs([_cmd(plan, stem)], out)


def _set_check(name, key, fn):
    def edit(report):
        for c in report["checks"]:
            if c["name"] == name:
                c[key] = fn(c[key])
    return edit


@pytest.mark.parametrize("workload", ["sweeps", "state_opt", "mc", "oracle"])
def test_real_outputs_pass(workload, request):
    _, plan, out, codes = request.getfixturevalue(workload)
    # the estimator suite fails at its default seed (std/CRB = 1.053): the
    # benchmark counts that operation as failed and does not check it
    expected_failures = {"validate_estimator"} if workload == "oracle" else set()
    assert {s for s, code in codes.items() if code != 0 and s != "validate_mc"} == expected_failures
    checked = [c for c in plan if c.stem not in expected_failures]
    assert check_outputs(checked, out) == []
    assert count_items(workload, plan, out) > 0


def test_sweep_checks_reject_perturbed_outputs(sweeps, tmp_path):
    _, plan, out = _copy(sweeps, tmp_path)
    csv = os.path.join(out, "sweep_b_0.csv")
    _edit_csv(csv, 10, 1, _scale(1 + 1e-6))
    assert any("rate off the optimum" in p for p in _problems(plan, out, "sweep_b_0"))

    _edit_csv(os.path.join(out, "sweep_s_1.csv"), 3, 2, _scale(1.01))
    assert any("tau_opt off" in p for p in _problems(plan, out, "sweep_s_1"))

    summary = os.path.join(out, "sweep_tau_c_2.summary.json")
    _edit_json(summary, lambda s: s["fits"]["markovian"].update(slope=s["fits"]["markovian"]["slope"] + 0.1))
    problems = _problems(plan, out, "sweep_tau_c_2")
    assert any("markovian exponent" in p for p in problems)
    assert any("is not the fit of its rows" in p for p in problems)

    _edit_csv(os.path.join(out, "sweep_s_2.csv"), 0, 4, lambda cell: "quasi_static")
    assert any("regime labels" in p for p in _problems(plan, out, "sweep_s_2"))

    _edit_json(os.path.join(out, "validate_dd.json"),
               _set_check("dd quasi-static exponent n=3", "measured", lambda v: v + 0.2))
    assert any("n=3" in p for p in _problems(plan, out, "validate_dd"))

    _edit_json(os.path.join(out, "sweep_b_1.manifest.json"), lambda m: m.update(outputs=[]))
    assert any("outputs" in p for p in _problems(plan, out, "sweep_b_1"))


def test_repeat_check_rejects_one_changed_byte(sweeps, tmp_path):
    _, plan, out = _copy(sweeps, tmp_path)
    first = digest_outputs(plan, out)
    assert check_repeats([first, digest_outputs(plan, out)]) == []
    path = os.path.join(out, "sweep_s_0.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 1
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    assert check_repeats([first, digest_outputs(plan, out)]) == [
        "sweep_s_0.csv: round 1 wrote different bytes"]


def test_state_checks_reject_perturbed_outputs(state_opt, tmp_path):
    _, plan, out = _copy(state_opt, tmp_path)
    csv = os.path.join(out, "state_intermediate.csv")
    _edit_csv(csv, 0, 2, _scale(1 + 3e-6))
    assert any("SLD rate" in p for p in _problems(plan, out, "state_intermediate"))

    _edit_csv(os.path.join(out, "state_quasi_static.csv"), 0, 1, _scale(1 + 1e-6))
    problems = _problems(plan, out, "state_quasi_static")
    assert any("r_ghz off" in p for p in problems)
    assert any("below r_ghz" in p for p in problems)

    csv = os.path.join(out, "state_markovian.csv")
    _edit_csv(csv, 0, 5, _shift(1e-6))
    assert any("fidelity" in p for p in _problems(plan, out, "state_markovian"))
    _edit_csv(csv, 0, 2, lambda cell: "0.5")  # below the GHZ state and the grid
    problems = _problems(plan, out, "state_markovian")
    assert any("below a state on the reference grid" in p for p in problems)
    assert any("no Markovian gain" in p for p in problems)


def test_mc_checks_reject_perturbed_outputs(mc, tmp_path):
    _, plan, out = _copy(mc, tmp_path)
    path = os.path.join(out, "validate_mc.json")
    name = next(c["name"] for c in json.load(open(path))["checks"] if c["name"].endswith(" re"))
    _edit_json(path, _set_check(name, "measured", lambda v: v + 0))
    assert _problems(plan, out, "validate_mc") == []
    with open(path) as fh:
        tol = next(c["tolerance"] for c in json.load(fh)["checks"] if c["name"] == name)
    _edit_json(path, _set_check(name, "measured", lambda v: v + 7 * tol / 3))
    assert any("worst pull" in p for p in _problems(plan, out, "validate_mc"))

    _, plan, out = _copy(mc, tmp_path / "b")
    path = os.path.join(out, "validate_mc.json")
    _edit_json(path, _set_check(name, "tolerance", lambda v: v / 1.2))
    assert any("standard errors" in p for p in _problems(plan, out, "validate_mc"))


def test_oracle_checks_reject_perturbed_outputs(oracle, tmp_path):
    _, plan, out = _copy(oracle, tmp_path)
    _edit_json(os.path.join(out, "validate_oracle_1.json"),
               _set_check("oracle ghz closed-form vs sld (worst rel)", "measured", lambda v: 2e-8))
    assert any("worst rel" in p for p in _problems(plan, out, "validate_oracle_1"))

    _edit_csv(os.path.join(out, "qfi_curve.csv"), 5, 2, _scale(1 + 1e-9))
    assert any("off (2S tau)^2" in p for p in _problems(plan, out, "qfi_curve"))

    # the real estimator output (std/CRB = 1.053 at seed 0) is rejected ...
    assert any("std / crb" in p for p in _problems(plan, out, "validate_estimator"))
    # ... and so is a perturbed one that would otherwise pass
    _edit_json(os.path.join(out, "validate_estimator.json"),
               _set_check("estimator sample std / crb", "measured", lambda v: 1.0))
    _edit_json(os.path.join(out, "validate_estimator.json"),
               _set_check("estimator cfi/qfi at quadrature", "measured", lambda v: v * (1 + 1e-9)))
    assert [p for p in _problems(plan, out, "validate_estimator") if "cfi/qfi" in p]


def test_tracer_wraps_every_lookup_and_self_times_add_up():
    tracer = Tracer()
    originals = {name: getattr(sys.modules[mod], attr) for name, (mod, attr) in TARGETS.items()}
    replaced = tracer.install()
    try:
        assert replaced > len(TARGETS)
        assert spinsense.protocol.chi is not originals["ou_noise.chi"]
        assert spinsense.protocol.minimize is not originals["protocol.minimize"]
        assert spinsense.cli.sweep is not originals["protocol.sweep"]
        assert spinsense.validate.SUITES["dd"] is not originals["validate.dd_suite"]
        table = spinsense.protocol.sweep("b", [10.0**k for k in range(-3, 5)], s=0.5, tau_c=1.0)
        roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
        counts, times = tracer.take_round()
    finally:
        tracer.uninstall()
    for name, (mod, attr) in TARGETS.items():
        assert getattr(sys.modules[mod], attr) is originals[name]
    assert spinsense.validate.SUITES["dd"] is originals["validate.dd_suite"]
    metrics = layer_metrics(counts, times)
    assert metrics["protocol.sweep.rows"] == len(table) == 8
    assert metrics["protocol.yield_rate.calls"] == 8
    assert metrics["ou_noise.t2.calls"] == 8
    assert metrics["protocol.yield_rate.curve_calls"] == metrics["qfi.ghz_qfi_values.calls"] > 8
    # every span below sweep is a traced layer, so self times add up to the root span
    self_total = sum(v for k, v in times.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(roots, rel=1e-9)
