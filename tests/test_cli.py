import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spinsense import (
    OUNoise, RegimeKind, SpinQuantumNumber, cli, config, validate, yield_rate_asymptotic)
from spinsense.protocol import _STATE_GRID_POINTS
from spinsense.validate import CheckResult


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestQfiCurve:
    def test_schema_and_peaks(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        code = run(["qfi-curve", "--s", "4", "--s", "8", "--b", "1", "--tau-c", "0.1",
                    "--tau-min", "0.01", "--tau-max", "1", "--points", "300", "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["tau", "qfi_4", "qfi_8"]
        data = np.array(rows, dtype=float)
        i4, i8 = np.argmax(data[:, 1]), np.argmax(data[:, 2])
        assert data[i4, 1] == pytest.approx(0.60, abs=0.02)
        assert data[i4, 0] == pytest.approx(0.20, abs=0.02)
        assert data[i8, 2] == pytest.approx(0.46, abs=0.02)
        assert data[i8, 0] == pytest.approx(0.07, abs=0.01)

    def test_noise_free_limit(self, tmp_path):
        out = str(tmp_path / "weak.csv")
        run(["qfi-curve", "--s", "2", "--b", "1e-9", "--tau-c", "0.1",
             "--tau-min", "0.1", "--tau-max", "2", "--points", "40", "--out", out])
        _, rows = read_csv(out)
        data = np.array(rows, dtype=float)
        np.testing.assert_allclose(data[:, 1], (4 * data[:, 0]) ** 2, rtol=1e-6)

    def test_chi_where_tau_c_squared_underflows(self, tmp_path):
        # tau_c^2 = 1e-400 underflows, but chi = b^2 tau_c tau is 1 at
        # tau = 1e-100, so the QFI there is (2 tau)^2 e^-8
        out = str(tmp_path / "edge.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["qfi-curve", "--s", "1", "--b", "1e150", "--tau-c", "1e-200",
                        "--tau-min", "1e-101", "--tau-max", "1e-99", "--points", "3",
                        "--out", out])
        assert code == 0
        data = np.array(read_csv(out)[1], dtype=float)
        assert data[1, 0] == pytest.approx(1e-100, rel=1e-15)
        assert data[1, 1] == pytest.approx(4e-200 * math.exp(-8.0), rel=1e-12)

    def test_spin_whose_square_overflows(self, tmp_path):
        # (2S)^2 = 4e600: the QFI is 0 at every tau; the S = 1 column is as alone
        out, alone = str(tmp_path / "huge.csv"), str(tmp_path / "alone.csv")
        flags = ["--b", "1", "--tau-c", "1", "--points", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["qfi-curve", "--s", "1e300", "--s", "1", *flags, "--out", out]) == 0
        assert run(["qfi-curve", "--s", "1", *flags, "--out", alone]) == 0
        header, rows = read_csv(out)
        assert header == ["tau", "qfi_1e+300", "qfi_1"]
        assert [r[1] for r in rows] == ["0", "0", "0"]
        assert [[r[0], r[2]] for r in rows] == read_csv(alone)[1]

    def test_single_point(self, tmp_path):
        out = str(tmp_path / "one.csv")
        assert run(["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1",
                    "--points", "1", "--out", out]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1

    def test_byte_identical_rerun(self, tmp_path):
        args = ["qfi-curve", "--s", "0.5", "--b", "1", "--tau-c", "0.5",
                "--tau-min", "0.1", "--tau-max", "5", "--points", "64"]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(args + ["--out", out1])
        run(args + ["--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_manifest_contents(self, tmp_path):
        out = str(tmp_path / "c.csv")
        run(["qfi-curve", "--s", "1.5", "--b", "2", "--tau-c", "0.3", "--out", out])
        manifest = json.load(open(tmp_path / "c.manifest.json"))
        assert manifest["command"] == "qfi-curve"
        assert manifest["parameters"]["s"] == [1.5]
        assert manifest["parameters"]["b"] == 2.0
        assert manifest["outputs"] == ["c.csv"]
        assert "PCG64" in manifest["rng_algorithm"]
        assert manifest["version"]

    def test_manifests_stable_modulo_duration(self, tmp_path):
        args = ["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1"]
        run(args + ["--out", str(tmp_path / "m1.csv")])
        run(args + ["--out", str(tmp_path / "m2.csv")])
        m1 = json.load(open(tmp_path / "m1.manifest.json"))
        m2 = json.load(open(tmp_path / "m2.manifest.json"))
        for m in (m1, m2):
            m.pop("duration_s")
            m.pop("outputs")
        assert m1 == m2

    def test_invalid_flags_exit_2(self, tmp_path, capsys):
        out = ["--out", str(tmp_path / "never.csv")]
        assert run(["qfi-curve", "--s", "0.4", "--b", "1", "--tau-c", "1"]) == 2
        assert run(["qfi-curve", "--b", "1", "--tau-c", "1"]) == 2
        assert run(["qfi-curve", "--s", "1", "--b", "-3", "--tau-c", "1"]) == 2
        assert run(["qfi-curve", "--s", "1", "--b", "inf", "--tau-c", "1"] + out) == 2
        assert run(["qfi-curve", "--s", "inf", "--b", "1", "--tau-c", "1"] + out) == 2
        assert run(["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "nan"] + out) == 2
        assert run(["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1",
                    "--tau-min", "5", "--tau-max", "1"] + out) == 2
        assert run(["optimize-state", "--b", "1", "--tau-c-min", "2",
                    "--tau-c-max", "1"] + out) == 2
        assert not os.listdir(tmp_path)
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["validate", "--suite", "dd", "--seed", "1.5"],
         "argument --seed: expected a non-negative integer, got '1.5'"),
        (["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1", "--points", "2.5"],
         "argument --points: expected a positive integer, got '2.5'"),
        (["sweep", "--param", "b", "--min", "abc", "--max", "1", "--points", "8",
          "--s", "0.5", "--tau-c", "1"],
         "argument --min: expected a positive finite number, got 'abc'"),
        (["qfi-curve", "--s", "x", "--b", "1", "--tau-c", "1"],
         "argument --s: spin must be a positive half-integer, got 'x'"),
        # finite, but 2S overflows to inf
        (["qfi-curve", "--s", "1e308", "--b", "1", "--tau-c", "1"],
         "argument --s: spin must be a positive half-integer, got '1e308'"),
        (["sweep", "--param", "b", "--min", "1", "--max", "2", "--s", "1e308", "--tau-c", "1"],
         "argument --s: spin must be a positive half-integer, got '1e308'"),
    ])
    def test_unparsable_value_names_expected_value(self, tmp_path, capsys, argv, message):
        out = tmp_path / "never.out"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "invalid _" not in err
        assert [line for line in err.splitlines() if "error" in line] == [
            f"spinsense {argv[0]}: error: {message}"]
        assert not os.listdir(tmp_path)

    def test_unknown_command_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()


class TestSweepCommand:
    def test_schema_and_summary(self, tmp_path):
        out = str(tmp_path / "s_sweep.csv")
        code = run(["sweep", "--param", "s", "--min", "0.5", "--max", "5",
                    "--points", "10", "--b", "1", "--tau-c", "1e-3", "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["param", "rate", "tau_opt", "markov_param", "regime", "status"]
        for row in rows:
            assert float(row[1]) > 0 and float(row[2]) > 0
            assert row[4] in {"markovian", "intermediate", "quasi_static"}
            assert row[5] == "ok"
        summary = json.load(open(tmp_path / "s_sweep.summary.json"))
        assert summary["fits"]["markovian"]["slope"] == pytest.approx(0.0, abs=0.05)

    def test_missing_fixed_parameter_exit_2(self, tmp_path, capsys):
        code = run(["sweep", "--param", "b", "--min", "0.1", "--max", "1",
                    "--points", "8", "--tau-c", "1"])
        assert code == 2
        capsys.readouterr()

    def test_too_few_points_exit_2(self, tmp_path, capsys):
        code = run(["sweep", "--param", "b", "--min", "0.1", "--max", "1", "--points", "4",
                    "--s", "0.5", "--tau-c", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()

    def test_manifest_diagnostics(self, tmp_path):
        out = str(tmp_path / "s64.csv")
        assert run(["sweep", "--param", "s", "--min", "0.5", "--max", "1e6", "--points", "64",
                    "--b", "1", "--tau-c", "1e-3", "--out", out]) == 0
        _, rows = read_csv(out)
        manifest = json.load(open(tmp_path / "s64.manifest.json"))
        assert manifest["outputs"] == ["s64.csv", "s64.summary.json"]
        assert manifest["diagnostics"] == {
            "points": 64, "rows": len(rows), "deduplicated": 64 - len(rows), "failed": 0,
        }
        assert len(rows) == 61  # 0.5, 0.62.. and 0.78.. all round to 2S = 1

    def test_numerical_failure_is_a_row_status(self, tmp_path, capsys):
        # the Markovian rate 1/(2e b^2 tau_c) leaves the float range at the
        # bottom of this grid (b <= 4.6e-174); every other row is finite,
        # although its b^2 or tau_opt^2 is not
        out = str(tmp_path / "wide_b.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["sweep", "--param", "b", "--min", "1e-200", "--max", "1e200",
                        "--points", "16", "--s", "0.5", "--tau-c", "1", "--out", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out)
        assert header == ["param", "rate", "tau_opt", "markov_param", "regime", "status"]
        assert len(rows) == 16
        status = [r[5] for r in rows]
        failed = [i for i, st in enumerate(status) if st == "failed"]
        assert failed == [0, 1]
        assert all(st == "ok" for st in status if st != "failed")
        for i in failed:
            assert rows[i][1] == rows[i][2] == "nan"
        for i, row in enumerate(rows):
            if i not in failed:  # quasi-static R = sqrt(2/e) S / b, Markovian 1/(2e b^2)
                b = float(row[0])
                want = math.sqrt(2 / math.e) * 0.5 / b if b > 1 else 1 / (2 * math.e * b**2)
                assert float(row[1]) == pytest.approx(want, rel=1e-3)
        fits = json.load(open(tmp_path / "wide_b.summary.json"))["fits"]
        for fit in fits.values():
            lo, hi = fit["window"]
            assert not set(range(lo, hi)) & set(failed)
        assert fits["quasi_static"]["slope"] == pytest.approx(-1.0, abs=1e-6)
        assert fits["markovian"]["slope"] == pytest.approx(-2.0, abs=1e-6)
        diagnostics = json.load(open(tmp_path / "wide_b.manifest.json"))["diagnostics"]
        assert diagnostics["failed"] == len(failed)
        assert diagnostics["rows"] == 16 and diagnostics["deduplicated"] == 0

    def test_spin_rows_where_two_s_squared_overflows(self, tmp_path):
        # R = sqrt(2/e) S/b and tau_opt = 1/(sqrt(2) 2S b) are normal doubles
        out = str(tmp_path / "huge_s.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["sweep", "--param", "s", "--min", "1e150", "--max", "1e300",
                        "--points", "8", "--b", "1", "--tau-c", "1", "--out", out]) == 0
        rows = read_csv(out)[1]
        assert [r[5] for r in rows] == ["ok"] * 8
        for row in rows:
            s = float(row[0])
            assert float(row[1]) == pytest.approx(math.sqrt(2 / math.e) * s, rel=1e-13)
            assert float(row[2]) == pytest.approx(1 / (math.sqrt(2) * 2 * s), rel=1e-12)

    def test_spin_grid_whose_two_s_overflows_exit_2(self, tmp_path, capsys):
        # finite spins, but 2S of the top grid value is past the float range
        out = str(tmp_path / "never.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["sweep", "--param", "s", "--min", "1", "--max", "1.7e308",
                        "--points", "8", "--b", "1", "--tau-c", "1", "--out", out])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "spin must be finite, with 2S finite" in lines[0]
        assert not os.listdir(tmp_path)

    def test_subnormal_optimum_is_a_failed_row(self, tmp_path):
        # row 0, 2S = 2e15 at b = 1e308: tau_opt = 1/(sqrt(2) 2S b) is subnormal
        out = str(tmp_path / "subnormal.csv")
        assert run(["sweep", "--param", "s", "--min", "1e15", "--max", "1e20", "--points", "8",
                    "--b", "1e308", "--tau-c", "1", "--out", out]) == 0
        row = read_csv(out)[1][0]
        assert (row[1], row[2], row[5]) == ("nan", "nan", "failed")

    @pytest.mark.parametrize(
        "flags,named",
        [(["--param", "b", "--s", "0.5", "--s", "4", "--tau-c", "1"], "--s"),
         (["--param", "b", "--s", "0.5", "--b", "7", "--tau-c", "1"], "--b"),
         (["--param", "s", "--s", "2", "--b", "1", "--tau-c", "1"], "--s"),
         (["--param", "tau-c", "--s", "0.5", "--b", "1", "--tau-c", "3"], "--tau-c")],
    )
    def test_dropped_flags_exit_2(self, tmp_path, capsys, flags, named):
        # a second --s, or a fixed value for the swept parameter, would be ignored
        out = str(tmp_path / "never.csv")
        assert run(["sweep", "--min", "0.1", "--max", "1", "--points", "8", "--out", out] + flags) == 2
        err = capsys.readouterr().err
        assert named in err and len(err.strip().splitlines()) == 1
        assert not os.listdir(tmp_path)

    def test_min_above_max_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "never.csv")
        assert run(["sweep", "--param", "b", "--min", "5", "--max", "1", "--points", "8",
                    "--s", "0.5", "--tau-c", "1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--min (5.0) must not exceed --max (1.0)" in err
        assert not os.listdir(tmp_path)

    def test_tau_c_sweep_roundtrip(self, tmp_path):
        out = str(tmp_path / "tc.csv")
        run(["sweep", "--param", "tau-c", "--min", "1e-3", "--max", "1e-2",
             "--points", "8", "--s", "0.5", "--b", "1", "--out", out])
        header, rows = read_csv(out)
        values = [float(r[0]) for r in rows]
        assert values == sorted(values)
        # markovian here: rate ~ 1/(2 e b^2 tau_c)
        for row in rows:
            assert float(row[1]) == pytest.approx(
                1.0 / (2 * math.e * float(row[0])), rel=0.02
            )


class TestOptimizeStateCommand:
    def test_single_point_quasi_static(self, tmp_path):
        out = str(tmp_path / "opt.csv")
        code = run(["optimize-state", "--b", "1", "--tau-c-min", "100",
                    "--tau-c-max", "100", "--points", "1", "--out", out])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["tau_c", "r_ghz", "r_opt", "theta_opt", "phi_opt", "fidelity"]
        assert len(rows) == 1
        row = [float(v) for v in rows[0]]
        assert row[5] > 0.99  # fidelity with the GHZ-like state
        assert row[2] / row[1] < 1.01

    def test_manifest_diagnostics(self, tmp_path):
        out = str(tmp_path / "opt.csv")
        code = run(["optimize-state", "--b", "1", "--tau-c-min", "1e-3",
                    "--tau-c-max", "100", "--points", "2", "--out", out])
        assert code == 0
        points = json.load(open(tmp_path / "opt.manifest.json"))["diagnostics"]["points"]
        assert [p["tau_c"] for p in points] == [float(r[0]) for r in read_csv(out)[1]]
        starts = config.STATE_REFINE_STARTS
        for p, row in zip(points, read_csv(out)[1]):
            assert 1 <= len(p["starts"]) <= starts
            assert all(0 < s["theta"] < math.pi / 2 and 0 < s["phi"] < math.pi / 2
                       for s in p["starts"])
            # no start ends above the reported optimum
            assert max(s["rate"] for s in p["starts"]) <= float(row[2])
            # one row at the GHZ point plus a 9 x 9 angle grid per start and pass
            assert p["passes"] > 0
            assert p["rate_evaluations"] == (
                1 + p["passes"] * len(p["starts"]) * _STATE_GRID_POINTS**2)
            assert p["unbracketed"] == 0
        # the better state beats GHZ when the noise is Markovian, not when quasi-static
        assert [p["ghz_won"] for p in points] == [False, True]

    def test_markovian_rate_beyond_tau_squared(self, tmp_path, capsys):
        # tau_opt ~ 1e299 here, so tau^2 overflows although F/tau is finite:
        # the Markovian rates are 1/(2e b^2 tau_c) for GHZ and the same gain
        # over it as at b = 1, tau_c = 1e-4
        out = str(tmp_path / "tiny_b.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["optimize-state", "--b", "1e-150", "--tau-c-min", "1",
                        "--tau-c-max", "1", "--points", "1", "--out", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        row = [float(v) for v in read_csv(out)[1][0]]
        assert row[1] == pytest.approx(1 / (2 * math.e * 1e-300), rel=1e-9)
        assert row[2] / row[1] == pytest.approx(1.5313, rel=1e-4)

    @pytest.mark.parametrize("b, tau_c, regime, gain", [
        ("1e300", "1", RegimeKind.QUASI_STATIC, 1.0),  # b^2 tau_c^2 overflows
        ("1", "1e-300", RegimeKind.MARKOVIAN, 1.5313),  # tau/tau_c overflows
    ])
    def test_rates_where_the_linear_chi_overflows(self, tmp_path, capsys, b, tau_c, regime, gain):
        # chi on the spin-1 scan comes from its log form, so these rates are
        # finite and deep in their regime: r_ghz is the asymptotic GHZ rate
        out = str(tmp_path / "edge.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["optimize-state", "--b", b, "--tau-c-min", tau_c,
                        "--tau-c-max", tau_c, "--points", "1", "--out", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        row = [float(v) for v in read_csv(out)[1][0]]
        noise = OUNoise(float(b), float(tau_c))
        expected = yield_rate_asymptotic(SpinQuantumNumber(2), noise, regime).rate
        assert row[1] == pytest.approx(expected, rel=1e-9)
        assert row[2] / row[1] == pytest.approx(gain, rel=1e-4)

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # T2 = 1/(4 b^2 tau_c) = 2.5e599 is outside the float range
        out = str(tmp_path / "tiny_b_tau_c.csv")
        code = run(["optimize-state", "--b", "1e-200", "--tau-c-min", "1e-200",
                    "--tau-c-max", "1e-200", "--points", "1", "--out", out])
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL == 3
        assert len(err.strip().splitlines()) == 1 and "numerical failure" in err
        assert not os.path.exists(out)


class TestValidateCommand:
    def test_estimator_suite_passes(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = run(["validate", "--suite", "estimator", "--seed", "11", "--out", out])
        captured = capsys.readouterr()
        assert code == 0
        report = json.load(open(out))
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        assert captured.out.count("[PASS]") == len(report["checks"])

    def test_deterministic_report(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(["validate", "--suite", "dd", "--seed", "3", "--out", a])
        run(["validate", "--suite", "dd", "--seed", "3", "--out", b])
        capsys.readouterr()
        assert open(a).read() == open(b).read()

    def test_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        from spinsense import validate as validate_mod

        def fake_suite(seed):
            return [CheckResult("forced failure", 1.0, 0.0, 0.1, False)], {}

        monkeypatch.setitem(validate_mod.SUITES, "estimator", fake_suite)
        code = run(["validate", "--suite", "estimator", "--seed", "0",
                    "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "[FAIL]" in captured.out

    def test_oracle_manifest_diagnostics(self, tmp_path, capsys, monkeypatch):
        stacks_run = []
        generic = validate.qfi_generic

        def counted(rho, drho):
            stacks_run.append(rho.shape[-1])
            return generic(rho, drho)

        monkeypatch.setattr(validate, "qfi_generic", counted)
        out = str(tmp_path / "oracle.json")
        assert run(["validate", "--suite", "oracle", "--seed", "123", "--out", out]) == 0
        capsys.readouterr()
        diag = json.load(open(tmp_path / "oracle.manifest.json"))["diagnostics"]
        assert diag["tuples"] == 1000
        assert isinstance(diag["draws_rejected"], int) and diag["draws_rejected"] > 0
        matrices = diag["sld_matrices"]
        assert set(matrices) <= {"2", "3", "4", "5", "9"}
        # one GHZ and one spin-1 matrix per tuple, plus the 35-state phase block at d = 3
        assert sum(matrices.values()) == 2 * 1000 + 35 and matrices["3"] >= 1035
        # one qfi_generic call per stack; stacks of at most 32 * 9^2 matrix entries
        stacks = diag["sld_stacks"]
        assert stacks == {str(d): stacks_run.count(d) for d in sorted(set(stacks_run))}
        assert stacks == {"2": 1, "3": 6, "4": 2, "5": 2, "9": 6} and len(stacks_run) == 17
        report = json.load(open(out))
        assert set(report) == {"suite", "seed", "passed", "checks"}
        dd = str(tmp_path / "dd.json")
        run(["validate", "--suite", "dd", "--out", dd])
        capsys.readouterr()
        assert json.load(open(tmp_path / "dd.manifest.json"))["diagnostics"] == {}

    def test_mc_manifest_diagnostics(self, tmp_path, capsys, monkeypatch):
        from spinsense import ou_noise

        def fake_mc(s, noise, tau, paths, dt, seed):
            return ou_noise.McCoherence(1.0 + 0.0j, 1.0, 1.0, paths)

        monkeypatch.setattr(validate, "mc_coherence", fake_mc)
        monkeypatch.setattr(ou_noise, "_usable_cpus", lambda: 3)
        out = str(tmp_path / "mc.json")
        run(["validate", "--suite", "mc", "--seed", "7", "--out", out])
        capsys.readouterr()
        diag = json.load(open(tmp_path / "mc.manifest.json"))["diagnostics"]
        # 25 blocks of config.MC_BLOCK_SIZE paths per grid row, drawn on 3 threads
        assert diag == {"paths": 100_000,
                        "steps": [400, 1000, 400, 600, 50, 50, 80, 80, 50, 50, 50, 50],
                        "normals": 287_200_000, "draw_threads": 3}
        assert set(json.load(open(out))) == {"suite", "seed", "passed", "checks"}

    def test_estimator_manifest_diagnostics(self, tmp_path, capsys):
        out = str(tmp_path / "estimator.json")
        assert run(["validate", "--suite", "estimator", "--out", out]) == 0
        capsys.readouterr()
        diag = json.load(open(tmp_path / "estimator.manifest.json"))["diagnostics"]
        # 4000 repetitions fit one block of config.MC_BLOCK_SIZE, so one generator
        assert diag == {"repetitions": 4000, "rng_blocks": 1, "flagged": 0}

    @pytest.mark.parametrize("out", ["", "file.txt/r.json"])  # a directory; a path below a file
    def test_unwritable_output_exit_2(self, tmp_path, capsys, out):
        (tmp_path / "file.txt").write_text("")
        assert run(["validate", "--suite", "dd", "--out", str(tmp_path / out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("spinsense: cannot write output: ")
        assert os.listdir(tmp_path) == ["file.txt"]

    def test_unknown_suite_exit_2(self, capsys):
        assert run(["validate", "--suite", "bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("suite", ["mc", "oracle", "estimator", "dd"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, suite):
        out = tmp_path / "report.json"
        assert run(["validate", "--suite", suite, "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got '-1'" in err
        assert not out.exists() and not (tmp_path / "report.manifest.json").exists()


class TestInProcessCalls:
    def test_parser_built_once_and_reused(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_no_parse_state_carries_over(self, tmp_path, capsys):
        first, second = str(tmp_path / "first.csv"), str(tmp_path / "second.csv")
        assert run(["qfi-curve", "--s", "1", "--s", "2", "--s", "4", "--b", "1", "--tau-c", "1",
                    "--points", "3", "--out", first]) == 0
        assert run(["qfi-curve", "--s", "8", "--b", "2", "--tau-c", "1",
                    "--points", "3", "--out", second]) == 0
        assert read_csv(first)[0] == ["tau", "qfi_1", "qfi_2", "qfi_4"]
        assert read_csv(second)[0] == ["tau", "qfi_8"]
        assert json.load(open(tmp_path / "second.manifest.json"))["parameters"]["s"] == [8.0]
        # a sweep's --s from an earlier call must not fill in a later one
        assert run(["sweep", "--param", "b", "--min", "0.1", "--max", "1", "--points", "8",
                    "--s", "0.5", "--tau-c", "1", "--out", str(tmp_path / "sw.csv")]) == 0
        assert run(["sweep", "--param", "b", "--min", "0.1", "--max", "1", "--points", "8",
                    "--tau-c", "1", "--out", str(tmp_path / "sw2.csv")]) == 2
        assert not os.path.exists(tmp_path / "sw2.csv")
        capsys.readouterr()


def read_outputs(directory):
    """Every file of ``directory`` by name; manifests parsed, without duration_s."""
    files = {}
    for name in sorted(os.listdir(directory)):
        data = (directory / name).read_bytes()
        if name.endswith(".manifest.json"):
            data = json.loads(data)
            data.pop("duration_s")
        files[name] = data
    return files


class TestOutputFiles:
    """Outputs are written over an existing file in place and cut to length."""

    @pytest.mark.parametrize("argv, name", [
        (["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1", "--points", "8"], "q.csv"),
        (["sweep", "--param", "b", "--min", "0.1", "--max", "10", "--points", "8",
          "--s", "0.5", "--tau-c", "1"], "sw.csv"),
        (["optimize-state", "--b", "1", "--tau-c-min", "1", "--tau-c-max", "1",
          "--points", "1"], "opt.csv"),
        (["validate", "--suite", "dd"], "dd.json"),
    ], ids=["qfi-curve", "sweep", "optimize-state", "validate"])
    def test_rewrite_over_longer_files_equals_a_fresh_run(self, tmp_path, capsys, argv, name):
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        fresh.mkdir()
        over.mkdir()
        assert run(argv + ["--out", str(fresh / name)]) == 0
        names = sorted(os.listdir(fresh))
        assert len(names) >= 2  # the data and its manifest, for a sweep its summary too
        umask = os.umask(0)
        os.umask(umask)
        for n in names:
            assert os.stat(fresh / n).st_mode & 0o777 == 0o666 & ~umask
            (over / n).write_bytes(b"#" * ((fresh / n).stat().st_size + 4096))
            os.chmod(over / n, 0o640)
        assert run(argv + ["--out", str(over / name)]) == 0
        capsys.readouterr()
        assert read_outputs(over) == read_outputs(fresh)
        assert all(os.stat(over / n).st_mode & 0o777 == 0o640 for n in names)

    def test_out_through_a_symlink(self, tmp_path):
        argv = ["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1", "--points", "8"]
        assert run(argv + ["--out", str(tmp_path / "fresh.csv")]) == 0
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "curve.csv"
        target.write_bytes(b"#" * 10_000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run(argv + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_write_to_a_device_that_cannot_be_cut(self):
        cli._write_text(os.devnull, "text\n")  # ftruncate fails on /dev/null

    def test_csv_cells_equal_per_cell_formatting(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
                  0.1, -1 / 3]
        columns = [np.array(floats), floats[::-1], list(range(-4, 4)),
                   ("ok", "failed", "quasi-static", "", "a b", "é", "ok", "nan")]
        path = tmp_path / "cells.csv"
        cli._write_csv(str(path), ["f", "g", "i", "s"], columns)
        lines = ["f,g,i,s"] + [
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
            for row in zip(*columns)]
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode("utf-8")


class TestInputBeyondMemory:
    @pytest.mark.parametrize("argv", [
        ["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1"],
        ["sweep", "--param", "s", "--min", "1", "--max", "2", "--b", "1", "--tau-c", "1"],
        ["optimize-state", "--b", "1", "--tau-c-min", "1", "--tau-c-max", "2"],
    ])
    def test_points_past_any_address_space_exit_2(self, tmp_path, capsys, argv):
        # 10**15 float64 points are 8 PB: no allocation of them can succeed
        out = str(tmp_path / "never.csv")
        assert run(argv + ["--points", str(10**15), "--out", out]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("spinsense: out of memory: ")
        assert not os.listdir(tmp_path)


class TestOutputDirEnv:
    def test_default_directory_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code = run(["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1", "--points", "5"])
        assert code == 0
        assert os.path.exists(tmp_path / "qfi_curve.csv")
        assert os.path.exists(tmp_path / "qfi_curve.manifest.json")


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, args, cwd):
    env = dict(os.environ)
    src = os.path.join(_REPO, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(_REPO, "scripts", name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


class TestScripts:
    def test_make_datasets_help_creates_nothing(self, tmp_path):
        proc = run_script("make_datasets.py", ["--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "usage: make_datasets.py [-h] [outdir]" in proc.stdout
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, message", [
        (["--paths", "50"], "--paths must be >= 100, got 50"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
    ])
    def test_mc_accuracy_table_usage_errors_exit_2(self, tmp_path, args, message):
        proc = run_script("mc_accuracy_table.py", args, tmp_path)
        assert proc.returncode == 2
        assert f"error: {message}" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
