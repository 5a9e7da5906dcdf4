import csv
import json
import math
import os

import numpy as np
import pytest

from spinsense import cli, config
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
            assert row[5] in {"ok", "boundary"}
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
            "points": 64, "rows": len(rows), "deduplicated": 64 - len(rows),
            "failed": 0, "boundary": 0,
        }
        assert len(rows) == 61  # 0.5, 0.62.. and 0.78.. all round to 2S = 1

    def test_numerical_failure_is_a_row_status(self, tmp_path, capsys):
        # chi overflows at the top of this grid (b^2 > 1.8e308) and the
        # optimum's QFI overflows at the bottom (tau_opt^2 > 1.8e308)
        out = str(tmp_path / "wide_b.csv")
        code = run(["sweep", "--param", "b", "--min", "1e-200", "--max", "1e200",
                    "--points", "16", "--s", "0.5", "--tau-c", "1", "--out", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out)
        assert header == ["param", "rate", "tau_opt", "markov_param", "regime", "status"]
        assert len(rows) == 16
        status = [r[5] for r in rows]
        failed = [i for i, st in enumerate(status) if st == "failed"]
        assert failed and 0 in failed and 15 in failed
        assert all(st == "ok" for st in status if st != "failed")
        for i in failed:
            assert rows[i][1] == rows[i][2] == "nan"
        for i, row in enumerate(rows):
            if i not in failed:  # quasi-static R = sqrt(2/e) S / b, Markovian 1/(2e b^2)
                b = float(row[0])
                want = math.sqrt(2 / math.e) * 0.5 / b if b > 1 else 1 / (2 * math.e * b**2)
                assert float(row[1]) == pytest.approx(want, rel=1e-3)
        fit = json.load(open(tmp_path / "wide_b.summary.json"))["fits"]["quasi_static"]
        lo, hi = fit["window"]
        assert not set(range(lo, hi)) & set(failed)
        assert fit["slope"] == pytest.approx(-1.0, abs=1e-6)
        diagnostics = json.load(open(tmp_path / "wide_b.manifest.json"))["diagnostics"]
        assert diagnostics["failed"] == len(failed)
        assert diagnostics["rows"] == 16 and diagnostics["deduplicated"] == 0

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
        starts = config.StateSearchConfig().refine_starts
        for p, row in zip(points, read_csv(out)[1]):
            assert len(p["starts"]) == starts
            assert all(0 < s["theta"] < math.pi / 2 and 0 < s["phi"] < math.pi / 2
                       for s in p["starts"])
            # no start ends above the reported optimum
            assert max(s["rate"] for s in p["starts"]) <= float(row[2])
            # one row at the GHZ point plus a 5 x 5 angle grid per start and pass
            assert p["passes"] > 0
            assert p["rate_evaluations"] == 1 + p["passes"] * starts * 25
        # the better state beats GHZ when the noise is Markovian, not when quasi-static
        assert [p["ghz_won"] for p in points] == [False, True]

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        out = str(tmp_path / "huge_b.csv")
        code = run(["optimize-state", "--b", "1e300", "--tau-c-min", "1",
                    "--tau-c-max", "1", "--points", "1", "--out", out])
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
            return [CheckResult("forced failure", 1.0, 0.0, 0.1, False)]

        monkeypatch.setitem(validate_mod.SUITES, "estimator", fake_suite)
        code = run(["validate", "--suite", "estimator", "--seed", "0",
                    "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "[FAIL]" in captured.out

    def test_oracle_manifest_diagnostics(self, tmp_path, capsys):
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
        report = json.load(open(out))
        assert set(report) == {"suite", "seed", "passed", "checks"}
        dd = str(tmp_path / "dd.json")
        run(["validate", "--suite", "dd", "--out", dd])
        capsys.readouterr()
        assert json.load(open(tmp_path / "dd.manifest.json"))["diagnostics"] == {}

    def test_unknown_suite_exit_2(self, capsys):
        assert run(["validate", "--suite", "bogus"]) == 2
        capsys.readouterr()


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


class TestOutputDirEnv:
    def test_default_directory_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code = run(["qfi-curve", "--s", "1", "--b", "1", "--tau-c", "1", "--points", "5"])
        assert code == 0
        assert os.path.exists(tmp_path / "qfi_curve.csv")
        assert os.path.exists(tmp_path / "qfi_curve.manifest.json")
