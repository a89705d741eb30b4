"""Command-line front end: exit codes, determinism, report contents."""

import csv
import json
import warnings

import numpy as np
from numpy.testing import assert_allclose

from hkqk import curvature, flat_model
from hkqk.cli import CHECKS, format_float, main, to_json


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestConfigValidation:
    def test_zero_samples_rejected(self, tmp_path, capsys):
        code = main(["verify", "--samples", "0"])
        assert code == 2
        assert "samples" in capsys.readouterr().err

    def test_fd_step_out_of_range(self):
        assert main(["verify", "--fd-step", "0.5"]) == 2
        assert main(["verify", "--fd-step", "1e-10"]) == 2

    def test_negative_c_rejected(self):
        assert main(["verify", "--c", "-1"]) == 2
        assert main(["verify", "--c", "nan"]) == 2
        assert main(["verify", "--c", "inf"]) == 2

    def test_unknown_tol_override_name(self):
        assert main(["verify", "--tol-override", "bogus=1"]) == 2

    def test_malformed_tol_override(self):
        assert main(["verify", "--tol-override", "quaternion_relations"]) == 2
        assert main(["verify", "--tol-override", "quaternion_relations=nan"]) == 2
        assert main(["verify", "--tol-override", "quaternion_relations=inf"]) == 2

    def test_non_finite_point_rejected(self):
        for command in ("norm", "decompose"):
            assert main([command, "--m", "0", "--point", "nan,0,0,0"]) == 2
            assert main([command, "--m", "0", "--point", "2,inf,0,0"]) == 2

    def test_non_finite_rho_rejected(self, capsys):
        for rho_min, rho_max in (("0.1", "inf"), ("nan", "1"), ("0.1", "nan"), ("-inf", "1")):
            assert main(["sweep", "--m", "0", "--c", "1", f"--rho-min={rho_min}",
                         f"--rho-max={rho_max}", "--steps", "3"]) == 2
            assert "configuration error" in capsys.readouterr().err


class TestVerify:
    def test_reference_run_passes(self, tmp_path):
        code, out = run_json(tmp_path, ["verify", "--m", "1", "--c", "1",
                                        "--seed", "42", "--samples", "20"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["passed"] == len(payload["results"])
        names = {r["name"] for r in payload["results"]}
        assert "rtilde_direct_vs_closed" in names
        assert "norm_frame_vs_closed_rel" in names
        for r in payload["results"]:
            assert r["passed"], f"{r['name']} residual {r['max_residual']}"

    def test_corrupted_form_fails_quaternion_check(self, tmp_path):
        code, out = run_json(tmp_path, ["verify", "--m", "0", "--c", "0.5",
                                        "--samples", "2", "--corrupt-omega2"])
        assert code == 1
        payload = json.loads(out.read_text())
        by_name = {r["name"]: r for r in payload["results"]}
        assert not by_name["quaternion_relations"]["passed"]
        # the corruption reaches the finite-difference identities too: L_Z omega_2 = -omega_3
        for name in ("rotating_lie_omega2_eq_omega3", "rotating_lie_omega3_eq_minus_omega2"):
            assert_allclose(by_name[name]["max_residual"], 2.0, rtol=1e-6)
            assert not by_name[name]["passed"]
        assert payload["summary"]["failed"] >= 1

    def test_nan_residual_fails_its_row(self, tmp_path, monkeypatch):
        structural = flat_model.structural_residuals
        monkeypatch.setattr(flat_model, "structural_residuals",
                            lambda geom: {**structural(geom), "f_h_identity": float("nan")})
        code, out = run_json(tmp_path, ["verify", "--m", "0", "--samples", "2",
                                        "--format", "csv"], "out.csv")
        assert code == 1
        rows = {row["name"]: row for row in csv.DictReader(out.read_text().splitlines())}
        assert (rows["f_h_identity"]["max_residual"], rows["f_h_identity"]["passed"]) == ("nan", "false")
        # the JSON report spells the NaN so that json.loads reads it back
        code, out = run_json(tmp_path, ["verify", "--m", "0", "--samples", "2"])
        assert code == 1
        row = {r["name"]: r for r in json.loads(out.read_text())["results"]}["f_h_identity"]
        assert np.isnan(row["max_residual"]) and row["passed"] is False

    def test_frame_built_once_per_point(self, tmp_path, monkeypatch):
        # one frame, one change of frame and one wedge operator per verify point,
        # plus one each for the two points of every equal-f_z profile sample
        calls = {}
        for name in ("pseudo_gram_schmidt", "quadcov_in_frame", "curvature_operator"):
            def counted(*args, _name=name, _original=getattr(curvature, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)
            monkeypatch.setattr(curvature, name, counted)
        code, _ = run_json(tmp_path, ["verify", "--m", "1", "--samples", "1"])
        assert code == 0
        assert calls == {"pseudo_gram_schmidt": 3, "quadcov_in_frame": 3, "curvature_operator": 3}

    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify", "--m", "0", "--c", "1", "--seed", "7", "--samples", "2"]
        _, first = run_json(tmp_path, args, "a.json")
        _, second = run_json(tmp_path, args, "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_residuals(self, tmp_path):
        _, first = run_json(tmp_path, ["verify", "--samples", "2", "--seed", "1"], "a.json")
        _, second = run_json(tmp_path, ["verify", "--samples", "2", "--seed", "2"], "b.json")
        assert first.read_bytes() != second.read_bytes()

    def test_csv_format(self, tmp_path):
        code, out = run_json(tmp_path, ["verify", "--m", "0", "--samples", "2",
                                        "--format", "csv"], "out.csv")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,anchor,max_residual,tolerance,passed,points"
        assert len(lines) > 40
        assert all(",true," in line or ",false," in line for line in lines[1:])

    def test_rows_of_both_profiles_cover_every_check(self, tmp_path):
        names = set()
        for c in ("0", "1"):
            _, out = run_json(tmp_path, ["verify", "--m", "0", "--c", c, "--samples", "1"])
            rows = [r["name"] for r in json.loads(out.read_text())["results"]]
            assert len(rows) == len(CHECKS) - 1
            names.update(rows)
        assert names == set(CHECKS) and len(CHECKS) == 50

    def test_every_result_carries_anchor(self, tmp_path):
        _, out = run_json(tmp_path, ["verify", "--m", "0", "--samples", "1"])
        payload = json.loads(out.read_text())
        for r in payload["results"]:
            assert r["anchor"] == CHECKS[r["name"]][1]
            assert r["points"] >= 1

    def test_tol_scale_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HKQK_TOL_SCALE", "1e-12")
        code, out = run_json(tmp_path, ["verify", "--m", "0", "--samples", "1"])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["summary"]["failed"] > 0
        assert payload["config"]["tol_scale"] == 1e-12
        for value in ("nan", "inf"):
            monkeypatch.setenv("HKQK_TOL_SCALE", value)
            assert main(["verify", "--m", "0", "--samples", "1"]) == 2

    def test_tol_override_can_force_failure(self, tmp_path):
        code, out = run_json(tmp_path, [
            "verify", "--m", "0", "--samples", "1",
            "--tol-override", "moment_map_f_z=1e-30"])
        assert code == 1
        payload = json.loads(out.read_text())
        by_name = {r["name"]: r for r in payload["results"]}
        assert not by_name["moment_map_f_z"]["passed"]
        assert by_name["moment_map_f_z"]["tolerance"] == 1e-30


class TestNorm:
    def test_reference_point_report(self, tmp_path):
        code, out = run_json(tmp_path, ["norm", "--m", "0", "--c", "1",
                                        "--point", "2,0,0,0"])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert_allclose(report["norm_closed"], 6.279936, rtol=1e-12)
        assert_allclose(report["norm_frame"], 6.279936, rtol=1e-9)
        assert_allclose(report["rho"], 3.0)
        assert_allclose(report["scal"], -12.0, rtol=1e-9)
        assert_allclose(report["nu"], -1.0, rtol=1e-9)

    def test_undeformed_value_any_point(self, tmp_path):
        code, out = run_json(tmp_path, ["norm", "--m", "1", "--c", "0", "--seed", "3"])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert_allclose(report["norm_closed"], 40.0, rtol=1e-12)
        assert_allclose(report["norm_frame"], 40.0, rtol=1e-8)

    def test_out_of_domain_point(self, capsys):
        code = main(["norm", "--m", "0", "--c", "1", "--point", "0.5,0,0,0"])
        assert code == 1
        assert "domain" in capsys.readouterr().err
        # |z_0|^2 overflows to inf: a domain error, not a traceback or a report of nan
        with np.errstate(over="ignore"):
            assert main(["norm", "--m", "0", "--point", "1e200,0,0,0"]) == 1
        assert "point outside the valid domain" in capsys.readouterr().err

    def test_overflowing_point_refused_without_warnings(self, capsys):
        # f_z = 5e199 is finite, but the products the formulas form overflow
        for command in ("norm", "decompose"):
            for point in ("1e100,0,0,0", "1e150,0,0,0"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert main([command, "--m", "0", "--point", point]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "point outside the valid domain" in captured.err
                assert "f_z" in captured.err and "f_h" in captured.err

    def test_wrong_point_length(self):
        assert main(["norm", "--m", "1", "--point", "1,0,0,0"]) == 2


class TestSweep:
    def test_undeformed_sweep_is_constant(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--m", "1", "--c", "0", "--rho-min", "0.5",
                     "--rho-max", "5", "--steps", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,f_z,f_h,norm_closed,norm_frame"
        assert lines[-1] == "# monotonicity: constant"
        values = [float(line.split(",")[3]) for line in lines[1:-1]]
        assert_allclose(values, 40.0, rtol=1e-12)  # 4q(2q+1) at q = 2
        frame_values = [float(line.split(",")[4]) for line in lines[1:-1]]
        assert_allclose(frame_values, 40.0, rtol=1e-8)

    def test_deformed_sweep_is_strictly_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--m", "0", "--c", "1", "--rho-min", "0.1",
                     "--rho-max", "10", "--steps", "100", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "# monotonicity: strictly increasing"
        values = np.array([float(line.split(",")[3]) for line in lines[1:-1]])
        assert np.all(np.diff(values) > 0.0)

    def test_bad_range_rejected(self):
        assert main(["sweep", "--m", "0", "--rho-min", "5", "--rho-max", "1",
                     "--steps", "10"]) == 2
        assert main(["sweep", "--m", "0", "--rho-min", "1", "--rho-max", "5",
                     "--steps", "1"]) == 2

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--m", "0", "--c", "0.5", "--rho-min", "1",
                "--rho-max", "2", "--steps", "5", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDecompose:
    def test_reference_report(self, tmp_path):
        code, out = run_json(tmp_path, ["decompose", "--m", "1", "--c", "0", "--seed", "5"])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["nu"] == -1.0
        assert report["hk_type_commutator"] < 1e-8
        assert report["remainder_frobenius"] > 1e-3
        assert_allclose(report["remainder_frobenius"], 8.485281374238571, rtol=1e-9)

    def test_out_of_domain_point(self):
        assert main(["decompose", "--m", "0", "--c", "1", "--point", "0.1,0,0,0"]) == 1


class TestSerialization:
    def test_float_formatting_round_trips(self):
        for value in (6.279936, -2.5, 1e-300, 0.1 + 0.2):
            assert float(format_float(value)) == value

    def test_json_nesting_and_ordering(self):
        text = to_json({"b": [1, 2.5, {"x": True}], "a": None})
        parsed = json.loads(text)
        assert parsed == {"b": [1, 2.5, {"x": True}], "a": None}
        assert text.index('"b"') < text.index('"a"')  # insertion order kept

    def test_non_finite_floats_are_readable_json(self):
        text = to_json([float("nan"), float("inf"), -np.inf, 0.1])
        assert text.split() == ["[", "NaN,", "Infinity,", "-Infinity,", "0.10000000000000001", "]"]
        parsed = json.loads(text)
        assert np.isnan(parsed[0]) and parsed[1:] == [np.inf, -np.inf, 0.1]
