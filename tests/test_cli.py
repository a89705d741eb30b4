"""Command-line front end: exit codes, determinism, report contents."""

import csv
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hkqk import cli, curvature, flat_model
from hkqk.cli import CHECKS, RunConfig, format_float, main, to_json

# the benchmark's d = 16 verify invocation, without its --seed
VERIFY_MID = ["verify", "--m", "3", "--c", "1", "--samples", "2"]
# the benchmark's d = 32 sweep invocation, without its --seed
SWEEP_LARGE = ["sweep", "--m", "7", "--c", "1", "--rho-min", "0.1", "--rho-max", "10",
               "--steps", "4"]


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def invocation_seed(workload_seed, index):
    """``--seed`` of the benchmark's invocation ``index``: sha256 of "seed:index", 8 bytes little-endian."""
    digest = hashlib.sha256(f"{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def failing_rows(out):
    return [row["name"] for row in json.loads(out.read_text())["results"] if not row["passed"]]


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


class TestKnownInputs:
    @pytest.mark.parametrize("workload_seed,index", [(106, 34), (108, 34), (10, 32), (10, 43),
                                                     (29, 52)])
    def test_roundoff_of_large_tensors_passes_structural_rows(self, tmp_path, workload_seed,
                                                              index):
        # f_z near 0.1 makes |R~| reach ~1e6: an absolute 1e-10 on the Bianchi sum, the S^q
        # skewness or the operator symmetry asked for less than one ulp of the terms summed
        seed = invocation_seed(workload_seed, index)
        code, out = run_json(tmp_path, VERIFY_MID + ["--seed", str(seed)])
        assert (code, failing_rows(out)) == (0, [])

    def test_defect_in_units_of_r_tilde_still_fails(self, tmp_path, monkeypatch):
        closed = cli.corr.rtilde_closed

        def perturbed(geom):
            rt = closed(geom)
            rt[0, 1, 2, 3] += 1e-9 * max(1.0, np.abs(rt).max())
            return rt

        monkeypatch.setattr(cli.corr, "rtilde_closed", perturbed)
        code, out = run_json(tmp_path, ["verify", "--m", "1", "--c", "1", "--samples", "1"])
        assert code == 1
        assert {"rtilde_pair_antisymmetry", "rtilde_pair_symmetry",
                "rtilde_first_bianchi"} <= set(failing_rows(out))

    def test_ill_conditioned_frame_input_fails_only_the_profile_pair(self, tmp_path):
        # one of the two frame norms of this input sits at cond(g_h) ~ 3e4
        code, out = run_json(tmp_path, VERIFY_MID + ["--seed", str(invocation_seed(4, 32))])
        assert (code, failing_rows(out)) == (1, ["equal_f_z_equal_norm_rel"])

    def test_profile_ties_are_not_against_its_direction(self, tmp_path):
        # at c = 100 the closed profile rounds to the same value over its first steps
        code, out = run_json(tmp_path, ["verify", "--m", "0", "--c", "100", "--samples", "2"])
        row = {r["name"]: r for r in json.loads(out.read_text())["results"]}["rho_profile_monotone"]
        assert (row["max_residual"], row["passed"]) == (0.0, True)
        assert (code, failing_rows(out)) == (1, ["s_metric_compatibility"])

    @pytest.mark.parametrize("seed,step,message,at", [
        # the order-2 stencil of f_z and f_h in the differential identities
        (0, "5e-3", "f_z = -1.356e-01", "at stencil coordinate 1, offset -h, h = 4.178e-02"),
        # the order-4 stencil of g_h in S^h
        (2, "9e-3", "f_z = -6.101e-01", "at stencil coordinate 0, offset +2h, h = 9.040e-02"),
        # term_ds_fd's outer stencil over the Koszul S^h, and the g_h stencil inside it
        (2, "5e-3", "f_z = -3.074e-01", "at stencil coordinate 0, offset +2h, h = 4.997e-02; "
                                        "at stencil coordinate 0, offset +h, h = 5.022e-02"),
    ], ids=["f", "s_h", "term_ds_fd"])
    def test_stencil_leaving_the_domain_names_its_point(self, tmp_path, capsys, seed, step,
                                                        message, at):
        argv = ["verify", "--m", "0", "--c", "100", "--samples", "2", "--seed", str(seed),
                "--fd-step", step]
        code, out = run_json(tmp_path, argv)
        assert (code, out.exists()) == (1, False)
        assert capsys.readouterr().err == (f"error: {message} is not positive (threshold 1e-08); "
                                           f"{at}\n")

    def test_gram_schmidt_defect_guard_refuses_an_ill_conditioned_frame(self, tmp_path, capsys):
        # cond(g_h) ~ 8e7 at f_z = 1e-3: the defect is 3e-17 of max(|V||B||V|^T), but a guard
        # scaled by that would let this point report norm_frame 38.20 for the closed 40
        params = flat_model.ModelParams(1, 0.0)
        point = flat_model.point_with_f_z(params, 1e-3, np.random.default_rng(18))
        text = ",".join(repr(float(x)) for x in point)
        code, out = run_json(tmp_path, ["norm", "--m", "1", "--c", "0", f"--point={text}"])
        assert (code, out.exists()) == (1, False)
        assert capsys.readouterr().err == ("error: orthonormalization defect 2.41e-09 "
                                           "exceeds 1e-10\n")

    @pytest.mark.parametrize("profile,expected", [
        (lambda rho: 6.0 + max(0.0, rho - 50.0), 0.0),
        (lambda rho: 6.0 - max(0.0, rho - 50.0), 0.0),
        (lambda rho: 6.0 + abs(rho - 50.0), (100.0 - 0.01) / 999),  # one grid step
        (lambda rho: 6.0, math.inf),
        (lambda rho: math.nan, math.nan),
    ])
    def test_profile_direction_from_first_nonzero_step(self, monkeypatch, profile, expected):
        monkeypatch.setattr(cli.curv, "curvature_norm_closed",
                            lambda q, f_z, f_h: profile(2.0 * f_z))
        residual = cli._profile_residuals(RunConfig(m=0, c=1.0, samples=1))["rho_profile_monotone"]
        if math.isnan(expected):
            assert math.isnan(residual)
        else:
            assert residual == pytest.approx(expected, rel=1e-3)


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

    def test_negative_first_coordinate_needs_the_attached_form(self, tmp_path, capsys):
        code, out = run_json(tmp_path, ["norm", "--m", "0", "--point=-2,0,0,0"])
        assert code == 0
        assert json.loads(out.read_text())["report"]["f_z"] == 2.0
        # detached, argparse reads the value as an option and exits with its usage error
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--m", "0", "--point", "-2,0,0,0"])
        assert exc.value.code == 2
        assert "--point: expected one argument" in capsys.readouterr().err

    def test_out_of_domain_point(self, capsys):
        code = main(["norm", "--m", "0", "--c", "1", "--point", "0.5,0,0,0"])
        assert code == 1
        assert "domain" in capsys.readouterr().err
        # |z_0|^2 would overflow to inf: a domain error, not a warning, a traceback or nan
        assert main(["norm", "--m", "0", "--point", "1e200,0,0,0"]) == 1
        assert "point outside the valid domain" in capsys.readouterr().err
        # w-coordinates are never squared, so a huge one still reports
        assert main(["norm", "--m", "0", "--point", "1,0,1e200,0"]) == 0

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

    @pytest.mark.parametrize("point", ["1e10,0,0,0", "1e12,0,0,0"])
    def test_far_point_reports(self, tmp_path, point):
        # g_h scales as 1/f_z: its Gram-Schmidt pivots are 1e-20 and 1e-24 here, far
        # below any fixed threshold, and far above PIVOT_TOL times the metric's scale
        code, out = run_json(tmp_path, ["norm", "--m", "0", "--point", point])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["f_z"] >= 5e19
        assert report["residuals"]["norm_frame_vs_closed_rel"] < 1e-15

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


def clear_caches():
    cli.corr.twist_support.cache_clear()
    flat_model.constant_tensors.cache_clear()


def count_form_blocks(monkeypatch):
    """Record the dimension of every g_h block built, by the closed route or the split."""
    blocks = []
    form_block = cli.corr.form_block

    def counted(geom):
        blocks.append(geom.d)
        return form_block(geom)

    for module in (cli.corr, curvature):
        monkeypatch.setattr(module, "form_block", counted)
    return blocks


class TestCaches:
    def test_reports_do_not_depend_on_earlier_commands(self, tmp_path):
        # the twist support and the constant tensors are cached per parameter set: what
        # one command leaves in the caches must not change the report of the next
        commands = [SWEEP_LARGE, ["verify", "--m", "1", "--samples", "1", "--corrupt-omega2"],
                    ["verify", "--m", "1", "--samples", "1"], SWEEP_LARGE]
        warm = []
        for n, args in enumerate(commands):
            code, out = run_json(tmp_path, args, f"warm{n}")
            warm.append((code, out.read_bytes()))
        assert [code for code, _ in warm] == [0, 1, 0, 0]
        for n, args in enumerate(commands):
            clear_caches()
            code, out = run_json(tmp_path, args, f"cold{n}")
            assert (code, out.read_bytes()) == warm[n]

    def test_sweep_builds_the_twist_block_at_most_once(self, tmp_path, monkeypatch):
        blocks = count_form_blocks(monkeypatch)
        clear_caches()
        for _ in range(2):
            assert run_json(tmp_path, SWEEP_LARGE)[0] == 0
        # one metric block per sweep node, four nodes per run
        assert (cli.corr.twist_support.cache_info().misses, len(blocks)) == (1, 8)

    def test_norm_forms_one_metric_product_per_block(self, tmp_path, monkeypatch):
        # the closed route and the split each build the g_h block, from one product apiece
        blocks = count_form_blocks(monkeypatch)
        products = []
        owedge = cli.corr.form_owedge

        def counted(alpha, beta):
            products.append(alpha is beta)
            return owedge(alpha, beta)

        clear_caches()
        cli.corr.twist_support(RunConfig(m=3, c=1.0).params)  # its products are not counted
        monkeypatch.setattr(cli.corr, "form_owedge", counted)
        assert run_json(tmp_path, ["norm", "--m", "3", "--c", "1"])[0] == 0
        assert (blocks, products) == ([16, 16], [True, True])
        assert cli.corr.twist_support.cache_info().misses == 1

    def test_config_builds_its_params_once(self):
        config = RunConfig(m=3, c=1.0, corrupt_omega2=True)
        assert config.params is config.params
        assert config.params == flat_model.ModelParams(3, 1.0, corrupt_omega2=True)


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
