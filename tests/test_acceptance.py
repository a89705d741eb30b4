"""Acceptance suite: every headline guarantee, at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on failure)
and then asserts. Residuals of finite-difference routes are measured in
max-norm relative to max(1, scale of the checked quantity); purely algebraic
identities use absolute max-norm.
"""

import time

import numpy as np

from conftest import random_self_adjoint, random_skew_adjoint, signature_form
from hkqk import correspondence as corr
from hkqk import curvature as curv
from hkqk import flat_model as fm
from hkqk.kulkarni import mixed_pair_trace, obar_pair_trace, owedge_pair_trace
from hkqk.pseudo_linear import check_pair_antisymmetry, pseudo_gram_schmidt
from test_kulkarni import brute_force_pair_trace

ALL_M = (0, 1, 2, 3)
FD_M = (0, 1, 2)
ALL_C = (0.0, 0.5, 1.0)
SEED = 0xACCE97


def report(number, description, worst, bound):
    ok = worst < bound
    print(f"criterion {number} [{description}]: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e}, bound {bound:.0e})")
    assert ok, f"criterion {number}: worst residual {worst:.3e} exceeds {bound:.0e}"


def seeded_points(params, count, tag):
    rng = np.random.default_rng(SEED ^ (params.m * 1009 + int(params.c * 10) * 9176 + tag))
    return [fm.random_valid_point(params, rng) for _ in range(count)]


def test_criterion_1_norm_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for m in ALL_M:
        for c in ALL_C:
            params = fm.ModelParams(m, c)
            for point in seeded_points(params, 20, 1):
                geom = fm.geometry_at(params, point)
                frame_value = curv.curvature_norm_frame(geom)
                closed_value = curv.curvature_norm_closed(geom.q, geom.f_z, geom.f_h)
                assert frame_value >= 0.0
                worst = max(worst, abs(frame_value - closed_value) / closed_value)
    elapsed = time.perf_counter() - start
    report(1, f"closed curvature-norm profile reproduced by frame trace, {elapsed:.1f}s",
           worst, 1e-8)


def test_criterion_2_curvature_path_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for m in FD_M:
        for c in ALL_C:
            params = fm.ModelParams(m, c)
            for point in seeded_points(params, 20, 2):
                geom = fm.geometry_at(params, point)
                closed = corr.rtilde_closed(geom)
                direct = corr.rtilde_direct(geom)
                worst = max(worst, np.abs(direct - closed).max()
                            / max(1.0, np.abs(closed).max()))
    elapsed = time.perf_counter() - start
    report(2, f"defining curvature route equals closed route, {elapsed:.1f}s", worst, 1e-4)


def test_criterion_3_connection_oracle():
    worst = 0.0
    for m in FD_M:
        for c in ALL_C:
            params = fm.ModelParams(m, c)
            for point in seeded_points(params, 20, 3):
                geom = fm.geometry_at(params, point)
                closed = corr.s_closed_tensor(geom)
                parts = corr.s_parts_tensor(geom)
                worst = max(worst, np.abs(parts - closed).max() / np.abs(closed).max())
    report(3, "Koszul-route correction equals closed formula", worst, 1e-5)


def test_criterion_4_composition_trace_identities():
    rng = np.random.default_rng(SEED ^ 4)
    worst = 0.0
    for d in (4, 8, 12):
        for negatives in (0, 4):
            metric = signature_form(d, negatives)
            for _ in range(50):
                e = random_self_adjoint(rng, metric)
                f = random_self_adjoint(rng, metric)
                k = random_skew_adjoint(rng, metric)
                l = random_skew_adjoint(rng, metric)
                cases = (
                    (owedge_pair_trace(e, f),
                     brute_force_pair_trace(e, f, metric, ("owedge", "owedge"))),
                    (obar_pair_trace(k, l, metric),
                     brute_force_pair_trace(k, l, metric, ("obar", "obar"))),
                    (mixed_pair_trace(e, k, metric),
                     brute_force_pair_trace(e, k, metric, ("owedge", "obar"))),
                )
                for closed, brute in cases:
                    worst = max(worst, abs(closed - brute) / max(1.0, abs(brute)))
    report(4, "composition traces match sign-weighted four-index sums", worst, 1e-8)


def test_criterion_5_comparison_trace_closed_forms():
    worst_rel = 0.0
    worst_vanish = 0.0
    for m in ALL_M:
        for c in ALL_C:
            params = fm.ModelParams(m, c)
            for point in seeded_points(params, 5, 5):
                geom = fm.geometry_at(params, point)
                res = curv.k_trace_residuals(geom)
                worst_rel = max(worst_rel, res["k_trace_closed_vs_matrix_rel"])
                worst_vanish = max(worst_vanish, res["k_trace_vanishing_abs"])
    report(5, "closed traces of comparison powers and vanishing companions",
           max(worst_rel, worst_vanish), 1e-9)


def test_criterion_6_einstein_scalar():
    worst = 0.0
    for m in ALL_M:
        for c in ALL_C:
            params = fm.ModelParams(m, c)
            q = params.q
            for point in seeded_points(params, 5, 6):
                geom = fm.geometry_at(params, point)
                vectors, signs = pseudo_gram_schmidt(geom.g_h)
                in_frame = curv.quadcov_in_frame(corr.rtilde_closed(geom), vectors)
                scal = curv.scalar_curvature(in_frame, signs)
                worst = max(worst, abs(scal + 4.0 * q * (q + 2)) / (4.0 * q * (q + 2)))
    report(6, "scalar curvature equals -4q(q+2), reduced value -1", worst, 1e-8)


def test_criterion_7_remainder_commutes():
    rng = np.random.default_rng(SEED ^ 7)
    worst = 0.0
    for m in ALL_M:
        for c in ALL_C:
            params = fm.ModelParams(m, c)
            for point in seeded_points(params, 3, 7):
                geom = fm.geometry_at(params, point)
                _, r1 = curv.alekseevsky_split(geom, corr.rtilde_closed(geom))
                worst = max(worst, curv.hk_type_residual(geom, r1, rng))
    report(7, "curvature remainder commutes with the complex structures", worst, 1e-8)


def test_criterion_8_structural_suite():
    worst = float("-inf")
    failures = []
    tolerances = {
        "quaternion_relations": 1e-10,
        "omega_mu_is_lowered_i_mu": 1e-10,
        "i_h_squared_plus_id": 1e-10,
        "twist_form_is_lowered_i_h": 1e-10,
        "pairwise_commutation": 1e-10,
        "k_g_self_adjoint": 1e-10,
        "i_h_g_skew": 1e-10,
        "k_carries_gh_to_g": 1e-10,
        "gh_negative_spectrum": 0.0,
        "f_h_identity": 1e-12,
        "omega_identities": 1e-8,
        "sum_identity": 1e-8,
        "moment_map_f_z": 1e-6,
        "moment_map_f_h": 1e-6,
        "rotating_lie_omega1_zero": 1e-6,
        "rotating_lie_omega2_eq_omega3": 1e-6,
        "rotating_lie_omega3_eq_minus_omega2": 1e-6,
        "d_alpha0_eq_2g_dz": 1e-6,
        "d_alpha1_eq_lie_omega1": 1e-6,
        "d_alpha2_eq_lie_omega2": 1e-6,
        "d_alpha3_eq_lie_omega3": 1e-6,
        "twist_form_from_omega1": 1e-6,
        "rtilde_pair_antisymmetry": 1e-10,
        "rtilde_pair_symmetry": 1e-10,
        "rtilde_first_bianchi": 1e-10,
    }
    for m in ALL_M:
        for c in ALL_C:
            params = fm.ModelParams(m, c)
            for point in seeded_points(params, 100, 8):
                geom = fm.geometry_at(params, point)
                res = dict(fm.structural_residuals(geom))
                res.update(fm.verify_differential_identities(geom))
                arr = corr.rtilde_closed(geom)
                scale = max(1.0, np.abs(arr).max())
                res["rtilde_pair_antisymmetry"] = check_pair_antisymmetry(arr) / scale
                res["rtilde_pair_symmetry"] = float(
                    np.abs(arr - np.einsum("cxab->abcx", arr)).max()) / scale
                res["rtilde_first_bianchi"] = float(np.abs(
                    arr + np.einsum("bcax->abcx", arr)
                    + np.einsum("cabx->abcx", arr)).max()) / scale
                for name, value in res.items():
                    margin = value - tolerances[name]
                    if margin >= 0.0:
                        failures.append((name, value, m, c))
                    worst = max(worst, margin)
    ok = not failures
    print(f"criterion 8 [structural identity suite, 100 points/configuration]: "
          f"{'PASS' if ok else 'FAIL'} (worst margin {worst:.3e})")
    assert ok, f"structural failures: {failures[:5]}"


def test_criterion_9_rho_profile():
    worst_const = 0.0
    worst_pairs = 0.0
    monotone_ok = True
    rng = np.random.default_rng(SEED ^ 9)
    for m in ALL_M:
        q = m + 1
        params0 = fm.ModelParams(m, 0.0)
        expected = 4.0 * q * (2 * q + 1)
        grid = np.linspace(0.01, 100.0, 1000)
        values0 = np.array([curv.curvature_norm_closed(q, r / 2, -r / 2) for r in grid])
        worst_const = max(worst_const, np.abs(values0 - expected).max() / expected)
        for point in seeded_points(params0, 3, 9):
            geom = fm.geometry_at(params0, point)
            frame_value = curv.curvature_norm_frame(geom)
            worst_const = max(worst_const, abs(frame_value - expected) / expected)
        for c in (0.5, 1.0):
            values = np.array([curv.curvature_norm_closed(q, r / 2, -r / 2 - c)
                               for r in grid])
            diffs = np.diff(values)
            monotone_ok = monotone_ok and bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))
    for m, c in ((0, 0.0), (0, 1.0), (1, 0.5)):
        params = fm.ModelParams(m, c)
        for _ in range(5):
            f_z = rng.uniform(0.1, 5.0)
            norms = []
            for _ in range(2):
                geom = fm.geometry_at(params, fm.point_with_f_z(params, f_z, rng))
                norms.append(curv.curvature_norm_frame(geom))
            worst_pairs = max(worst_pairs, abs(norms[0] - norms[1]) / abs(norms[1]))
    ok = worst_const < 1e-9 and worst_pairs < 1e-9 and monotone_ok
    print(f"criterion 9 [radial profile: constant at c=0, strictly monotone for c>0, "
          f"norm a function of f_z]: {'PASS' if ok else 'FAIL'} "
          f"(const {worst_const:.3e}, pairs {worst_pairs:.3e}, monotone {monotone_ok})")
    assert ok
