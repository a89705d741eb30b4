"""Model construction: constant tensors, scalars, geometry snapshots, identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hkqk.errors import DomainViolation
from hkqk.flat_model import (
    ModelParams,
    constant_tensors,
    deformed_metric,
    geometry_at,
    omega_identities_residual,
    point_with_f_z,
    random_valid_point,
    scalars,
    structural_residuals,
    sum_identity_residual,
    vector_z,
    verify_differential_identities,
)

CONFIGS = [(m, c) for m in (0, 1, 2) for c in (0.0, 0.5, 1.0)]


class TestParamsAndPoint:
    def test_dimensions(self):
        params = ModelParams(2, 0.5)
        assert params.q == 3 and params.d == 12

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(-1, 0.0)
        for c in (-0.5, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deformation constant"):
                ModelParams(0, c)

    def test_point_rejects_bad_shapes(self):
        # a point is a flat vector of d = 4(m+1) finite coordinates, checked in scalars
        params = ModelParams(0, 1.0)
        bad = (np.zeros(6), np.zeros(8), np.full((2, 2), 2.0),
               [2.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0])
        for coords in bad:
            for evaluate in (scalars, deformed_metric, geometry_at):
                with pytest.raises(ValueError):
                    evaluate(params, coords)


class TestConstantTensors:
    def test_m0_metric_is_negative_identity(self):
        consts = constant_tensors(ModelParams(0))
        assert_allclose(consts.g, -np.eye(4))

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_quaternion_relation(self, m):
        consts = constant_tensors(ModelParams(m))
        i1, i2, i3 = consts.i_mu[1:]
        assert_allclose(i1 @ i2 - i3, 0.0, atol=1e-14)

    def test_m1_signature(self):
        eigs = np.linalg.eigvalsh(constant_tensors(ModelParams(1)).g)
        assert int((eigs > 0).sum()) == 4 and int((eigs < 0).sum()) == 4

    def test_forms_are_tagged_antisymmetric(self, rng):
        consts = constant_tensors(ModelParams(2))
        for form in (*consts.omega_mu[1:], consts.omega_h):
            assert np.array_equal(form, -form.T)
        # the metrics are built as a diagonal plus sums of outer products: exactly symmetric
        for m, c in CONFIGS:
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            for form in (geom.g, geom.g_h, geom.g_alpha):
                assert np.array_equal(form, form.T)

    def test_corruption_hook_breaks_quaternions(self):
        consts = constant_tensors(ModelParams(1, corrupt_omega2=True))
        i1, i2, i3 = consts.i_mu[1:]
        defect = np.abs(i1 @ i2 - i3).max()
        assert defect > 1.0


class TestVectorZ:
    def test_real_axis_point(self):
        params = ModelParams(0)
        z = vector_z(params, np.array([2.0, 0.0, 0.0, 0.0]))
        assert_allclose(z, [0.0, -2.0, 0.0, 0.0])

    def test_linear_in_coordinates(self, rng):
        params = ModelParams(1)
        assert_allclose(vector_z(params, np.zeros(8)), 0.0)
        p1 = rng.standard_normal(8)
        p2 = rng.standard_normal(8)
        lhs = vector_z(params, p1 + p2)
        rhs = vector_z(params, p1) + vector_z(params, p2)
        assert_allclose(lhs, rhs)

    def test_field_length_formula(self, rng):
        # g(Z, Z) = -(|z_0|^2 - sum |z_j|^2) at random points
        params = ModelParams(2, 0.5)
        consts = constant_tensors(params)
        for _ in range(10):
            point = random_valid_point(params, rng)
            z = vector_z(params, point)
            zc = point[: 2 * params.q]
            z_norms = zc[0::2] ** 2 + zc[1::2] ** 2
            assert_allclose(z @ consts.g @ z, -(z_norms[0] - z_norms[1:].sum()),
                            rtol=1e-12)

    def test_jacobian_matches_field(self, rng):
        params = ModelParams(1)
        consts = constant_tensors(params)
        point = random_valid_point(params, rng)
        assert_allclose(consts.dz @ point, vector_z(params, point))


class TestScalars:
    def test_reference_point(self):
        f_z, f_h, g_zz = scalars(ModelParams(0, 1.0), np.array([2.0, 0.0, 0.0, 0.0]))
        assert_allclose([f_z, g_zz, f_h], [1.5, -4.0, -2.5])

    def test_undeformed_reflection(self, rng):
        params = ModelParams(1, 0.0)
        point = random_valid_point(params, rng)
        f_z, f_h, _ = scalars(params, point)
        assert_allclose(f_h, -f_z, rtol=1e-14)

    def test_twist_function_identity(self, rng):
        for m, c in CONFIGS:
            params = ModelParams(m, c)
            f_z, f_h, g_zz = scalars(params, random_valid_point(params, rng))
            assert abs(f_h - (f_z + g_zz)) < 1e-12

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            scalars(ModelParams(0, 1.0), np.array([0.5, 0.0, 3.0, 0.0]))
        # |z|^2 overflows: f_z = inf at m = 0, and inf - inf = nan at m = 1
        with np.errstate(over="ignore", invalid="ignore"):
            for params, coords in ((ModelParams(0), [1e200, 0.0, 0.0, 0.0]),
                                   (ModelParams(1), [1e200, 0.0, 1e200, 0.0] + [0.0] * 4)):
                with pytest.raises(DomainViolation, match="finite"):
                    scalars(params, np.array(coords))
        # f_z = 5e199 is finite but 8 f_h^2 is not: refused without a RuntimeWarning
        with pytest.raises(DomainViolation, match="finite"):
            scalars(ModelParams(0), np.array([1e100, 0.0, 0.0, 0.0]))


class TestGeometryAt:
    def test_twist_form_is_constant(self, rng):
        params = ModelParams(1, 0.5)
        consts = constant_tensors(params)
        for _ in range(5):
            geom = geometry_at(params, random_valid_point(params, rng))
            assert_allclose(geom.omega_h, consts.omega_h)

    def test_comparison_eigenvalues(self, rng):
        for m, c in ((0, 1.0), (2, 0.5)):
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            eigs = np.sort(np.linalg.eigvals(geom.k_compare).real)
            expected = np.sort(np.concatenate([
                np.full(4 * m, geom.f_z),
                np.full(4, geom.f_z ** 2 / geom.f_h)]))
            assert_allclose(eigs, expected, rtol=1e-9)

    def test_comparison_square_trace_reference(self):
        geom = geometry_at(ModelParams(0, 1.0), np.array([2.0, 0.0, 0.0, 0.0]))
        k = geom.k_compare
        assert_allclose(np.trace(k @ k), 3.24, rtol=1e-12)

    def test_comparison_formula_carries_gh_to_g(self, rng):
        for m, c in CONFIGS:
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            assert_allclose(geom.k_compare.T @ geom.g_h, geom.g, atol=1e-10)

    def test_deformed_metric_positive_definite(self, rng):
        for m in (0, 1, 2, 3):
            for c in (0.0, 0.5, 1.0):
                params = ModelParams(m, c)
                for _ in range(10):
                    geom = geometry_at(params, random_valid_point(params, rng))
                    assert np.linalg.eigvalsh(geom.g_h).min() > 0.0

    def test_deformed_metric_helper_matches_snapshot(self, rng):
        params = ModelParams(2, 1.0)
        point = random_valid_point(params, rng)
        geom = geometry_at(params, point)
        assert_allclose(deformed_metric(params, point), geom.g_h)

    def test_structural_residuals_within_tolerances(self, rng):
        for m, c in CONFIGS:
            params = ModelParams(m, c)
            for _ in range(5):
                geom = geometry_at(params, random_valid_point(params, rng))
                res = structural_residuals(geom)
                assert res["quaternion_relations"] < 1e-10
                assert res["i_h_squared_plus_id"] < 1e-10
                assert res["pairwise_commutation"] < 1e-10
                assert res["k_g_self_adjoint"] < 1e-10
                assert res["i_h_g_skew"] < 1e-10
                assert res["k_carries_gh_to_g"] < 1e-10
                assert res["gh_negative_spectrum"] < 0.0
                assert res["f_h_identity"] < 1e-12
                assert res["omega_identities"] < 1e-8
                assert res["omega_mu_is_lowered_i_mu"] < 1e-10
                assert res["twist_form_is_lowered_i_h"] < 1e-10

    def test_algebraic_identity_residuals(self, rng):
        for m, c in ((0, 0.0), (1, 1.0), (3, 0.5)):
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            assert sum_identity_residual(geom) < 1e-8
            assert omega_identities_residual(geom) < 1e-8


class TestDifferentialIdentities:
    @pytest.mark.parametrize("m,c", [(0, 1.0), (1, 0.5), (2, 0.0)])
    def test_residuals_within_tolerances(self, rng, m, c):
        params = ModelParams(m, c)
        for _ in range(3):
            point = random_valid_point(params, rng)
            res = verify_differential_identities(geometry_at(params, point))
            for name, value in res.items():
                tol = 1e-8 if name == "sum_identity" else 1e-6
                assert value < tol, f"{name} residual {value:.3e} at m={m} c={c}"

    def test_reports_every_expected_identity(self, rng):
        params = ModelParams(0, 0.0)
        res = verify_differential_identities(geometry_at(params, random_valid_point(params, rng)))
        expected = {
            "d_alpha0_eq_2g_dz", "d_alpha1_eq_lie_omega1", "d_alpha2_eq_lie_omega2",
            "d_alpha3_eq_lie_omega3", "rotating_lie_omega1_zero",
            "rotating_lie_omega2_eq_omega3", "rotating_lie_omega3_eq_minus_omega2",
            "moment_map_f_z", "moment_map_f_h", "twist_form_from_omega1", "sum_identity",
        }
        assert set(res) == expected


class TestSampling:
    def test_random_point_hits_requested_range(self, rng):
        params = ModelParams(1, 1.0)
        for _ in range(50):
            point = random_valid_point(params, rng, f_z_range=(0.5, 0.6))
            assert 0.5 <= scalars(params, point)[0] <= 0.6 + 1e-12

    def test_point_with_exact_target(self, rng):
        params = ModelParams(2, 0.5)
        point = point_with_f_z(params, 1.25, rng)
        assert_allclose(scalars(params, point)[0], 1.25, rtol=1e-12)

    def test_point_with_invalid_target(self, rng):
        with pytest.raises(DomainViolation):
            point_with_f_z(ModelParams(0, 0.0), -1.0, rng)

    def test_sampling_is_deterministic(self):
        params = ModelParams(1, 0.5)
        a = random_valid_point(params, np.random.default_rng(7))
        b = random_valid_point(params, np.random.default_rng(7))
        assert_allclose(a, b)
