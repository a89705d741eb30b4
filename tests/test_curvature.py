"""Curvature invariants: operator norm, closed profile, split, scalar curvature."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hkqk.correspondence import rtilde_closed
from hkqk.curvature import (
    SPLIT_NU,
    alekseevsky_split,
    curvature_norm_closed,
    curvature_norm_frame,
    curvature_operator,
    hk_type_residual,
    invariance_residual,
    k_trace_residuals,
    norm_report,
    quadcov_in_frame,
    scalar_curvature,
    trace_k_powers,
)
from hkqk.errors import DomainViolation
from hkqk.flat_model import ModelParams, geometry_at, random_valid_point
from hkqk.pseudo_linear import pseudo_gram_schmidt


def geometry(m, c, rng):
    params = ModelParams(m, c)
    return geometry_at(params, random_valid_point(params, rng))


def in_frame(geom, rt):
    """Components of rt on the orthonormal frame of g_h, with the frame's signs."""
    vectors, signs = pseudo_gram_schmidt(geom.g_h)
    return quadcov_in_frame(rt, vectors), signs


class TestCurvatureOperator:
    def test_trace_matches_frame_diagonal_sum(self, rng):
        geom = geometry(1, 0.5, rng)
        rt = rtilde_closed(geom)
        components, signs = in_frame(geom, rt)
        op = curvature_operator(components, signs)
        expected = sum(signs[a] * signs[b] * components[a, b, a, b]
                       for a in range(geom.d) for b in range(a + 1, geom.d))
        assert_allclose(np.trace(op), expected, rtol=1e-10)

    def test_zero_tensor_gives_zero_operator(self, rng):
        geom = geometry(0, 1.0, rng)
        op = curvature_operator(*in_frame(geom, np.zeros((4, 4, 4, 4))))
        assert_allclose(op, 0.0)

    def test_operator_is_symmetric(self, rng):
        for m, c in ((0, 0.0), (1, 1.0), (2, 0.5)):
            geom = geometry(m, c, rng)
            op = curvature_operator(*in_frame(geom, rtilde_closed(geom)))
            scale = max(1.0, np.abs(op).max())
            assert np.abs(op - op.T).max() < 1e-10 * scale


class TestNormValues:
    def test_undeformed_family_values(self, rng):
        # frozen from the closed profile at f_h = -f_z: q=1 -> 12, q=2 -> 40
        for m, expected in ((0, 12.0), (1, 40.0)):
            geom = geometry(m, 0.0, rng)
            assert_allclose(curvature_norm_frame(geom, rtilde_closed(geom)),
                            expected, rtol=1e-10)

    def test_reference_deformed_point(self):
        geom = geometry_at(ModelParams(0, 1.0), np.array([2.0, 0.0, 0.0, 0.0]))
        value = curvature_norm_frame(geom, rtilde_closed(geom))
        assert_allclose(value, 6.279936, rtol=1e-10)  # 6 + 6 (0.6)^6

    def test_closed_profile_reference_values(self):
        assert_allclose(curvature_norm_closed(1, 1.0, -1.0), 12.0)
        assert_allclose(curvature_norm_closed(2, 1.0, -1.0), 40.0)
        assert_allclose(curvature_norm_closed(3, 1.0, -1.0), 84.0)  # 4q(2q+1)
        assert_allclose(curvature_norm_closed(1, 1.5, -2.5), 6.279936, rtol=1e-15)

    def test_closed_profile_domain_errors(self):
        with pytest.raises(DomainViolation):
            curvature_norm_closed(1, -1.0, -2.0)
        with pytest.raises(DomainViolation):
            curvature_norm_closed(1, 1.0, 0.5)
        with pytest.raises(ValueError):
            curvature_norm_closed(0, 1.0, -1.0)

    @pytest.mark.parametrize("m,c", [(0, 1.0), (1, 0.5), (2, 1.0), (3, 0.5)])
    def test_frame_route_matches_closed_profile(self, rng, m, c):
        for _ in range(3):
            geom = geometry(m, c, rng)
            frame_value = curvature_norm_frame(geom, rtilde_closed(geom))
            closed_value = curvature_norm_closed(geom.q, geom.f_z, geom.f_h)
            assert abs(frame_value - closed_value) / closed_value < 1e-8


class TestComparisonTraces:
    def test_zeroth_power_is_dimension(self, rng):
        geom = geometry(2, 0.5, rng)
        assert_allclose(trace_k_powers(geom, 0), geom.d)

    def test_reference_square_trace(self):
        geom = geometry_at(ModelParams(0, 1.0), np.array([2.0, 0.0, 0.0, 0.0]))
        assert_allclose(trace_k_powers(geom, 2), 3.24, rtol=1e-14)  # 4 (1.5^4 / 2.5^2)

    def test_vanishing_cubic_twist_trace(self, rng):
        geom = geometry(1, 1.0, rng)
        k, i_h = geom.k_compare, geom.i_h
        assert abs(np.trace(k @ k @ k @ i_h)) < 1e-9

    @pytest.mark.parametrize("m,c", [(0, 0.0), (1, 1.0), (2, 0.5), (3, 0.0)])
    def test_residuals_for_all_exponents(self, rng, m, c):
        geom = geometry(m, c, rng)
        res = k_trace_residuals(geom)
        assert res["k_trace_closed_vs_matrix_rel"] < 1e-9
        assert res["k_trace_vanishing_abs"] < 1e-9

    def test_rejects_negative_exponent(self, rng):
        with pytest.raises(ValueError):
            trace_k_powers(geometry(0, 0.0, rng), -1)


class TestSplit:
    def test_nu_is_minus_one(self, rng):
        # the split weight is the reduced scalar curvature, which norm_report measures
        assert SPLIT_NU == -1.0
        assert_allclose(norm_report(geometry(1, 0.5, rng))[0]["nu"], SPLIT_NU, rtol=1e-8)

    def test_split_reassembles(self, rng):
        geom = geometry(2, 1.0, rng)
        rt = rtilde_closed(geom)
        r0, r1 = alekseevsky_split(geom, rt)
        assert_allclose(SPLIT_NU * r0 + r1, rt, atol=1e-12 * max(1.0, np.abs(rt).max()))

    def test_remainder_commutes_with_complex_structures(self, rng):
        for m, c in ((0, 1.0), (1, 0.0), (2, 0.5)):
            geom = geometry(m, c, rng)
            _, r1 = alekseevsky_split(geom, rtilde_closed(geom))
            assert hk_type_residual(geom, r1, rng) < 1e-8

    def test_model_part_alone_fails_commutation_check(self, rng):
        # negative control: the model-space block is not of the remainder type
        geom = geometry(1, 0.0, rng)
        r0 = alekseevsky_split(geom, rtilde_closed(geom))[0]
        assert hk_type_residual(geom, r0, rng) > 1e-3

    def test_invariance_of_twist_form_block(self, rng):
        for m, c in ((0, 0.0), (1, 1.0), (3, 0.5)):
            geom = geometry(m, c, rng)
            assert invariance_residual(geom) < 1e-10

    def test_undeformed_q2_remainder_norm_regression(self, rng):
        # the undeformed q = 2 member is symmetric but not of constant quaternionic
        # curvature: the remainder is nonzero, with frozen frame Frobenius norm 6 sqrt(2)
        geom = geometry(1, 0.0, rng)
        _, r1 = alekseevsky_split(geom, rtilde_closed(geom))
        fro = float(np.sqrt((in_frame(geom, r1)[0] ** 2).sum()))
        assert fro > 1e-3
        assert_allclose(fro, 8.485281374238571, rtol=1e-9)


class TestScalarCurvature:
    @pytest.mark.parametrize("m,expected", [(0, -12.0), (1, -32.0)])
    def test_einstein_values(self, rng, m, expected):
        geom = geometry(m, 0.7, rng)
        assert_allclose(scalar_curvature(*in_frame(geom, rtilde_closed(geom))), expected, rtol=1e-8)

    def test_point_independence(self, rng):
        params = ModelParams(1, 1.0)
        values = []
        for _ in range(10):
            geom = geometry_at(params, random_valid_point(params, rng))
            values.append(scalar_curvature(*in_frame(geom, rtilde_closed(geom))))
        values = np.array(values)
        assert np.abs(values - values[0]).max() / abs(values[0]) < 1e-8


class TestNormReport:
    def test_report_fields_and_residuals(self, rng):
        geom = geometry(1, 0.5, rng)
        report, op = norm_report(geom)
        # the keys and their order are those of the report that `hkqk norm` prints
        assert list(report) == ["f_z", "f_h", "rho", "norm_frame", "norm_closed", "scal", "nu",
                                "residuals"]
        assert op.shape == (28, 28)
        assert_allclose(report["rho"], 2.0 * geom.f_z)
        assert_allclose(report["nu"], -1.0, rtol=1e-8)
        assert report["norm_frame"] >= 0.0
        assert report["residuals"]["norm_frame_vs_closed_rel"] < 1e-8
        assert report["residuals"]["scal_vs_expected_rel"] < 1e-8
        assert report["residuals"]["hk_type_commutator"] < 1e-8
        assert report["residuals"]["split_invariance"] < 1e-10
