"""Model construction: constant tensors, scalars, geometry snapshots, identities."""

import dataclasses
import functools
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hkqk.errors import DomainViolation
from hkqk.flat_model import (
    ModelParams,
    alpha_gather,
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

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_complex_structures_are_recorded_signed_permutations(self, m, corrupt):
        consts = constant_tensors(ModelParams(m, corrupt_omega2=corrupt))
        d = 4 * (m + 1)
        for im, perm, sign in zip(consts.i_mu, consts.i_perm, consts.i_sign):
            rebuilt = np.zeros((d, d))
            rebuilt[perm, np.arange(d)] = sign
            assert np.array_equal(rebuilt, im)
            assert np.array_equal(np.sort(perm), np.arange(d))
            assert set(np.abs(sign)) == {1.0}

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
        # |z|^2 would overflow (f_z = inf at m = 0, inf - inf = nan at m = 1), as would the
        # sum of two finite squares: refused before squaring, so no RuntimeWarning
        for params, coords in ((ModelParams(0), [1e200, 0.0, 0.0, 0.0]),
                               (ModelParams(1), [1e200, 0.0, 1e200, 0.0] + [0.0] * 4),
                               (ModelParams(0), [1e154, -1e154, 0.0, 0.0])):
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


def reference_kernels(params, coords):
    """The model formulas one term at a time: vectors, sums of squares and outer
    products in plain numpy calls, each sum over mu taken as Python's sum."""
    consts = constant_tensors(params)
    q, d = params.q, params.d
    zc = coords[: 2 * q]
    z2 = zc[0::2] ** 2 + zc[1::2] ** 2
    base = z2[0] - z2[1:].sum()
    f_z = 0.5 * base - 0.5 * params.c
    f_h = -0.5 * base - 0.5 * params.c
    z = np.zeros(d)
    z[0: 2 * q: 2] = zc[1::2]
    z[1: 2 * q: 2] = -zc[0::2]
    g = consts.g
    alpha = (g @ z, *(om.T @ z for om in consts.omega_mu[1:]))
    g_alpha = sum(np.outer(a, a) for a in alpha)
    g_h = g / f_z + g_alpha / f_z ** 2
    k = f_z * np.eye(d) - (f_z / f_h) * sum(
        np.outer(i @ z, a) for i, a in zip(consts.i_mu, alpha))
    return {"scalars": (f_z, f_h, -base), "z_rot": z, "alpha": np.array(alpha),
            "g_alpha": g_alpha, "g_h": g_h, "k_compare": k}


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@functools.lru_cache(maxsize=None)
def edge_points(m, c):
    """Read-only random domain points of ModelParams(m, c) and the edge cases of the
    kernels' rounding: exact zeros of both signs, an f_z whose square C pow rounds apart
    from f_z * f_z, and a coordinate whose x ** 2 rounds apart from x * x."""
    params, rng = ModelParams(m, c), np.random.default_rng(1000 * m + int(c))
    points = [random_valid_point(params, rng) for _ in range(40)]
    for point in points[::4]:
        # exact zeros of both signs, away from z_0 so that the point stays valid
        point[rng.integers(2, params.d, 3)] = 0.0
        point[rng.integers(2, params.d)] = -0.0
    # about 1 in 1000 f_z has a square that C pow rounds apart from f_z * f_z
    while True:
        point = random_valid_point(params, rng)
        f_z = scalars(params, point)[0]
        if f_z ** 2 != f_z * f_z:
            points.append(point)
            break
    # and about 1 in 1000 coordinates: x ** 2 is C pow, which rounds apart from the
    # reference's x * x; with the rest of the z-block 0, g(Z, Z) = -x_0 * x_0 exactly
    point = random_valid_point(params, rng)
    point[:2 * params.q] = 0.0
    while point[0] ** 2 == point[0] * point[0]:
        point[0] = rng.uniform(8.0, 16.0) * np.sqrt(1.0 + params.c)  # f_z > 30
    points.append(point)
    for point in points:
        point.flags.writeable = False
    return tuple(points)


GEOMETRY_FIELDS = ("coords", "k_compare", "z_rot", "alpha", "f_z", "f_h", "g_zz", "g_h", "g_alpha")


class TestKernelsMatchReference:
    # from m = 8 the z-block sum in scalars has 8 or more terms and numpy sums it pairwise
    @pytest.mark.parametrize("m", [0, 1, 3, 7, 8, 9])
    @pytest.mark.parametrize("c", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_bit_for_bit(self, m, c, corrupt):
        # stacked products and broadcast outer products round exactly as the formulas
        # written one term at a time, down to the sign of every zero
        params = ModelParams(m, c, corrupt_omega2=corrupt)
        points = edge_points(m, c)
        for point in points:
            expected = reference_kernels(params, point)
            geom = geometry_at(params, point)
            for name in ("z_rot", "alpha", "g_alpha", "g_h", "k_compare"):
                assert np.array_equal(bits(getattr(geom, name)), bits(expected[name])), name
            values = scalars(params, point)
            assert np.array_equal(bits(values), bits(expected["scalars"]))
            # a Python float would raise OverflowError where np.float64 powers give inf
            assert [type(v) for v in values] == [np.float64] * 3
            assert type(geom.f_z) is type(geom.f_h) is type(geom.g_zz) is np.float64
            assert np.array_equal(bits(vector_z(params, point)), bits(expected["z_rot"]))
            assert np.array_equal(bits(deformed_metric(params, point)), bits(expected["g_h"]))
        # the same points as one stack, and as five shifted copies each of the last two
        stack = np.stack(points)
        shifted = stack[-2:, None, :] + np.array([-2.0, -1.0, 1.0, 2.0, 0.0])[:, None] * 1e-5
        for stack in (stack, shifted.reshape(-1, params.d)):
            rows = np.stack([deformed_metric(params, point) for point in stack])
            assert np.array_equal(bits(deformed_metric(params, stack)), bits(rows))
            # a stacked snapshot holds each row's snapshot, field by field
            stacked, alone = geometry_at(params, stack), [geometry_at(params, p) for p in stack]
            for name in GEOMETRY_FIELDS:
                rows = np.stack([getattr(geom, name) for geom in alone])
                assert np.array_equal(bits(getattr(stacked, name)), bits(rows)), name
            assert np.array_equal(bits(scalars(params, stack)), bits([scalars(params, p)
                                                                      for p in stack]).T)

    def test_domain_and_shape_messages(self):
        params = ModelParams(0, 1.0)
        cases = [
            (np.zeros(6), ValueError,
             "coordinates must be a flat vector of length 4(m+1) = 4, got shape (6,)"),
            (np.full((2, 2), 2.0), ValueError,
             "coordinates must be a flat vector of length 4(m+1) = 4, got shape (2, 2)"),
            ([2.0, np.nan, 0.0, 0.0], ValueError, "coordinates contain non-finite entries"),
            ([2.0, 0.0, -np.inf, 0.0], ValueError, "coordinates contain non-finite entries"),
            ([1e200, 0.0, 0.0, 0.0], DomainViolation,
             "a z-coordinate of magnitude 1.000e+200 is out of range: |z|^2 is not finite"),
            ([1e100, 0.0, 0.0, 0.0], DomainViolation,
             "f_z = 5.000e+199 and f_h = -5.000e+199 are out of range: 8 f_h^2 is not finite"),
            ([0.5, 0.0, 3.0, 0.0], DomainViolation,
             "f_z = -3.750e-01 is not positive (threshold 1e-08)"),
        ]
        for coords, error, message in cases:
            for evaluate in (scalars, deformed_metric, geometry_at):
                with pytest.raises(error, match=f"^{re.escape(message)}$"):
                    evaluate(params, coords)
        # a stack whose rows are not points names the shape of the whole stack
        with pytest.raises(ValueError, match=re.escape("got shape (3, 6)")):
            deformed_metric(params, np.zeros((3, 6)))

    def test_stack_raises_what_scalars_raises_for_its_first_failing_row(self):
        # each refused input of the tests above, at row i > 0 of a stack and before another
        # refused row; the checks run on every row at once and warn of nothing
        cases = [(ModelParams(0, 1.0), coords) for coords in (
            [2.0, np.nan, 0.0, 0.0], [2.0, 0.0, -np.inf, 0.0], [1e200, 0.0, 0.0, 0.0],
            [1e100, 0.0, 0.0, 0.0], [0.5, 0.0, 3.0, 0.0], [1e154, -1e154, 0.0, 0.0])]
        cases += [(ModelParams(1), [1e200, 0.0, 1e200, 0.0] + [0.0] * 4),
                  (ModelParams(0), [1e-4, 0.0, 0.0, 0.0])]  # 0 < f_z = 5e-9 <= DOMAIN_EPS
        for params, coords in cases:
            with pytest.raises((ValueError, DomainViolation)) as expected:
                scalars(params, np.array(coords))
            valid = random_valid_point(params, np.random.default_rng(5))
            later = np.zeros(params.d)  # refused too: f_z = -c/2
            for i in (1, 4):
                stack = np.stack([valid] * i + [coords, later, valid])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for evaluate in (scalars, deformed_metric, geometry_at):
                        with pytest.raises(type(expected.value),
                                           match=f"^{re.escape(str(expected.value))}$"):
                            evaluate(params, stack)


class TestAlphaGather:
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_gives_the_stacked_product(self, rng, corrupt):
        # equal as numbers; a zero's sign may differ, and g_h's bits are checked above
        for m in (0, 2, 5):
            params = ModelParams(m, 1.0, corrupt_omega2=corrupt)
            index, sign, g = alpha_gather(m, corrupt)
            point = random_valid_point(params, rng)
            assert np.array_equal(point[index] * sign, geometry_at(params, point).alpha)
            assert np.array_equal(g, constant_tensors(params).g)
            assert set(np.unique(sign)) <= {-1.0, 0.0, 1.0}

    def test_read_only_and_shared_across_c(self, rng):
        alpha_gather.cache_clear()
        for c in (0.0, 1.0, 100.0):
            params = ModelParams(3, c)
            deformed_metric(params, random_valid_point(params, rng))
        assert alpha_gather.cache_info().misses == 1
        deformed_metric(ModelParams(3, 1.0, corrupt_omega2=True),
                        random_valid_point(ModelParams(3, 1.0), rng))
        assert alpha_gather.cache_info().misses == 2
        for arr in alpha_gather(3, False):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


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


def dense_sum_identity_sides(geom):
    """Both sides of sum_identity_residual as sums of dense einsum outer products."""
    dz = geom.dz
    i1 = geom.i_mu[1]
    lhs = np.zeros((geom.d,) * 4)
    rhs = np.zeros((geom.d,) * 4)
    for mu in range(4):
        m = dz.T @ geom.omega_mu[mu]
        lhs += np.einsum("ab,ic->iabc", m - m.T, geom.i_mu[mu] @ i1)
        rhs -= 0.5 * np.einsum("ab,ic->iabc", geom.omega_mu[mu] - geom.omega_mu[mu].T, geom.i_mu[mu])
    rhs += np.einsum("ab,ic->iabc", geom.omega_h, i1)
    return lhs, rhs


class TestSumIdentitySupport:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 7])
    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("twist_scale", [1.0, 2.0])
    def test_matches_dense_sums_bit_for_bit(self, m, corrupt, twist_scale):
        # a doubled twist form breaks the identity, still with integer entries
        params = ModelParams(m, (0.0, 1.0, 1000.0)[m % 3], corrupt_omega2=corrupt)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(m)))
        geom = dataclasses.replace(geom, omega_h=twist_scale * geom.omega_h)
        lhs, rhs = dense_sum_identity_sides(geom)
        expected = float(np.abs(lhs - rhs).max())
        assert bits(np.float64(sum_identity_residual(geom))) == bits(np.float64(expected))
        assert (expected > 0.0) == (twist_scale != 1.0)
