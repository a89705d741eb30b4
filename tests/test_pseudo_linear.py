"""Frame construction, adjointness, wedge-space operators, finite differences."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_spd_form, signature_form
from hkqk.correspondence import (s_closed_tensor, s_h_tensor, s_parts_tensor, s_q_tensor,
                                  term_ds_fd)
from hkqk.errors import DegenerateMetric, DomainViolation, PairAntisymmetryViolated
from hkqk.flat_model import ModelParams, deformed_metric, geometry_at, random_valid_point, scalars
from hkqk.kulkarni import adjoint_defect, form_obar, form_owedge
from hkqk.pseudo_linear import (
    DEFAULT_FD_STEP,
    PIVOT_TOL,
    check_pair_antisymmetry,
    compose_trace,
    finite_diff_gradient,
    pseudo_gram_schmidt,
    quadcov_to_lambda2_op,
    require_pair_antisymmetry,
    wedge_pairs,
)


class TestPseudoGramSchmidt:
    def test_euclidean_identity_case(self):
        vectors, signs = pseudo_gram_schmidt(signature_form(2))
        assert_allclose(vectors, np.eye(2))
        assert_allclose(signs, [1.0, 1.0])

    def test_minkowski_diagonal_case(self):
        metric = signature_form(2, negatives=1)
        vectors, signs = pseudo_gram_schmidt(metric)
        assert_allclose(np.abs(vectors), np.eye(2))
        assert sorted(signs) == [-1.0, 1.0]
        assert_allclose(vectors @ metric @ vectors.T, np.diag(signs), atol=1e-14)

    def test_random_spd_gram_is_identity(self, rng):
        metric = random_spd_form(rng, 6)
        vectors, _ = pseudo_gram_schmidt(metric)
        assert_allclose(vectors @ metric @ vectors.T, np.eye(6), atol=1e-10)

    @pytest.mark.parametrize("negatives,d", [(0, 4), (2, 6), (4, 8)])
    def test_gramian_matches_signs_for_indefinite_metrics(self, rng, negatives, d):
        base = signature_form(d, negatives)
        q = rng.standard_normal((d, d))
        mat = q.T @ base @ q
        metric = (mat + mat.T) / 2.0
        vectors, signs = pseudo_gram_schmidt(metric)
        assert_allclose(vectors @ metric @ vectors.T, np.diag(signs), atol=1e-10)
        assert set(np.abs(signs)) == {1.0}
        assert int(np.sum(signs < 0)) == negatives

    def test_degenerate_metric_raises(self):
        with pytest.raises(DegenerateMetric):
            pseudo_gram_schmidt(np.diag([1.0, 0.0]))

    def test_pivoting_takes_largest_norm_first(self):
        vectors, _ = pseudo_gram_schmidt(np.diag([1.0, 9.0]))
        assert_allclose(vectors[0], [0.0, 1.0 / 3.0])


    def test_nan_pivot_raises(self):
        # a NaN entry makes the scale NaN, and no pivot clears a NaN threshold
        metric = np.eye(3)
        metric[0, 1] = metric[1, 0] = np.nan
        with pytest.raises(DegenerateMetric, match="pivot"):
            pseudo_gram_schmidt(metric)

    def test_nan_orthonormalization_defect_raises(self):
        # every pivot is finite; the frame's product with the metric reads NaN, as an
        # overflow in that last product would make it
        class NanFrameProduct(np.ndarray):
            def __rmatmul__(self, other):
                return np.full((other.shape[0], self.shape[1]), np.nan)

        with pytest.raises(DegenerateMetric, match="orthonormalization defect nan"):
            pseudo_gram_schmidt(signature_form(4).view(NanFrameProduct))

    def test_pivot_threshold_is_relative_to_the_metric(self):
        # g_h scales as 1/f_z, so a far point's metric has pivots of 1e-20 and below
        tiny = 1e-20 * signature_form(3, negatives=1)
        vectors, signs = pseudo_gram_schmidt(tiny)
        assert_allclose(vectors @ tiny @ vectors.T, np.diag(signs), atol=1e-14)
        with pytest.raises(DegenerateMetric) as exc:
            pseudo_gram_schmidt(1e-20 * np.diag([1.0, 0.0]))
        assert str(exc.value) == ("pivot 0.00e+00 at step 1 is below threshold "
                                  "1.00e-10 * scale 1.00e-20")
        with pytest.raises(DegenerateMetric):
            pseudo_gram_schmidt(np.diag([1e12, 1e1]))


def list_gram_schmidt(B):
    """The frame from one candidate vector at a time, each in a Python list: the
    reference for the stacked pseudo_gram_schmidt, with the same pivot threshold."""
    d = B.shape[0]
    scale = np.abs(B).max()
    remaining = [np.eye(d)[k] for k in range(d)]
    vectors = np.empty((d, d))
    signs = np.empty(d)
    for slot in range(d):
        norms = np.array([v @ B @ v for v in remaining])
        k = int(np.argmax(np.abs(norms)))
        norm = norms[k]
        if abs(norm) <= PIVOT_TOL * scale:
            raise DegenerateMetric(f"pivot {abs(norm):.2e} at step {slot} is below threshold "
                                   f"{PIVOT_TOL:.2e} * scale {scale:.2e}")
        v = remaining.pop(k) / np.sqrt(abs(norm))
        sign = 1.0 if norm > 0 else -1.0
        vectors[slot] = v
        signs[slot] = sign
        Bv = B @ v
        remaining = [w - sign * (w @ Bv) * v for w in remaining]
    defect = np.abs(vectors @ B @ vectors.T - np.diag(signs)).max()
    if defect > 1e-10:
        raise DegenerateMetric(f"orthonormalization defect {defect:.2e} exceeds 1e-10")
    return vectors, signs


def frame_or_error(gram_schmidt, metric):
    try:
        return gram_schmidt(metric)
    except DegenerateMetric as exc:
        return str(exc)


def gram_schmidt_cases(rng, d):
    """Metrics at dimension d: the identity (every pivot a tie), random metrics with
    0, 1 and d/2 negative directions, those scaled far from 1, and degenerate ones."""
    yield np.eye(d)
    for negatives in sorted({0, 1, d // 2}):
        q = rng.standard_normal((d, d))
        metric = q.T @ signature_form(d, negatives) @ q
        metric = (metric + metric.T) / 2.0
        yield metric
        yield 1e-20 * metric
        yield 1e12 * metric
        metric = metric.copy()  # rank d - 1: equal first two rows and columns
        metric[0] = metric[1]
        metric[:, 0] = metric[:, 1]
        yield metric
    yield np.diag(np.arange(d, dtype=float))
    yield np.zeros((d, d))
    if d % 4 == 0:
        params = ModelParams(d // 4 - 1, 1.0)
        for _ in range(3):
            yield geometry_at(params, random_valid_point(params, rng)).g_h


class TestStackedGramSchmidt:
    # every family dimension d = 4(m+1), m = 0..9, and three that are not
    @pytest.mark.parametrize("d", [4 * (m + 1) for m in range(10)] + [2, 3, 7])
    def test_matches_list_version_bit_for_bit(self, rng, d):
        raised = 0
        for metric in gram_schmidt_cases(rng, d):
            got = frame_or_error(pseudo_gram_schmidt, metric)
            ref = frame_or_error(list_gram_schmidt, metric)
            if isinstance(ref, str):
                raised += 1
                assert got == ref
                continue
            for a, b in zip(got, ref):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        # the zero metric, the singular diagonal and the three rank-deficient metrics
        assert raised >= 4


class TestAdjoint:
    def test_identity_is_self_adjoint(self, rng):
        metric = random_spd_form(rng, 5)
        assert adjoint_defect(np.eye(5), metric, skew=False) < 1e-12

    def test_raised_two_form_is_skew(self, rng):
        metric = random_spd_form(rng, 4)
        omega = rng.standard_normal((4, 4))
        omega = omega - omega.T
        skew = np.linalg.solve(metric, omega)
        assert adjoint_defect(skew, metric, skew=True) < 1e-12

    def test_euclidean_adjoint_is_transpose(self, rng):
        # for the Euclidean metric the adjointness defects are the asymmetry of the matrix
        metric = signature_form(7)
        e = rng.standard_normal((7, 7))
        assert adjoint_defect(e, metric, skew=False) == np.abs(e - e.T).max()
        assert adjoint_defect(e, metric, skew=True) == np.abs(e + e.T).max()


def _pair_coords(d, u, v):
    ii, jj = np.triu_indices(d, 1)
    return u[ii] * v[jj] - u[jj] * v[ii]


class TestQuadcovToLambda2Op:
    def test_metric_product_gives_twice_identity(self):
        for negatives in (0, 1, 2):
            metric = signature_form(4, negatives)
            op = quadcov_to_lambda2_op(form_owedge(metric, metric), np.diag(metric))
            assert_allclose(op, 2.0 * np.eye(6), atol=1e-12)

    def test_zero_tensor_gives_zero(self):
        op = quadcov_to_lambda2_op(np.zeros((4, 4, 4, 4)), np.ones(4))
        assert_allclose(op, 0.0, atol=0.0)

    def test_symplectic_obar_trace_square(self):
        # standard symplectic two-form on Euclidean 4-space; frozen from the
        # trace identity with tr(J^2) = -4, tr(J^4) = 4: 6*16 + 6*4 = 120
        omega = np.zeros((4, 4))
        omega[0, 1] = omega[2, 3] = 1.0
        omega = omega - omega.T
        op = quadcov_to_lambda2_op(form_obar(omega, omega), np.ones(4))
        assert_allclose(compose_trace(op, op), 120.0, rtol=1e-12)

    def test_pair_antisymmetry_enforced(self):
        with pytest.raises(PairAntisymmetryViolated):
            quadcov_to_lambda2_op(np.ones((3, 3, 3, 3)), np.ones(3))

    def _random_pair_antisymmetric(self, rng, d):
        arr = rng.standard_normal((d, d, d, d))
        arr = arr - arr.transpose(1, 0, 2, 3)
        return arr - arr.transpose(0, 1, 3, 2)

    def test_exact_against_gram_solve(self, rng):
        # oracle: solve against the Gram matrix of the wedge inner product induced
        # by diag(signs); that solve is exact, so the two must agree bit for bit
        for d in (2, 4, 7):
            tensor = self._random_pair_antisymmetric(rng, d)
            signs = rng.choice([-1.0, 1.0], size=d)
            metric = np.diag(signs)
            ii, jj = np.triu_indices(d, 1)
            gram = (metric[np.ix_(ii, ii)] * metric[np.ix_(jj, jj)]
                    - metric[np.ix_(ii, jj)] * metric[np.ix_(jj, ii)])
            t2 = tensor[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
            assert np.array_equal(quadcov_to_lambda2_op(tensor, signs),
                                  np.linalg.solve(gram, t2.T))

    def test_linearity_and_decomposable_evaluation(self, rng):
        # on a signed frame: <A^B, C^X> is diagonal in pair coordinates with
        # entries signs[a] * signs[b]
        d = 5
        signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0])
        t1 = self._random_pair_antisymmetric(rng, d)
        t2 = self._random_pair_antisymmetric(rng, d)
        m1 = quadcov_to_lambda2_op(t1, signs)
        m2 = quadcov_to_lambda2_op(t2, signs)
        combined = quadcov_to_lambda2_op(2.0 * t1 - 3.0 * t2, signs)
        assert_allclose(combined, 2.0 * m1 - 3.0 * m2, atol=1e-9)

        ii, jj = np.triu_indices(d, 1)
        g2 = np.diag(signs[ii] * signs[jj])
        for _ in range(10):
            a, b, c, x = (rng.standard_normal(d) for _ in range(4))
            lhs = _pair_coords(d, a, b) @ m1.T @ g2 @ _pair_coords(d, c, x)
            rhs = np.einsum("abcx,a,b,c,x->", t1, a, b, c, x)
            assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, abs(rhs)))

    @pytest.mark.parametrize("d,negatives", [(4, 0), (4, 1), (8, 0), (8, 3)])
    def test_trace_matches_weighted_four_index_sum(self, rng, d, negatives):
        # trace of the operator equals the sign-weighted sum
        # 1/4 sum_{abcd} e_a e_b e_c e_d T(v_c, v_d, v_a, v_b) <v_a ^ v_b, v_c ^ v_d>
        # over an orthonormal frame, for 20 random tensors
        metric = signature_form(d, negatives)
        v, eps = pseudo_gram_schmidt(metric)
        for _ in range(20):
            tensor = self._random_pair_antisymmetric(rng, d)
            # the coordinate frame of a diagonal metric is orthonormal
            op_trace = np.trace(quadcov_to_lambda2_op(tensor, np.diag(metric)))
            t_frame = np.einsum("abcx,pa,qb,rc,sx->pqrs", tensor, v, v, v, v)
            wedge = (np.einsum("a,b,ac,bd->abcd", eps, eps, np.eye(d), np.eye(d))
                     - np.einsum("a,b,ad,bc->abcd", eps, eps, np.eye(d), np.eye(d)))
            weighted = 0.25 * np.einsum(
                "a,b,c,d,cdab,abcd->", eps, eps, eps, eps, t_frame, wedge)
            assert_allclose(op_trace, weighted, rtol=1e-10, atol=1e-10)


def abs_pair_defect(arr):
    """The defect written with np.abs temporaries."""
    return max(np.abs(arr + arr.transpose(1, 0, 2, 3)).max(),
               np.abs(arr + arr.transpose(0, 1, 3, 2)).max())


class TestPairAntisymmetryCheck:
    def test_equals_abs_expression(self, rng):
        for d in (2, 5, 8):
            arr = rng.standard_normal((d, d, d, d))
            anti = arr - arr.transpose(1, 0, 2, 3)
            for tensor in (arr, anti, -anti, anti - anti.transpose(0, 1, 3, 2)):
                assert check_pair_antisymmetry(tensor) == abs_pair_defect(tensor)

    def test_nan_propagates_like_abs(self, rng):
        for index in ((0, 1, 2, 3), (2, 2, 0, 1), (3, 0, 3, 3)):
            arr = rng.standard_normal((4, 4, 4, 4))
            arr[index] = np.nan
            assert np.isnan(abs_pair_defect(arr))
            assert np.isnan(check_pair_antisymmetry(arr))

    def test_zero_defect_is_positive_zero(self):
        for value in (0.0, -0.0):
            defect = check_pair_antisymmetry(np.full((3, 3, 3, 3), value))
            assert defect == 0.0 and np.copysign(1.0, defect) == 1.0

    def test_nan_defect_raises(self):
        arr = np.zeros((4, 4, 4, 4))
        arr[0, 1, 2, 3] = np.nan
        with pytest.raises(PairAntisymmetryViolated, match="defect nan"):
            require_pair_antisymmetry(arr)

    def test_scale_is_the_largest_magnitude(self):
        # a defect of 2e-10 passes at scale 2 (bound 2e-10) and fails at scale 1.9
        for peak, raises in ((-2.0, False), (-1.9, True)):
            arr = np.zeros((2, 2, 2, 2))
            arr[0, 0, 0, 0] = 1e-10
            arr[1, 0, 1, 0] = peak
            arr[0, 1, 0, 1] = peak
            arr[0, 1, 1, 0] = -peak
            arr[1, 0, 0, 1] = -peak
            if raises:
                with pytest.raises(PairAntisymmetryViolated, match="scale 1.90e"):
                    require_pair_antisymmetry(arr)
            else:
                require_pair_antisymmetry(arr)


class TestFiniteDiff:
    def test_constant_field_gives_zero(self):
        coords = np.array([0.3, -1.2, 2.0, 0.0])
        out = finite_diff_gradient(pointwise(lambda c: np.full((2, 2), 7.5)), coords)[2]
        assert_allclose(out, 0.0, atol=1e-9)

    def test_hamiltonian_gradient_component(self):
        # f_z = (x_0^2 + y_0^2)/2 - c/2 at m = 0, so d f_z / d x_0 = x_0
        params = ModelParams(0, 1.0)
        point = np.array([2.0, 0.5, 0.3, -0.1])
        deriv = finite_diff_gradient(lambda c: scalars(params, c)[0], point)[0]
        assert_allclose(deriv, 2.0, rtol=1e-6)

    def test_deformed_metric_matches_analytic_gradient(self, rng):
        # oracle: differentiate g/f_z + g_alpha/f_z^2 by hand, using
        # d f_z = -alpha_1 and the constant Jacobian of the rotating field
        for m, c in ((0, 1.0), (1, 0.5), (2, 0.0)):
            params = ModelParams(m, c)
            point = random_valid_point(params, rng)
            geom = geometry_at(params, point)
            d = params.d
            g = geom.g
            i_mats = geom.i_mu
            dz = geom.dz
            f_z = geom.f_z
            g_alpha = geom.g_alpha

            expected = np.empty((d, d, d))
            for direction in range(d):
                d_alpha = [g @ (i_mats[mu] @ (dz @ np.eye(d)[direction])) for mu in range(4)]
                d_fz = -geom.alpha[1][direction]
                term = (-d_fz / f_z ** 2) * g + (-2.0 * d_fz / f_z ** 3) * g_alpha
                for mu in range(4):
                    term = term + (np.outer(d_alpha[mu], geom.alpha[mu])
                                   + np.outer(geom.alpha[mu], d_alpha[mu])) / f_z ** 2
                expected[direction] = term

            fd = finite_diff_gradient(lambda cs: deformed_metric(params, cs), point)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(fd - expected).max() / scale < 1e-5

    def test_domain_violation_propagates(self):
        params = ModelParams(0, 0.0)
        # f_z = 1.05e-8 is just inside the domain but within one step of the edge
        point = np.array([np.sqrt(2.1e-8), 0.0, 0.0, 0.0])
        with pytest.raises(DomainViolation):
            finite_diff_gradient(lambda c: scalars(params, c)[0], point)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_domain_violation_names_the_stencil_point(self, stacked):
        # the point above fails at x_0 - h, after x_0 + h passed; the points are replayed one
        # at a time to name it
        params = ModelParams(0, 0.0)
        point = np.array([np.sqrt(2.1e-8), 0.0, 0.0, 0.0])
        field = (lambda points: deformed_metric(params, points)) if stacked else pointwise(
            lambda c: scalars(params, c)[0])
        with pytest.raises(DomainViolation) as err:
            finite_diff_gradient(field, point)
        cause = err.value.__cause__
        assert type(cause) is DomainViolation and re.fullmatch(
            r"f_z = \S+ is not positive \(threshold 1e-08\)", str(cause))
        assert str(err.value) == f"{cause}; at stencil coordinate 0, offset -h, h = 1.000e-05"

    @pytest.mark.parametrize("stacked", [False, True])
    def test_nested_stencils_name_both_points(self, stacked):
        # the outer point x_0 - h is inside the domain, and the Koszul stencil around it
        # leaves the domain at its own x_0 - h, 2h below the sample
        params = ModelParams(0, 0.0)
        point = np.array([np.sqrt(2e-8) + 1.5e-5, 0.0, 0.0, 0.0])
        geom = geometry_at(params, point)
        correction = (lambda at: s_h_tensor(at, metric=lambda points: deformed_metric(
            params, points)) + s_q_tensor(at)) if stacked else s_parts_tensor
        with pytest.raises(DomainViolation) as err:
            term_ds_fd(geom, correction)
        at = "; at stencil coordinate 0, offset -h, h = 1.000e-05"
        assert str(err.value).endswith(at + at)
        assert str(err.value.__cause__).endswith(at) and not str(err.value.__cause__).endswith(at + at)

    def test_fourth_order_stencil_exact_on_cubics(self):
        coords = np.array([0.4, -0.7])

        def field(c):
            return c[0] ** 3 - 2.0 * c[0] * c[1] ** 2

        deriv = finite_diff_gradient(pointwise(field), coords, order=4)[0]
        assert_allclose(deriv, 3 * 0.4 ** 2 - 2 * 0.7 ** 2, rtol=1e-10)

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda c: 0.0, np.zeros(2), order=3)

    @pytest.mark.parametrize("order", [2, 4])
    def test_stacked_field_is_exactly_the_stacked_gradients(self, rng, order):
        # one stencil over k stacked fields does the same arithmetic on every entry
        params = ModelParams(1, 0.5)
        point = random_valid_point(params, rng)
        fields = [lambda c: deformed_metric(params, c), lambda c: 2.0 * deformed_metric(params, c),
                  lambda c: deformed_metric(params, c) ** 3]
        stacked = finite_diff_gradient(pointwise(lambda c: [f(c) for f in fields]), point,
                                       order=order)
        separate = [finite_diff_gradient(pointwise(f), point, order=order) for f in fields]
        assert np.array_equal(stacked, np.stack(separate, axis=1))


def pointwise(field):
    """A field of one point as a field of a stack of points, one call per row."""
    return lambda points: np.array([field(p) for p in points])


def reference_gradient(field, coords, *, step=DEFAULT_FD_STEP, order=2):
    """The stencil one coordinate at a time, each point a fresh copy of the coordinates and
    each formula on its own row: the reference for finite_diff_gradient."""
    coords = np.asarray(coords, dtype=float)

    def at(k, offset):
        shifted = coords.copy()
        shifted[k] += offset
        return np.asarray(field(shifted), dtype=float)

    rows = []
    for k in range(coords.size):
        h = step * max(1.0, abs(coords[k]))
        if order == 2:
            rows.append((at(k, h) - at(k, -h)) / (2.0 * h))
        else:
            rows.append((-at(k, 2 * h) + 8.0 * at(k, h) - 8.0 * at(k, -h) + at(k, -2 * h))
                        / (12.0 * h))
    return np.stack(rows)


# |x| < 1, |x| > 1 and exact zeros of both signs
STENCIL_COORDS = np.array([0.3, -0.7, 2.5, -13.0, 0.0, -0.0])
STENCIL_FIELDS = {
    "scalar": lambda c: c[0] * c[1] ** 2 - np.sin(c[2]) * c[3] + np.exp(c[4] - c[5]),
    "list": lambda c: [np.outer(c, np.cos(c)), np.exp(c)[:, None] * c[::-1]],
    "rank3": lambda c: np.multiply.outer(np.outer(np.sin(c), c ** 3), 1.0 / (2.0 + c * c)),
}


class TestStencilMatchesReference:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", sorted(STENCIL_FIELDS))
    def test_bit_for_bit(self, order, kind):
        field = STENCIL_FIELDS[kind]
        got = finite_diff_gradient(pointwise(field), STENCIL_COORDS, order=order)
        expected = reference_gradient(field, STENCIL_COORDS, order=order)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("order", [2, 4])
    def test_model_fields_bit_for_bit(self, order):
        # the Koszul route's stencils: g_h at order 4, the closed S at order 2
        params = ModelParams(1, 0.5)
        point = random_valid_point(params, np.random.default_rng(11))
        point[[4, 6]] = 0.0, -0.0
        for field in (lambda c: deformed_metric(params, c),
                      lambda c: s_closed_tensor(geometry_at(params, c))):
            got = finite_diff_gradient(pointwise(field), point, order=order)
            expected = reference_gradient(field, point, order=order)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        # deformed_metric as a stacked field: every point of the stencil in one call
        got = finite_diff_gradient(lambda points: deformed_metric(params, points), point,
                                   order=order)
        expected = reference_gradient(lambda c: deformed_metric(params, c), point, order=order)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("order", [2, 4])
    def test_first_failing_point_is_the_reference_one(self, order, stacked):
        # several points leave the domain; each message names the point it was raised at, and
        # a stacked field that raises names its last refused point, which the replay must not
        def field(c):
            if c[1] > 0.999995 or c[3] < -13.0001:
                raise DomainViolation(f"left the domain at {c.tolist()}")
            return c * c

        def stacked_field(points):
            for c in points[::-1]:
                field(c)
            return points * points

        coords = np.array([0.3, 0.999993, 2.5, -13.0, 0.0, -0.0])
        with pytest.raises(DomainViolation) as expected:
            reference_gradient(field, coords, order=order)
        with pytest.raises(DomainViolation) as got:
            finite_diff_gradient(stacked_field if stacked else pointwise(field), coords,
                                 order=order)
        offset = "+h" if order == 2 else "+2h"
        assert str(got.value.__cause__) == str(expected.value)
        assert str(got.value) == f"{expected.value}; at stencil coordinate 1, offset {offset}, h = 1.000e-05"


class TestWedgePairs:
    @pytest.mark.parametrize("d", [4, 7, 32])
    def test_cached_indices_are_read_only_and_fresh(self, d):
        ii, jj = wedge_pairs(d)
        fresh_ii, fresh_jj = np.triu_indices(d, 1)
        assert np.array_equal(ii, fresh_ii) and np.array_equal(jj, fresh_jj)
        for arr in (ii, jj):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert wedge_pairs(d)[0] is ii
