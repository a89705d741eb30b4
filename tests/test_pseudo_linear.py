"""Frame construction, adjointness, wedge-space operators, finite differences."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_spd_form, signature_form
from hkqk.errors import DegenerateMetric, DomainViolation, PairAntisymmetryViolated
from hkqk.flat_model import ModelParams, deformed_metric, geometry_at, random_valid_point, scalars
from hkqk.kulkarni import adjoint_defect, form_obar, form_owedge
from hkqk.pseudo_linear import (
    compose_trace,
    finite_diff_gradient,
    pseudo_gram_schmidt,
    quadcov_to_lambda2_op,
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


class TestFiniteDiff:
    def test_constant_field_gives_zero(self):
        coords = np.array([0.3, -1.2, 2.0, 0.0])
        out = finite_diff_gradient(lambda c: np.full((2, 2), 7.5), coords)[2]
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

    def test_fourth_order_stencil_exact_on_cubics(self):
        coords = np.array([0.4, -0.7])

        def field(c):
            return c[0] ** 3 - 2.0 * c[0] * c[1] ** 2

        deriv = finite_diff_gradient(field, coords, order=4)[0]
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
        stacked = finite_diff_gradient(lambda c: [f(c) for f in fields], point, order=order)
        separate = [finite_diff_gradient(f, point, order=order) for f in fields]
        assert np.array_equal(stacked, np.stack(separate, axis=1))
