"""The two form products, their operator lifts, and the trace identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_self_adjoint, random_skew_adjoint, signature_form
import hkqk.kulkarni as kn
from hkqk.errors import AdjointnessViolated, PairAntisymmetryViolated
from hkqk.kulkarni import (
    endo_obar,
    endo_owedge,
    form_obar,
    form_owedge,
    mixed_pair_trace,
    obar_pair_trace,
    owedge_pair_trace,
)
from hkqk.pseudo_linear import compose_trace, pseudo_gram_schmidt, quadcov_to_lambda2_op


def kn_owedge(p):
    """Defining formula of the first product on a rank-4 array P:
    out(A,B,C,X) = P(A,C,B,X) - P(A,X,B,C) + P(B,X,A,C) - P(B,C,A,X)."""
    return (np.einsum("acbx->abcx", p) - np.einsum("axbc->abcx", p)
            + np.einsum("bxac->abcx", p) - np.einsum("bcax->abcx", p))


def reference_owedge(alpha, beta):
    return kn_owedge(np.einsum("ab,cx->abcx", alpha, beta))


def reference_obar(alpha, beta):
    p = np.einsum("ab,cx->abcx", alpha, beta)
    return kn_owedge(p) + 2.0 * p + 2.0 * np.einsum("cxab->abcx", p)


def standard_complex_structure(d):
    j = np.zeros((d, d))
    for k in range(0, d, 2):
        j[k, k + 1] = -1.0
        j[k + 1, k] = 1.0
    return j


def curvature_symmetry_defect(arr):
    pair_anti = max(np.abs(arr + arr.transpose(1, 0, 2, 3)).max(),
                    np.abs(arr + arr.transpose(0, 1, 3, 2)).max())
    pair_sym = np.abs(arr - np.einsum("cxab->abcx", arr)).max()
    bianchi = np.abs(arr + np.einsum("bcax->abcx", arr)
                     + np.einsum("cabx->abcx", arr)).max()
    return max(pair_anti, pair_sym, bianchi)


class TestKnOwedge:
    def test_metric_square_on_plane(self):
        # expand the four terms by hand for g = id on d = 2 at (e1, e2, e1, e2)
        g = np.eye(2)
        out = kn_owedge(np.einsum("ab,cx->abcx", g, g))
        assert_allclose(out[0, 1, 0, 1], 2.0)

    def test_zero(self):
        assert_allclose(kn_owedge(np.zeros((3, 3, 3, 3))), 0.0)

    def test_two_form_square_diagonal_values(self, rng):
        omega = rng.standard_normal((4, 4))
        omega = omega - omega.T
        out = form_owedge(omega, omega)
        for _ in range(20):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            value = np.einsum("abcx,a,b,c,x->", out, a, b, a, b)
            assert_allclose(value, 2.0 * (a @ omega @ b) ** 2, rtol=1e-12, atol=1e-12)

    def test_symmetric_pair_gives_curvature_tensor(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            alpha = rng.standard_normal((d, d))
            alpha = alpha + alpha.T
            beta = rng.standard_normal((d, d))
            beta = beta + beta.T
            out = form_owedge(alpha, beta)
            assert curvature_symmetry_defect(out) < 1e-12 * max(1.0, np.abs(out).max())


class TestKnObar:
    def test_two_form_square_diagonal_values(self, rng):
        omega = rng.standard_normal((6, 6))
        omega = omega - omega.T
        out = form_obar(omega, omega)
        for _ in range(20):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            value = np.einsum("abcx,a,b,c,x->", out, a, b, a, b)
            assert_allclose(value, 6.0 * (a @ omega @ b) ** 2, rtol=1e-12, atol=1e-12)

    def test_zero(self):
        assert_allclose(form_obar(np.zeros((3, 3)), np.zeros((3, 3))), 0.0)

    def test_first_bianchi_for_symplectic_form(self, rng):
        omega = np.zeros((4, 4))
        omega[0, 1] = omega[2, 3] = 1.0
        omega = omega - omega.T
        out = form_obar(omega, omega)
        for _ in range(50):
            a, b, c = (rng.standard_normal(4) for _ in range(3))
            x = rng.standard_normal(4)
            cyclic = (np.einsum("abcx,a,b,c,x->", out, a, b, c, x)
                      + np.einsum("abcx,a,b,c,x->", out, b, c, a, x)
                      + np.einsum("abcx,a,b,c,x->", out, c, a, b, x))
            assert abs(cyclic) < 1e-12

    def test_two_form_pair_gives_curvature_tensor(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            omega = rng.standard_normal((d, d))
            omega = omega - omega.T
            out = form_obar(omega, omega)
            assert curvature_symmetry_defect(out) < 1e-12 * max(1.0, np.abs(out).max())

    def test_requires_pair_antisymmetry(self):
        with pytest.raises(PairAntisymmetryViolated):
            form_obar(np.ones((3, 3)), np.ones((3, 3)))
        with pytest.raises(PairAntisymmetryViolated):
            form_obar(np.eye(3), np.eye(3))


# d = 16 spans two row blocks, d = 18 ends in a partial block, d = 32 has one row per block
BLOCK_SIZES = (4, 6, 8, 12, 16, 18, 32)


def assert_same_bits(out, ref):
    # equal values, and no -0.0 where the formula has +0.0 (array_equal alone ignores it)
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


def sparse_form(rng, d, sign):
    """A form a + sign a^T with many exact zeros, so products like -1 * 0 occur."""
    a = rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.3)
    return a + sign * a.T


class TestBlockwiseExactness:
    @pytest.mark.parametrize("d", BLOCK_SIZES)
    def test_owedge_matches_defining_formula(self, rng, d):
        alpha, beta = rng.standard_normal((2, d, d))
        assert_same_bits(form_owedge(alpha, beta), reference_owedge(alpha, beta))
        alpha, beta = sparse_form(rng, d, 1.0), sparse_form(rng, d, 1.0)
        assert_same_bits(form_owedge(alpha, beta), reference_owedge(alpha, beta))

    @pytest.mark.parametrize("d", BLOCK_SIZES)
    def test_obar_matches_defining_formula(self, rng, d):
        alpha, beta = rng.standard_normal((2, d, d))
        alpha, beta = alpha - alpha.T, beta - beta.T
        assert_same_bits(form_obar(alpha, beta), reference_obar(alpha, beta))
        alpha, beta = sparse_form(rng, d, -1.0), sparse_form(rng, d, -1.0)
        assert_same_bits(form_obar(alpha, beta), reference_obar(alpha, beta))

    @pytest.mark.parametrize("rows", (1, 3, 7, 100))
    def test_any_block_height_is_exact(self, rng, monkeypatch, rows):
        d = 7
        monkeypatch.setattr(kn, "BLOCK_BYTES", rows * 8 * d ** 3)
        alpha, beta = sparse_form(rng, d, 1.0), sparse_form(rng, d, -1.0)
        assert_same_bits(form_owedge(alpha, beta), reference_owedge(alpha, beta))
        assert_same_bits(form_obar(beta, beta), reference_obar(beta, beta))


# d = 20 has four rows per block, d = 24 two, d = 32 one
BLOCK_TERM_SIZES = (4, 8, 12, 16, 20, 24, 32)


def block_terms(rng, d, own_bar):
    """Four same-factor terms (alpha, beta, bar) shaped like a closed-route form block: a
    form of one parity and three of the other, the own term first."""
    own = sparse_form(rng, d, -1.0 if own_bar else 1.0)
    turned = [sparse_form(rng, d, 1.0 if own_bar else -1.0) for _ in range(3)]
    return [(own, own, own_bar)] + [(f, f, not own_bar) for f in turned]


def reference_sum(terms):
    """Term by term from the defining formulas: the first product, then each later one
    added to the full array; bar picks the second product. The reference of form_block."""
    def product(alpha, beta, bar):
        return reference_obar(alpha, beta) if bar else reference_owedge(alpha, beta)

    block = product(*terms[0])
    for term in terms[1:]:
        block += product(*term)
    return block


def product_sum(terms):
    """The same sum from form_obar and form_owedge, added left to right."""
    block = None
    for alpha, beta, bar in terms:
        term = (form_obar if bar else form_owedge)(alpha, beta)
        block = term if block is None else block + term
    return block


class TestBlockSums:
    """Sums of products as the closed curvature route forms them agree with the defining
    formulas bit for bit, on either product path."""

    @pytest.mark.parametrize("own_bar", (False, True))
    @pytest.mark.parametrize("d", BLOCK_TERM_SIZES)
    def test_same_factor_block_matches_term_by_term_sum(self, rng, d, own_bar):
        terms = block_terms(rng, d, own_bar)
        assert all(beta is alpha for alpha, beta, _ in terms)
        assert_same_bits(product_sum(terms), reference_sum(terms))

    @pytest.mark.parametrize("d", BLOCK_TERM_SIZES)
    def test_equal_copy_matches_same_factor(self, rng, d):
        terms = block_terms(rng, d, False)
        copies = [(alpha, beta.copy(), bar) for alpha, beta, bar in terms]
        assert_same_bits(product_sum(copies), product_sum(terms))
        assert_same_bits(product_sum(copies), reference_sum(terms))


def special_form(rng, d, sign, kind):
    """A form a + sign a^T holding exact +0.0 and -0.0, or also +-inf and NaN."""
    a = rng.standard_normal((d, d))
    a[rng.random((d, d)) < 0.3] = 0.0
    a = a + sign * a.T
    zeros = rng.random((d, d)) < 0.3
    a[zeros] = -0.0
    a[zeros.T] = -0.0 if sign > 0 else 0.0
    if kind == "non_finite":
        for value in (np.inf, -np.inf, np.nan):
            hit = rng.random((d, d)) < 0.05
            a[hit] = value
            a[hit.T] = sign * value
    return a


def product_or_error(product, alpha, beta):
    try:
        with np.errstate(invalid="ignore"):
            return product(alpha, beta)
    except PairAntisymmetryViolated as exc:
        return str(exc)


class TestSameFactorPath:
    """``beta is alpha`` builds one product per row block (an owedge term in output order);
    an equal copy as second factor takes the general path, with two."""

    @pytest.mark.parametrize("kind", ("signed_zeros", "non_finite"))
    @pytest.mark.parametrize("d", (4, 7, 16, 32))
    @pytest.mark.parametrize("product,sign", ((form_owedge, 1.0), (form_obar, -1.0)))
    def test_matches_general_path_bit_for_bit(self, rng, d, kind, product, sign):
        alpha = special_form(rng, d, sign, kind)
        assert (alpha == 0.0).any() and np.signbit(alpha[alpha == 0.0]).any()
        got = product_or_error(product, alpha, alpha)
        ref = product_or_error(product, alpha, alpha.copy())
        if isinstance(ref, str):
            assert got == ref
        else:
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestObarGuard:
    @pytest.fixture
    def guard_calls(self, monkeypatch):
        calls = []
        guard = kn.require_pair_antisymmetry

        def counting(arr):
            calls.append(arr.shape)
            return guard(arr)

        monkeypatch.setattr(kn, "require_pair_antisymmetry", counting)
        return calls

    def test_exactly_skew_factors_skip_the_outer_product(self, rng, guard_calls):
        alpha, beta = rng.standard_normal((2, 8, 8))
        alpha, beta = alpha - alpha.T, beta - beta.T
        assert_same_bits(form_obar(alpha, beta), reference_obar(alpha, beta))
        assert guard_calls == []

    @pytest.mark.parametrize("d", (6, 18))
    def test_skew_within_tolerance_takes_the_guard(self, rng, guard_calls, d):
        alpha, beta, sym = rng.standard_normal((3, d, d))
        alpha = alpha - alpha.T + 1e-14 * (sym + sym.T)
        beta = beta - beta.T
        assert not np.array_equal(alpha, -alpha.T)
        assert_same_bits(form_obar(alpha, beta), reference_obar(alpha, beta))
        assert_same_bits(form_obar(beta, alpha), reference_obar(beta, alpha))
        assert guard_calls == [(d,) * 4, (d,) * 4]

    def test_owedge_product_takes_no_guard(self, guard_calls):
        # a symmetric factor passes unchecked where it is an owedge product
        eye = np.eye(4)
        assert_same_bits(form_owedge(eye, eye), reference_owedge(eye, eye))
        assert guard_calls == []

    def test_beyond_tolerance_raises_the_guard_message(self):
        j = standard_complex_structure(4)
        with pytest.raises(PairAntisymmetryViolated) as exc:
            form_obar(j + 1e-6 * np.eye(4), j)
        assert str(exc.value) == "pair antisymmetry defect 2.00e-06 > 1.00e-10 * scale 1.00e+00"
        with pytest.raises(PairAntisymmetryViolated) as exc:
            form_obar(j, 3.0 * j + 2e-6 * np.ones((4, 4)))
        assert str(exc.value) == "pair antisymmetry defect 4.00e-06 > 1.00e-10 * scale 3.00e+00"


class TestEndoProducts:
    def test_identity_owedge_identity(self):
        for d in (4, 6):
            op = endo_owedge(np.eye(d), np.ones(d))
            assert_allclose(op, 2.0 * np.eye(d * (d - 1) // 2), atol=1e-12)
            assert_allclose(compose_trace(op, op), 2.0 * d * d - 2.0 * d, rtol=1e-12)

    def test_zero_endomorphism(self):
        signs = np.array([-1.0, 1.0, 1.0, 1.0])
        op = endo_owedge(np.zeros((4, 4)), signs)
        assert_allclose(op, 0.0)
        op = endo_obar(np.zeros((4, 4)), signs)
        assert_allclose(op, 0.0)

    def test_self_adjoint_square_trace(self, rng):
        metric = signature_form(6, negatives=2)
        e = random_self_adjoint(rng, metric)
        op = endo_owedge(e, np.diag(metric))
        e2 = e @ e
        expected = 2.0 * np.trace(e2) ** 2 - 2.0 * np.trace(e2 @ e2)
        assert_allclose(compose_trace(op, op), expected, rtol=1e-10)

    def test_complex_structure_obar_trace(self):
        j = standard_complex_structure(4)
        op = endo_obar(j, np.ones(4))
        assert_allclose(compose_trace(op, op), 120.0, rtol=1e-12)

    def test_mixed_identity_value(self):
        # tr(id J) = 0 and tr((id J)^2) = tr(J^2) = -4, so 2*0 - 6*(-4) = 24
        metric = signature_form(4)
        j = standard_complex_structure(4)
        eye = np.eye(4)
        op_e = endo_owedge(eye, np.ones(4))
        op_j = endo_obar(j, np.ones(4))
        assert_allclose(compose_trace(op_e, op_j), 24.0, rtol=1e-12)
        assert_allclose(mixed_pair_trace(eye, j, metric), 24.0, rtol=1e-12)

    def test_obar_rejects_non_skew(self, rng):
        with pytest.raises(AdjointnessViolated, match="K fails skew-adjointness by 2.00e"):
            endo_obar(np.eye(4), np.ones(4))
        # skew in the Euclidean metric, but not for the split signs
        with pytest.raises(AdjointnessViolated, match="K fails skew"):
            endo_obar(standard_complex_structure(4), np.array([-1.0, 1.0, 1.0, 1.0]))

    def test_obar_rejects_a_nan_argument(self):
        # a NaN adjointness defect fails the guard instead of reaching the operator
        j = standard_complex_structure(4)
        j[1, 2] = np.nan
        with pytest.raises(AdjointnessViolated, match="K fails skew-adjointness by nan"):
            endo_obar(j, np.ones(4))


class TestSelfProducts:
    """endo_owedge and endo_obar lower their endomorphism once, so the product takes its
    same-factor path; a lowered copy as second factor takes the general one. Both agree
    bit for bit."""

    @pytest.mark.parametrize("d", (4, 6, 8, 12))
    @pytest.mark.parametrize("negatives", (0, 2, 4))
    def test_matches_the_general_product_path(self, rng, d, negatives):
        signs = np.diag(signature_form(d, negatives=negatives))
        for endo, product, sign in ((endo_owedge, form_owedge, 1.0), (endo_obar, form_obar, -1.0)):
            for _ in range(3):
                # raised with the diagonal metric: self-adjoint for +1, skew for -1
                e = signs[:, None] * sparse_form(rng, d, sign)
                low = e.T * signs
                expected = quadcov_to_lambda2_op(product(low, low.copy()), signs)
                assert np.array_equal(endo(e, signs).view(np.uint64), expected.view(np.uint64))


def brute_force_pair_trace(first, second, metric, kinds):
    """Sign-weighted four-index sum over an orthonormal frame, from the definitions.

    Independent of the wedge-operator machinery: lowers each endomorphism on
    the frame, expands the relevant product pattern entrywise, and contracts.
    """
    v, eps = pseudo_gram_schmidt(metric)

    def lowered_on_frame(endo):
        return v @ endo.T @ metric @ v.T

    def pattern(mat, kind):
        base = (np.einsum("ca,db->cdab", mat, mat) - np.einsum("cb,da->cdab", mat, mat))
        if kind == "obar":
            base = base + 2.0 * np.einsum("cd,ab->cdab", mat, mat)
        return base

    t_first = pattern(lowered_on_frame(first), kinds[0])
    t_second = pattern(lowered_on_frame(second), kinds[1])
    return float(np.einsum("a,b,c,d,cdab,abcd->", eps, eps, eps, eps,
                           t_first, t_second, optimize=True))


class TestTraceIdentities:
    def test_identity_pair_value(self):
        metric = signature_form(4)
        eye = np.eye(4)
        assert_allclose(owedge_pair_trace(eye, eye), 24.0)  # 2*16 - 2*4
        assert_allclose(brute_force_pair_trace(eye, eye, metric, ("owedge", "owedge")), 24.0)

    def test_all_zero(self):
        metric = signature_form(4)
        zero = np.zeros((4, 4))
        assert owedge_pair_trace(zero, zero) == 0.0
        assert obar_pair_trace(zero, zero, metric) == 0.0
        assert mixed_pair_trace(zero, zero, metric) == 0.0

    def test_owedge_identity_needs_no_adjointness(self, rng):
        metric = signature_form(5)
        e = rng.standard_normal((5, 5))
        f = rng.standard_normal((5, 5))
        closed = owedge_pair_trace(e, f)
        brute = brute_force_pair_trace(e, f, metric, ("owedge", "owedge"))
        assert_allclose(closed, brute, rtol=1e-10, atol=1e-10)

    def test_adjointness_hypotheses_enforced(self, rng):
        metric = signature_form(4)
        not_skew = np.eye(4)
        skew = standard_complex_structure(4)
        with pytest.raises(AdjointnessViolated):
            obar_pair_trace(not_skew, skew, metric)
        not_self_adjoint = np.eye(4) + standard_complex_structure(4)
        with pytest.raises(AdjointnessViolated):
            mixed_pair_trace(not_self_adjoint, skew, metric)

    def test_random_admissible_matches_brute_force_minkowski(self, rng):
        metric = signature_form(8, negatives=1)
        for _ in range(10):
            e = random_self_adjoint(rng, metric)
            f = random_self_adjoint(rng, metric)
            k = random_skew_adjoint(rng, metric)
            l = random_skew_adjoint(rng, metric)
            one = owedge_pair_trace(e, f)
            two = obar_pair_trace(k, l, metric)
            three = mixed_pair_trace(e, k, metric)
            brutes = (
                brute_force_pair_trace(e, f, metric, ("owedge", "owedge")),
                brute_force_pair_trace(k, l, metric, ("obar", "obar")),
                brute_force_pair_trace(e, k, metric, ("owedge", "obar")),
            )
            for closed, brute in zip((one, two, three), brutes):
                assert abs(closed - brute) / max(1.0, abs(brute)) < 1e-8
