"""Curvature invariants: operator norm, closed profile, split, scalar curvature."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hkqk import cli, curvature, flat_model
from hkqk.correspondence import rtilde_closed, twist_support
from hkqk.curvature import (
    HK_TRIALS,
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
    raised_trials,
    scalar_curvature,
    substitute_last_slots,
    trace_k_powers,
)
from hkqk.errors import DomainViolation, PairAntisymmetryViolated
from hkqk.flat_model import ModelParams, geometry_at, random_valid_point
from hkqk.kulkarni import form_obar, form_owedge
from hkqk.pseudo_linear import (check_pair_antisymmetry, compose_trace, pseudo_gram_schmidt,
                                require_pair_antisymmetry)


def geometry(m, c, rng):
    params = ModelParams(m, c)
    return geometry_at(params, random_valid_point(params, rng))


def expected_of(block, ij):
    """The substitution of I_j into the last two slots, as one einsum."""
    return np.einsum("abcx,cp,xq->abpq", block, ij, ij)


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


def two_pass_projection(t):
    """Antisymmetrize the first index pair, then the second, over the full array."""
    t = np.subtract(t, t.transpose(1, 0, 2, 3))
    t *= 0.5
    t = np.subtract(t, t.transpose(0, 1, 3, 2))
    t *= 0.5
    return t


def reference_operator(t, signs):
    """The full-size projection, then the gather of the pair entries a < b, c < x."""
    ii, jj = np.triu_indices(t.shape[0], 1)
    pairs = two_pass_projection(t)[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
    return (signs[ii] * signs[jj])[:, None] * pairs.T


def special_tensor(rng, d, kind):
    t = rng.standard_normal((d,) * 4)
    if kind == "signed_zeros":
        t[rng.random(t.shape) < 0.3] = 0.0
        t[rng.random(t.shape) < 0.3] = -0.0
    elif kind == "non_finite":
        t[rng.random(t.shape) < 0.05] = np.inf
        t[rng.random(t.shape) < 0.05] = -np.inf
        t[rng.random(t.shape) < 0.05] = np.nan
    return t


TENSOR_KINDS = ("random", "signed_zeros", "non_finite")


class TestPairOnlyOperator:
    # every family dimension d = 4(m+1), m = 0..9, and one that is not
    @pytest.mark.parametrize("kind", TENSOR_KINDS)
    @pytest.mark.parametrize("d", [4 * (m + 1) for m in range(10)] + [7])
    def test_matches_projection_then_gather_bit_for_bit(self, rng, d, kind):
        t = special_tensor(rng, d, kind)
        signs = np.where(rng.random(d) < 0.3, -1.0, 1.0)
        with np.errstate(invalid="ignore"):
            op, ref = curvature_operator(t, signs), reference_operator(t, signs)
        # every bit, NaN payloads and the sign of zero included; the same memory
        # layout too, since later reductions over the operator may follow it
        assert np.array_equal(op.view(np.uint64), ref.view(np.uint64))
        assert op.strides == ref.strides

    @pytest.mark.parametrize("kind", TENSOR_KINDS)
    def test_projection_is_exactly_pair_antisymmetric(self, rng, kind):
        # fl(x - y) = -fl(y - x) and halving keeps the sign, so a pair guard on the
        # projection only ever sees defects of 0 or NaN, and raises only on the NaN
        t = special_tensor(rng, 8, kind)
        with np.errstate(invalid="ignore"):
            proj = two_pass_projection(t)
            for swapped in (proj.transpose(1, 0, 2, 3), proj.transpose(0, 1, 3, 2)):
                assert np.array_equal(proj, -swapped, equal_nan=True)
            defect = check_pair_antisymmetry(proj)
            assert defect == 0.0 if kind != "non_finite" else np.isnan(defect)
            if kind == "non_finite":
                with pytest.raises(PairAntisymmetryViolated, match="defect nan"):
                    require_pair_antisymmetry(proj)
            else:
                require_pair_antisymmetry(proj)


def einsum_in_frame(t, v):
    """The frame change as one optimized einsum: the reference for quadcov_in_frame."""
    return np.einsum("abcx,pa,qb,rc,sx->pqrs", t, v, v, v, v, optimize=True)


class TestFrameChange:
    # every family dimension d = 4(m+1), m = 0..9, and one that is not; a batched
    # v @ y for the middle contractions differed from einsum at d = 20, 28, 36 and 44
    @pytest.mark.parametrize("kind", TENSOR_KINDS)
    @pytest.mark.parametrize("d", [4 * (m + 1) for m in range(10)] + [7])
    def test_matches_einsum_bit_for_bit(self, rng, d, kind):
        t = special_tensor(rng, d, kind)
        v = rng.standard_normal((d, d))
        with np.errstate(invalid="ignore"):
            got, ref = quadcov_in_frame(t, v), einsum_in_frame(t, v)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert got.strides == ref.strides

    @pytest.mark.parametrize("kind", TENSOR_KINDS)
    @pytest.mark.parametrize("d", [4 * (m + 1) for m in range(10)] + [7])
    def test_out_may_be_the_input(self, rng, d, kind):
        # out=None is the test above; here the first product reads all of t before t is written
        t = special_tensor(rng, d, kind)
        v = rng.standard_normal((d, d))
        with np.errstate(invalid="ignore"):
            ref = einsum_in_frame(t, v)
            got = quadcov_in_frame(t, v, t)
        assert got is t
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestNormFrameMemory:
    """curvature_norm_frame builds R~ itself and changes its frame in place."""

    @pytest.mark.parametrize("m,c", [(0, 1.0), (1, 0.0), (3, 0.5), (7, 1.0)])
    def test_equals_the_two_step_composition(self, rng, m, c):
        geom = geometry(m, c, rng)
        components, signs = in_frame(geom, rtilde_closed(geom))
        op = curvature_operator(components, signs)
        assert curvature_norm_frame(geom) == compose_trace(op, op)

    @pytest.mark.parametrize("cold_twist_cache", [False, True])
    def test_peak_is_two_rank4_arrays_and_one_row_buffer(self, rng, cold_twist_cache):
        geom = geometry(7, 1.0, rng)
        curvature_norm_frame(geom)  # fill the caches: twist support, pair indices
        if cold_twist_cache:
            # the twist block is then built inside rtilde_closed, before the metric block
            twist_support.cache_clear()
        d = geom.d
        pairs = d * (d - 1) // 2
        tracemalloc.start()
        try:
            curvature_norm_frame(geom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 16 MB of rank-4 arrays, 4 MB of projected rows, and 1 MB for the small buffers
        assert peak < 8 * (2 * d ** 4 + pairs * d * d) + 2 ** 20


class TestSplitBits:
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_matches_the_four_product_split(self, m, corrupt):
        params = ModelParams(m, 1.0, corrupt_omega2=corrupt)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(m)))
        rt = rtilde_closed(geom)
        block = form_owedge(geom.g_h, geom.g_h)
        for k in (1, 2, 3):
            f = geom.i_mu[k].T @ geom.g_h
            block += form_obar(f, f)
        r0_ref = -block / 8.0
        r0, r1 = alekseevsky_split(geom, rt)
        for got, expected in ((r0, r0_ref), (r1, rt - SPLIT_NU * r0_ref)):
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_matches_the_general_product_path(self, m, corrupt):
        # a copy as second factor: the products' general path, not their same-factor one
        params = ModelParams(m, 1.0, corrupt_omega2=corrupt)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(m)))
        block = form_owedge(geom.g_h, geom.g_h.copy())
        for k in (1, 2, 3):
            f = geom.i_mu[k].T @ geom.g_h
            block += form_obar(f, f.copy())
        r0, _ = alekseevsky_split(geom, rtilde_closed(geom))
        assert np.array_equal(r0.view(np.uint64), (-block / 8.0).view(np.uint64))


class TestNanResiduals:
    """A NaN anywhere in a check's inputs reads NaN on its row, and so fails it."""

    @pytest.mark.parametrize("row", ["k_trace_closed_vs_matrix_rel", "k_trace_vanishing_abs"])
    def test_k_trace_rows(self, rng, row):
        geom = geometry(1, 1.0, rng)
        k = geom.k_compare.copy()
        k[2, 3] = np.nan
        assert np.isnan(k_trace_residuals(dataclasses.replace(geom, k_compare=k))[row])

    def test_hk_type_commutator(self, rng):
        geom = geometry(1, 1.0, rng)
        _, r1 = alekseevsky_split(geom, rtilde_closed(geom))
        r1[0, 1, 2, 3] = np.nan
        assert np.isnan(hk_type_residual(geom, r1, rng))

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_split_invariance(self, rng, j):
        # the twist block comes from the cache, so the NaN goes into I_j
        geom = geometry(1, 1.0, rng)
        i_mu = list(geom.i_mu)
        i_mu[j] = i_mu[j].copy()
        i_mu[j][1, 0] = np.nan
        assert np.isnan(invariance_residual(dataclasses.replace(geom, i_mu=tuple(i_mu))))

    def test_equal_f_z_norm_row(self, monkeypatch):
        monkeypatch.setattr(curvature, "curvature_norm_frame", lambda geom: np.nan)
        assert_row_reads_nan("equal_f_z_equal_norm_rel")

    def test_kulkarni_row(self, monkeypatch):
        # the first random form is a factor of the first owedge product
        forms = iter(range(1 << 30))
        original = cli._random_form

        def planted(rng, d, sign):
            form = original(rng, d, sign)
            if next(forms) == 0:
                form[0, 1] = np.nan
            return form

        monkeypatch.setattr(cli, "_random_form", planted)
        assert_row_reads_nan("kn_owedge_curvature_symmetries")

    @pytest.mark.parametrize("row", ["quaternion_relations", "omega_mu_is_lowered_i_mu",
                                     "pairwise_commutation", "omega_identities"])
    def test_structural_rows(self, monkeypatch, row):
        original = flat_model.structural_residuals

        def planted(geom):
            i_mu = list(geom.i_mu)
            i_mu[2] = i_mu[2].copy()
            i_mu[2][1, 0] = np.nan
            return original(dataclasses.replace(geom, i_mu=tuple(i_mu)))

        monkeypatch.setattr(flat_model, "structural_residuals", planted)
        assert_row_reads_nan(row)


def assert_row_reads_nan(row):
    results = {r.name: r for r in cli.run_verification(cli.RunConfig(m=0, c=1.0, samples=1))}
    assert np.isnan(results[row].max_residual) and not results[row].passed


class TestNormValues:
    def test_undeformed_family_values(self, rng):
        # frozen from the closed profile at f_h = -f_z: q=1 -> 12, q=2 -> 40
        for m, expected in ((0, 12.0), (1, 40.0)):
            geom = geometry(m, 0.0, rng)
            assert_allclose(curvature_norm_frame(geom),
                            expected, rtol=1e-10)

    def test_reference_deformed_point(self):
        geom = geometry_at(ModelParams(0, 1.0), np.array([2.0, 0.0, 0.0, 0.0]))
        value = curvature_norm_frame(geom)
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
            frame_value = curvature_norm_frame(geom)
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

    @pytest.mark.parametrize("m, c", [(m, c) for m in (0, 1, 3) for c in (0.0, 1.0, 100.0)]
                             + [(7, 1.0), (8, 100.0)])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_stacked_trials_are_the_trials_one_at_a_time(self, m, c, corrupt):
        params = ModelParams(m, c, corrupt_omega2=corrupt)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(m)))
        _, r1 = alekseevsky_split(geom, rtilde_closed(geom))
        rng, gh_inv, expected = np.random.default_rng(7), np.linalg.inv(geom.g_h), []
        for _ in range(HK_TRIALS):
            a = rng.standard_normal(geom.d)
            b = rng.standard_normal(geom.d)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            expected.append(gh_inv @ np.einsum("abcx,a,b->cx", r1, a, b).T)
        got = raised_trials(geom, r1, np.random.default_rng(7))
        assert np.array_equal(got.view(np.uint64), np.array(expected).view(np.uint64))

    def test_model_part_alone_fails_commutation_check(self, rng):
        # negative control: the model-space block is not of the remainder type
        geom = geometry(1, 0.0, rng)
        r0 = alekseevsky_split(geom, rtilde_closed(geom))[0]
        assert hk_type_residual(geom, r0, rng) > 1e-3

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_substitution_matches_einsum_exactly(self, m, corrupt):
        params = ModelParams(m, 1.0, corrupt_omega2=corrupt)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(m)))
        block = form_obar(geom.omega_h, geom.omega_h)
        for k in (1, 2, 3):
            f = geom.i_mu[k].T @ geom.omega_h
            block += form_owedge(f, f)
        signed = block.copy()
        signed[0, 1, 2, 3], signed[1, 0, 3, 2] = -0.0, 0.0
        reference = 0.0
        for ij in geom.i_mu[1:]:
            for tensor in (block, signed):
                expected = expected_of(tensor, ij)
                got = substitute_last_slots(tensor, ij)
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))
            reference = max(reference, float(np.abs(expected_of(block, ij) - block).max()))
        assert invariance_residual(geom) == reference

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
        report, op, vectors = norm_report(geom)
        # the keys and their order are those of the report that `hkqk norm` prints
        assert list(report) == ["f_z", "f_h", "rho", "norm_frame", "norm_closed", "scal", "nu",
                                "residuals"]
        assert op.shape == (28, 28)
        assert vectors.shape == (8, 8)
        assert_allclose(report["rho"], 2.0 * geom.f_z)
        assert_allclose(report["nu"], -1.0, rtol=1e-8)
        assert report["norm_frame"] >= 0.0
        assert report["residuals"]["norm_frame_vs_closed_rel"] < 1e-8
        assert report["residuals"]["scal_vs_expected_rel"] < 1e-8
        assert report["residuals"]["hk_type_commutator"] < 1e-8
        assert report["residuals"]["split_invariance"] < 1e-10
