"""Connection correction and curvature routes: closed vs defining computations."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hkqk import correspondence
from hkqk.correspondence import (
    _comm_groups,
    dz_plus_sz_closed,
    form_block,
    rtilde_closed,
    rtilde_direct,
    s_closed_tensor,
    s_h_tensor,
    s_parts_tensor,
    s_q_tensor,
    t_from_parts,
    t_tensor_defining,
    term_comm_closed,
    term_ds_closed,
    term_ds_fd,
    twist_support,
)
from hkqk.errors import DomainViolation
from hkqk.flat_model import (DOMAIN_EPS, ModelParams, deformed_metric, geometry_at,
                             outer_supports, point_with_f_z, random_valid_point)
from hkqk.kulkarni import form_obar, form_owedge
from hkqk.pseudo_linear import DEFAULT_FD_STEP, check_pair_antisymmetry, finite_diff_gradient
from test_flat_model import edge_points
from test_kulkarni import reference_sum
from test_pseudo_linear import pointwise

CONFIGS = [(m, c) for m in (0, 1, 2) for c in (0.0, 0.5, 1.0)]


def reference_geometry():
    return geometry_at(ModelParams(0, 1.0), np.array([2.0, 0.0, 0.0, 0.0]))


def on_vectors(tensor, *vecs):
    """Contract the lower slots of a (1, k) array with k tangent vectors."""
    for vec in vecs:
        tensor = np.tensordot(tensor, vec, axes=([1], [0]))
    return tensor


def correction_by_explicit_sum(geom, a_vec, b_vec):
    """Loop-based re-implementation of the closed correction formula.

    Sums over mu with explicit matrix-vector products; deliberately avoids the
    tensor assembly used by the library.
    """
    g, z = geom.g, geom.z_rot
    i_h = geom.i_h
    i1 = geom.i_mu[1]
    total = np.zeros(geom.d)
    for mu in range(4):
        i_mu = geom.i_mu[mu]
        coeff = (i_mu @ i_h @ a_vec) @ g @ b_vec
        total += 0.5 / geom.f_h * coeff * (i_mu @ z)
        alpha_a = (i_mu @ z) @ g @ a_vec
        alpha_b = (i_mu @ z) @ g @ b_vec
        total -= 0.5 / geom.f_z * (alpha_a * (i_mu @ i1 @ b_vec)
                                   + alpha_b * (i_mu @ i1 @ a_vec))
    return total


class TestClosedCorrection:
    def test_matches_explicit_sum_at_reference_point(self):
        geom = reference_geometry()
        value = on_vectors(s_closed_tensor(geom), geom.z_rot, geom.z_rot)
        oracle = correction_by_explicit_sum(geom, geom.z_rot, geom.z_rot)
        assert_allclose(value, oracle, atol=1e-13)

    def test_matches_explicit_sum_on_random_pairs(self, rng):
        geom = geometry_at(ModelParams(1, 0.5), random_valid_point(ModelParams(1, 0.5), rng))
        for _ in range(10):
            a, b = rng.standard_normal(8), rng.standard_normal(8)
            assert_allclose(on_vectors(s_closed_tensor(geom), a, b),
                            correction_by_explicit_sum(geom, a, b), atol=1e-12)

    def test_torsion_formula(self, rng):
        for m, c in CONFIGS:
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            s = s_closed_tensor(geom)
            for _ in range(6):
                a, b = rng.standard_normal(geom.d), rng.standard_normal(geom.d)
                gap = (np.einsum("iab,a,b->i", s, a, b) - np.einsum("iab,a,b->i", s, b, a)
                       - (a @ geom.omega_h @ b) / geom.f_h * geom.z_rot)
                assert np.abs(gap).max() < 1e-10

    def test_degenerate_configuration_vanishes(self, rng):
        # with the rotating field zeroed out and the twist endomorphism collapsed
        # onto I_1, every term of the correction loses its prefactor
        params = ModelParams(1, 0.5)
        geom = geometry_at(params, random_valid_point(params, rng))
        degenerate = dataclasses.replace(
            geom,
            z_rot=np.zeros(geom.d),
            alpha=tuple(np.zeros(geom.d) for _ in range(4)),
            i_h=geom.i_mu[1],
        )
        assert_allclose(s_closed_tensor(degenerate), 0.0)


class TestKoszulRoute:
    @pytest.mark.parametrize("m,c", CONFIGS)
    def test_matches_closed_correction(self, rng, m, c):
        params = ModelParams(m, c)
        for _ in range(3):
            geom = geometry_at(params, random_valid_point(params, rng))
            closed = s_closed_tensor(geom)
            parts = s_parts_tensor(geom)
            assert np.abs(parts - closed).max() / np.abs(closed).max() < 1e-5

    def test_vector_level_wrappers_agree(self, rng):
        params = ModelParams(0, 1.0)
        geom = geometry_at(params, random_valid_point(params, rng))
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        closed = on_vectors(s_closed_tensor(geom), a, b)
        gap = on_vectors(s_parts_tensor(geom), a, b) - closed
        assert np.abs(gap).max() < 1e-5 * max(1.0, np.abs(closed).max())

    def test_twist_part_is_metric_skew(self, rng):
        params = ModelParams(2, 1.0)
        geom = geometry_at(params, random_valid_point(params, rng))
        sq = s_q_tensor(geom)
        gh = geom.g_h
        skew = (np.einsum("iab,ic->abc", sq, gh) + np.einsum("iac,ib->abc", sq, gh))
        assert np.abs(skew).max() < 1e-10

    def test_deformation_part_is_symmetric(self, rng):
        params = ModelParams(1, 0.0)
        geom = geometry_at(params, random_valid_point(params, rng))
        sh = s_h_tensor(geom)
        assert np.abs(sh - np.einsum("iba->iab", sh)).max() < 1e-5


class TestTTensorTerms:
    def test_dz_plus_sz_closed_expression(self, rng):
        for m, c in ((0, 1.0), (1, 0.5), (2, 0.0)):
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            s = s_closed_tensor(geom)
            defining = geom.dz + np.einsum("iac,a->ic", s, geom.z_rot)
            assert np.abs(defining - dz_plus_sz_closed(geom)).max() < 1e-10

    def test_commutator_vanishes_on_equal_arguments(self, rng):
        params = ModelParams(1, 1.0)
        geom = geometry_at(params, random_valid_point(params, rng))
        a = rng.standard_normal(8)
        c = rng.standard_normal(8)
        s = s_closed_tensor(geom)
        comm = np.einsum("iaj,jbc->iabc", s, s) - np.einsum("ibj,jac->iabc", s, s)
        assert_allclose(on_vectors(comm, a, a, c), 0.0, atol=1e-12)
        assert_allclose(on_vectors(term_comm_closed(geom), a, a, c), 0.0, atol=1e-12)

    def test_closed_commutator_expression(self, rng):
        for m, c in ((0, 0.0), (2, 1.0)):
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            s = s_closed_tensor(geom)
            defining = (np.einsum("iaj,jbc->iabc", s, s) - np.einsum("ibj,jac->iabc", s, s))
            gap = np.abs(term_comm_closed(geom) - defining).max()
            assert gap < 1e-10 * max(1.0, np.abs(defining).max())

    def test_closed_derivative_expression_against_fd(self, rng):
        # ten random configurations across the family
        seen = 0
        while seen < 10:
            m, c = (seen % 3, (0.0, 0.5, 1.0)[seen % 3])
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            closed = term_ds_closed(geom)
            fd = term_ds_fd(geom, s_closed_tensor)
            assert np.abs(closed - fd).max() / max(1.0, np.abs(closed).max()) < 1e-4
            seen += 1

    def test_term_antisymmetry_in_first_pair(self, rng):
        params = ModelParams(1, 0.5)
        geom = geometry_at(params, random_valid_point(params, rng))
        ds = term_ds_closed(geom)
        comm = term_comm_closed(geom)
        assert np.abs(ds + np.einsum("ibac->iabc", ds)).max() < 1e-10 * max(1.0, np.abs(ds).max())
        assert np.abs(comm + np.einsum("ibac->iabc", comm)).max() < 1e-10 * max(1.0, np.abs(comm).max())


class TestTTensor:
    def test_antisymmetry_and_zero_diagonal(self, rng):
        params = ModelParams(1, 0.5)
        geom = geometry_at(params, random_valid_point(params, rng))
        a, b, c = (rng.standard_normal(8) for _ in range(3))
        t13 = t_from_parts(geom, s_closed_tensor(geom), term_ds_fd(geom, s_closed_tensor))
        forward = on_vectors(t13, a, b, c)
        backward = on_vectors(t13, b, a, c)
        assert np.abs(forward + backward).max() < 1e-10 * max(1.0, np.abs(forward).max())
        assert np.abs(on_vectors(t13, a, a, c)).max() < 1e-10

    def test_assembly_identity(self, rng):
        params = ModelParams(0, 1.0)
        geom = geometry_at(params, random_valid_point(params, rng))
        a, b, c = (rng.standard_normal(4) for _ in range(3))
        s = s_closed_tensor(geom)
        s_a, s_b = on_vectors(s, a), on_vectors(s, b)
        term_ds = on_vectors(term_ds_fd(geom, s_closed_tensor), a, b, c)
        term_comm = s_a @ (s_b @ c) - s_b @ (s_a @ c)
        term_dzsz = (geom.dz + on_vectors(s, geom.z_rot)) @ c
        w_ab = a @ geom.omega_h @ b
        assembled = term_ds + term_comm - w_ab / geom.f_h * term_dzsz
        t13 = t_from_parts(geom, s, term_ds_fd(geom, s_closed_tensor))
        assert_allclose(on_vectors(t13, a, b, c), assembled, atol=1e-10)

    def test_lowered_defining_tensor_matches_closed_route(self, rng):
        for m, c in ((0, 0.5), (1, 1.0)):
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            t13 = t_tensor_defining(geom)
            lowered = np.einsum("iabc,ix->abcx", t13, geom.g_h)
            closed = rtilde_closed(geom)
            assert np.abs(lowered - closed).max() / max(1.0, np.abs(closed).max()) < 1e-4


class TestStencilMemory:
    """term_ds_fd(geom, s_closed_tensor) differentiates the closed S, a rank-3 field."""

    def test_peak_is_the_value_buffer_and_one_field_call(self):
        params = ModelParams(7, 1.0)
        point = random_valid_point(params, np.random.default_rng(7))

        d = params.d

        def field(points):  # one snapshot per row, written into one array
            values = np.empty((len(points),) + (d,) * 3)
            for row, c in zip(values, points):
                row[...] = s_closed_tensor(geometry_at(params, c))
            return values

        finite_diff_gradient(field, point)  # fill the caches
        tracemalloc.start()
        try:
            finite_diff_gradient(field, point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a per-coordinate loop holds d rows of d^3 floats and their stack; the buffer of
        # 2d values is as large, and 1 MB covers the field call that runs beside it
        assert peak <= 8 * 2 * d ** 4 + 2 ** 20

    def test_nest_peak_holds_no_more_than_four_rank4_arrays(self):
        # t_tensor_defining peaks in the assembly of T, beside the stencil's value buffer; one
        # inner stencil's stack (4d metrics of d^2 floats, and its buffer) stays below that
        # peak, while a memo of every stencil point would reach about twice the bound
        params = ModelParams(7, 1.0)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(7)))
        t_tensor_defining(geom)  # fill the caches
        d = params.d
        tracemalloc.start()
        try:
            t_tensor_defining(geom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * d ** 4 + 2 ** 21


def nest_point(params, seed):
    """A domain point with exact zeros of both signs (the last w pair) and x_0 > 1 just below
    a power of two: its outer step crosses the binade, so fl(fl(x_0 + h) - h) != x_0."""
    coords = random_valid_point(params, np.random.default_rng(seed))
    coords[-2:] = 0.0, -0.0
    x = 2.0 ** np.ceil(np.log2(abs(coords[0]) + 1.0)) * (1.0 - 2e-6)  # above |x_0|: f_z grows
    while (x + DEFAULT_FD_STEP * x) - DEFAULT_FD_STEP * x == x:
        x = np.nextafter(x, 0.0)
    coords[0] = x
    return coords


def term_ds_fd_by_point(geom, correction):
    """term_ds_fd with one snapshot and one correction call per outer stencil point."""
    d_s = finite_diff_gradient(pointwise(lambda c: correction(geometry_at(geom.params, c))),
                               geom.coords)
    return np.einsum("aibc->iabc", d_s) - np.einsum("biac->iabc", d_s)


def plain_nest(geom):
    """The nest of t_tensor_defining with one snapshot per outer point and one deformed_metric
    call per inner stencil point."""
    return t_from_parts(geom, s_parts_tensor(geom), term_ds_fd_by_point(geom, s_parts_tensor))


class TestStackedNest:
    """t_tensor_defining evaluates its outer stencil as stacked snapshots and each inner
    Koszul stencil as one deformed_metric stack."""

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    @pytest.mark.parametrize("c", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_matches_the_plain_nest_bit_for_bit(self, monkeypatch, m, c, corrupt):
        params = ModelParams(m, c, corrupt_omega2=corrupt)
        geom = geometry_at(params, nest_point(params, 100 * m + int(c)))
        expected = plain_nest(geom)
        shapes, results = [], []

        def counted(*args):
            shapes.append(np.shape(args[1]))
            return deformed_metric(*args)

        def kept(*args, **kwargs):
            results.append(t_tensor_defining(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(correspondence, "deformed_metric", counted)
        monkeypatch.setattr(correspondence, "t_tensor_defining", kept)
        lowered = rtilde_direct(geom)
        assert np.array_equal(bits(results[0]), bits(expected))
        assert np.array_equal(bits(lowered), bits(np.einsum("iabc,ix->abcx", expected, geom.g_h)))
        # one stack of 4d rows for the centre's S^h, then one per outer point
        d = params.d
        assert shapes == [(4 * d, d)] * (1 + 2 * d)
        if m <= 3:
            # a centre S^h from the caller is used as it is, and no stencil runs for it
            s_h = s_h_tensor(geom)
            shapes.clear()
            assert np.array_equal(bits(rtilde_direct(geom, s_h=s_h)), bits(lowered))
            assert shapes == [(4 * d, d)] * 2 * d

    @pytest.mark.parametrize("f_z, seed, message", [
        # the centre's own stencil leaves the domain
        (1e-3, 0, "f_z = -2.351e-04 is not positive (threshold 1e-08); "
                  "at stencil coordinate 0, offset +2h, h = 7.859e-05"),
        # only the stacked stencil around an outer point does, one step further out
        (2.5e-3, 2, "f_z = -4.664e-04 is not positive (threshold 1e-08); "
                    "at stencil coordinate 1, offset +2h, h = 9.944e-05; "
                    "at stencil coordinate 1, offset +h, h = 9.944e-05"),
    ])
    def test_domain_violation_text_near_the_edge(self, f_z, seed, message):
        params = ModelParams(1, 100.0)
        geom = geometry_at(params, point_with_f_z(params, f_z, np.random.default_rng(seed)))
        with pytest.raises(DomainViolation) as err:
            rtilde_direct(geom)
        assert str(err.value) == message
        assert type(err.value.__cause__) is DomainViolation


class TestStackedCorrections:
    """The corrections at a stacked snapshot are those at each row, and term_ds_fd's stacked
    outer stencil gives what one snapshot per point gives, bit for bit."""

    @pytest.mark.parametrize("m", [0, 1, 3, 7, 8, 9])
    @pytest.mark.parametrize("c", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_stack_is_the_rows(self, m, c, corrupt):
        params = ModelParams(m, c, corrupt_omega2=corrupt)
        points = edge_points(m, c)[:2] + edge_points(m, c)[-2:]
        stack = geometry_at(params, np.stack(points))
        for correction in (s_closed_tensor, s_q_tensor, s_h_tensor):
            rows = np.stack([correction(geometry_at(params, point)) for point in points])
            assert np.array_equal(bits(correction(stack)), bits(rows)), correction.__name__
        # the outer stencil is one block at m <= 1, four at m = 3 and 2d of one row at m = 7;
        # the Koszul route, whose nest TestStackedNest covers, where it is cheap
        geom = geometry_at(params, points[0])
        for correction in (s_closed_tensor, s_parts_tensor)[:(m <= 7) + (m <= 1)]:
            assert np.array_equal(bits(term_ds_fd(geom, correction)),
                                  bits(term_ds_fd_by_point(geom, correction)))

    @pytest.mark.parametrize("f_z, seed, message", [
        # the first point of coordinate 0's stencil passes, the second leaves the domain
        (1e-4, 1, "f_z = -1.871e-04 is not positive (threshold 1e-08); "
                  "at stencil coordinate 0, offset -h, h = 5.358e-05"),
        # both points of coordinate 0 pass
        (2.5e-4, 2, "f_z = -7.388e-04 is not positive (threshold 1e-08); "
                    "at stencil coordinate 1, offset +h, h = 9.944e-05"),
    ])
    def test_closed_route_domain_violation_text(self, f_z, seed, message):
        params = ModelParams(1, 100.0)
        geom = geometry_at(params, point_with_f_z(params, f_z, np.random.default_rng(seed)))
        with pytest.raises(DomainViolation) as err:
            term_ds_fd(geom, s_closed_tensor)
        assert str(err.value) == message
        assert type(err.value.__cause__) is DomainViolation

    @pytest.mark.parametrize("f_z, seed", [(1e-3, 0), (2.5e-3, 2)])
    def test_closed_route_stays_inside_where_the_nest_leaves(self, f_z, seed):
        # the points of TestStackedNest's edge texts: the closed route's stencil takes one
        # step, the Koszul nest's reaches 2h further
        params = ModelParams(1, 100.0)
        geom = geometry_at(params, point_with_f_z(params, f_z, np.random.default_rng(seed)))
        assert np.array_equal(bits(term_ds_fd(geom, s_closed_tensor)),
                              bits(term_ds_fd_by_point(geom, s_closed_tensor)))

    def test_violation_in_the_second_row_block_only(self, monkeypatch):
        # at m = 4 a block is 4 rows: +h on coordinates 0..3, then +h on 4..7, where +h on
        # x_2 = 2 takes f_z = 3e-5 below zero; -h on x_0 = y_0 takes less than f_z
        params = ModelParams(4)
        point = np.zeros(params.d)
        point[[0, 1, 4]] = np.sqrt(2.0 + 3e-5), np.sqrt(2.0 + 3e-5), 2.0
        geom = geometry_at(params, point)
        blocks = []

        def recorded(params, coords):
            blocks.append([len(coords), "raised"])
            result = geometry_at(params, coords)
            blocks[-1][1] = "passed"
            return result

        monkeypatch.setattr(correspondence, "geometry_at", recorded)
        with pytest.raises(DomainViolation) as err:
            term_ds_fd(geom, s_closed_tensor)
        assert str(err.value) == ("f_z = -1.000e-05 is not positive (threshold 1e-08); "
                                  "at stencil coordinate 4, offset +h, h = 2.000e-05")
        # two stacked blocks, then the replay one point at a time up to the failing one
        assert blocks[:2] == [[4, "passed"], [4, "raised"]]
        assert blocks[2:] == [[1, "passed"]] * 8 + [[1, "raised"]]


class TestCurvatureRoutes:
    def test_closed_route_symmetries(self, rng):
        for m, c in CONFIGS:
            params = ModelParams(m, c)
            geom = geometry_at(params, random_valid_point(params, rng))
            arr = rtilde_closed(geom)
            scale = max(1.0, np.abs(arr).max())
            assert check_pair_antisymmetry(arr) < 1e-10 * scale
            assert np.abs(arr - np.einsum("cxab->abcx", arr)).max() < 1e-10 * scale
            bianchi = arr + np.einsum("bcax->abcx", arr) + np.einsum("cabx->abcx", arr)
            assert np.abs(bianchi).max() < 1e-10 * scale

    def test_first_bianchi_on_random_triples(self, rng):
        params = ModelParams(1, 0.5)
        geom = geometry_at(params, random_valid_point(params, rng))
        arr = rtilde_closed(geom)
        for _ in range(100):
            a, b, c, x = (rng.standard_normal(8) for _ in range(4))
            cyclic = (np.einsum("abcx,a,b,c,x->", arr, a, b, c, x)
                      + np.einsum("abcx,a,b,c,x->", arr, b, c, a, x)
                      + np.einsum("abcx,a,b,c,x->", arr, c, a, b, x))
            assert abs(cyclic) < 1e-10 * max(1.0, np.abs(arr).max())

    def test_grouped_terms_are_separately_curvature_tensors(self, rng):
        params = ModelParams(1, 1.0)
        geom = geometry_at(params, random_valid_point(params, rng))
        g_h, oh = geom.g_h, geom.omega_h
        first = form_owedge(g_h, g_h)
        second = form_obar(oh, oh)
        for k in (1, 2, 3):
            ik = geom.i_mu[k]
            first = first + form_obar(ik.T @ g_h, ik.T @ g_h)
            second = second + form_owedge(ik.T @ oh, ik.T @ oh)
        assert np.array_equal(form_block(geom), first)
        scattered = np.zeros_like(second)
        np.put(scattered, *twist_support(params))
        assert np.array_equal(scattered, second)
        for arr in (first, second):
            scale = max(1.0, np.abs(arr).max())
            assert check_pair_antisymmetry(arr) < 1e-10 * scale
            assert np.abs(arr - np.einsum("cxab->abcx", arr)).max() < 1e-10 * scale
            bianchi = arr + np.einsum("bcax->abcx", arr) + np.einsum("cabx->abcx", arr)
            assert np.abs(bianchi).max() < 1e-10 * scale

    @pytest.mark.parametrize("m,c", [(0, 1.0), (1, 0.5), (2, 0.0)])
    def test_direct_route_matches_closed_route(self, rng, m, c):
        params = ModelParams(m, c)
        for _ in range(2):
            geom = geometry_at(params, random_valid_point(params, rng))
            closed = rtilde_closed(geom)
            direct = rtilde_direct(geom)
            assert np.abs(direct - closed).max() / max(1.0, np.abs(closed).max()) < 1e-4

    def test_metric_compatibility_of_corrected_connection(self, rng):
        from hkqk.flat_model import deformed_metric
        from hkqk.pseudo_linear import finite_diff_gradient

        params = ModelParams(1, 1.0)
        point = random_valid_point(params, rng)
        geom = geometry_at(params, point)
        s = s_closed_tensor(geom)
        gh = geom.g_h

        d_gh = finite_diff_gradient(lambda cs: deformed_metric(params, cs), point)
        compat = (d_gh - np.einsum("iab,ic->abc", s, gh) - np.einsum("iac,ib->abc", s, gh))
        assert np.abs(compat).max() / max(1.0, np.abs(d_gh).max()) < 1e-5


def bits(arr):
    return arr.view(np.uint64)


class TestTwistSupport:
    """The cached support of the twist-form block stands for the block, bit for bit."""

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_scattered_support_is_the_term_by_term_sum(self, m, corrupt):
        params = ModelParams(m, 1.0, corrupt_omega2=corrupt)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(m)))
        block = reference_sum(block_terms(geom, geom.omega_h, True))
        scattered = np.zeros_like(block)
        np.put(scattered, *twist_support(params))
        # +0.0 off the support: the sign of every zero matches too
        assert np.array_equal(bits(scattered), bits(block))

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_support_matches_the_general_product_path(self, m):
        # a copy as second factor: the products' general path, not their same-factor one
        params = ModelParams(m, 1.0)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(m)))
        block = four_products(geom, geom.omega_h, general(form_obar), general(form_owedge))
        scattered = np.zeros_like(block)
        np.put(scattered, *twist_support(params))
        assert np.array_equal(bits(scattered), bits(block))

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    @pytest.mark.parametrize("c", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_rtilde_closed_matches_two_block_formula(self, m, c, corrupt):
        params = ModelParams(m, c, corrupt_omega2=corrupt)
        geom = geometry_at(params, random_valid_point(params, np.random.default_rng(7 * m + 1)))
        expected = form_block(geom)
        expected /= 8.0
        twist = four_products(geom, geom.omega_h, form_obar, form_owedge)
        twist /= 8.0 * geom.f_z * geom.f_h
        expected -= twist
        assert np.array_equal(bits(rtilde_closed(geom)), bits(expected))

    def test_cached_arrays_are_read_only(self):
        flat, values = twist_support(ModelParams(1, 1.0))
        for arr in (flat, values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert twist_support(ModelParams(1, 1.0))[1] is values


def four_products(geom, form, own, turned):
    """own(F, F) + turned(F_k, F_k) for k = 1, 2, 3, summed left to right."""
    block = own(form, form)
    for k in (1, 2, 3):
        f = geom.i_mu[k].T @ form
        block += turned(f, f)
    return block


def block_terms(geom, form, own_bar):
    """The four (alpha, beta, bar) terms of a closed-route block, for reference_sum."""
    turned = [geom.i_mu[k].T @ form for k in (1, 2, 3)]
    return [(form, form, own_bar)] + [(f, f, not own_bar) for f in turned]


def general(product):
    """The product with an equal copy as second factor, so it takes its general path."""
    return lambda alpha, beta: product(alpha, beta.copy())


def point_with_zeros(params, seed):
    """A domain point whose w coordinates, and z_1.. if any, are exact zeros."""
    coords = random_valid_point(params, np.random.default_rng(seed))
    coords[2:] = 0.0
    return coords


class TestFormBlock:
    """One product per block, gathered by the signed permutations I_k: the sum of four products."""

    @pytest.mark.parametrize("m", range(10))
    def test_equals_four_products_bit_for_bit(self, m):
        # d = 4(m+1) = 4..40: rows split into blocks unevenly at several m
        for c in (0.0, 1.0, 100.0):
            for corrupt in (False, True):
                params = ModelParams(m, c, corrupt_omega2=corrupt)
                for coords in (random_valid_point(params, np.random.default_rng(m)),
                               point_with_zeros(params, m)):
                    geom = geometry_at(params, coords)
                    expected = four_products(geom, geom.g_h, form_owedge, form_obar)
                    # uint64 patterns: the sign of every zero matches too
                    assert np.array_equal(bits(form_block(geom)), bits(expected))

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_equals_the_term_by_term_sum(self, m):
        params = ModelParams(m, 1.0)
        for coords in (random_valid_point(params, np.random.default_rng(m)),
                       point_with_zeros(params, m)):
            geom = geometry_at(params, coords)
            expected = reference_sum(block_terms(geom, geom.g_h, False))
            assert np.array_equal(bits(form_block(geom)), bits(expected))

    def test_zero_coordinates_reach_the_block(self):
        # the exact zeros of point_with_zeros give the metric exact zeros, so the
        # signed gathers meet +0.0 rows and could leave -0.0 behind
        params = ModelParams(1, 1.0)
        geom = geometry_at(params, point_with_zeros(params, 1))
        assert (geom.g_h == 0.0).any()
        block = form_block(geom)
        assert (block == 0.0).any() and not np.signbit(block[block == 0.0]).any()


def dense_term_ds(geom):
    """term_ds_closed as a sum of dense einsum outer products: the reference of the support route."""
    d = geom.d
    f_z, f_h = geom.f_z, geom.f_h
    g, i_h, oh, dz, z = geom.g, geom.i_h, geom.omega_h, geom.dz, geom.z_rot
    i1 = geom.i_mu[1]
    ohz = oh.T @ z
    a1 = geom.alpha[1]
    out = np.zeros((d,) * 4)
    for mu in range(4):
        im = geom.i_mu[mu]
        om = geom.omega_mu[mu]
        w = (im @ i_h).T @ g
        v = g @ (im @ (i1 @ z))
        p = (im @ (i1 @ i_h)).T @ g
        im_z = im @ z
        im_dz = im @ dz
        out += 0.5 / f_h ** 2 * (np.einsum("a,bc,i->iabc", ohz, w, im_z)
                                 - np.einsum("b,ac,i->iabc", ohz, w, im_z))
        out += 0.5 / f_z ** 2 * (np.einsum("a,b,ic->iabc", a1, v, im)
                                 + np.einsum("a,c,ib->iabc", a1, v, im)
                                 - np.einsum("b,a,ic->iabc", a1, v, im)
                                 - np.einsum("b,c,ia->iabc", a1, v, im))
        out += 0.5 / f_h * (np.einsum("bc,ia->iabc", w, im_dz)
                            - np.einsum("ac,ib->iabc", w, im_dz))
        out += 0.25 / f_z * (np.einsum("ac,ib->iabc", p + om, im)
                             - np.einsum("bc,ia->iabc", p + om, im)
                             + np.einsum("ab,ic->iabc", om - om.T, im))
    out -= 0.5 / f_z * np.einsum("ab,ic->iabc", oh, i1)
    return out


def dense_term_comm(geom):
    """term_comm_closed as a sum of dense einsum outer products: the reference of the support route."""
    d = geom.d
    f_z, f_h = geom.f_z, geom.f_h
    g, i_h, oh, z = geom.g, geom.i_h, geom.omega_h, geom.z_rot
    i1 = geom.i_mu[1]
    u = [(im @ i_h).T @ (g @ z) for im in geom.i_mu]
    w = [(im @ i_h).T @ g for im in geom.i_mu]
    v = [g @ (im @ (i1 @ z)) for im in geom.i_mu]
    out = np.zeros((d,) * 4)
    for mu in range(4):
        for lam in range(4):
            i_lm = geom.i_mu[lam] @ geom.i_mu[mu]
            i_ml = geom.i_mu[mu] @ geom.i_mu[lam]
            i_lm_z = i_lm @ z
            out += 0.25 / f_h ** 2 * (np.einsum("a,bc,i->iabc", u[mu], w[lam], i_lm_z)
                                      - np.einsum("b,ac,i->iabc", u[mu], w[lam], i_lm_z))
            out += 0.25 / f_z ** 2 * (np.einsum("a,b,ic->iabc", v[mu], v[lam], i_ml)
                                      - np.einsum("b,a,ic->iabc", v[mu], v[lam], i_ml)
                                      + np.einsum("b,c,ia->iabc", v[mu], v[lam], i_lm)
                                      - np.einsum("a,c,ib->iabc", v[mu], v[lam], i_lm))
    for mu in range(4):
        im_i1 = geom.i_mu[mu] @ i1
        out += 0.25 / (f_z * f_h) * (
            2.0 * np.einsum("ab,c,i->iabc", oh, v[mu], geom.i_mu[mu] @ z)
            - geom.g_zz * (np.einsum("bc,ia->iabc", w[mu], im_i1)
                           - np.einsum("ac,ib->iabc", w[mu], im_i1)))
    return out


def support_points(params, seed):
    """A random point, one with exact zeros, one with coordinates near 1e10 and one with f_z
    near the domain edge."""
    rng = np.random.default_rng(seed)
    return {"random": random_valid_point(params, rng), "zeros": point_with_zeros(params, seed),
            "far": 1e10 * random_valid_point(params, rng),
            "edge": point_with_f_z(params, 2.0 * DOMAIN_EPS, rng)}


# every (c, corrupt) pair up to m = 3, each with a point kind in turn; a dense sum takes
# about 0.3 s at m = 5 and 1 s at m = 7
SUPPORT_CASES = [(m, c, corrupt, ("random", "zeros", "far", "edge")[(m + n) % 4])
                 for m in (0, 1, 2, 3)
                 for n, (c, corrupt) in enumerate((c, x) for c in (0.0, 1.0, 1000.0)
                                                  for x in (False, True))]
SUPPORT_CASES += [(5, 1000.0, True, "far"), (7, 0.0, False, "zeros")]


class TestSupportKernels:
    """term_ds_closed and term_comm_closed add each group on its structural support only."""

    @pytest.mark.parametrize("m,c,corrupt,kind", SUPPORT_CASES)
    def test_match_dense_sums_bit_for_bit(self, m, c, corrupt, kind):
        params = ModelParams(m, c, corrupt_omega2=corrupt)
        geom = geometry_at(params, support_points(params, 10 * m + 1)[kind])
        for kernel, dense in ((term_ds_closed, dense_term_ds), (term_comm_closed, dense_term_comm)):
            # uint64 patterns: the sign of every zero matches too
            assert np.array_equal(bits(kernel(geom)), bits(dense(geom))), kernel.__name__

    def test_supports_cover_a_point_with_other_zeros(self):
        # built while the first point, whose w and z_1 are exact zeros, is evaluated
        params = ModelParams(1, 1.0)
        outer_supports.cache_clear()
        for coords in (point_with_zeros(params, 3), random_valid_point(params, np.random.default_rng(3))):
            geom = geometry_at(params, coords)
            assert np.array_equal(bits(term_comm_closed(geom)), bits(dense_term_comm(geom)))
            assert np.array_equal(bits(term_ds_closed(geom)), bits(dense_term_ds(geom)))

    @pytest.mark.parametrize("kernel", [term_comm_closed, term_ds_closed])
    def test_peak_is_below_two_rank4_arrays(self, kernel):
        geom = geometry_at(ModelParams(7, 1.0), random_valid_point(ModelParams(7, 1.0),
                                                                  np.random.default_rng(7)))
        kernel(geom)  # fill the support cache
        tracemalloc.start()
        try:
            kernel(geom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * geom.d ** 4

    def test_cached_supports_are_read_only(self):
        geom = geometry_at(ModelParams(1, 1.0), random_valid_point(ModelParams(1, 1.0),
                                                                  np.random.default_rng(1)))
        term_comm_closed(geom)
        flat, starts, tables = outer_supports(_comm_groups, 1)[0]
        gathers, positions = tables[0][0]
        for arr in (flat, gathers[0], positions):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0
