"""Connection correction and curvature of the deformed metric, two ways each.

The correction S measures how the Levi-Civita connection of the deformed
metric, adjusted by the twist, differs from the flat derivative D. It is
computed along two independent routes: a closed algebraic formula, and the
sum of two Koszul-type pieces, one of which differentiates the deformed
metric by finite differences. The curvature tensor built from S likewise has
a defining route (differentiate S, commutators, twist term) and a closed
route (a sum of form products). Agreement of the routes at sampled points is
the module's central cross-check; all functions are pure in the snapshot.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .flat_model import (GeometryAt, ModelParams, constant_tensors,
                         deformed_metric, geometry_at, sum_outer_groups)
from .kulkarni import BLOCK_BYTES, form_obar, form_owedge
from .pseudo_linear import DEFAULT_FD_STEP, finite_diff_gradient, require_pair_antisymmetry


def s_closed_tensor(geom: GeometryAt) -> np.ndarray:
    """Closed formula for the correction, as arr[..., i, a, b] = (S_{e_a} e_b)_i:

    S_A B = 1/2 sum_mu [ g(I_mu I_h A, B) I_mu Z / f_h
                         - (alpha_mu(A) I_mu I_1 B + alpha_mu(B) I_mu I_1 A) / f_z ]

    with the leading axis of a stacked snapshot; z @ I_mu.T rounds as I_mu @ z (signed permutations).
    """
    d = geom.d
    g, i_h, z = geom.g, geom.i_h, geom.z_rot
    f_z, f_h = geom.f_z[..., None, None, None], geom.f_h[..., None, None, None]
    i1 = geom.i_mu[1]
    s = np.zeros(z.shape[:-1] + (d, d, d))
    for im, alpha in zip(geom.i_mu, np.moveaxis(geom.alpha, -2, 0)):
        coeff = (im @ i_h).T @ g      # g(I_mu I_h A, B)
        im_i1 = im @ i1
        s += 0.5 / f_h * np.einsum("ab,...i->...iab", coeff, z @ im.T)
        s -= 0.5 / f_z * (np.einsum("...a,ib->...iab", alpha, im_i1)
                          + np.einsum("...b,ia->...iab", alpha, im_i1))
    return s


def _solve_koszul(g_h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve 2 g_h(S_a b, .) = rhs[..., a, b, .] for all slots and stacked points at once."""
    d = g_h.shape[-1]
    flat = np.moveaxis(rhs, -1, -3).reshape(rhs.shape[:-3] + (d, d * d))
    return 0.5 * np.linalg.solve(g_h, flat).reshape(rhs.shape)


def s_h_tensor(geom: GeometryAt, *, step: float = DEFAULT_FD_STEP,
               metric: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """Deformation part of the correction, from the Koszul cyclic sum.

    2 g_h(S^h_A B, C) = (D_A g_h)(B, C) + (D_B g_h)(C, A) - (D_C g_h)(A, B),
    with the metric derivative taken by central finite differences. The
    five-point stencil is used: the metric's third derivatives grow as inverse
    powers of f_z, and near the domain edge the three-point stencil cannot
    reach the relative accuracy this route is held to. ``metric`` gives g_h at
    a stack of stencil points, the whole stencil in one call; by default each
    point is one deformed_metric call. A stacked snapshot takes one stencil per
    point and one batched solve.
    """
    params, d = geom.params, geom.d
    field = metric or (lambda c: deformed_metric(params, c))
    d_gh = np.empty(geom.coords.shape[:-1] + (d,) * 3)
    for centre, out in zip(geom.coords.reshape(-1, d), d_gh.reshape(-1, d, d, d)):
        out[...] = finite_diff_gradient(field, centre, step=step, order=4,
                                        stacked=metric is not None)
    rhs = d_gh + np.einsum("...bca->...abc", d_gh) - np.einsum("...cab->...abc", d_gh)
    return _solve_koszul(geom.g_h, rhs)


def s_q_tensor(geom: GeometryAt) -> np.ndarray:
    """Twist part of the correction, from the Koszul formula across the twist:

    2 g_h(S^q_A B, C) = [g_h(Z,C) w_h(A,B) - g_h(Z,A) w_h(B,C) - g_h(Z,B) w_h(A,C)] / f_h
    """
    gz = np.matmul(geom.g_h, geom.z_rot[..., None])[..., 0]
    oh = geom.omega_h
    rhs = (np.einsum("...c,ab->...abc", gz, oh) - np.einsum("...a,bc->...abc", gz, oh)
           - np.einsum("...b,ac->...abc", gz, oh)) / geom.f_h[..., None, None, None]
    return _solve_koszul(geom.g_h, rhs)


def s_parts_tensor(geom: GeometryAt, *, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Correction as the sum of the deformation and twist Koszul pieces."""
    return s_h_tensor(geom, step=step) + s_q_tensor(geom)


def term_ds_closed(geom: GeometryAt) -> np.ndarray:
    """Closed expression for the antisymmetrized derivative (D_A S)_B C - (D_B S)_A C.

    Returned as arr[i, a, b, c]. The curvature of the undeformed metric would
    enter one term; the family is flat, so that term is absent.
    """
    return sum_outer_groups(geom, _ds_groups)


def _ds_groups(geom, z, f_z, f_h, g_zz):
    """Groups of term_ds_closed; every operand entry is one signed coordinate or constant, exact."""
    g, i_h, oh, dz = geom.g, geom.i_h, geom.omega_h, geom.dz
    im, om = np.stack(geom.i_mu), np.stack(geom.omega_mu)
    i1 = geom.i_mu[1]
    ohz = oh.T @ z                             # omega_h(Z, a)
    a1 = geom.omega_mu[1].T @ z                # alpha_1
    w = np.swapaxes(im @ i_h, 1, 2) @ g        # [mu] omega_mu(I_h b, c)
    v = im @ (i1 @ z) @ g                      # [mu] g(I_mu I_1 Z, a)
    p_om = np.swapaxes(im @ (i1 @ i_h), 1, 2) @ g + om
    im_z, im_dz = im @ z, im @ dz
    yield "m", (
        (lambda t: 0.5 / f_h ** 2 * (t[0] - t[1]), (("a,mbc,mi", ohz, w, im_z),
                                                    ("b,mac,mi", ohz, w, im_z))),
        (lambda t: 0.5 / f_z ** 2 * (t[0] + t[1] - t[2] - t[3]), (
            ("a,mb,mic", a1, v, im), ("a,mc,mib", a1, v, im), ("b,ma,mic", a1, v, im),
            ("b,mc,mia", a1, v, im))),
        (lambda t: 0.5 / f_h * (t[0] - t[1]), (("mbc,mia", w, im_dz), ("mac,mib", w, im_dz))),
        (lambda t: 0.25 / f_z * (t[0] - t[1] + t[2]), (
            ("mac,mib", p_om, im), ("mbc,mia", p_om, im),
            ("mab,mic", om - np.swapaxes(om, 1, 2), im))))
    yield "", ((lambda t: -(0.5 / f_z * t[0]), (("ab,ic", oh, i1),)),)


def term_comm_closed(geom: GeometryAt) -> np.ndarray:
    """Closed expression for the commutator [S_A, S_B] C, as arr[i, a, b, c]."""
    return sum_outer_groups(geom, _comm_groups)


def _comm_groups(geom, z, f_z, f_h, g_zz):
    """Groups of term_comm_closed; every operand entry is one signed coordinate or constant, exact."""
    g, i_h, oh = geom.g, geom.i_h, geom.omega_h
    im = np.stack(geom.i_mu)
    i1 = geom.i_mu[1]
    w = np.swapaxes(im @ i_h, 1, 2) @ g        # [mu] g(I_mu I_h b, c)
    u = w @ z                                  # [mu] g(I_mu I_h a, Z)
    v = im @ (i1 @ z) @ g                      # [mu] g(I_mu I_1 Z, a)
    i_lm = im[None] @ im[:, None]              # [mu, lam] I_lam I_mu
    i_ml = np.swapaxes(i_lm, 0, 1)             # [mu, lam] I_mu I_lam
    i_lm_z = i_lm @ z
    yield "ml", (
        (lambda t: 0.25 / f_h ** 2 * (t[0] - t[1]), (("ma,lbc,mli", u, w, i_lm_z),
                                                     ("mb,lac,mli", u, w, i_lm_z))),
        (lambda t: 0.25 / f_z ** 2 * (t[0] - t[1] + t[2] - t[3]), (
            ("ma,lb,mlic", v, v, i_ml), ("mb,la,mlic", v, v, i_ml),
            ("mb,lc,mlia", v, v, i_lm), ("ma,lc,mlib", v, v, i_lm))))
    im_i1 = im @ i1
    yield "m", ((lambda t: 0.25 / (f_z * f_h) * (2.0 * t[0] - g_zz * (t[1] - t[2])), (
        ("ab,mc,mi", oh, v, im @ z), ("mbc,mia", w, im_i1), ("mac,mib", w, im_i1))),)


def dz_plus_sz_closed(geom: GeometryAt) -> np.ndarray:
    """Closed expression for the combined field A -> D_A Z + S_Z A, as a matrix:

    1/2 (I_h - (f_h/f_z) I_1) + 1/2 sum_mu I_mu Z (x) [g(I_mu I_h Z, .)/f_h + g(I_mu I_1 Z, .)/f_z]
    """
    g, i_h, z = geom.g, geom.i_h, geom.z_rot
    i1 = geom.i_mu[1]
    out = 0.5 * (i_h - (geom.f_h / geom.f_z) * i1)
    for mu in range(4):
        im = geom.i_mu[mu]
        cov = g @ (im @ (i_h @ z)) / geom.f_h + g @ (im @ (i1 @ z)) / geom.f_z
        out = out + 0.5 * np.outer(im @ z, cov)
    return out


def term_ds_fd(geom: GeometryAt, correction: Callable[[GeometryAt], np.ndarray], *,
               step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Defining evaluation of (D_A S)_B C - (D_B S)_A C by differentiating S = correction(snapshot).

    The stencil's points are evaluated as stacked snapshots, in blocks of rows whose values
    fill at most BLOCK_BYTES, each block written into the stencil's buffer."""
    params, d = geom.params, geom.d
    rows = max(1, BLOCK_BYTES // (8 * d ** 3))

    def field(points):
        values = np.empty((len(points),) + (d,) * 3)
        for r0 in range(0, len(points), rows):
            values[r0:r0 + rows] = correction(geometry_at(params, points[r0:r0 + rows]))
        return values

    d_s = finite_diff_gradient(field, geom.coords, step=step, stacked=True)
    return np.einsum("aibc->iabc", d_s) - np.einsum("biac->iabc", d_s)


def t_tensor_defining(geom: GeometryAt, *, step: float = DEFAULT_FD_STEP,
                      s_h: np.ndarray | None = None) -> np.ndarray:
    """Twist-corrected curvature contribution from the defining expression:

    T(A,B)C = (D_A S)_B C - (D_B S)_A C + [S_A, S_B] C
              - w_h(A,B) (D_C Z + S_Z C) / f_h

    as arr[i, a, b, c], with S from the Koszul pieces and its derivative taken by
    finite differences over stacked snapshots; each inner Koszul stencil is one stacked
    deformed_metric call. ``s_h`` is the Koszul S^h at the centre, where the caller has it.
    """
    metric = partial(deformed_metric, geom.params)
    s_h = s_h_tensor(geom, step=step, metric=metric) if s_h is None else s_h
    ds = term_ds_fd(geom, lambda at: s_h_tensor(at, step=step, metric=metric) + s_q_tensor(at),
                    step=step)
    return t_from_parts(geom, s_h + s_q_tensor(geom), ds)


def t_from_parts(geom: GeometryAt, s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Assemble T from the correction S and its antisymmetrized derivative ds."""
    comm = (np.einsum("iaj,jbc->iabc", s, s) - np.einsum("ibj,jac->iabc", s, s))
    dzsz = geom.dz + np.einsum("iac,a->ic", s, geom.z_rot)
    return ds + comm - np.einsum("ab,ic->iabc", geom.omega_h, dzsz) / geom.f_h


def form_block(geom: GeometryAt) -> np.ndarray:
    """Metric block g_h . g_h + sum_k G_k .bar. G_k of rtilde_closed, G_k = g_h(I_k ., .),
    with . the symmetric-form product (form_owedge) and .bar. the two-form one (form_obar).

    As I_k is a signed permutation, (G_k . G_k)(A,B,C,X) = eps(A) eps(B) W(sigma A, sigma B, C, X)
    exactly, W = g_h . g_h. So each turned term is gathered from W, adds its row of
    2 G_k (x) G_k twice after form_obar's pair guard, and the terms are summed left to right.
    A gathered -0.0 turns +0.0 at the next addition: for finite g_h the block is the sum of
    the four products, bit for bit."""
    d = geom.d
    w = form_owedge(geom.g_h, geom.g_h).reshape(d * d, -1)
    turned_forms = [geom.i_mu[k].T @ geom.g_h for k in (1, 2, 3)]
    for f in turned_forms:
        if not (f == -f.T).all():
            require_pair_antisymmetry(np.einsum("ab,cx->abcx", f, f))
    # row A*d + B of a turned term is row sigma(A)*d + sigma(B) of W, negated if eps(A) eps(B) < 0;
    # take's mode="clip" skips a buffered bounds check, and every index is in range
    gathers = [((perm[:, None] * d + perm).ravel(), np.outer(sign, sign).reshape(-1, 1) < 0.0)
               for perm, sign in zip(geom.i_perm[1:], geom.i_sign[1:])]
    out = np.empty_like(w)  # turned terms read only W
    rows = d * min(d, max(1, BLOCK_BYTES // (8 * d ** 3)))
    t_buf, p_buf = np.empty((2, rows, d * d))
    for r0 in range(0, d * d, rows):
        r1 = min(r0 + rows, d * d)
        t, p = t_buf[: r1 - r0], p_buf[: r1 - r0]
        for n, (f, (index, flip)) in enumerate(zip(turned_forms, gathers)):
            np.take(w, index[r0:r1], axis=0, out=t, mode="clip")
            np.negative(t, out=t, where=flip[r0:r1])
            np.einsum("ab,cx->abcx", f[r0 // d:r1 // d], f, out=p.reshape(-1, d, d, d))
            p *= 2.0
            t += p
            t += p
            np.add(out[r0:r1] if n else w[r0:r1], t, out=out[r0:r1])
    return out.reshape((d,) * 4)


# keyed on the whole of params, like constant_tensors; an entry holds 135 kB at m = 7
@lru_cache(maxsize=64)
def twist_support(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (flat indices, values) of the support of the twist-form block
    w_h .bar. w_h + sum_k w_h(I_k.,.) . w_h(I_k.,.), which needs only the constant
    tensors. Its values are integers, exact in any order of summation, and it is +0.0
    off the support, so scattering the values into a zero array restores it bit for bit.
    """
    consts = constant_tensors(params)
    block = form_obar(consts.omega_h, consts.omega_h)
    for k in (1, 2, 3):
        turned = consts.i_mu[k].T @ consts.omega_h
        block += form_owedge(turned, turned)
    flat = np.flatnonzero(block)
    values = block.reshape(-1)[flat]
    flat.flags.writeable = values.flags.writeable = False
    return flat, values


def rtilde_closed(geom: GeometryAt) -> np.ndarray:
    """Closed route for the lowered curvature of the twisted deformation:

    1/8 [g_h . g_h + sum_k g_h(I_k.,.) .bar. g_h(I_k.,.)]
      - 1/(8 f_z f_h) [w_h .bar. w_h + sum_k w_h(I_k.,.) . w_h(I_k.,.)]

    where . is the symmetric-form product and .bar. the two-form product. The
    general formula has a further term g(R(A,B)C, X)/f_z, which vanishes
    because the undeformed metric is flat.

    The twist block is subtracted on its support only, bit for bit: off it the term
    is -0.0, which changes only a -0.0, and the metric block holds no -0.0 (see form_block).
    """
    flat, values = twist_support(geom.params)  # first: a cold cache builds while no block is held
    rt = form_block(geom)
    rt /= 8.0
    rt.reshape(-1)[flat] -= values / (8.0 * geom.f_z * geom.f_h)
    return rt


def rtilde_direct(geom: GeometryAt, *, step: float = DEFAULT_FD_STEP,
                  s_h: np.ndarray | None = None) -> np.ndarray:
    """Defining route: lower T with the deformed metric (R + T with R = 0).

    The correction itself comes from the Koszul pieces, so this path shares
    nothing with the closed formulas it is checked against.
    """
    t13 = t_tensor_defining(geom, step=step, s_h=s_h)
    return np.einsum("iabc,ix->abcx", t13, geom.g_h)
