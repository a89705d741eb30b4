"""Curvature invariants: operator norm, scalar curvature, and the split.

Works on the lowered curvature tensor produced by the correspondence module.
The tensor is pushed into an orthonormal frame of the deformed metric, read
as a self-adjoint operator on the exterior square, and its squared norm is
compared against the closed expression in q, f_z and f_h. The same frame
yields the scalar curvature, and the tensor splits into the constant-norm
model part plus a remainder that must commute with the three complex
structures.
"""

from __future__ import annotations

import numpy as np

from .correspondence import form_block, rtilde_closed
from .errors import DomainViolation
from .flat_model import GeometryAt
from .kulkarni import form_obar, form_owedge
from .pseudo_linear import compose_trace, pseudo_gram_schmidt, quadcov_to_lambda2_op

# powers p = 0..K_TRACE_MAX_EXPONENT of the comparison endomorphism are traced
K_TRACE_MAX_EXPONENT = 6
# random unit pairs (A, B) drawn by the commutation check of the remainder
HK_TRIALS = 50
# weight of the model tensor in the split of the curvature (reduced scalar curvature)
SPLIT_NU = -1.0


def quadcov_in_frame(tensor: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Components of a rank-4 tensor on the frame vectors."""
    v = vectors
    return np.einsum("abcx,pa,qb,rc,sx->pqrs", tensor, v, v, v, v, optimize=True)


def curvature_operator(in_frame: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The curvature tensor as an operator on the exterior square.

    Takes the tensor's components ``in_frame`` on an orthonormal frame of the
    deformed metric with the given signs, so the matrix of a tensor with pair
    symmetry is symmetric. The change of frame is a linear map, so the
    components are projected back onto their antisymmetric part, discarding
    pure roundoff from the contraction.
    """
    in_frame = 0.5 * (in_frame - in_frame.transpose(1, 0, 2, 3))
    in_frame = 0.5 * (in_frame - in_frame.transpose(0, 1, 3, 2))
    return quadcov_to_lambda2_op(in_frame, signs)


def curvature_norm_frame(geom: GeometryAt, rtilde: np.ndarray) -> float:
    """Squared operator norm: the trace of the squared curvature operator."""
    vectors, signs = pseudo_gram_schmidt(geom.g_h)
    op = curvature_operator(quadcov_in_frame(rtilde, vectors), signs)
    return compose_trace(op, op)


def curvature_norm_closed(q: int, f_z: float, f_h: float) -> float:
    """Closed expression for the squared curvature norm of the family member q:

    q(5q+1) + 3 (t^3 + (q-1) t)^2 + 3 (t^6 + (q-1) t^2),  t = f_z / f_h.
    """
    if int(q) != q or q < 1:
        raise ValueError(f"quaternionic dimension q must be a positive integer, got {q}")
    if f_z <= 0.0 or f_h >= 0.0:
        raise DomainViolation(f"need f_z > 0 > f_h, got f_z = {f_z}, f_h = {f_h}")
    t = f_z / f_h
    n = int(q)
    return float(n * (5 * n + 1)
                 + 3.0 * (t ** 3 + (n - 1) * t) ** 2
                 + 3.0 * (t ** 6 + (n - 1) * t ** 2))


def trace_k_powers(geom: GeometryAt, exponent: int) -> float:
    """Closed trace of a power of the metric-comparison endomorphism:

    tr(K^p) = 4 [(q-1) f_z^p + f_z^(2p) / f_h^p].
    """
    if int(exponent) != exponent or exponent < 0:
        raise ValueError(f"exponent must be a non-negative integer, got {exponent}")
    p = int(exponent)
    return float(4.0 * ((geom.q - 1) * geom.f_z ** p + geom.f_z ** (2 * p) / geom.f_h ** p))


def k_trace_residuals(geom: GeometryAt) -> dict[str, float]:
    """Agreement of the closed traces with the explicit matrix, and the vanishing traces.

    Returns the worst relative defect of tr(K^p) over p = 0..K_TRACE_MAX_EXPONENT and
    the largest magnitude among tr(K^p I_k), tr(K^p I_h), tr(K^p I_h I_k).
    """
    k = geom.k_compare
    i_h = geom.i_h
    iks = [geom.i_mu[j] for j in (1, 2, 3)]
    power = np.eye(geom.d)
    worst_rel = 0.0
    worst_vanish = 0.0
    for p in range(K_TRACE_MAX_EXPONENT + 1):
        closed = trace_k_powers(geom, p)
        # the closed value crosses zero (odd powers at c = 0, q = 2); floor the scale
        worst_rel = max(worst_rel, abs(np.trace(power) - closed) / max(1.0, abs(closed)))
        worst_vanish = max(
            worst_vanish,
            max(abs(np.trace(power @ ik)) for ik in iks),
            abs(np.trace(power @ i_h)),
            max(abs(np.trace(power @ i_h @ ik)) for ik in iks),
        )
        power = power @ k
    return {"k_trace_closed_vs_matrix_rel": worst_rel, "k_trace_vanishing_abs": worst_vanish}


def alekseevsky_split(geom: GeometryAt, rtilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the curvature as SPLIT_NU * r0 + r1 and return (r0, r1).

    r0 is the constant-curvature model tensor
    -1/8 [g_h . g_h + sum_k g_h(I_k.,.) .bar. g_h(I_k.,.)]. The remainder r1,
    raised to an endomorphism in its first two slots, commutes with each
    complex structure; see hk_type_residual for the check.
    """
    r0 = -form_block(geom, geom.g_h, form_owedge, form_obar) / 8.0
    return r0, rtilde - SPLIT_NU * r0


def hk_type_residual(geom: GeometryAt, r1: np.ndarray, rng: np.random.Generator) -> float:
    """Largest commutator entry of the raised remainder with the complex structures.

    Draws HK_TRIALS random unit pairs (A, B), raises r1(A, B, ., .) to an
    endomorphism with the deformed metric, and returns max over trials and k
    of |[r1(A,B), I_k]| entries.
    """
    gh_inv = np.linalg.inv(geom.g_h)
    worst = 0.0
    for _ in range(HK_TRIALS):
        a = rng.standard_normal(geom.d)
        b = rng.standard_normal(geom.d)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        lowered = np.einsum("abcx,a,b->cx", r1, a, b)
        endo = gh_inv @ lowered.T
        for j in (1, 2, 3):
            ik = geom.i_mu[j]
            worst = max(worst, float(np.abs(endo @ ik - ik @ endo).max()))
    return worst


def invariance_residual(geom: GeometryAt) -> float:
    """Invariance of the twist-form block under substituting I_j into its last slots.

    The combination w_h .bar. w_h + sum_k w_h(I_k.,.) . w_h(I_k.,.) must return
    the same values at (A, B, I_j C, I_j X) as at (A, B, C, X).
    """
    block = form_block(geom, geom.omega_h, form_obar, form_owedge)
    worst = 0.0
    for j in (1, 2, 3):
        ij = geom.i_mu[j]
        twisted = np.einsum("abcx,cp,xq->abpq", block, ij, ij)
        worst = max(worst, float(np.abs(twisted - block).max()))
    return worst


def scalar_curvature(in_frame: np.ndarray, signs: np.ndarray) -> float:
    """Scalar curvature by sign-weighted contraction of the lowered tensor's frame components."""
    ricci = np.einsum("a,abca->bc", signs, in_frame)
    return float(np.einsum("b,bb->", signs, ricci))


def norm_report(geom: GeometryAt, rtilde: np.ndarray | None = None,
                *, hk_seed: int = 0) -> tuple[dict, np.ndarray]:
    """Evaluate both norm routes, the scalar curvature (on the same frame), and the split checks.

    Returns the report that ``hkqk norm`` prints, with its cross-check residuals,
    and the curvature operator.
    """
    rt = rtilde if rtilde is not None else rtilde_closed(geom)
    vectors, signs = pseudo_gram_schmidt(geom.g_h)
    in_frame = quadcov_in_frame(rt, vectors)
    op = curvature_operator(in_frame, signs)
    frame_norm = compose_trace(op, op)
    closed_norm = curvature_norm_closed(geom.q, geom.f_z, geom.f_h)
    scal = scalar_curvature(in_frame, signs)
    q = geom.q
    _, r1 = alekseevsky_split(geom, rt)
    rng = np.random.default_rng(hk_seed)
    residuals = {
        "norm_frame_vs_closed_rel": abs(frame_norm - closed_norm) / abs(closed_norm),
        "scal_vs_expected_rel": abs(scal + 4.0 * q * (q + 2)) / (4.0 * q * (q + 2)),
        "hk_type_commutator": hk_type_residual(geom, r1, rng),
        "split_invariance": invariance_residual(geom),
    }
    report = {"f_z": geom.f_z, "f_h": geom.f_h, "rho": 2.0 * geom.f_z,
              "norm_frame": frame_norm, "norm_closed": closed_norm,
              "scal": scal, "nu": scal / (4.0 * q * (q + 2)),
              "residuals": residuals}
    return report, op
