"""The two algebraic products turning forms into curvature-type tensors.

The first product rearranges a rank-4 tensor so that, fed with two symmetric
bilinear forms, it yields an algebraic curvature tensor. The second adds the
correction terms needed to do the same for a pair of two-forms. Both are
lifted to operators on the exterior square of an orthonormal frame, and the
closed-form trace identities for compositions of such operators are provided
alongside.
"""

from __future__ import annotations

import numpy as np

from .errors import AdjointnessViolated
from .pseudo_linear import quadcov_to_lambda2_op, require_pair_antisymmetry

ADJOINT_TOL = 1e-10
# bytes of output written per block of leading rows: small enough for the block and
# two row buffers to stay in L2 cache (one row at d = 32, eight at d = 16)
BLOCK_BYTES = 256 * 1024


def _form_product(alpha: np.ndarray, beta: np.ndarray, bar: bool) -> np.ndarray:
    """form_obar(alpha, beta) if ``bar``, else form_owedge(alpha, beta).

    A bar product runs its pair guard first (see form_obar). The product is then
    written block by block of leading rows A. Row A reads only row A of P and of
    Q(A,B,C,X) = P(C,X,A,B) = beta(A,B) alpha(C,X), so only those rows are built,
    each entry as one einsum product (which writes +0.0, never -0.0, for a zero
    product); Q's rows are P's if ``beta is alpha``. For such a product that is not
    bar, they are built once in the order the product reads them, as
    alpha(A,C) alpha(B,X) = P(A,C,B,X), whose swap of the last two axes is P(A,X,B,C);
    a bar product also reads P(A,B,C,X) itself, so it keeps P's order. Every entry is
    thus formed from the same products, summed in the same order, as the full-array
    formula, and agrees bit for bit.
    """
    if bar and not ((alpha == -alpha.T).all() and (beta == -beta.T).all()):
        require_pair_antisymmetry(np.einsum("ab,cx->abcx", alpha, beta))
    d = alpha.shape[0]
    out = np.empty((d,) * 4)
    rows = min(d, max(1, BLOCK_BYTES // (8 * d ** 3)))
    p_buf, q_buf = np.empty((2, rows, d, d, d))
    for a0 in range(0, d, rows):
        a1 = min(a0 + rows, d)
        blk = out[a0:a1]
        p = q = p_buf[: a1 - a0]
        if beta is alpha and not bar:
            np.einsum("ac,bx->abcx", alpha[a0:a1], alpha, out=p)
            pc, px = qc, qx = p, p.swapaxes(2, 3)
        else:
            np.einsum("ab,cx->abcx", alpha[a0:a1], beta, out=p)
            if beta is not alpha:
                q = q_buf[: a1 - a0]
                np.einsum("ab,cx->abcx", beta[a0:a1], alpha, out=q)
            pc, px = p.transpose(0, 2, 1, 3), p.transpose(0, 2, 3, 1)
            qc, qx = q.transpose(0, 2, 1, 3), q.transpose(0, 2, 3, 1)
        np.subtract(pc, px, out=blk)
        blk += qc
        blk -= qx
        if bar:
            p *= 2.0
            blk += p
            if q is not p:
                q *= 2.0
            blk += q
    return out


def form_owedge(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """First product of two (0,2)-tensors: with P(A,B,C,X) = alpha(A,B) beta(C,X),
    out(A,B,C,X) = P(A,C,B,X) - P(A,X,B,C) + P(B,X,A,C) - P(B,C,A,X).
    """
    return _form_product(alpha, beta, False)


def form_obar(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Second product of two two-forms: the first product plus
    2 P(A,B,C,X) + 2 P(C,X,A,B), an algebraic curvature tensor.

    Requires P to be antisymmetric in both index pairs
    (``require_pair_antisymmetry``). For exactly skew factors every entry of
    P(A,B,C,X) + P(B,A,C,X) and of P(A,B,C,X) + P(A,B,X,C) is fl(x) + fl(-x) = 0,
    so the check passes and P is built and checked only for other factors.
    """
    return _form_product(alpha, beta, True)


def adjoint_defect(endo: np.ndarray, metric: np.ndarray, *, skew: bool) -> float:
    """Max-norm of B(Ex, y) + B(x, Ey) if ``skew``, else of B(Ex, y) - B(x, Ey).

    Zero for metric-skew E if ``skew``, for metric-self-adjoint E otherwise.
    """
    low = metric @ endo
    return float(np.abs(low + low.T if skew else low - low.T).max())


def _require_adjoint(name: str, endo: np.ndarray, metric: np.ndarray, skew: bool) -> None:
    """Raise unless ``endo`` is metric-skew (or metric-self-adjoint) within ADJOINT_TOL."""
    defect = adjoint_defect(endo, metric, skew=skew)
    if not defect <= ADJOINT_TOL:  # a NaN defect fails too
        kind = "skew-adjointness" if skew else "self-adjointness"
        raise AdjointnessViolated(f"{name} fails {kind} by {defect:.2e}")


def endo_owedge(e: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Operator form of the self-product E . E on an orthonormal frame with the given
    signs: E is lowered once with diag(signs), multiplied with itself, and raised on wedges."""
    low = e.T * signs
    return quadcov_to_lambda2_op(form_owedge(low, low), signs)


def endo_obar(k: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Operator form of the self-product K .bar. K for a skew endomorphism, as endo_owedge."""
    _require_adjoint("K", k, np.diag(signs), skew=True)
    low = k.T * signs
    return quadcov_to_lambda2_op(form_obar(low, low), signs)


def owedge_pair_trace(e: np.ndarray, f: np.ndarray) -> float:
    """tr((E . E) o (F . F)) for the first product: 2 tr(EF)^2 - 2 tr((EF)^2).

    Holds for arbitrary endomorphisms; no adjointness hypothesis is needed.
    """
    ef = e @ f
    t = float(np.trace(ef))
    return 2.0 * t * t - 2.0 * float(np.trace(ef @ ef))


def obar_pair_trace(k: np.ndarray, l: np.ndarray, metric: np.ndarray) -> float:
    """tr((K . K) o (L . L)) for the second product: 6 tr(KL)^2 + 6 tr((KL)^2).

    Requires K and L to be metric-skew.
    """
    _require_adjoint("K", k, metric, skew=True)
    _require_adjoint("L", l, metric, skew=True)
    kl = k @ l
    t = float(np.trace(kl))
    return 6.0 * t * t + 6.0 * float(np.trace(kl @ kl))


def mixed_pair_trace(e: np.ndarray, k: np.ndarray, metric: np.ndarray) -> float:
    """Mixed trace of the two products: 2 tr(EK)^2 - 6 tr((EK)^2).

    Requires E metric-self-adjoint and K metric-skew.
    """
    _require_adjoint("E", e, metric, skew=False)
    _require_adjoint("K", k, metric, skew=True)
    ek = e @ k
    t = float(np.trace(ek))
    return 2.0 * t * t - 6.0 * float(np.trace(ek @ ek))
