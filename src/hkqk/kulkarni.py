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


def kn_owedge(p: np.ndarray) -> np.ndarray:
    """First product: out(A,B,C,X) = P(A,C,B,X) - P(A,X,B,C) + P(B,X,A,C) - P(B,C,A,X)."""
    return (np.einsum("acbx->abcx", p) - np.einsum("axbc->abcx", p)
            + np.einsum("bxac->abcx", p) - np.einsum("bcax->abcx", p))


def form_owedge(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """First product of two (0,2)-tensors, via their outer product."""
    return kn_owedge(np.einsum("ab,cx->abcx", alpha, beta))


def form_obar(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Second product of two two-forms: the first product of their outer product
    P plus 2 P(A,B,C,X) + 2 P(C,X,A,B), an algebraic curvature tensor.

    Requires P to be antisymmetric in both index pairs
    (``require_pair_antisymmetry``).
    """
    p = np.einsum("ab,cx->abcx", alpha, beta)
    require_pair_antisymmetry(p)
    return kn_owedge(p) + 2.0 * p + 2.0 * np.einsum("cxab->abcx", p)


def adjoint_defect(endo: np.ndarray, metric: np.ndarray, *, skew: bool) -> float:
    """Max-norm of B(Ex, y) + B(x, Ey) if ``skew``, else of B(Ex, y) - B(x, Ey).

    Zero for metric-skew E if ``skew``, for metric-self-adjoint E otherwise.
    """
    low = metric @ endo
    return float(np.abs(low + low.T if skew else low - low.T).max())


def _require_adjoint(name: str, endo: np.ndarray, metric: np.ndarray, skew: bool) -> None:
    """Raise unless ``endo`` is metric-skew (or metric-self-adjoint) within ADJOINT_TOL."""
    defect = adjoint_defect(endo, metric, skew=skew)
    if defect > ADJOINT_TOL:
        kind = "skew-adjointness" if skew else "self-adjointness"
        raise AdjointnessViolated(f"{name} fails {kind} by {defect:.2e}")


def endo_owedge(e: np.ndarray, f: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Operator form of the first product on an orthonormal frame with the given signs.

    Both endomorphisms are lowered with diag(signs), multiplied, and raised on wedges.
    """
    return quadcov_to_lambda2_op(form_owedge(e.T * signs, f.T * signs), signs)


def endo_obar(k: np.ndarray, l: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Operator form of the second product for two skew endomorphisms, as endo_owedge."""
    metric = np.diag(signs)
    _require_adjoint("first argument", k, metric, skew=True)
    _require_adjoint("second argument", l, metric, skew=True)
    return quadcov_to_lambda2_op(form_obar(k.T * signs, l.T * signs), signs)


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
