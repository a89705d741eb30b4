"""Signature-aware dense linear algebra on a single tangent space.

Everything here is frame-level plumbing: pseudo-orthonormal bases for an
indefinite metric, the algebra of operators on the exterior square of the
tangent space, and central finite differences for fields that depend on a
base point. All values are dense float64 arrays in one fixed coordinate
frame, and all functions are pure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DegenerateMetric, PairAntisymmetryViolated

DEFAULT_FD_STEP = 1e-5
PIVOT_TOL = 1e-10
# allowed pair-antisymmetry defect of a rank-4 input, relative to its magnitude floored at 1
PAIR_ANTISYMMETRY_TOL = 1e-10


def compose_trace(a: np.ndarray, b: np.ndarray) -> float:
    """Trace of the composition of two operators on the same space."""
    return float(np.einsum("ij,ji->", a, b))


def pseudo_gram_schmidt(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted modified Gram-Schmidt with respect to a possibly indefinite metric.

    Starts from the coordinate basis and returns the frame as (vectors, signs):
    ``vectors[a]`` is the a-th frame vector and B(v_a, v_b) = signs[a] * delta_ab,
    each sign +/-1. At each step the remaining candidate with the largest
    |B(v, v)| is taken; a pivot at or below PIVOT_TOL raises DegenerateMetric.
    """
    d = B.shape[0]
    remaining = [np.eye(d)[k] for k in range(d)]

    vectors = np.empty((d, d))
    signs = np.empty(d)
    for slot in range(d):
        norms = np.array([v @ B @ v for v in remaining])
        k = int(np.argmax(np.abs(norms)))
        norm = norms[k]
        if abs(norm) <= PIVOT_TOL:
            raise DegenerateMetric(f"pivot {abs(norm):.2e} at step {slot} "
                                   f"is below threshold {PIVOT_TOL:.2e}")
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


def check_pair_antisymmetry(arr: np.ndarray) -> float:
    """Largest violation of antisymmetry in the (1,2) and (3,4) index pairs."""
    return max(np.abs(arr + arr.transpose(1, 0, 2, 3)).max(),
               np.abs(arr + arr.transpose(0, 1, 3, 2)).max())


def require_pair_antisymmetry(arr: np.ndarray) -> None:
    """Raise unless the defect is within PAIR_ANTISYMMETRY_TOL of the magnitude (floored at 1)."""
    scale = max(1.0, float(np.abs(arr).max()))
    defect = check_pair_antisymmetry(arr)
    if defect > PAIR_ANTISYMMETRY_TOL * scale:
        raise PairAntisymmetryViolated(f"pair antisymmetry defect {defect:.2e} > "
                                       f"{PAIR_ANTISYMMETRY_TOL:.2e} * scale {scale:.2e}")


def quadcov_to_lambda2_op(tensor: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Operator M on the exterior square with <M(A^B), C^X> = T(A, B, C, X).

    ``tensor`` holds components on an orthonormal frame with the given
    ``signs`` (each +/-1), in which the induced inner product on wedges is
    diagonal: <e_a ^ e_b, e_a ^ e_b> = signs[a] * signs[b]. The matrix acts on
    the basis e_a ^ e_b ordered lexicographically over pairs (a, b) with
    a < b, so its size is D = d(d-1)/2. The rank-4 input must be
    antisymmetric in both index pairs (``require_pair_antisymmetry``).
    """
    require_pair_antisymmetry(tensor)
    ii, jj = np.triu_indices(tensor.shape[0], 1)
    T2 = tensor[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
    return (signs[ii] * signs[jj])[:, None] * T2.T


def finite_diff_gradient(field: Callable[[np.ndarray], np.ndarray | float],
                         coords: np.ndarray, *, step: float = DEFAULT_FD_STEP,
                         order: int = 2) -> np.ndarray:
    """Central differences of a field along every coordinate; the derivative index is axis 0.

    The step is scaled per coordinate, h = step * max(1, |coords[k]|).
    The default is the two-point second-order stencil
    (field(p + h e) - field(p - h e)) / (2 h); order=4 selects the five-point
    stencil for fields whose higher derivatives blow up near the domain edge.
    Domain errors raised by ``field`` at the sample points propagate unchanged.
    """
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
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
