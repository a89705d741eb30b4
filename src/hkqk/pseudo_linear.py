"""Signature-aware dense linear algebra on a single tangent space.

Everything here is frame-level plumbing: pseudo-orthonormal bases for an
indefinite metric, the algebra of operators on the exterior square of the
tangent space, and central finite differences for fields that depend on a
base point. All values are dense float64 arrays in one fixed coordinate
frame, and all functions are pure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DegenerateMetric, DomainViolation, PairAntisymmetryViolated

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
    |B(v, v)| is taken; a pivot at or below PIVOT_TOL * max|B_ij| raises DegenerateMetric.
    The candidates are the rows of one array, kept in order so that a tie goes to the
    first; each row's norm and update are the gemv and dot of v @ B @ v and w @ (B v).
    """
    d = B.shape[0]
    scale = _max_abs(B)
    remaining = np.eye(d)

    vectors = np.empty((d, d))
    signs = np.empty(d)
    for slot in range(d):
        norms = np.matmul(np.matmul(remaining[:, None, :], B), remaining[:, :, None])[:, 0, 0]
        k = int(np.argmax(np.abs(norms)))
        norm = norms[k]
        if not abs(norm) > PIVOT_TOL * scale:  # a NaN pivot or scale fails too
            raise DegenerateMetric(f"pivot {abs(norm):.2e} at step {slot} is below threshold "
                                   f"{PIVOT_TOL:.2e} * scale {scale:.2e}")
        v = remaining[k] / np.sqrt(abs(norm))
        sign = 1.0 if norm > 0 else -1.0
        vectors[slot] = v
        signs[slot] = sign
        remaining = np.concatenate((remaining[:k], remaining[k + 1:]))
        dots = np.matmul(remaining[:, None, :], B @ v)[:, 0]
        remaining = remaining - (sign * dots)[:, None] * v

    defect = np.abs(vectors @ B @ vectors.T - np.diag(signs)).max()
    if not defect <= 1e-10:
        raise DegenerateMetric(f"orthonormalization defect {defect:.2e} exceeds 1e-10")
    return vectors, signs


def _max_abs(arr: np.ndarray) -> float:
    """np.abs(arr).max() without the temporary: NaN if any entry is NaN, and 0.0, not -0.0."""
    return max(arr.max(), -arr.min()) + 0.0


def check_pair_antisymmetry(arr: np.ndarray) -> float:
    """Largest violation of antisymmetry in the (1,2) and (3,4) index pairs."""
    buf = np.add(arr, arr.transpose(1, 0, 2, 3))
    first = _max_abs(buf)
    return max(first, _max_abs(np.add(arr, arr.transpose(0, 1, 3, 2), out=buf)))


def require_pair_antisymmetry(arr: np.ndarray) -> None:
    """Raise unless the defect is within PAIR_ANTISYMMETRY_TOL of the magnitude (floored at 1)."""
    scale = max(1.0, float(_max_abs(arr)))
    defect = check_pair_antisymmetry(arr)
    if not defect <= PAIR_ANTISYMMETRY_TOL * scale:  # a NaN defect fails too
        raise PairAntisymmetryViolated(f"pair antisymmetry defect {defect:.2e} > "
                                       f"{PAIR_ANTISYMMETRY_TOL:.2e} * scale {scale:.2e}")


@lru_cache(maxsize=16)
def wedge_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (a, b) over the pairs a < b in lexicographic order: the wedge basis, with
    norms s[a] * s[b] on a frame of signs s, and rows a*d + b of a rank-4 tensor's square view."""
    ii, jj = np.triu_indices(d, 1)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


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
    ii, jj = wedge_pairs(signs.size)
    ab = ii * signs.size + jj
    return (signs[ii] * signs[jj])[:, None] * tensor.reshape(signs.size ** 2, -1)[np.ix_(ab, ab)].T


def finite_diff_gradient(field: Callable[[np.ndarray], np.ndarray | float],
                         coords: np.ndarray, *, step: float = DEFAULT_FD_STEP,
                         order: int = 2, stacked: bool = False) -> np.ndarray:
    """Central differences of a field along every coordinate; the derivative index is axis 0.

    The step is scaled per coordinate, h = step * max(1, |coords[k]|). The default is the
    two-point second-order stencil (field(p + h e) - field(p - h e)) / (2 h); order=4 selects
    the five-point stencil for fields whose higher derivatives blow up near the domain edge.
    The shifted points are the rows of one array, the offsets +2h, +h, -h, -2h outer and k
    inner. A stacked field takes them all in one call and returns a new array, which is then
    the (offset, k, ...) buffer itself; a point-wise field's values are copied into one. The
    formula runs once on it, in place. A DomainViolation at a point is raised again, chained,
    naming k, the offset and h; after a stacked field's, the points are replayed one at a
    time, k outer.
    """
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    coords = np.asarray(coords, dtype=float)
    n, offsets = coords.size, np.array([1.0, -1.0] if order == 2 else [2.0, 1.0, -1.0, -2.0])
    h = step * np.fmax(np.abs(coords), 1.0)
    points = np.tile(coords, (offsets.size, n, 1))  # [j, k]: offsets[j] * h[k] added to coords[k]
    points[:, np.arange(n), np.arange(n)] += offsets[:, None] * h
    try:
        v = field(points.reshape(-1, n)) if stacked else None
    except DomainViolation:
        v = None
    if v is not None:
        v = v.reshape((offsets.size, n) + v.shape[1:])
    for i in range(n * offsets.size) if v is None else ():
        k, j = divmod(i, offsets.size)
        try:
            value = field(points[j, k][None])[0] if stacked else field(points[j, k])
        except DomainViolation as err:
            offset = ("+2h", "+h", "-h", "-2h")[j + (order == 2)]
            raise DomainViolation(f"{err}; at stencil coordinate {k}, offset {offset}, "
                                  f"h = {h[k]:.3e}") from err
        if not i:
            v = np.empty((offsets.size, n) + np.shape(value))
        v[j, k] = value
        del value  # so that the next call runs without it
    out = v[0]
    if order == 2:
        out -= v[1]
    else:  # -a + 8 b - 8 c + e, with 8 b - a the same first sum
        np.subtract(np.multiply(v[1], 8.0, out=v[1]), out, out=out)
        out -= np.multiply(v[2], 8.0, out=v[2])
        out += v[3]
    out /= (2.0 if order == 2 else 12.0) * h.reshape(-1, *(1,) * (v.ndim - 2))
    return out
