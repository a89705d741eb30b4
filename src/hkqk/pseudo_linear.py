"""Signature-aware dense linear algebra on a single tangent space.

Everything here is frame-level plumbing: pseudo-orthonormal bases for an
indefinite metric, the algebra of operators on the exterior square of the
tangent space, and central finite differences for fields that depend on a
base point. All values are dense float64 arrays in one fixed coordinate
frame, and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DegenerateMetric, PairAntisymmetryViolated

Symmetry = Literal["symmetric", "antisymmetric", "none"]

DEFAULT_FD_STEP = 1e-5
PIVOT_TOL = 1e-10


def _as_square(mat, what: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Endomorphism:
    """A (1,1)-tensor at a point, stored as a d x d matrix in the fixed frame."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_square(self.mat, "Endomorphism"))

    @property
    def d(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class BilinearForm:
    """A (0,2)-tensor at a point, with an explicit symmetry tag.

    Tagged forms must satisfy their symmetry entrywise exactly; they are meant
    to be produced by constructions that guarantee it (diagonal metrics, sums
    of outer products, explicit antisymmetrization).
    """

    mat: np.ndarray
    symmetry: Symmetry = "none"

    def __post_init__(self):
        mat = _as_square(self.mat, "BilinearForm")
        if self.symmetry == "symmetric" and not np.array_equal(mat, mat.T):
            raise ValueError("form tagged symmetric is not exactly symmetric")
        if self.symmetry == "antisymmetric" and not np.array_equal(mat, -mat.T):
            raise ValueError("form tagged antisymmetric is not exactly antisymmetric")
        object.__setattr__(self, "mat", mat)

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.mat @ y)

    @classmethod
    def symmetric(cls, mat) -> "BilinearForm":
        return cls(mat, "symmetric")

    @classmethod
    def antisymmetric(cls, mat) -> "BilinearForm":
        return cls(mat, "antisymmetric")


@dataclass(frozen=True)
class Frame:
    """A basis of the tangent space together with its metric signs.

    ``vectors[a]`` is the a-th frame vector; ``signs[a]`` is the value of the
    defining metric on it, so the Gram matrix equals diag(signs).
    """

    vectors: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _as_square(self.vectors, "Frame.vectors"))
        signs = np.asarray(self.signs, dtype=float)
        if signs.shape != (self.vectors.shape[0],) or not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be a vector of +/-1, one per frame vector")
        object.__setattr__(self, "signs", signs)

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    def gram(self, metric: BilinearForm) -> np.ndarray:
        return self.vectors @ metric.mat @ self.vectors.T


@dataclass(frozen=True)
class QuadCov:
    """A rank-4 covariant tensor, stored densely as a d^4 array."""

    arr: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.arr, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise ValueError(f"QuadCov must have shape (d,d,d,d), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("QuadCov contains non-finite entries")
        object.__setattr__(self, "arr", arr)

    @property
    def d(self) -> int:
        return self.arr.shape[0]

    @classmethod
    def zero(cls, d: int) -> "QuadCov":
        return cls(np.zeros((d, d, d, d)))


@dataclass(frozen=True)
class Lambda2Operator:
    """An operator on the exterior square of the tangent space.

    The matrix acts on the basis e_a ^ e_b ordered lexicographically over
    pairs (a, b) with a < b, so its size is D = d(d-1)/2.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _as_square(self.mat, "Lambda2Operator")
        D = mat.shape[0]
        d = round((1 + np.sqrt(1 + 8 * D)) / 2)
        if d * (d - 1) // 2 != D:
            raise ValueError(f"size {D} is not d(d-1)/2 for any integer d")
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def compose_trace(self, other: "Lambda2Operator") -> float:
        """Trace of the composition with another operator on the same space."""
        return float(np.einsum("ij,ji->", self.mat, other.mat))


def lambda2_pairs(d: int) -> list[tuple[int, int]]:
    """Lexicographic index pairs (a, b), a < b, ordering the wedge basis."""
    return [(a, b) for a in range(d) for b in range(a + 1, d)]


def lambda2_gram(metric: BilinearForm) -> np.ndarray:
    """Induced inner product <A^B, C^X> = B(A,C)B(B,X) - B(A,X)B(B,C) on pairs."""
    B = metric.mat
    ii, jj = np.triu_indices(metric.d, 1)
    return (B[np.ix_(ii, ii)] * B[np.ix_(jj, jj)]
            - B[np.ix_(ii, jj)] * B[np.ix_(jj, ii)])


def _require_nondegenerate(mat: np.ndarray, what: str, rtol: float = 1e-12) -> None:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= rtol * sv[0]:
        raise DegenerateMetric(f"{what} is numerically singular "
                               f"(smallest/largest singular value = {sv[-1] / sv[0]:.2e})")


def pseudo_gram_schmidt(metric: BilinearForm, *, pivot_tol: float = PIVOT_TOL) -> Frame:
    """Pivoted modified Gram-Schmidt with respect to a possibly indefinite metric.

    Starts from the coordinate basis and produces a frame with
    B(v_a, v_b) = signs[a] * delta_ab. At each step the remaining candidate
    with the largest |B(v, v)| is taken; a pivot at or below ``pivot_tol``
    raises DegenerateMetric.
    """
    B = metric.mat
    d = metric.d
    remaining = [np.eye(d)[k] for k in range(d)]

    vectors = np.empty((d, d))
    signs = np.empty(d)
    for slot in range(d):
        norms = np.array([v @ B @ v for v in remaining])
        k = int(np.argmax(np.abs(norms)))
        norm = norms[k]
        if abs(norm) <= pivot_tol:
            raise DegenerateMetric(f"pivot {abs(norm):.2e} at step {slot} "
                                   f"is below threshold {pivot_tol:.2e}")
        v = remaining.pop(k) / np.sqrt(abs(norm))
        sign = 1.0 if norm > 0 else -1.0
        vectors[slot] = v
        signs[slot] = sign
        Bv = B @ v
        remaining = [w - sign * (w @ Bv) * v for w in remaining]

    frame = Frame(vectors, signs)
    defect = np.abs(frame.gram(metric) - np.diag(signs)).max()
    if defect > 1e-10:
        raise DegenerateMetric(f"orthonormalization defect {defect:.2e} exceeds 1e-10")
    return frame


def check_pair_antisymmetry(arr: np.ndarray) -> float:
    """Largest violation of antisymmetry in the (1,2) and (3,4) index pairs."""
    return max(np.abs(arr + arr.transpose(1, 0, 2, 3)).max(),
               np.abs(arr + arr.transpose(0, 1, 3, 2)).max())


def quadcov_to_lambda2_op(tensor: QuadCov, metric: BilinearForm,
                          *, tol: float = 1e-10) -> Lambda2Operator:
    """Operator M on the exterior square with <M(A^B), C^X> = T(A, B, C, X).

    The inner product on wedges is the one induced by ``metric``; the input
    must be antisymmetric in both index pairs, within ``tol`` relative to the
    tensor's magnitude (floored at 1).
    """
    scale = max(1.0, float(np.abs(tensor.arr).max()))
    defect = check_pair_antisymmetry(tensor.arr)
    if defect > tol * scale:
        raise PairAntisymmetryViolated(
            f"pair antisymmetry defect {defect:.2e} > {tol:.2e} * scale {scale:.2e}")
    _require_nondegenerate(metric.mat, "metric")
    d = tensor.d
    ii, jj = np.triu_indices(d, 1)
    T2 = tensor.arr[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
    G2 = lambda2_gram(metric)
    return Lambda2Operator(np.linalg.solve(G2, T2.T))


def finite_diff(field: Callable[[np.ndarray], np.ndarray | float], coords: np.ndarray,
                direction: int, *, step: float = DEFAULT_FD_STEP, order: int = 2):
    """Central difference of a field along one coordinate.

    The step is scaled per coordinate, h = step * max(1, |coords[direction]|).
    The default is the two-point second-order stencil
    (field(p + h e) - field(p - h e)) / (2 h); order=4 selects the five-point
    stencil for fields whose higher derivatives blow up near the domain edge.
    Domain errors raised by ``field`` at the sample points propagate unchanged.
    """
    coords = np.asarray(coords, dtype=float)
    h = step * max(1.0, abs(coords[direction]))

    def at(offset):
        shifted = coords.copy()
        shifted[direction] += offset
        return np.asarray(field(shifted), dtype=float)

    if order == 2:
        return (at(h) - at(-h)) / (2.0 * h)
    if order == 4:
        return (-at(2 * h) + 8.0 * at(h) - 8.0 * at(-h) + at(-2 * h)) / (12.0 * h)
    raise ValueError(f"stencil order must be 2 or 4, got {order}")


def finite_diff_gradient(field: Callable[[np.ndarray], np.ndarray | float],
                         coords: np.ndarray, *, step: float = DEFAULT_FD_STEP,
                         order: int = 2) -> np.ndarray:
    """Stack of finite_diff along every coordinate; the derivative index is axis 0."""
    coords = np.asarray(coords, dtype=float)
    return np.stack([finite_diff(field, coords, k, step=step, order=order)
                     for k in range(coords.size)])
