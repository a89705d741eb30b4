"""The explicit flat family of deformed geometries, one tangent space at a time.

The model lives on pairs of complex vectors (z, w) of length m+1, with real
dimension d = 4(m+1). Coordinates are ordered (x_0, y_0, ..., x_m, y_m,
u_0, v_0, ..., u_m, v_m) with z_j = x_j + i y_j and w_j = u_j + i v_j; a point
is a (d,) float array of these coordinates, and every matrix in the package
refers to this one frame. The flat metric and its three Kaehler forms are
constant, carry signature (4m, 4) with the negative block on (z_0, w_0), and
come with a rotating circle action whose generator is linear in the
coordinates. From these the module assembles the scalars f_z, f_h, the
deformed metric g_h, the comparison endomorphism between the two metrics, and
the twist two-form, and it verifies the differential identities relating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainViolation
from .pseudo_linear import DEFAULT_FD_STEP, finite_diff_gradient

DOMAIN_EPS = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Family index m and deformation constant c (real dimension 4(m+1)).

    ``corrupt_omega2`` flips the sign of the second Kaehler form in every
    tensor built from these parameters: a negative control for the
    verification suite, which must then fail.
    """

    m: int
    c: float = 0.0
    corrupt_omega2: bool = False

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 0:
            raise ValueError(f"family index m must be a non-negative integer, got {self.m}")
        if not 0 <= self.c < np.inf:
            raise ValueError(f"deformation constant c must be finite and >= 0, got {self.c}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "c", float(self.c))

    @property
    def q(self) -> int:
        """Quaternionic dimension m + 1."""
        return self.m + 1

    @property
    def d(self) -> int:
        """Real dimension 4(m + 1)."""
        return 4 * (self.m + 1)


@dataclass(frozen=True)
class ConstantTensors:
    """The point-independent tensors of the model for one family index.

    Bilinear forms and endomorphisms alike are d x d matrices in the fixed frame.
    ``omega_mu`` is (g, omega_1, omega_2, omega_3) and ``i_mu`` is
    (id, I_1, I_2, I_3), both indexed by mu = 0..3. ``dz`` is the Jacobian of
    the rotating field and ``i_h`` = I_1 + 2 dz the twist endomorphism.
    """

    g: np.ndarray
    omega_mu: tuple[np.ndarray, ...]
    omega_h: np.ndarray
    i_mu: tuple[np.ndarray, ...]
    dz: np.ndarray
    i_h: np.ndarray


# keyed on the whole of params, c included; bounded so that a loop over many c stays small
@lru_cache(maxsize=64)
def constant_tensors(params: ModelParams) -> ConstantTensors:
    """Flat metric, the three Kaehler forms, the twist form, and derived structures.

    The complex structures are recovered by raising the forms with the metric,
    not transcribed as sign patterns; the quaternion relations are asserted on
    construction. With ``params.corrupt_omega2`` the second form changes sign
    and the assertion is skipped.
    """
    q = params.q
    d = params.d
    sign = np.ones(d)
    sign[[0, 1, 2 * q, 2 * q + 1]] = -1.0
    g = np.diag(sign)

    o1 = np.zeros((d, d))
    o2 = np.zeros((d, d))
    o3 = np.zeros((d, d))
    oh = np.zeros((d, d))
    dz = np.zeros((d, d))
    for j in range(q):
        eps = -1.0 if j == 0 else 1.0
        x, y, u, v = 2 * j, 2 * j + 1, 2 * q + 2 * j, 2 * q + 2 * j + 1
        o1[x, y] = eps
        o1[u, v] = eps
        o2[x, v] = -1.0
        o2[y, u] = -1.0
        o3[x, u] = 1.0
        o3[y, v] = -1.0
        oh[x, y] = -eps
        oh[u, v] = eps
        # rotating field (y_j, -x_j, 0, 0): its constant Jacobian
        dz[x, y] = 1.0
        dz[y, x] = -1.0
    for o in (o1, o2, o3, oh):
        o -= o.T
    if params.corrupt_omega2:
        o2 = -o2  # test hook: deliberately break the orientation of the second form

    ginv = np.diag(1.0 / sign)
    i1 = -ginv @ o1
    i2 = -ginv @ o2
    i3 = -ginv @ o3

    ih = i1 + 2.0 * dz
    if not params.corrupt_omega2:
        # derived complex structures must close the quaternion algebra
        eye = np.eye(d)
        for a, b, prod in ((i1, i2, i3), (i2, i3, i1), (i3, i1, i2)):
            assert np.abs(a @ b - prod).max() < 1e-14
            assert np.abs(a @ a + eye).max() < 1e-14
        assert np.abs(ih @ ih + eye).max() < 1e-14

    return ConstantTensors(g=g, omega_mu=(g, o1, o2, o3), omega_h=oh,
                           i_mu=(np.eye(d), i1, i2, i3), dz=dz, i_h=ih)


def vector_z(params: ModelParams, coords: np.ndarray) -> np.ndarray:
    """Generator of the rotating circle action at a point: (y_j, -x_j) on the z-block."""
    q = params.q
    out = np.zeros(params.d)
    zc = coords[: 2 * q]
    out[0: 2 * q: 2] = zc[1::2]
    out[1: 2 * q: 2] = -zc[0::2]
    return out


def scalars(params: ModelParams, coords: np.ndarray) -> tuple[float, float, float]:
    """The Hamiltonian f_z, the twist function f_h, and the squared field length g(Z, Z).

    f_z = (|z_0|^2 - sum_{j>=1} |z_j|^2)/2 - c/2 must stay positive; f_h is its
    reflection -f_z - c, and f_h = f_z + g(Z, Z) ties the two together. Every
    evaluation at a point passes through here, so this is where the coordinates
    are checked: a flat vector of length d = 4(m+1) with finite entries.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (params.d,):
        raise ValueError(f"coordinates must be a flat vector of length 4(m+1) = {params.d}, "
                         f"got shape {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates contain non-finite entries")
    zc = coords[: 2 * params.q]
    z2 = zc[0::2] ** 2 + zc[1::2] ** 2
    base = z2[0] - z2[1:].sum()
    f_z = 0.5 * base - 0.5 * params.c
    f_h = -0.5 * base - 0.5 * params.c
    # 8 f_h^2 is the largest product the formulas form, since |f_h| = f_z + c >= f_z. In
    # Python floats it overflows to inf without a RuntimeWarning, and unlike np.errstate
    # it costs nothing on the hot path.
    h = float(f_h)
    if not math.isfinite(8.0 * h * h):
        raise DomainViolation(f"f_z = {f_z:.3e} and f_h = {f_h:.3e} are out of range: "
                              f"8 f_h^2 is not finite")
    if f_z <= DOMAIN_EPS:
        raise DomainViolation(f"f_z = {f_z:.3e} is not positive (threshold {DOMAIN_EPS:.0e})")
    return f_z, f_h, -base


@dataclass(frozen=True, eq=False)
class GeometryAt(ConstantTensors):
    """Immutable snapshot of every tensor of the model at one point.

    Extends the constant tensors with the point-dependent ones. Matrix fields
    are d x d arrays in the fixed coordinate frame, bilinear forms (g, the
    omegas, g_h, g_alpha) and endomorphisms (the I's, dz, k_compare) alike.
    ``coords`` are the d real coordinates of the point. ``alpha[mu]`` are the
    four lowered contractions of the rotating field with ``omega_mu``;
    ``k_compare`` is the endomorphism carrying g_h back to g, multiplication
    by f_z off the quaternionic span of the rotating field and by f_z^2/f_h
    along it.
    """

    params: ModelParams
    coords: np.ndarray
    k_compare: np.ndarray
    z_rot: np.ndarray
    alpha: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    f_z: float
    f_h: float
    g_zz: float
    g_h: np.ndarray
    g_alpha: np.ndarray

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def q(self) -> int:
        return self.params.q


def _metric_data(consts: ConstantTensors, f_z: float, z: np.ndarray):
    """alpha_mu = omega_mu(Z, .) = g(I_mu Z, .), g_alpha = sum_mu alpha_mu^2, g_h = g/f_z + g_alpha/f_z^2."""
    g = consts.g
    alpha = (g @ z, *(om.T @ z for om in consts.omega_mu[1:]))
    g_alpha = sum(np.outer(a, a) for a in alpha)
    return alpha, g_alpha, g / f_z + g_alpha / f_z ** 2


def deformed_metric(params: ModelParams, coords: np.ndarray) -> np.ndarray:
    """The deformed metric g_h = g/f_z + (sum_mu alpha_mu^2)/f_z^2, positive-definite on the domain."""
    consts = constant_tensors(params)
    _, _, g_h = _metric_data(consts, scalars(params, coords)[0], vector_z(params, coords))
    return g_h


def geometry_at(params: ModelParams, coords: np.ndarray) -> GeometryAt:
    """Evaluate the full geometric snapshot at one point of the domain."""
    consts = constant_tensors(params)
    coords = np.asarray(coords, dtype=float)
    f_z, f_h, g_zz = scalars(params, coords)
    d = params.d
    z = vector_z(params, coords)

    alpha, g_alpha, g_h = _metric_data(consts, f_z, z)
    k = f_z * np.eye(d) - (f_z / f_h) * sum(
        np.outer(i @ z, a) for i, a in zip(consts.i_mu, alpha))

    return GeometryAt(
        **vars(consts),
        params=params,
        coords=coords,
        k_compare=k,
        z_rot=z,
        alpha=alpha,
        f_z=f_z,
        f_h=f_h,
        g_zz=g_zz,
        g_h=g_h,
        g_alpha=g_alpha,
    )


def random_valid_point(params: ModelParams, rng: np.random.Generator,
                       *, f_z_range: tuple[float, float] = (0.1, 5.0)) -> np.ndarray:
    """Sample the coordinates of a domain point with f_z uniform in ``f_z_range``.

    Directions are drawn isotropically and z_0 is rescaled to hit the target;
    the w coordinates are unconstrained standard normals.
    """
    q = params.q
    target = rng.uniform(*f_z_range)
    z = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    radius_sq = 2.0 * target + params.c + np.sum(np.abs(z[1:]) ** 2)
    z[0] *= np.sqrt(radius_sq) / abs(z[0])
    w = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    # interleave into the fixed ordering (x_0, y_0, ..., u_0, v_0, ...)
    return np.concatenate([np.column_stack([z.real, z.imag]).ravel(),
                           np.column_stack([w.real, w.imag]).ravel()])


def point_with_f_z(params: ModelParams, f_z: float, rng: np.random.Generator) -> np.ndarray:
    """Sample the coordinates of a domain point with the exact given value of f_z."""
    if f_z <= DOMAIN_EPS:
        raise DomainViolation(f"requested f_z = {f_z:.3e} is not positive")
    return random_valid_point(params, rng, f_z_range=(f_z, f_z))


def verify_differential_identities(geom: GeometryAt,
                                   *, step: float = DEFAULT_FD_STEP) -> dict[str, float]:
    """Residuals of the differential identities tying the twist data together.

    Derivatives are taken by central finite differences at ``geom.coords``;
    the summed identity is purely algebraic in the field Jacobian and needs
    none. Keys map to the max-norm residual of the identity named.
    """
    params, coords = geom.params, geom.coords
    g, dz = geom.g, geom.dz
    omega = geom.omega_mu
    i_mats = geom.i_mu

    def alphas(c):
        z = vector_z(params, c)
        return [g @ (i_mu @ z) for i_mu in i_mats]

    # d alpha_mu by finite differences: dA[a,b] = d_a A_b - d_b A_a
    grad = finite_diff_gradient(alphas, coords, step=step)
    d_alpha = [grad[:, mu] - grad[:, mu].T for mu in range(4)]

    res: dict[str, float] = {}
    res["d_alpha0_eq_2g_dz"] = float(np.abs(d_alpha[0] - 2.0 * dz.T @ g).max())
    for k in (1, 2, 3):
        lie = dz.T @ omega[k] + omega[k] @ dz
        res[f"d_alpha{k}_eq_lie_omega{k}"] = float(np.abs(d_alpha[k] - lie).max())
    res["rotating_lie_omega1_zero"] = float(np.abs(d_alpha[1]).max())
    res["rotating_lie_omega2_eq_omega3"] = float(np.abs(d_alpha[2] - omega[3]).max())
    res["rotating_lie_omega3_eq_minus_omega2"] = float(np.abs(d_alpha[3] + omega[2]).max())

    grad_f = finite_diff_gradient(lambda c: scalars(params, c)[:2], coords, step=step)
    res["moment_map_f_z"] = float(np.abs(geom.alpha[1] + grad_f[:, 0]).max())
    alpha_h = geom.g @ (geom.i_h @ geom.z_rot)
    res["moment_map_f_h"] = float(np.abs(alpha_h + grad_f[:, 1]).max())
    res["twist_form_from_omega1"] = float(np.abs(geom.omega_h - omega[1] - d_alpha[0]).max())

    res["sum_identity"] = sum_identity_residual(geom)
    return res


def sum_identity_residual(geom: GeometryAt) -> float:
    """Algebraic identity collapsing the four Jacobian contractions into the twist form.

    sum_mu (omega_mu(D_A Z, B) - omega_mu(D_B Z, A)) I_mu I_1 C
      = -1/2 sum_mu (omega_mu(A,B) - omega_mu(B,A)) I_mu C + omega_h(A,B) I_1 C
    """
    dz = geom.dz
    i1 = geom.i_mu[1]
    lhs = np.zeros((geom.d,) * 4)
    rhs = np.zeros((geom.d,) * 4)
    for mu in range(4):
        m = dz.T @ geom.omega_mu[mu]
        lhs += np.einsum("ab,ic->iabc", m - m.T, geom.i_mu[mu] @ i1)
        rhs -= 0.5 * np.einsum("ab,ic->iabc", geom.omega_mu[mu] - geom.omega_mu[mu].T, geom.i_mu[mu])
    rhs += np.einsum("ab,ic->iabc", geom.omega_h, i1)
    return float(np.abs(lhs - rhs).max())


def structural_residuals(geom: GeometryAt) -> dict[str, float]:
    """Pointwise algebraic invariants of the snapshot, as max-norm residuals.

    Covers the quaternion relations, the square and commutation properties of
    the twist endomorphism, adjointness, compatibility of the two metrics
    through the comparison endomorphism, positivity of the deformed metric
    (reported as minus its smallest eigenvalue), and the scalar identity
    f_h = f_z + g(Z, Z).
    """
    d = geom.d
    eye = np.eye(d)
    i1, i2, i3 = geom.i_mu[1], geom.i_mu[2], geom.i_mu[3]
    i_h, k = geom.i_h, geom.k_compare
    g, g_h = geom.g, geom.g_h

    res: dict[str, float] = {}
    res["quaternion_relations"] = float(max(
        np.abs(i1 @ i2 - i3).max(),
        np.abs(i2 @ i3 - i1).max(),
        np.abs(i3 @ i1 - i2).max(),
        max(np.abs(i @ i + eye).max() for i in (i1, i2, i3)),
    ))
    res["omega_mu_is_lowered_i_mu"] = float(max(
        np.abs(im.T @ g - om).max() for im, om in zip(geom.i_mu, geom.omega_mu)))
    res["i_h_squared_plus_id"] = float(np.abs(i_h @ i_h + eye).max())
    res["twist_form_is_lowered_i_h"] = float(np.abs(i_h.T @ g - geom.omega_h).max())
    res["pairwise_commutation"] = float(max(
        np.abs(a @ b - b @ a).max()
        for a in (k, i_h)
        for b in (i1, i2, i3, i_h, k)
    ))
    res["k_g_self_adjoint"] = float(np.abs(g @ k - (g @ k).T).max())
    res["i_h_g_skew"] = float(np.abs(g @ i_h + (g @ i_h).T).max())
    res["k_carries_gh_to_g"] = float(np.abs(k.T @ g_h - g).max())
    res["gh_negative_spectrum"] = float(-np.linalg.eigvalsh(g_h).min())
    res["f_h_identity"] = abs(geom.f_h - (geom.f_z + geom.g_zz))
    res["omega_identities"] = omega_identities_residual(geom)
    return res


def omega_identities_residual(geom: GeometryAt) -> float:
    """Three-line identity block linking the Jacobian contractions of the forms to I_1.

    Each line states two equalities; all six residuals are folded into one
    max-norm value. Purely algebraic in the constant Jacobian.
    """
    dz = geom.dz
    o1, o2, o3 = geom.omega_mu[1], geom.omega_mu[2], geom.omega_mu[3]
    n = [geom.i_mu[k].T @ o1 for k in range(4)]  # omega_1(I_k A, B)

    defects = []
    defects.append(2.0 * (dz.T @ o1 + o1 @ dz))
    defects.append(-n[1] + n[1].T)
    defects.append(2.0 * (dz.T @ o2 + o2 @ dz) - 2.0 * o3)
    defects.append(2.0 * o3 - (n[2] - n[2].T))
    defects.append(2.0 * (dz.T @ o3 + o3 @ dz) + 2.0 * o2)
    defects.append(-2.0 * o2 - (n[3] - n[3].T))
    return float(max(np.abs(m).max() for m in defects))
