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
from functools import lru_cache, reduce
from itertools import zip_longest
from operator import mul

import numpy as np

from .errors import DomainViolation
from .kulkarni import BLOCK_BYTES
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
    ``alpha_map`` stacks the transposed omega_mu and ``i_map`` the i_mu into
    (4d, d) matrices, so that one product with a vector V gives all four
    omega_mu(V, .), or all four I_mu V, as the rows of its (4, d) reshape.
    Each I_mu is a signed permutation, I_mu[i_perm[mu, a], a] = i_sign[mu, a] = +/-1.
    """

    g: np.ndarray
    omega_mu: tuple[np.ndarray, ...]
    omega_h: np.ndarray
    i_mu: tuple[np.ndarray, ...]
    dz: np.ndarray
    i_h: np.ndarray
    alpha_map: np.ndarray
    i_map: np.ndarray
    i_perm: np.ndarray
    i_sign: np.ndarray


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

    omega_mu = (g, o1, o2, o3)
    i_mu = (np.eye(d), i1, i2, i3)
    perm = np.abs(np.stack(i_mu)).argmax(axis=1)
    sign = np.stack(i_mu)[np.arange(4)[:, None], perm, np.arange(d)]
    assert (np.abs(sign) == 1.0).all() and np.count_nonzero(i_mu) == 4 * d  # signed permutations
    return ConstantTensors(g=g, omega_mu=omega_mu, omega_h=oh, i_mu=i_mu, dz=dz, i_h=ih,
                           alpha_map=np.concatenate([om.T for om in omega_mu]),
                           i_map=np.concatenate(i_mu), i_perm=perm, i_sign=sign)


def vector_z(params: ModelParams, coords: np.ndarray) -> np.ndarray:
    """Generator of the rotating circle action, at a point or a stack: (y_j, -x_j) on the z-block."""
    q = params.q
    out = np.zeros(np.shape(coords)[:-1] + (params.d,))
    zc = coords[..., : 2 * q]
    out[..., 0: 2 * q: 2] = zc[..., 1::2]
    np.negative(zc[..., 0::2], out=out[..., 1: 2 * q: 2])
    return out


def scalars(params: ModelParams, coords: np.ndarray) -> tuple[float, float, float]:
    """The Hamiltonian f_z, the twist function f_h, and the squared field length g(Z, Z).

    f_z = (|z_0|^2 - sum_{j>=1} |z_j|^2)/2 - c/2 must stay positive; f_h is its
    reflection -f_z - c, and f_h = f_z + g(Z, Z) ties the two together. Every
    evaluation at a point passes through here, so this is where the coordinates
    are checked: a flat vector of length d = 4(m+1) with finite entries. At the rows
    of an (n, d) stack the three are (n,) arrays, rounded as at each row alone; the
    checks run on all rows at once, and the first row that fails raises as it would alone.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 2 and coords.shape[1] == params.d:
        with np.errstate(over="ignore", invalid="ignore"):  # only refused rows overflow
            zs = coords[:, : 2 * params.q]
            z2 = zs[:, 0::2] * zs[:, 0::2] + zs[:, 1::2] * zs[:, 1::2]
            base = z2[:, 0] - np.add.reduce(z2[:, 1:], axis=1)
            f_z, f_h = 0.5 * base - 0.5 * params.c, -0.5 * base - 0.5 * params.c
            top = np.abs(zs).max(axis=1)
            ok = (np.isfinite(coords).all(axis=1) & np.isfinite(zs.shape[1] * top * top)
                  & np.isfinite(8.0 * f_h * f_h) & (f_z > DOMAIN_EPS))
        if not ok.all():
            scalars(params, coords[ok.argmin()])
        return f_z, f_h, -base
    if coords.shape != (params.d,):
        raise ValueError(f"coordinates must be a flat vector of length 4(m+1) = {params.d}, "
                         f"got shape {coords.shape}")
    # a Python list is checked faster than a small array
    values = coords.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("coordinates contain non-finite entries")
    # refused first, naming the coordinate, where 2q top^2 overflows; the checks below would
    # refuse such a point too (base is then inf, nan, 0 or above 1e280)
    zs = values[: 2 * params.q]
    top = max(map(abs, zs))
    if not math.isfinite(len(zs) * top * top):
        raise DomainViolation(f"a z-coordinate of magnitude {top:.3e} is out of range: "
                              f"|z|^2 is not finite")
    # in Python floats, rounded as numpy rounds them: squares as x * x (x ** 2 is C pow) and the
    # z-block sum by numpy; 8 f_h^2, the largest product formed, overflows without a warning
    pairs = iter(zs)
    z2 = [x * x + y * y for x, y in zip(pairs, pairs)]
    base = z2[0] - float(np.add.reduce(z2[1:]))
    f_z = 0.5 * base - 0.5 * params.c
    f_h = -0.5 * base - 0.5 * params.c
    if not math.isfinite(8.0 * f_h * f_h):
        raise DomainViolation(f"f_z = {f_z:.3e} and f_h = {f_h:.3e} are out of range: "
                              f"8 f_h^2 is not finite")
    if f_z <= DOMAIN_EPS:
        raise DomainViolation(f"f_z = {f_z:.3e} is not positive (threshold {DOMAIN_EPS:.0e})")
    return np.float64(f_z), np.float64(f_h), np.float64(-base)  # powers overflow to inf, not raise


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
    along it. A snapshot of an (n, d) stack of points holds every point-dependent
    field with a leading axis of length n, f_z, f_h and g_zz as (n,) arrays.
    """

    params: ModelParams
    coords: np.ndarray
    k_compare: np.ndarray
    z_rot: np.ndarray
    alpha: np.ndarray
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


def _stacked_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_mu left[..., mu, :] (x) right[..., mu, :] over (..., 4, d) arrays, added as
    ((0 + P_0) + P_1) + ... so that each entry is rounded in the order of a sum over mu."""
    return np.add.reduce(left[..., :, None] * right[..., None, :], axis=-3, initial=0.0)


def _metric_data(g: np.ndarray, f_z, alpha: np.ndarray):
    """g_alpha = sum_mu alpha_mu^2 and g_h = g/f_z + g_alpha/f_z^2, over any leading axes."""
    g_alpha = _stacked_sum(alpha, alpha)
    return g_alpha, g / f_z + g_alpha / np.float_power(f_z, 2.0)  # C pow, as a float's ** 2


# keyed on (m, corrupt_omega2): c changes no constant tensor, and the key compares no dataclass
@lru_cache(maxsize=64)
def alpha_gather(m: int, corrupt_omega2: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (index, sign, g) with alpha_mu[b] = sign[mu, b] * coords[index[mu, b]] at every
    point: each row of alpha_map holds one +/-1 and Z = dz @ coords is a signed permutation of
    the z-block, so each alpha entry is one coordinate times +/-1, or times 0 off the z-block."""
    consts = constant_tensors(ModelParams(m, corrupt_omega2=corrupt_omega2))
    jac = (consts.alpha_map @ consts.dz).reshape(4, -1, consts.g.shape[0])
    assert (np.count_nonzero(jac, axis=2) <= 1).all()
    plan = np.abs(jac).argmax(axis=2), jac.max(axis=2) + jac.min(axis=2), consts.g.copy()
    for arr in plan:
        arr.flags.writeable = False
    return plan


def deformed_metric(params: ModelParams, coords: np.ndarray) -> np.ndarray:
    """The deformed metric g_h = g/f_z + (sum_mu alpha_mu^2)/f_z^2, positive-definite on the domain:
    (d, d) at one point, or (n, d, d) at the rows of an (n, d) stack, checked as in scalars."""
    coords = np.asarray(coords, dtype=float)
    f_z = scalars(params, coords)[0]
    index, sign, g = alpha_gather(params.m, params.corrupt_omega2)
    return _metric_data(g, f_z[..., None, None], coords[..., index] * sign)[1]


def geometry_at(params: ModelParams, coords: np.ndarray) -> GeometryAt:
    """Evaluate the full geometric snapshot at one point of the domain, or at the rows of an
    (n, d) stack: each point-dependent field then gains a leading axis of length n."""
    consts = constant_tensors(params)
    coords = np.asarray(coords, dtype=float)
    f_z, f_h, g_zz = scalars(params, coords)
    z = vector_z(params, coords)
    # alpha_mu = omega_mu(Z, .) = g(I_mu Z, .); each row of alpha_map and i_map holds one +/-1,
    # so z @ map.T rounds as map @ z
    alpha = (z @ consts.alpha_map.T).reshape(z.shape[:-1] + (4, -1))
    f_z3 = f_z[..., None, None]
    g_alpha, g_h = _metric_data(consts.g, f_z3, alpha)
    k = f_z3 * np.eye(params.d) - (f_z3 / f_h[..., None, None]) * _stacked_sum(
        (z @ consts.i_map.T).reshape(alpha.shape), alpha)

    return GeometryAt(**vars(consts), params=params, coords=coords, k_compare=k, z_rot=z,
                      alpha=alpha, f_z=f_z, f_h=f_h, g_zz=g_zz, g_h=g_h, g_alpha=g_alpha)


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

    Each entry of either side sums a few products of 1/2, 1 and 2, exactly in any order.
    """
    return float(np.abs(sum_outer_groups(geom, _sum_identity_defect)).max())


def _sum_identity_defect(geom, *_):
    jac, om = geom.dz.T @ np.stack(geom.omega_mu), np.stack(geom.omega_mu)  # jac: omega_mu(D_A Z, B)
    im = np.stack(geom.i_mu)
    yield "m", ((lambda t: t[0] + 0.5 * t[1], (
        ("mab,mic", jac - np.swapaxes(jac, 1, 2), im @ geom.i_mu[1]),
        ("mab,mic", om - np.swapaxes(om, 1, 2), im))),)
    yield "", ((lambda t: -t[0], (("ab,ic", geom.omega_h, geom.i_mu[1]),)),)


def sum_outer_groups(geom: GeometryAt, groups) -> np.ndarray:
    """The sum over groups(geom, Z, f_z, f_h, g(Z, Z)) as arr[i, a, b, c], bit for bit as
    ``for mu: for lam: for family: arr += combine([t_0, ...])`` adds it (see README).

    groups yields loops (letters, families) of families (combine, terms); a term (subs,
    *operands) is t = einsum(subs + "->iabc", *operands), and the group letters m, l index
    leading operand axes. Each group is formed on its structural support only.
    """
    supports = outer_supports(groups, geom.params.m)  # first: a cold cache builds before out exists
    out = np.zeros(geom.d ** 4)
    for (_, families), (flat, starts, tables) in zip(
            groups(geom, geom.z_rot, geom.f_z, geom.f_h, geom.g_zz), supports):
        step = max(1, BLOCK_BYTES * (len(starts) - 1) // (8 * flat.size + 8))  # groups per block
        for k in range(0, len(starts) - 1, step):
            lo, hi = starts[k], starts[min(k + step, len(starts) - 1)]
            values = np.zeros(hi - lo + 1)  # the last entry takes the padded products
            for (combine, terms), family in zip(families, tables):
                t = [np.zeros(hi - lo + 1) for _ in terms]
                for x, (_, *ops), (gathers, positions) in zip(t, terms, family):
                    product = reduce(mul, [np.take(op, g[k:k + step]) for op, g in zip(ops, gathers)])
                    np.put(x, positions[k:k + step] - lo, product, mode="clip")
                values += combine(t)  # +/-0 on the other families' entries
            np.add.at(out, flat[lo:hi], values[:-1])
    return out.reshape((geom.d,) * 4)


def _padded(rows, fill):
    return np.array(list(zip_longest(*rows, fillvalue=fill)), dtype=np.intp).T


# keyed on m alone: c changes no operand, and corrupt_omega2 turns whole operands, no pattern
@lru_cache(maxsize=64)
def outer_supports(groups, m: int) -> tuple:
    """Read-only (flat, starts, tables) per loop of ``sum_outer_groups``: each support entry's
    out index, in summation order; where each group's entries start; and per term and
    operand the operand's nonzeros in each group, padded and shaped to broadcast, with each
    product's entry (past the end if padded). The nonzeros come from the constant tensors
    and a Z that is 1 on the z-block and 0 off it; each Z-dependent operand is a signed
    permutation of Z, so it is 0 off that pattern at every point.
    """
    params = ModelParams(m)
    d, size = params.d, params.d ** 4
    loops = []
    for letters, families in groups(constant_tensors(params), (np.arange(d) < 2 * params.q) * 1.0,
                                    1.0, 1.0, 1.0):
        grid = [dict(zip(letters, k)) for k in np.ndindex((4,) * len(letters))]
        bound = len(grid) * len(families) * size  # of the keys (group, family, out index)
        terms = []
        for f, (_, family_terms) in enumerate(families):
            for subs, *ops in family_terms:
                subs, gathers = subs.split(","), []
                key = (np.arange(len(grid)) * len(families) + f).reshape(-1, *(1,) * len(subs)) * size
                for j, (sub, op) in enumerate(zip(subs, ops)):
                    n = sum(x in letters for x in sub)
                    heads = [tuple(map(g.get, sub[:n])) for g in grid]
                    nz = [np.nonzero(op[h]) for h in heads]
                    shape = (len(grid),) + (1,) * j + (-1,) + (1,) * (len(subs) - 1 - j)
                    gathers.append(_padded([np.ravel_multi_index(h + x, op.shape)
                                            for h, x in zip(heads, nz)], 0).reshape(shape))
                    key = key + _padded([np.ravel_multi_index([dict(zip(sub[n:], x)).get(k, 0)
                                                               for k in "iabc"], (d,) * 4)
                                         for x in nz], bound).reshape(shape)
                terms.append((f, gathers, key.reshape(len(grid), -1).astype(np.min_scalar_type(bound))))
        keys = np.sort(np.concatenate([key[key < bound] for _, _, key in terms]))
        keys = keys[np.append(True, keys[1:] != keys[:-1])]  # np.unique, without its slow hash pass
        tables = tuple(tuple((tuple(gathers), np.where(key < bound, np.searchsorted(keys, key),
                                                       keys.size).astype(np.min_scalar_type(keys.size)))
                             for f2, gathers, key in terms if f2 == f) for f in range(len(families)))
        starts = np.searchsorted(keys, np.arange(len(grid) + 1) * len(families) * size)
        loops.append(((keys % size).astype(np.min_scalar_type(size)), starts, tables))
        for arr in (loops[-1][0], *(a for fam in tables for gs, pos in fam for a in (*gs, pos))):
            arr.flags.writeable = False
    return tuple(loops)


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
    # np.max keeps a NaN, which then fails its row; max() would drop it
    res["quaternion_relations"] = float(np.max([
        np.abs(i1 @ i2 - i3).max(),
        np.abs(i2 @ i3 - i1).max(),
        np.abs(i3 @ i1 - i2).max(),
        *(np.abs(i @ i + eye).max() for i in (i1, i2, i3)),
    ]))
    res["omega_mu_is_lowered_i_mu"] = float(np.max([
        np.abs(im.T @ g - om).max() for im, om in zip(geom.i_mu, geom.omega_mu)]))
    res["i_h_squared_plus_id"] = float(np.abs(i_h @ i_h + eye).max())
    res["twist_form_is_lowered_i_h"] = float(np.abs(i_h.T @ g - geom.omega_h).max())
    res["pairwise_commutation"] = float(np.max([
        np.abs(a @ b - b @ a).max()
        for a in (k, i_h)
        for b in (i1, i2, i3, i_h, k)
    ]))
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
    return float(np.max([np.abs(m).max() for m in defects]))
