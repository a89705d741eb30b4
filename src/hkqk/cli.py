"""Batch front end: verification suites, norm evaluation, sweeps, decomposition.

Four subcommands drive the library end to end. ``verify`` reruns every
pointwise and configuration-level identity over seeded random points and
emits one result row per check; ``norm`` evaluates both curvature-norm routes
at a given point; ``sweep`` tabulates the closed norm over a grid of the
radial coordinate rho = 2 f_z, sampling one point per grid node for the frame
route; ``decompose`` reports the curvature split. Outputs are JSON or CSV
with floats printed to 17 significant digits, and identical configurations
(including the seed) produce byte-identical files. Exit codes: 0 all checks
pass, 1 a check or domain constraint failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import correspondence as corr
from . import curvature as curv
from . import flat_model as fm
from . import kulkarni as kn
from .errors import ConfigError, DomainViolation, HkqkError
from .pseudo_linear import (check_pair_antisymmetry, compose_trace, finite_diff_gradient,
                            pseudo_gram_schmidt)

SEED_MIX = 0x9E3779B97F4A7C15
SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class RunConfig:
    """Validated batch-run settings shared by all subcommands."""

    m: int = 0
    c: float = 0.0
    seed: int = 0
    samples: int = 20
    fd_step: float = 1e-5
    tol_overrides: dict[str, float] = field(default_factory=dict)
    out: str | None = None
    fmt: str = "json"
    tol_scale: float = 1.0
    corrupt_omega2: bool = False

    def validate(self) -> None:
        if int(self.m) != self.m or self.m < 0:
            raise ConfigError(f"--m must be a non-negative integer, got {self.m}")
        if not (0 <= self.c < math.inf):
            raise ConfigError(f"--c must be a finite number >= 0, got {self.c}")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError(f"--seed must fit in 64 unsigned bits, got {self.seed}")
        if self.samples < 1:
            raise ConfigError(f"--samples must be >= 1, got {self.samples}")
        if not (1e-9 < self.fd_step < 1e-2):
            raise ConfigError(f"--fd-step must lie in (1e-9, 1e-2), got {self.fd_step}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"--format must be json or csv, got {self.fmt!r}")
        if not (0 < self.tol_scale < math.inf):
            raise ConfigError(f"HKQK_TOL_SCALE must be finite and positive, got {self.tol_scale}")
        for name, value in self.tol_overrides.items():
            if not (0 < value < math.inf):
                raise ConfigError(f"tolerance override {name}={value} must be finite and positive")

    @cached_property  # one object per config: the constant-tensor caches then hit by identity
    def params(self) -> fm.ModelParams:
        return fm.ModelParams(m=self.m, c=self.c, corrupt_omega2=self.corrupt_omega2)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named identity over all evaluated points."""

    name: str
    anchor: str
    max_residual: float
    tolerance: float
    passed: bool
    points: int


def derived_seed(seed: int, index: int) -> int:
    """Per-point seed: xor with the index, decorrelated by a fixed odd mixer."""
    return ((seed ^ index) * SEED_MIX ^ (seed >> 32)) & SEED_MASK


# --------------------------------------------------------------------------
# check registry: name -> (tolerance, anchor)
# --------------------------------------------------------------------------

CHECKS: dict[str, tuple[float, str]] = {
    # pointwise algebra of the model
    "quaternion_relations": (1e-10, "I1 I2 = I3 cyclically, Ik^2 = -id"),
    "omega_mu_is_lowered_i_mu": (1e-10, "omega_mu = g(I_mu ., .) for mu = 0..3"),
    "i_h_squared_plus_id": (1e-10, "I_h^2 = -id"),
    "twist_form_is_lowered_i_h": (1e-10, "omega_h = g(I_h ., .)"),
    "pairwise_commutation": (1e-10, "K, I_mu, I_h commute pairwise"),
    "k_g_self_adjoint": (1e-10, "K is self-adjoint for g"),
    "i_h_g_skew": (1e-10, "I_h is skew for g"),
    "k_carries_gh_to_g": (1e-10, "g_h(K ., .) = g(., .)"),
    "gh_negative_spectrum": (0.0, "g_h is positive-definite on the domain"),
    "f_h_identity": (1e-12, "f_h = f_z + g(Z, Z)"),
    "omega_identities": (1e-8, "Jacobian contractions of omega_k tie to I_1 (three lines)"),
    "sum_identity": (1e-8, "summed Jacobian identity producing the twist form"),
    # differential identities (finite differences on the left)
    "d_alpha0_eq_2g_dz": (1e-6, "d alpha_0 = 2 g(DZ ., .)"),
    "d_alpha1_eq_lie_omega1": (1e-6, "d alpha_1 = omega_1(DZ ., .) + omega_1(., DZ .)"),
    "d_alpha2_eq_lie_omega2": (1e-6, "d alpha_2 = omega_2(DZ ., .) + omega_2(., DZ .)"),
    "d_alpha3_eq_lie_omega3": (1e-6, "d alpha_3 = omega_3(DZ ., .) + omega_3(., DZ .)"),
    "rotating_lie_omega1_zero": (1e-6, "L_Z omega_1 = 0"),
    "rotating_lie_omega2_eq_omega3": (1e-6, "L_Z omega_2 = omega_3"),
    "rotating_lie_omega3_eq_minus_omega2": (1e-6, "L_Z omega_3 = -omega_2"),
    "moment_map_f_z": (1e-6, "iota_Z omega_1 = -d f_z"),
    "moment_map_f_h": (1e-6, "iota_Z omega_h = -d f_h"),
    "twist_form_from_omega1": (1e-6, "omega_h = omega_1 + d iota_Z g"),
    # connection correction
    "s_parts_vs_closed_rel": (1e-5, "Koszul route S^h + S^q equals the closed correction"),
    "s_q_gh_skew": (1e-10, "twist part is g_h-skew in its last two slots"),
    "s_h_symmetric": (1e-5, "deformation part is symmetric in its two lower slots"),
    "s_torsion_formula": (1e-8, "S_A B - S_B A = omega_h(A,B) Z / f_h"),
    "s_metric_compatibility": (1e-5, "(D_A g_h)(B,C) = g_h(S_A B, C) + g_h(B, S_A C)"),
    # curvature constituents and routes
    "ds_term_closed_vs_fd": (1e-4, "closed expression for (D_A S)_B C - (D_B S)_A C"),
    "comm_term_closed_vs_defining": (1e-10, "closed expression for [S_A, S_B] C"),
    "dz_sz_closed_vs_defining": (1e-10, "closed expression for DZ + S_Z"),
    "t_assembly": (1e-10, "T = dS terms + commutator - twist term, as assembled"),
    "rtilde_direct_vs_closed": (1e-4, "defining curvature route equals the closed route"),
    "rtilde_pair_antisymmetry": (1e-10, "curvature antisymmetric in both index pairs"),
    "rtilde_pair_symmetry": (1e-10, "curvature symmetric under pair exchange"),
    "rtilde_first_bianchi": (1e-10, "cyclic sum over the first three slots vanishes"),
    "curvature_operator_self_adjoint": (1e-10, "wedge-space curvature operator is symmetric"),
    # curvature invariants
    "norm_frame_vs_closed_rel": (1e-8, "squared norm: frame trace equals closed expression"),
    "scal_vs_expected_rel": (1e-8, "scal = -4 q (q + 2), i.e. reduced scalar curvature -1"),
    "hk_type_commutator": (1e-8, "curvature remainder commutes with I_1, I_2, I_3"),
    "split_invariance": (1e-10, "twist-form block invariant under I_j in its last slots"),
    "k_trace_closed_vs_matrix_rel": (1e-9, "tr(K^p) = 4[(q-1) f_z^p + f_z^(2p)/f_h^p]"),
    "k_trace_vanishing_abs": (1e-9, "tr(K^p I_k) = tr(K^p I_h) = tr(K^p I_h I_k) = 0"),
    # configuration-level
    "kn_owedge_curvature_symmetries": (1e-12, "first product of symmetric forms is curvature-type"),
    "kn_obar_curvature_symmetries": (1e-12, "second product of two-forms is curvature-type"),
    "trace_identity_owedge_rel": (1e-8, "tr((E.E)(F.F)) = 2 tr(EF)^2 - 2 tr((EF)^2)"),
    "trace_identity_obar_rel": (1e-8, "tr((K.K)(L.L)) = 6 tr(KL)^2 + 6 tr((KL)^2)"),
    "trace_identity_mixed_rel": (1e-8, "tr((E.E)(K.K)) = 2 tr(EK)^2 - 6 tr((EK)^2)"),
    "equal_f_z_equal_norm_rel": (1e-9, "norm depends on the point only through f_z"),
    "c0_norm_constant_rel": (1e-9, "undeformed family: norm is the constant 4q(2q+1)"),
    "rho_profile_monotone": (1e-18, "deformed family: closed norm strictly monotone in rho"),
}


def _curvature_type_defects(arr: np.ndarray) -> tuple[float, float, float]:
    """Pair antisymmetry, pair symmetry and first Bianchi defects of a rank-4 array."""
    pair_sym = np.abs(arr - np.einsum("cxab->abcx", arr)).max()
    bianchi = np.abs(arr + np.einsum("bcax->abcx", arr) + np.einsum("cabx->abcx", arr)).max()
    return float(check_pair_antisymmetry(arr)), float(pair_sym), float(bianchi)


def _correspondence_residuals(config: RunConfig, geom: fm.GeometryAt):
    step = config.fd_step
    res: dict[str, float] = {}
    gh, oh = geom.g_h, geom.omega_h

    sc = corr.s_closed_tensor(geom)
    sh = corr.s_h_tensor(geom, step=step,
                         metric=lambda points: fm.deformed_metric(config.params, points))
    sq = corr.s_q_tensor(geom)
    res["s_parts_vs_closed_rel"] = float(np.abs(sh + sq - sc).max() / np.abs(sc).max())
    # each structural defect is in units of the terms it sums, floored at 1
    skew_terms = np.einsum("iab,ic->abc", np.abs(sq), np.abs(gh)).max()
    res["s_q_gh_skew"] = float(np.abs(np.einsum("iab,ic->abc", sq, gh)
                                      + np.einsum("iac,ib->abc", sq, gh)).max()
                               / max(1.0, skew_terms))
    res["s_h_symmetric"] = float(np.abs(sh - np.einsum("iba->iab", sh)).max())
    torsion = sc - np.einsum("iba->iab", sc) - np.einsum("ab,i->iab", oh, geom.z_rot) / geom.f_h
    res["s_torsion_formula"] = float(np.abs(torsion).max())

    d_gh = finite_diff_gradient(lambda c: fm.deformed_metric(config.params, c), geom.coords,
                                step=step, stacked=True)
    compat = (d_gh - np.einsum("iab,ic->abc", sc, gh) - np.einsum("iac,ib->abc", sc, gh))
    res["s_metric_compatibility"] = float(np.abs(compat).max() / max(1.0, np.abs(d_gh).max()))

    ds_fd = corr.term_ds_fd(geom, corr.s_closed_tensor, step=step)
    ds_closed = corr.term_ds_closed(geom)
    res["ds_term_closed_vs_fd"] = float(
        np.abs(ds_closed - ds_fd).max() / max(1.0, np.abs(ds_closed).max()))
    comm = np.einsum("iaj,jbc->iabc", sc, sc) - np.einsum("ibj,jac->iabc", sc, sc)
    res["comm_term_closed_vs_defining"] = float(np.abs(corr.term_comm_closed(geom) - comm).max())
    dzsz = geom.dz + np.einsum("iac,a->ic", sc, geom.z_rot)
    res["dz_sz_closed_vs_defining"] = float(np.abs(corr.dz_plus_sz_closed(geom) - dzsz).max())
    assembled = ds_fd + comm - np.einsum("ab,ic->iabc", oh, dzsz) / geom.f_h
    res["t_assembly"] = float(np.abs(corr.t_from_parts(geom, sc, ds_fd) - assembled).max())

    rt_closed = corr.rtilde_closed(geom)
    rt_direct = corr.rtilde_direct(geom, step=step, s_h=sh)
    scale = max(1.0, np.abs(rt_closed).max())
    res["rtilde_direct_vs_closed"] = float(np.abs(rt_closed - rt_direct).max() / scale)
    (res["rtilde_pair_antisymmetry"], res["rtilde_pair_symmetry"],
     res["rtilde_first_bianchi"]) = (float(defect / scale)
                                     for defect in _curvature_type_defects(rt_closed))
    return res, rt_closed


def _random_form(rng: np.random.Generator, d: int, sign: float) -> np.ndarray:
    """A random d x d matrix plus ``sign`` times its transpose: symmetric for +1, skew for -1."""
    a = rng.standard_normal((d, d))
    return a + sign * a.T


def _kulkarni_residuals(config: RunConfig) -> dict[str, float]:
    rng = np.random.default_rng(derived_seed(config.seed, 1 << 32))
    res = {name: 0.0 for name in (
        "kn_owedge_curvature_symmetries", "kn_obar_curvature_symmetries",
        "trace_identity_owedge_rel", "trace_identity_obar_rel", "trace_identity_mixed_rel")}

    for _ in range(config.samples):
        d = int(rng.choice([4, 6, 8]))
        owedge = kn.form_owedge(_random_form(rng, d, 1.0), _random_form(rng, d, 1.0))
        two_form = _random_form(rng, d, -1.0)
        for name, arr in (("kn_owedge_curvature_symmetries", owedge),
                          ("kn_obar_curvature_symmetries", kn.form_obar(two_form, two_form))):
            res[name] = float(np.maximum(res[name], np.max(_curvature_type_defects(arr))
                                         / max(1.0, np.abs(arr).max())))

    for d in (4, 8, 12):
        for signature in ("euclidean", "split"):
            diag = np.ones(d)
            if signature == "split":
                diag[:4] = -1.0
            metric = np.diag(diag)
            for _ in range(config.samples):
                # raised with the diagonal metric: e, f metric-self-adjoint and k, l metric-skew
                e, k, f, l = (diag[:, None] * _random_form(rng, d, sign)
                              for sign in (1.0, -1.0, 1.0, -1.0))
                op_e = kn.endo_owedge(e, diag)
                op_f = kn.endo_owedge(f, diag)
                op_k = kn.endo_obar(k, diag)
                op_l = kn.endo_obar(l, diag)
                pairs = (
                    ("trace_identity_owedge_rel", kn.owedge_pair_trace(e, f),
                     compose_trace(op_e, op_f)),
                    ("trace_identity_obar_rel", kn.obar_pair_trace(k, l, metric),
                     compose_trace(op_k, op_l)),
                    ("trace_identity_mixed_rel", kn.mixed_pair_trace(e, k, metric),
                     compose_trace(op_e, op_k)),
                )
                for name, closed, brute in pairs:
                    rel = abs(closed - brute) / max(1.0, abs(brute))
                    res[name] = float(np.maximum(res[name], rel))
    return res


def _profile_residuals(config: RunConfig) -> dict[str, float]:
    params = config.params
    res: dict[str, float] = {}

    rng = np.random.default_rng(derived_seed(config.seed, 2 << 32))
    worst = 0.0
    for _ in range(config.samples):
        f_z = rng.uniform(0.1, 5.0)
        norms = []
        for _ in range(2):
            geom = fm.geometry_at(params, fm.point_with_f_z(params, f_z, rng))
            norms.append(curv.curvature_norm_frame(geom))
        worst = float(np.maximum(worst, abs(norms[0] - norms[1]) / abs(norms[1])))
    res["equal_f_z_equal_norm_rel"] = worst

    grid = np.linspace(0.01, 100.0, 1000)
    values = np.array([curv.curvature_norm_closed(params.q, rho / 2.0, -rho / 2.0 - params.c)
                       for rho in grid])
    if config.c == 0.0:
        expected = 4.0 * params.q * (2 * params.q + 1)
        res["c0_norm_constant_rel"] = float(np.abs(values - expected).max() / expected)
    else:
        # the direction is that of the first nonzero step; a step that rounds to a tie
        # is not against it, and a grid without a nonzero step has no direction at all
        steps = np.diff(values)
        steps = steps[steps != 0.0]
        if steps.size == 0:
            res["rho_profile_monotone"] = math.inf
        else:
            against = steps[np.sign(steps) != np.sign(steps[0])]
            res["rho_profile_monotone"] = float(np.abs(against).max()) if against.size else 0.0
    return res


def run_verification(config: RunConfig) -> list[CheckResult]:
    """Evaluate every registered identity over seeded random points."""
    params = config.params
    worst: dict[str, float] = {}

    def fold(res: dict[str, float]) -> None:
        for name, value in res.items():
            if name not in CHECKS:
                raise KeyError(f"unregistered check {name!r}")
            # np.maximum keeps a NaN, which then fails its row; max() would drop it
            worst[name] = float(np.maximum(worst.get(name, -np.inf), value))

    for index in range(config.samples):
        rng = np.random.default_rng(derived_seed(config.seed, index))
        geom = fm.geometry_at(params, fm.random_valid_point(params, rng))
        fold(fm.structural_residuals(geom))
        fold(fm.verify_differential_identities(geom, step=config.fd_step))
        corr_res, rt_closed = _correspondence_residuals(config, geom)
        fold(corr_res)
        report, op, vectors = curv.norm_report(geom, rt_closed,
                                               hk_seed=derived_seed(config.seed, index))
        # the change of frame sums terms up to max|R~| (max_p sum_a |V_pa|)^4
        op_terms = np.abs(rt_closed).max() * np.abs(vectors).sum(axis=1).max() ** 4
        fold({"curvature_operator_self_adjoint":
              float(np.abs(op - op.T).max() / max(1.0, op_terms)),
              **report["residuals"], **curv.k_trace_residuals(geom)})

    fold(_kulkarni_residuals(config))
    fold(_profile_residuals(config))

    # the profile checks are the only conditional ones: one for c = 0, the other for c > 0
    absent = "rho_profile_monotone" if config.c == 0.0 else "c0_norm_constant_rel"
    results = []
    for name, (base_tol, anchor) in CHECKS.items():
        if name == absent:
            continue
        if name not in worst:
            raise KeyError(f"no residual was produced for check {name!r}")
        tol = config.tol_overrides.get(name, base_tol) * config.tol_scale
        residual = worst[name]
        results.append(CheckResult(
            name=name, anchor=anchor, max_residual=residual,
            tolerance=tol, passed=bool(residual < tol), points=config.samples))
    return results


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def format_float(x: float) -> str:
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{key}": {to_json(value, indent + 1)}' for key, value in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{to_json(value, indent + 1)}" for value in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # json.dumps spells a non-finite float NaN, Infinity or -Infinity, which json.loads reads
        return format_float(obj) if math.isfinite(obj) else json.dumps(float(obj))
    if obj is None:
        return "null"
    escaped = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def results_to_csv(results: list[CheckResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "anchor", "max_residual", "tolerance", "passed", "points"])
    for r in results:
        writer.writerow([r.name, r.anchor, format_float(r.max_residual),
                         format_float(r.tolerance), "true" if r.passed else "false", r.points])
    return buf.getvalue()


def config_dict(config: RunConfig) -> dict:
    return {
        "m": config.m, "c": config.c, "seed": config.seed, "samples": config.samples,
        "fd_step": config.fd_step, "format": config.fmt, "tol_scale": config.tol_scale,
        "tol_overrides": dict(sorted(config.tol_overrides.items())),
    }


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_verify(config: RunConfig) -> int:
    results = run_verification(config)
    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    if config.fmt == "csv":
        text = results_to_csv(results)
    else:
        payload = {
            "config": config_dict(config),
            "results": [asdict(r) for r in results],
            "summary": {"passed": passed, "failed": failed},
        }
        text = to_json(payload) + "\n"
    _emit(text, config.out)
    if failed:
        names = ", ".join(r.name for r in results if not r.passed)
        print(f"FAILED {failed} of {len(results)} checks: {names}", file=sys.stderr)
        return 1
    return 0


def _select_point(config: RunConfig, text: str | None) -> np.ndarray:
    """The ``--point`` coordinates, or a seeded random point when it is omitted."""
    if text is None:
        rng = np.random.default_rng(derived_seed(config.seed, 0))
        return fm.random_valid_point(config.params, rng)
    try:
        coords = np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--point must be comma-separated reals: {exc}") from exc
    if coords.size != config.params.d:
        raise ConfigError(f"--point must have length {config.params.d} for m={config.m}, "
                          f"got {coords.size}")
    if not np.all(np.isfinite(coords)):
        raise ConfigError(f"--point must have finite coordinates, got {text!r}")
    return coords


def _point_command(config: RunConfig, point_text: str | None, report_fn) -> int:
    """Emit ``report_fn(config, geom)`` at the selected point; a point off the domain exits 1."""
    coords = _select_point(config, point_text)
    try:
        report = report_fn(config, fm.geometry_at(config.params, coords))
    except DomainViolation as exc:
        print(f"point outside the valid domain: {exc}", file=sys.stderr)
        return 1
    payload = {"config": config_dict(config), "point": list(coords), "report": report}
    _emit(to_json(payload) + "\n", config.out)
    return 0


def _norm_report(config: RunConfig, geom: fm.GeometryAt) -> dict:
    return curv.norm_report(geom, hk_seed=derived_seed(config.seed, 0))[0]


def cmd_sweep(config: RunConfig, rho_min: float, rho_max: float, steps: int) -> int:
    if not (math.isfinite(rho_min) and math.isfinite(rho_max)):
        raise ConfigError(f"--rho-min and --rho-max must be finite, got {rho_min}, {rho_max}")
    if not (0.0 < rho_min < rho_max):
        raise ConfigError(f"need 0 < rho_min < rho_max, got {rho_min}, {rho_max}")
    if steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {steps}")
    params = config.params
    grid = np.linspace(rho_min, rho_max, steps)
    rows = []
    closed_values = []
    for index, rho in enumerate(grid):
        f_z = rho / 2.0
        f_h = -f_z - config.c
        closed = curv.curvature_norm_closed(params.q, f_z, f_h)
        rng = np.random.default_rng(derived_seed(config.seed, index))
        geom = fm.geometry_at(params, fm.point_with_f_z(params, f_z, rng))
        frame_value = curv.curvature_norm_frame(geom)
        closed_values.append(closed)
        rows.append((rho, f_z, f_h, closed, frame_value))

    diffs = np.diff(np.array(closed_values))
    if np.all(diffs == 0.0):
        verdict = "constant"
    elif np.all(diffs > 0.0):
        verdict = "strictly increasing"
    elif np.all(diffs < 0.0):
        verdict = "strictly decreasing"
    else:
        verdict = "non-monotone"

    lines = ["rho,f_z,f_h,norm_closed,norm_frame"]
    for row in rows:
        lines.append(",".join(format_float(value) for value in row))
    lines.append(f"# monotonicity: {verdict}")
    _emit("\n".join(lines) + "\n", config.out)
    return 0


def _decompose_report(config: RunConfig, geom: fm.GeometryAt) -> dict:
    rt = corr.rtilde_closed(geom)
    r0, r1 = curv.alekseevsky_split(geom, rt)
    vectors, _ = pseudo_gram_schmidt(geom.g_h)
    r0_frame = curv.quadcov_in_frame(r0, vectors)
    r1_frame = curv.quadcov_in_frame(r1, vectors)
    rng = np.random.default_rng(derived_seed(config.seed, 0))
    return {
        "nu": curv.SPLIT_NU,
        "f_z": geom.f_z,
        "f_h": geom.f_h,
        "model_part_frobenius": float(np.sqrt(np.sum(r0_frame ** 2))),
        "remainder_frobenius": float(np.sqrt(np.sum(r1_frame ** 2))),
        "hk_type_commutator": curv.hk_type_residual(geom, r1, rng),
    }


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkqk",
        description="Verification suites and curvature-norm evaluation for the flat "
                    "deformed family.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--m", type=int, default=0, help="family index (dimension 4(m+1))")
        p.add_argument("--c", type=float, default=0.0, help="deformation constant, >= 0")
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--samples", type=int, default=20, help="random points per check")
        p.add_argument("--fd-step", type=float, default=1e-5,
                       help="relative finite-difference step, in (1e-9, 1e-2)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                       help="report format for verify (norm/decompose emit JSON, sweep CSV)")
        p.add_argument("--tol-override", action="append", default=[], metavar="NAME=VALUE",
                       help="override a check tolerance; repeatable")

    p_verify = sub.add_parser("verify", help="run every identity suite and report residuals")
    add_common(p_verify)
    p_verify.add_argument("--corrupt-omega2", action="store_true",
                          help=argparse.SUPPRESS)  # negative-control hook

    point_help = ("comma-separated real coordinates, length 4(m+1); write it as "
                  "--point=-2,0,0,0 when the first one is negative")
    p_norm = sub.add_parser("norm", help="evaluate both curvature-norm routes at a point")
    add_common(p_norm)
    p_norm.add_argument("--point", default=None, help=point_help)

    p_sweep = sub.add_parser("sweep", help="tabulate the norm over a grid of rho = 2 f_z")
    add_common(p_sweep)
    p_sweep.add_argument("--rho-min", type=float, required=True)
    p_sweep.add_argument("--rho-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)

    p_dec = sub.add_parser("decompose", help="report the curvature split at a point")
    add_common(p_dec)
    p_dec.add_argument("--point", default=None, help=point_help)
    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, float]:
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigError(f"--tol-override expects NAME=VALUE, got {pair!r}")
        if name not in CHECKS:
            raise ConfigError(f"unknown check name {name!r} in --tol-override")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {pair!r}: {exc}") from exc
    return overrides


def _config_from_args(args) -> RunConfig:
    try:
        tol_scale = float(os.environ.get("HKQK_TOL_SCALE", "1"))
    except ValueError as exc:
        raise ConfigError(f"HKQK_TOL_SCALE must be a number: {exc}") from exc
    config = RunConfig(
        m=args.m, c=args.c, seed=args.seed, samples=args.samples,
        fd_step=args.fd_step, tol_overrides=_parse_overrides(args.tol_override),
        out=args.out, fmt=args.fmt, tol_scale=tol_scale,
        corrupt_omega2=getattr(args, "corrupt_omega2", False))
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "norm":
            return _point_command(config, args.point, _norm_report)
        if args.command == "sweep":
            return cmd_sweep(config, args.rho_min, args.rho_max, args.steps)
        if args.command == "decompose":
            return _point_command(config, args.point, _decompose_report)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HkqkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
