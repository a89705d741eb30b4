"""Workload process: drives ``hkqk.cli.main(argv)`` in a closed loop.

One caller, one fresh process: the next invocation starts when the previous
one returns. Each invocation gets its own ``--seed``, derived from the
workload seed, and writes its report to ``--out``; the report is then read
back, checked and hashed outside the timed region.

Before each invocation the process times the workload's reference, a fixed
computation that does not involve hkqk (see ``REFERENCES``). On a shared host
neighbouring load slows the process by up to ~1.8x, in phases that last from
seconds to minutes; a reference of the same kind of work, run in the same
process moments apart, is slowed alike. Each reference time is reported as a
speed factor, its ratio to the reference's nominal time; run.py divides each
invocation time by the mean factor nearby, which takes the host's phase out
of the figure and leaves the program's own cost.

Usage (normally started by run.py): ``python3 worker.py SPEC_JSON RESULT_PATH``.
SPEC_JSON holds ``workload``, ``seed``, ``seconds``, ``min_invocations``,
``max_invocations``, ``hash_count``, ``trace``, ``src`` and ``out_dir``.
An untimed warm-up invokes the first input once; the timed loop then invokes
new inputs, starting again from the first, until ``seconds`` is used up or
``max_invocations`` is reached, and at least ``min_invocations``. Every
report is checked, and the first timed report must equal the warm-up's.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer, span_stats

# Per-invocation CLI input. ``points`` is the number of sampled points one
# invocation completes: verify samples, or sweep grid nodes. ``reference``
# names the entry of ``REFERENCES`` whose slowdown under neighbouring load
# tracks the workload's: interpreter-bound verify runs follow the interpreter
# reference, the sweep's large d^4 arrays follow the array reference.
WORKLOADS = {
    "verify-small": {
        "argv": ["verify", "--m", "0", "--c", "0", "--samples", "10"],
        "points": 10, "c": 0.0, "nominal_s": 0.6, "reference": "interpreter",
        "why": ("d = 4, per-call-overhead regime: the m-independent Kulkarni trace suite's "
                "D = 66 wedge solves and deformed_metric stencils dominate; covers c = 0"),
    },
    "verify-mid": {
        "argv": ["verify", "--m", "3", "--c", "1", "--samples", "2"],
        "points": 2, "c": 1.0, "nominal_s": 0.8, "reference": "interpreter",
        "why": ("d = 16, finite-difference regime: deformed_metric stencils, the d^6 "
                "invariance_residual einsum and the closed curvature terms dominate"),
    },
    "sweep-large": {
        "argv": ["sweep", "--m", "7", "--c", "1", "--rho-min", "0.1", "--rho-max", "10",
                 "--steps", "4"],
        "points": 4, "c": 1.0, "nominal_s": 1.3, "reference": "array",
        "why": ("d = 32, array-kernel regime with no finite differences: large Kulkarni "
                "form products, the D = 496 wedge solve and the frame change dominate"),
    },
}

# Public functions wrapped in the traced run, by module of hkqk. Which
# end-to-end figure each layer should move, written down before measuring:
# - flat_model.* and pseudo_linear.finite_diff_gradient: norm_points_per_s on
#   verify-mid and verify-small; no change on sweep-large.
# - kulkarni.form_* and pseudo_linear.quadcov_to_lambda2_op: norm_points_per_s
#   on sweep-large, and on verify-small through the m-independent Kulkarni
#   trace suite (endo_* calls, D = 66 wedge solves).
# - correspondence.term_* and curvature.invariance_residual: verify-mid; no
#   change on sweep-large.
# - cli.* and import cost: setup_s.
TRACE_TARGETS = {
    "flat_model": ["geometry_at", "deformed_metric", "scalars", "structural_residuals",
                   "verify_differential_identities"],
    "pseudo_linear": ["finite_diff_gradient", "pseudo_gram_schmidt", "quadcov_to_lambda2_op"],
    "kulkarni": ["form_owedge", "form_obar", "endo_owedge", "endo_obar"],
    "correspondence": ["s_closed_tensor", "s_h_tensor", "s_q_tensor", "s_parts_tensor",
                       "term_ds_closed", "term_comm_closed", "dz_plus_sz_closed", "term_ds_fd",
                       "t_tensor_defining", "rtilde_closed", "rtilde_direct"],
    "curvature": ["curvature_operator", "quadcov_in_frame", "scalar_curvature", "norm_report",
                  "hk_type_residual", "invariance_residual", "k_trace_residuals"],
    "cli": ["run_verification", "cmd_sweep", "to_json"],
}
# Functions whose distinct inputs per invocation are counted (waste ratios).
UNIQUE_TARGETS = frozenset({
    "flat_model.deformed_metric", "flat_model.geometry_at",
    "pseudo_linear.pseudo_gram_schmidt", "curvature.quadcov_in_frame"})
# Rank-4 producers whose returned bytes are summed (computed work).
OUT_BYTES_TARGETS = frozenset({
    "correspondence.rtilde_closed", "correspondence.rtilde_direct",
    "correspondence.term_ds_closed", "correspondence.term_comm_closed",
    "kulkarni.form_owedge", "kulkarni.form_obar", "curvature.quadcov_in_frame"})

SWEEP_REL_TOL = 1e-8

_REF_RNG = np.random.default_rng(20010032)
_REF_T4 = _REF_RNG.standard_normal((12, 12, 12, 12))
_REF_MAT = _REF_RNG.standard_normal((60, 60))
_REF_VEC = _REF_RNG.standard_normal(16)
_REF_FORMS = _REF_RNG.standard_normal((2, 32, 32))


def interpreter_reference() -> float:
    """Interpreter loops, many small array operations, a mid-size contraction
    and dense solves, all within cache. Returns a checksum."""
    total = 0
    for i in range(150_000):
        total += i * i
    acc = 0.0
    for _ in range(2_000):
        acc += float((np.outer(_REF_VEC, _REF_VEC) + np.eye(16)).sum())
    for _ in range(30):
        acc += float(np.einsum("ijkl,klmn->ijmn", _REF_T4, _REF_T4)[0, 0, 0, 0])
    for _ in range(80):
        acc += float(np.linalg.solve(_REF_MAT, _REF_MAT[0])[0])
    return acc + total


def array_reference() -> float:
    """Outer products of two 32 x 32 matrices and sums of their index
    permutations: 8 MB rank-4 arrays, larger than the cache. Returns a checksum."""
    acc = 0.0
    for _ in range(3):
        a = np.einsum("ab,cx->abcx", _REF_FORMS[0], _REF_FORMS[1])
        t = a + a.transpose(2, 3, 0, 1) - a.transpose(0, 3, 2, 1) - a.transpose(2, 1, 0, 3)
        acc += float(t[0, 0, 0, 0])
    return acc


# Reference name -> (function, nominal seconds). A nominal time is near the
# fast end of the reference's range on a 2-core x86-64 VM with one BLAS
# thread. It is a constant that only sets the scale of the normalized
# figures, which read as seconds on such a core.
REFERENCES = {
    "interpreter": (interpreter_reference, 0.05),
    "array": (array_reference, 0.07),
}


def invocation_seed(workload_seed: int, index: int) -> int:
    """The ``--seed`` of invocation ``index``, a 64-bit digest of the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def check_report(kind: str, c: float, text: str, exit_code: int) -> tuple[int, int]:
    """Checks attempted and failed for one invocation's report.

    A failed check is a nonzero exit code, a verify row with ``passed: false``,
    a sweep row whose frame and closed norms differ by ``SWEEP_REL_TOL`` or
    more relative, or, for c > 0, a sweep verdict that is not strictly monotone.
    A report that cannot be parsed counts as one failed check.
    """
    attempted, failed = 1, int(exit_code != 0)
    try:
        if kind == "verify":
            rows = json.loads(text)["results"]
            attempted += len(rows)
            failed += sum(1 for row in rows if row["passed"] is not True)
        else:
            lines = text.splitlines()
            verdict = lines[-1].removeprefix("# monotonicity: ")
            for line in lines[1:-1]:
                _, _, _, closed, frame = (float(v) for v in line.split(","))
                attempted += 1
                if not abs(frame - closed) < SWEEP_REL_TOL * abs(closed):
                    failed += 1
            if c > 0:
                attempted += 1
                failed += verdict not in ("strictly increasing", "strictly decreasing")
    except (ValueError, KeyError, IndexError, TypeError):
        attempted += 1
        failed += 1
    return attempted, failed


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from hkqk import cli

    workload = WORKLOADS[spec["workload"]]
    kind = workload["argv"][0]
    out_dir = Path(spec["out_dir"])
    out_path = out_dir / f"report.{'json' if kind == 'verify' else 'csv'}"
    tracer = None
    if spec["trace"]:
        tracer = Tracer("hkqk", TRACE_TARGETS, unique=UNIQUE_TARGETS, out_bytes=OUT_BYTES_TARGETS)

    def invoke(index: int) -> tuple[float, bytes, int, int]:
        argv = workload["argv"] + ["--seed", str(invocation_seed(spec["seed"], index)),
                                   "--out", str(out_path)]
        out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        if tracer is None:
            exit_code = cli.main(argv)
        else:
            exit_code = tracer.run_invocation(cli.main, argv)
        elapsed = time.perf_counter() - t0
        data = out_path.read_bytes() if out_path.exists() else b""
        return (elapsed, data, *check_report(kind, workload["c"], data.decode(), exit_code))

    reference, nominal_s = REFERENCES[workload["reference"]]

    def speed_factor() -> float:
        t0 = time.perf_counter()
        reference()
        return (time.perf_counter() - t0) / nominal_s

    reference()
    _, warm_report, attempted, failed = invoke(0)
    reports: list[bytes] = []
    times: list[float] = []
    factors: list[float] = []
    start = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        while len(reports) < spec["max_invocations"] and (
                len(reports) < spec["min_invocations"]
                or time.perf_counter() - start < spec["seconds"]):
            factors.append(speed_factor())
            elapsed, data, a, f = invoke(len(reports))
            reports.append(data)
            times.append(elapsed)
            attempted += a
            failed += f
    # The same input twice in one process must give the same report.
    attempted += 1
    failed += reports[0] != warm_report

    digest = hashlib.sha256(b"".join(reports[:spec["hash_count"]]))
    result = {
        "times": times,
        "speed_factors": factors,
        "points": workload["points"] * len(times),
        "attempted": attempted,
        "failed": failed,
        "reports_sha256": digest.hexdigest(),
        "hashed_reports": min(len(reports), spec["hash_count"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }
    if tracer is not None:
        result["spans"] = span_stats(tracer.spans)
        result["raised"] = dict(tracer.raised)
        result["distinct"] = dict(tracer.distinct)
        result["out_bytes"] = dict(tracer.out_bytes)
        with open(out_dir / "spans.csv", "w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            for index, (name, begin, end, parent) in enumerate(tracer.spans):
                handle.write(f"{index},{name},{begin - start:.9f},{end - start:.9f},{parent}\n")
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    result = run(spec)
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
