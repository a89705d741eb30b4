"""hkqk benchmark: batches of ``hkqk verify`` / ``hkqk sweep`` invocations.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in worker.py. With ``--trace 0`` the run times the
import of numpy and ``hkqk.cli`` in several fresh processes, then drives the
workload untraced in one fresh worker process for ``--seconds`` and prints
the end-to-end metrics: ``setup_s``, the median import time;
``norm_points_per_s`` and ``norm_invocation_p50_s``, throughput and median
invocation time; and the worker's ``peak_rss_mb``. Every time is divided by
the host's local speed factor, measured with a reference of the same kind of
work (see worker.py and ``SETUP_REF_PROBE``). The wall-clock figures are
printed and recorded beside them, but are not metrics: on a shared host they
follow the neighbours' load more than the program. With ``--trace 1`` it drives a fixed number of
invocations twice, untraced and then traced from outside, and prints the
per-layer metrics; the two passes must produce identical reports, and the
difference of their normalized times is the tracing overhead.

Every invocation's report is checked (see ``worker.check_report``). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric with its
unit, ``failed_ratio`` and the provenance of the run. ``failed_ratio`` is
not among the metrics: it is 0 on a correct commit, so it has no relative
spread, and ``failed``/``attempted`` carry it. A full record is written to
``.bench_out/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ROOT_SPAN
from worker import OUT_BYTES_TARGETS, TRACE_TARGETS, UNIQUE_TARGETS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: reports are byte-identical at 1 and 2 threads and
# the 2-core host then keeps a core free for the benchmark's own process.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Half the set-up probes run before the workload and half after it, so that
# their median covers the host's phase over the whole run.
SETUP_PROBES = 12
# Each invocation is normalized by the mean speed factor of the invocations
# within this many places of it: long enough to average out sub-second
# jitter, short enough to follow the host's slow and fast phases.
REF_WINDOW = 3
# Every untraced run completes at least this many invocations; the report
# hash covers exactly these, so it depends only on the seed.
HASHED_INVOCATIONS = 5
DEADLINE_S = 170.0
PROBE = ("import time\nt0 = time.perf_counter()\nimport numpy\nimport hkqk.cli\n"
         "print(time.perf_counter() - t0)\n")
# Set-up time is normalized like invocation time, by a reference of the same
# kind of work: importing a fixed set of standard-library modules, in a fresh
# process of its own right after each probe. The nominal time is near the
# fast end of its range on a 2-core x86-64 VM; it only sets the scale.
SETUP_REF_PROBE = ("import time\nt0 = time.perf_counter()\nimport difflib, decimal, "
                   "email.mime.multipart, http.client, logging, tarfile, unittest, "
                   "xml.dom.minidom\nprint(time.perf_counter() - t0)\n")
SETUP_REF_NOMINAL_S = 0.06

END_TO_END = {
    "setup_s": ("s", "lower"),
    "norm_points_per_s": ("1/s", "higher"),
    "norm_invocation_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_specs() -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of every metric the traced run reports."""
    specs: dict[str, tuple[str, str]] = {}
    for module, names in TRACE_TARGETS.items():
        for name in names:
            specs[f"{module}.{name}.calls"] = ("count", "lower")
            specs[f"{module}.{name}.self_s"] = ("s", "lower")
        specs[f"{module}.self_s"] = ("s", "lower")
        specs[f"{module}.raised"] = ("count", "lower")
    for name in sorted(UNIQUE_TARGETS):
        specs[f"{name}.unique_ratio"] = ("ratio", "higher")
    for name in sorted(OUT_BYTES_TARGETS):
        specs[f"{name}.out_bytes"] = ("B", "lower")
    specs["trace.unattributed_s"] = ("s", "lower")
    specs["trace.overhead_s"] = ("s", "lower")
    return specs


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark deadline passed")
    return left


def measure_setup(deadline: float, probes: int) -> list[tuple[float, float]]:
    """(seconds to import numpy and hkqk.cli, speed factor), from ``probes`` fresh
    processes each, for the import and for the reference."""
    def seconds(code: str) -> float:
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=time_left(deadline))
        return float(done.stdout)

    return [(seconds(PROBE), seconds(SETUP_REF_PROBE) / SETUP_REF_NOMINAL_S)
            for _ in range(probes)]


def run_worker(spec: dict, out_dir: Path, tag: str, deadline: float) -> dict:
    result_path = out_dir / f"worker-{tag}.json"
    result_path.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec),
                    str(result_path)],
                   env=child_env(), cwd=ROOT, check=True, timeout=time_left(deadline))
    return json.loads(result_path.read_text(encoding="utf-8"))


def smoothed(factors: list[float], window: int = REF_WINDOW) -> list[float]:
    """Per invocation: the mean speed factor within ``window`` places of it."""
    means = []
    for i in range(len(factors)):
        nearby = factors[max(0, i - window):i + window + 1]
        means.append(sum(nearby) / len(nearby))
    return means


def normalized_times(result: dict) -> list[float]:
    """A worker's invocation times, each divided by its smoothed speed factor."""
    return [t / f for t, f in zip(result["times"], smoothed(result["speed_factors"]))]


def end_to_end_metrics(setup: list[tuple[float, float]], result: dict) -> dict[str, float]:
    norm_times = normalized_times(result)
    return {
        "setup_s": statistics.median(seconds / factor for seconds, factor in setup),
        "norm_points_per_s": result["points"] / sum(norm_times),
        "norm_invocation_p50_s": statistics.median(norm_times),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_metrics(base: dict, traced: dict) -> dict[str, float]:
    spans = traced["spans"]
    metrics: dict[str, float] = {}
    for module, names in TRACE_TARGETS.items():
        module_self = 0.0
        for name in names:
            entry = spans.get(f"{module}.{name}", {"calls": 0, "self_s": 0.0})
            metrics[f"{module}.{name}.calls"] = entry["calls"]
            metrics[f"{module}.{name}.self_s"] = entry["self_s"]
            module_self += entry["self_s"]
        metrics[f"{module}.self_s"] = module_self
        metrics[f"{module}.raised"] = traced["raised"].get(module, 0)
    for name in sorted(UNIQUE_TARGETS):
        calls = spans.get(name, {"calls": 0})["calls"]
        # A function never called wasted nothing.
        metrics[f"{name}.unique_ratio"] = traced["distinct"].get(name, 0) / calls if calls else 1.0
    for name in sorted(OUT_BYTES_TARGETS):
        metrics[f"{name}.out_bytes"] = traced["out_bytes"].get(name, 0)
    metrics["trace.unattributed_s"] = spans[ROOT_SPAN]["self_s"]
    metrics["trace.overhead_s"] = sum(normalized_times(traced)) - sum(normalized_times(base))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hkqk" / "cli.py").is_file():
        print(f"no hkqk sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 or not 0 <= args.seed < 2 ** 63:
        print("--seconds must be positive and --seed a non-negative 63-bit integer",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "src": str(SRC), "out_dir": str(out_dir), "trace": False}
    record: dict = {"workload": args.workload, "why": workload["why"], "seed": args.seed,
                    "argv": workload["argv"]}

    if args.trace == 0:
        setup = measure_setup(deadline, SETUP_PROBES // 2)
        result = run_worker(dict(spec, min_invocations=HASHED_INVOCATIONS, max_invocations=10 ** 9,
                                 hash_count=HASHED_INVOCATIONS),
                            out_dir, "untraced", deadline)
        setup += measure_setup(deadline, SETUP_PROBES - SETUP_PROBES // 2)
        metrics, units = end_to_end_metrics(setup, result), END_TO_END
        attempted, failed = result["attempted"], result["failed"]
        times, factors = result["times"], smoothed(result["speed_factors"])
        notes = [f"norm_invocation_p50_s over {len(times)} invocations",
                 f"wall clock: points_per_s = {result['points'] / sum(times):.6g} 1/s, "
                 f"invocation_p50_s = {statistics.median(times):.6g} s, "
                 f"setup_s = {statistics.median(seconds for seconds, _ in setup):.6g} s",
                 f"host speed factor: median {statistics.median(factors):.4g}, "
                 f"range {min(factors):.4g} to {max(factors):.4g}"]
        record.update(setup_samples=setup, invocation_times=times,
                      speed_factors=result["speed_factors"])
    else:
        # A third of the time untraced, the same invocations again traced;
        # the count is fixed by --seconds, so the call counts repeat exactly.
        count = max(2, int(args.seconds / 3 / workload["nominal_s"]))
        fixed = dict(spec, min_invocations=count, max_invocations=count, hash_count=count)
        base = run_worker(fixed, out_dir, "untraced", deadline)
        result = run_worker(dict(fixed, trace=True), out_dir, "traced", deadline)
        metrics, units = per_layer_metrics(base, result), per_layer_specs()
        same = base["reports_sha256"] == result["reports_sha256"]
        attempted = base["attempted"] + result["attempted"] + 1
        failed = base["failed"] + result["failed"] + int(not same)
        wall = result["spans"][ROOT_SPAN]["total_s"]
        notes = [f"traced_wall_s = {wall:.6g} s over {count} invocations "
                 "(the module self times plus trace.unattributed_s)",
                 f"traced and untraced reports identical: {same}",
                 "out_bytes are computed from the returned arrays, not measured traffic; "
                 "no layer queues or waits, so no wait time is recorded"]
        record.update(untraced_times=base["times"], traced_times=result["times"],
                      traced_wall_s=wall, hashes_match=same)

    provenance = dict(result["provenance"], cores=os.cpu_count(),
                      usable_cores=len(os.sched_getaffinity(0)), thread_caps=THREAD_CAPS,
                      workload_seed=args.seed, reports_sha256=result["reports_sha256"],
                      hashed_reports=result["hashed_reports"])
    record.update(provenance=provenance, attempted=attempted, failed=failed,
                  failed_ratio=failed / attempted,
                  metrics={name: {"value": value, "unit": units[name][0]}
                           for name, value in metrics.items()})
    (out_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name][0]}")
    for note in notes:
        print(note)
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} checks)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
