"""Tests for the benchmark's own code: tracer arithmetic, rebinding, report checks."""

import itertools
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from tracer import ROOT_SPAN, Tracer, span_stats  # noqa: E402
from worker import TRACE_TARGETS, check_report  # noqa: E402

from hkqk import cli, correspondence, curvature, flat_model, kulkarni  # noqa: E402


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.leaf.leaf`` and ``fakepkg.mid.outer``, which calls a from-imported ``leaf`` twice."""
    pkg = types.ModuleType("fakepkg")
    leaf_mod = types.ModuleType("fakepkg.leaf")
    mid_mod = types.ModuleType("fakepkg.mid")
    exec("import numpy as np\ndef leaf():\n    return np.zeros(4)\n", leaf_mod.__dict__)
    mid_mod.leaf = leaf_mod.leaf
    exec("def outer():\n    leaf()\n    return leaf()\n", mid_mod.__dict__)
    for module in (pkg, leaf_mod, mid_mod):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return leaf_mod, mid_mod


def test_self_time_subtracts_direct_children(fake_package):
    leaf_mod, mid_mod = fake_package
    ticks = itertools.count()
    tracer = Tracer("fakepkg", {"leaf": ["leaf"], "mid": ["outer"]},
                    out_bytes=frozenset({"leaf.leaf"}), clock=lambda: float(next(ticks)))
    with tracer:
        tracer.run_invocation(mid_mod.outer)
    # Clock reads: root 0, outer 1, leaf 2-3, leaf 4-5, outer 6, root 7.
    stats = span_stats(tracer.spans)
    assert stats[ROOT_SPAN] == {"calls": 1, "total_s": 7.0, "self_s": 2.0}
    assert stats["mid.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert stats["leaf.leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert sum(entry["self_s"] for entry in stats.values()) == stats[ROOT_SPAN]["total_s"]
    assert tracer.out_bytes["leaf.leaf"] == 2 * np.zeros(4).nbytes
    assert [parent for *_, parent in tracer.spans] == [-1, 0, 1, 1]


def test_raised_counts_exceptions_leaving_a_module_once(fake_package):
    leaf_mod, mid_mod = fake_package
    exec("def leaf():\n    raise ValueError('boom')\n", leaf_mod.__dict__)
    mid_mod.leaf = leaf_mod.leaf
    with Tracer("fakepkg", {"leaf": ["leaf"], "mid": ["outer"]}) as tracer:
        with pytest.raises(ValueError):
            tracer.run_invocation(mid_mod.outer)
    assert dict(tracer.raised) == {"leaf": 1, "mid": 1}


def test_rebinding_reaches_from_imported_names():
    originals = {(module, name): getattr(sys.modules[f"hkqk.{module}"], name)
                 for module, names in TRACE_TARGETS.items() for name in names}
    deformed = originals[("flat_model", "deformed_metric")]
    gradient = originals[("pseudo_linear", "finite_diff_gradient")]
    params = flat_model.ModelParams(m=0, c=1.0)
    point = flat_model.random_valid_point(params, np.random.default_rng(3))
    with Tracer("hkqk", TRACE_TARGETS,
                unique=frozenset({"flat_model.deformed_metric"})) as tracer:
        for module in (correspondence, flat_model):
            assert module.deformed_metric is not deformed
        for module in (correspondence, flat_model, cli):
            assert module.finite_diff_gradient is not gradient
        assert correspondence.form_obar is kulkarni.form_obar is not originals[("kulkarni", "form_obar")]
        assert curvature.rtilde_closed is correspondence.rtilde_closed
        tracer.run_invocation(correspondence.s_h_tensor, flat_model.geometry_at(params, point))
    stats = span_stats(tracer.spans)
    # One five-point stencil per coordinate, every stencil point distinct.
    assert stats["flat_model.deformed_metric"]["calls"] == 4 * params.d
    assert stats["pseudo_linear.finite_diff_gradient"]["calls"] == 1
    assert tracer.distinct["flat_model.deformed_metric"] == 4 * params.d
    assert correspondence.deformed_metric is deformed
    assert cli.finite_diff_gradient is gradient
    assert curvature.rtilde_closed is originals[("correspondence", "rtilde_closed")]


def test_corrupted_verify_report_counts_failed_rows(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--m", "0", "--samples", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    clean_rows = json.loads(out.read_text())["results"]
    assert check_report("verify", 0.0, out.read_text(), 0) == (1 + len(clean_rows), 0)

    exit_code = cli.main(argv + ["--corrupt-omega2"])
    rows = json.loads(out.read_text())["results"]
    failing_rows = sum(1 for row in rows if not row["passed"])
    assert exit_code == 1 and failing_rows > 0
    attempted, failed = check_report("verify", 0.0, out.read_text(), exit_code)
    assert (attempted, failed) == (1 + len(rows), 1 + failing_rows)


def test_sweep_report_counts_route_mismatch_and_verdict(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--m", "0", "--c", "1", "--rho-min", "0.5", "--rho-max", "4",
                     "--steps", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert check_report("sweep", 1.0, text, 0) == (5, 0)
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6))
    lines[1] = ",".join(fields)
    lines[-1] = "# monotonicity: non-monotone"
    assert check_report("sweep", 1.0, "\n".join(lines), 0) == (5, 2)
    assert check_report("sweep", 1.0, "", 1) == (2, 2)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_specs()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_normalized_metrics_ignore_a_uniformly_slower_host():
    factors = [1.0, 1.0, 2.0, 2.0]
    assert run.smoothed(factors, window=1) == pytest.approx([1.0, 4 / 3, 5 / 3, 2.0])
    result = {"times": [1.0, 1.0, 2.0, 2.0], "speed_factors": factors, "points": 8,
              "peak_rss_mb": 1.0}
    slow = dict(result, times=[2 * t for t in result["times"]],
                speed_factors=[2 * f for f in factors])
    assert run.end_to_end_metrics([(0.2, 2.0)], slow) == pytest.approx(
        run.end_to_end_metrics([(0.1, 1.0)], result))
