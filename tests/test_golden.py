"""Golden reports: stdout bytes and exit codes of fast CLI invocations.

``golden_reports.json`` holds the sha256 of each invocation's stdout and its
exit code, with the numpy and BLAS versions that produced them. Floats are
printed to 17 significant digits, so another numpy or BLAS may change the last
digits legitimately; the test skips, naming both versions, only then.

A change that alters report bytes on purpose regenerates the file with
``PYTHONPATH=src python3 tests/test_golden.py`` and says so.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from hkqk.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

CASES = [
    "verify --m 0 --samples 5",
    "verify --m 0 --c 1 --samples 2 --format csv",
    "verify --m 0 --c 1 --samples 2 --corrupt-omega2",
    "verify --m 1 --c 1 --samples 1",
    "norm --m 1 --c 0.5 --seed 3",
    "norm --m 0 --point 0.1,0,0,0",
    "decompose --m 1 --c 1 --seed 5",
    "sweep --m 0 --c 1 --rho-min 0.1 --rho-max 10 --steps 4",
    "sweep --m 3 --c 0.5 --rho-min 0.2 --rho-max 5 --steps 3",
    "verify --samples 0",
    "norm --m 0 --point 2,0,0",
    "norm --m 0 --point 0.0001,0,0,0",
    "decompose --m 0 --point 0.0001,0,0,0",
    "decompose --m 0 --point 2,0,0,0",
    "verify --m 1 --c 0 --samples 2 --fd-step 2e-5 --tol-override moment_map_f_z=1e-30",
    "sweep --m 1 --c 0 --rho-min 0.5 --rho-max 3 --steps 3",
    "verify --m 0 --c 0.5 --samples 1 --format csv",
    "sweep --m 7 --c 1 --rho-min 0.1 --rho-max 10 --steps 2",
    "decompose --m 7 --c 1 --seed 2",
    "verify --m 3 --c 1 --samples 1",
    "sweep --m 4 --c 2 --rho-min 0.3 --rho-max 6 --steps 2",
    "sweep --m 5 --c 0.5 --rho-min 0.2 --rho-max 4 --steps 2",
    "norm --m 2 --c 3 --seed 7",
    "sweep --m 6 --c 1 --rho-min 0.1 --rho-max 10 --steps 2",
    "norm --m 6 --c 0.5 --seed 2",
    "decompose --m 4 --c 2 --seed 1",
]


def versions() -> dict[str, str]:
    # numpy < 1.25 has no build record; the versions then read as unknown and the test skips
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_case(case: str) -> dict:
    """Run one invocation in-process; HKQK_TOL_SCALE must be unset."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(case.split())
    return {"stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit_code": code}


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != versions():
        pytest.skip(f"golden reports were recorded with {golden['versions']}, "
                    f"this is {versions()}")
    monkeypatch.delenv("HKQK_TOL_SCALE", raising=False)
    assert run_case(case) == golden["cases"][case]


if __name__ == "__main__":
    os.environ.pop("HKQK_TOL_SCALE", None)
    payload = {"versions": versions(), "cases": {case: run_case(case) for case in CASES}}
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
