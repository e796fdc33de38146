"""The benchmark imports toolkit names directly; a rename or deletion in
`src/` must fail here, not only when the benchmark next runs."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("inputs", "measure", "workloads")


def test_benchmark_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
        assert set(workloads.WORKLOADS) == {"root-build", "regex-requests", "regex-ladder"}
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
