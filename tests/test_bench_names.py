"""The benchmark harness under ``bench/`` resolves every package name it uses."""

import importlib
from pathlib import Path

from sheetwalk import exactprob

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_name_the_benchmark_uses_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module("workloads")  # runs its `from sheetwalk... import` lines
    spans = importlib.import_module("spans")
    with spans.Tracer(full=True).installed():  # looks up every wrapped name
        pass
    # bench/run.py times these two directly
    assert callable(exactprob.ReturnProbTable.build)
    assert callable(exactprob.p_float)
