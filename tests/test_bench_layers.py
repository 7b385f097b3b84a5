"""The benchmark's traced boundaries are crossed by every workload shape.

``bench/run.py`` requires each traced call to record at least one span under
every name in ``REQUIRED_LAYERS[command]``, and ``bench/spans.py`` wraps the
names that ``ustat`` and ``cli`` look up.  A refactor that bypasses one of them
fails the traced benchmark, so small calls of each shape are traced here with
the benchmark's own tracer, imported read-only from ``bench/``.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from uniontight import cli, ustat

_BENCH = Path(__file__).resolve().parents[1] / "bench"

# each call and the fewest trial chunks it must run
_CALLS = [
    pytest.param(["fig-extreme", "--ensemble", "gaussian", "--m", "5", "--n", "10", "--k", "2",
                  "--trials", "300", "--threads", "2"], 1, id="extreme-gaussian-k2"),
    pytest.param(["fig-extreme", "--ensemble", "gaussian", "--m", "6", "--n", "10", "--k", "4",
                  "--trials", "20"], 1, id="extreme-gaussian-k4"),
    pytest.param(["fig-extreme", "--ensemble", "gaussian", "--m", "10", "--n", "40", "--k", "3",
                  "--trials", "200", "--threads", "2"], 2, id="extreme-gaussian-k3-chunks"),
    pytest.param(["fig-extreme", "--ensemble", "bernoulli", "--m", "6", "--n", "10", "--k", "3",
                  "--trials", "50"], 1, id="extreme-bernoulli-k3"),
    pytest.param(["fig-coherence", "--ensemble", "bernoulli", "--m", "20", "--n", "30",
                  "--trials", "50"], 1, id="coherence-bernoulli"),
    pytest.param(["fig-coherence", "--ensemble", "gaussian", "--m", "20", "--n", "30",
                  "--trials", "50"], 1, id="coherence-gaussian"),
]


@pytest.fixture
def bench(monkeypatch):
    """(spans, run): the benchmark's tracer and runner modules; every name the tracer replaces is restored."""
    monkeypatch.syspath_prepend(str(_BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is read, never written
    for module in (cli, ustat):
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(module, name, value)
    return importlib.import_module("spans"), importlib.import_module("run")


@pytest.mark.parametrize("args, chunks", _CALLS)
def test_traced_call_crosses_every_required_layer(tmp_path, bench, args, chunks):
    spans, run = bench
    tracer, main = spans.install(cli, ustat)
    assert main([*args, "--seed", "7", "--out", str(tmp_path / "x.csv")]) == cli.EXIT_OK
    recorded = {span["name"] for span in tracer.spans}
    missing = set(run.REQUIRED_LAYERS[args[0]]) - recorded
    assert not missing, f"no span recorded for {sorted(missing)}"
    layers = spans.summarise(tracer.spans)
    assert layers["ustat.chunks"] >= chunks and layers["ensembles.bytes_out"] > 0
