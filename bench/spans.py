"""In-memory span recorder that wraps uniontight's public layer boundaries.

Each wrapper is installed at the name its caller looks up (``ustat.sample_batch``
rather than ``ensembles.sample_batch``), so a span records exactly the calls
that cross that boundary.  Spans are kept in a list and summarised once, after
the CLI call returns; nothing is written while the program runs.

Layers and boundaries:

- ``ensembles``: ``sample_batch`` as seen by ``ustat``;
- ``kernels``: ``gram_extremes`` as seen by ``ustat``;
- ``ustat``: the Monte-Carlo engines ``extreme_experiment`` and
  ``mc_extreme_tail`` as seen by ``cli``;
- ``poisson`` / ``bounds``: every function ``cli`` imports from those modules;
- ``cli``: ``cli.main`` itself.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from math import comb

ENGINE_NAMES = ("extreme_experiment", "mc_extreme_tail")


class Tracer:
    """Records (name, start, end, parent, counts) for every wrapped call."""

    def __init__(self):
        self.spans = []            # dicts, appended when a span closes
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []      # open spans of the thread that called cli.main

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def wrap(self, name, fn, counter=None):
        """Return fn wrapped in a span; counter(args, kwargs, result) -> dict of counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # worker threads of the engine's pool inherit the engine span as cause
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._id_lock:
                span_id = self._next_id
                self._next_id += 1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "parent": parent, "start": start, "end": end}
            if counter is not None:
                span.update(counter(args, kwargs, result))
            self.spans.append(span)
            return result

        return traced


def _sample_batch_counts(args, kwargs, result):
    return {"bytes_out": int(result.shape[0]) * int(result.shape[1]) * int(result.shape[2]) * 8}


def _gram_counts(args, kwargs, result):
    grams = args[0] if args else kwargs["grams"]
    shape = grams.shape
    matrices = 1
    for dim in shape[:-2]:
        matrices *= int(dim)
    return {"matrices": matrices, "bytes_in": matrices * int(shape[-1]) * int(shape[-2]) * 8}


def _engine_counter(fn):
    signature = inspect.signature(fn)

    def counts(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        spec, k, trials = bound.arguments["spec"], bound.arguments["k"], bound.arguments["trials"]
        return {"kernel_evals": trials * comb(spec.n, k)}

    return counts


def install(cli, ustat):
    """Wrap the boundaries listed in the module docstring; returns (tracer, main)."""
    tracer = Tracer()
    ustat.sample_batch = tracer.wrap("ensembles.sample_batch", ustat.sample_batch, _sample_batch_counts)
    ustat.gram_extremes = tracer.wrap("kernels.gram_extremes", ustat.gram_extremes, _gram_counts)
    engines = [name for name in ENGINE_NAMES if hasattr(cli, name)]
    if not engines:
        raise RuntimeError("cli imports none of the Monte-Carlo engines " + ", ".join(ENGINE_NAMES))
    for name in engines:
        fn = getattr(cli, name)
        setattr(cli, name, tracer.wrap("ustat.engine", fn, _engine_counter(fn)))
    for attr, value in list(vars(cli).items()):
        if inspect.isfunction(value):
            module = value.__module__.rsplit(".", 1)[-1]
            if module in ("poisson", "bounds"):
                setattr(cli, attr, tracer.wrap(module, value))
    return tracer, tracer.wrap("cli.main", cli.main)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _percentile(sorted_values, q):
    # nearest-rank percentile; the sample is the list of per-chunk times
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]


def summarise(spans):
    """Per-layer counts and times of one traced CLI call."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def self_time(name):
        return sum(
            (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
            for s in by_name.get(name, [])
        )

    sample = by_name.get("ensembles.sample_batch", [])
    grams = by_name.get("kernels.gram_extremes", [])
    engine = by_name.get("ustat.engine", [])
    chunk_ms = sorted((s["end"] - s["start"]) * 1e3 for s in sample)
    engine_ids = {s["id"] for s in engine}
    return {
        "ensembles.sample_batch.calls": len(sample),
        "ensembles.sample_batch.busy_s": busy("ensembles.sample_batch"),
        "ensembles.sample_batch.ms_p50": _percentile(chunk_ms, 50),
        "ensembles.sample_batch.ms_p90": _percentile(chunk_ms, 90),
        "ensembles.bytes_out": sum(s["bytes_out"] for s in sample),
        "kernels.gram_extremes.calls": len(grams),
        "kernels.gram_extremes.busy_s": busy("kernels.gram_extremes"),
        "kernels.gram_extremes.matrices": sum(s["matrices"] for s in grams),
        "kernels.gram_bytes_in": sum(s["bytes_in"] for s in grams),
        "ustat.engine.calls": len(engine),
        "ustat.engine.busy_s": busy("ustat.engine"),
        "ustat.self_s": self_time("ustat.engine"),
        # every chunk draws its matrices with exactly one sample_batch call
        "ustat.chunks": sum(1 for s in sample if s["parent"] in engine_ids),
        "ustat.kernel_evals": sum(s["kernel_evals"] for s in engine),
        "poisson.calls": len(by_name.get("poisson", [])),
        "poisson.busy_s": busy("poisson"),
        "bounds.calls": len(by_name.get("bounds", [])),
        "bounds.busy_s": busy("bounds"),
        "cli.main.calls": len(by_name.get("cli.main", [])),
        "cli.self_s": self_time("cli.main"),
    }
