import pytest

from uniontight import ustat


@pytest.fixture
def chunk_plan(monkeypatch):
    """Two CPUs for the test; ``chunk_plan(spec, kernel, size, threads)`` also sets the chunk budget.

    The call sets a budget that gives runs of ``spec`` at ``threads`` chunks
    of ``size`` trials and returns the bytes of one trial.  The budget is
    split across min(threads, CPUs) workers, so at two threads or more two
    workers share the chunks, and a run at one thread, one worker, gets
    chunks of min(threads, 2) * size trials.
    """
    monkeypatch.setattr(ustat, "_cpus", lambda: 2)

    def plan(spec, kernel, size, threads):
        packed = kernel.needs_pair and spec.family == "bernoulli"
        trial_bytes = ustat._trial_bytes(spec, spec.n, packed)
        monkeypatch.setattr(ustat, "_CHUNK_BYTES", min(threads, 2) * size * trial_bytes)
        return trial_bytes

    return plan
