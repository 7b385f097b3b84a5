import pytest

from uniontight import ustat
from uniontight.ensembles import sample_batch


@pytest.fixture
def chunk_plan(monkeypatch):
    """Two CPUs for the test; ``chunk_plan(spec, kernel, k, size, threads)`` also sets the chunk budget.

    The call sets a budget that gives runs of ``spec`` at ``threads`` chunks
    of ``size`` trials and returns the bytes of one trial, as the engine
    sizes it (``ustat._trial_words``).  ``cols`` None is a run that reads the
    max over all subsets; otherwise it is the number of distinct columns of
    a run's fixed subsets, which reads no max.  The budget is split across
    min(threads, CPUs) workers, so at two threads or more two workers share
    the chunks, and a run at one thread, one worker, gets chunks of
    min(threads, 2) * size trials.
    """
    monkeypatch.setattr(ustat, "_cpus", lambda: 2)

    def plan(spec, kernel, k, size, threads, cols=None):
        # the engine's rule at k <= 2: the pair table pays when a chunk holds at least n trials
        table = size >= spec.n if cols is None else None
        trial_bytes = 8 * ustat._trial_words(spec, kernel, k, spec.n if cols is None else cols, table)
        monkeypatch.setattr(ustat, "_CHUNK_BYTES", min(threads, 2) * size * trial_bytes)
        return trial_bytes

    return plan


@pytest.fixture
def drawn_spans(monkeypatch):
    """The (start, stop) trial span of every ``ustat.sample_batch`` call, appended as each is drawn."""
    spans = []

    def recording(spec, start, stop, **kwargs):
        spans.append((start, stop))
        return sample_batch(spec, start, stop, **kwargs)

    monkeypatch.setattr(ustat, "sample_batch", recording)
    return spans
