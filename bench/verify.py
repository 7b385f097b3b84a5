"""Output checks for the benchmark's CSVs that do not reuse the CLI's own code paths.

Every check returns a list of human-readable problems; an empty list means the
CSV passed.  The invariants hold on every seed:

- ``empirical_*`` tail columns are nonincreasing in ``a``;
- ``p_hat <= empirical_extreme`` and ``q_hat_i <= p_hat`` (exact counts);
- ``eps_full <= eps_mid`` wherever both are present, and ``eps_mid <=
  eps_single`` on rows where ``q_hat_r <= q_hat_{k-1}`` for every r, the only
  rows on which ``poisson.py`` promises that order.  The eps bounds are
  evaluated in the log domain by different formulas, so these two compare
  with a relative slack of ``EPS_REL_SLACK``.

For Bernoulli coherence the exceedance counts are recomputed exactly from the
integer signs of the public ``sample_batch`` matrices.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

EPS_REL_SLACK = 1e-12
_CHUNK = 512


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(text):
    """Header and rows of a numeric CSV; empty cells become None."""
    lines = text.splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        rows.append({h: (float(c) if c else None) for h, c in zip(header, cells)})
    return header, rows


def _not_above(x, y, slack):
    return x <= y + slack * abs(y)


def check_tail_columns(header, rows):
    problems = []
    if not rows:
        return ["CSV has no rows"]
    grid = [r["a"] for r in rows]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        problems.append("column a is not strictly increasing")
    tails = [h for h in header if h.startswith("empirical_") and h != "empirical_se"]
    if not tails:
        problems.append("no empirical_* tail column")
    for col in tails:
        values = [r[col] for r in rows]
        if any(v is None or not 0.0 <= v <= 1.0 for v in values):
            problems.append(f"{col} has a value outside [0, 1]")
        elif any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"{col} increases in a")
    return problems


def check_extreme(header, rows, k):
    """Invariants of a ``fig-extreme`` CSV run with every overlap 1..k-1."""
    problems = check_tail_columns(header, rows)
    q_cols = [f"q_hat_{i}" for i in range(1, k)]
    missing = [c for c in ["p_hat", *q_cols, "eps_full", "eps_mid", "eps_single"] if c not in header]
    if missing:
        return problems + [f"missing columns {missing}"]
    for r in rows:
        a = r["a"]
        if not r["p_hat"] <= r["empirical_extreme"]:
            problems.append(f"a={a!r}: p_hat > empirical_extreme")
        for c in q_cols:
            if not r[c] <= r["p_hat"]:
                problems.append(f"a={a!r}: {c} > p_hat")
        full, mid, single = r["eps_full"], r["eps_mid"], r["eps_single"]
        if full is not None and mid is not None and not _not_above(full, mid, EPS_REL_SLACK):
            problems.append(f"a={a!r}: eps_full > eps_mid")
        ordered = all(r[c] <= r[q_cols[-1]] for c in q_cols)
        if ordered and mid is not None and single is not None:
            if not _not_above(mid, single, EPS_REL_SLACK):
                problems.append(f"a={a!r}: eps_mid > eps_single with q_r <= q_(k-1)")
    return problems


def _integer_signs(mats, m):
    """±1 integer entries of Bernoulli matrices scaled by 1/sqrt(m)."""
    signs = np.rint(mats * math.sqrt(m))
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("Bernoulli entries are not ±1/sqrt(m)")
    return signs


def _exact_grams(signs):
    # entries are ±1 and m is small, so every float64 product and sum is exact
    return np.abs(np.matmul(np.swapaxes(signs, 1, 2), signs))


def coherence_counts(ensembles, spec, trials):
    """Max off-diagonal |<s_i, s_j>| per trial, as exact integers."""
    out = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        signs = _integer_signs(ensembles.sample_batch(spec, start, stop), spec.m)
        grams = _exact_grams(signs)
        idx = np.arange(spec.n)
        grams[:, idx, idx] = 0.0
        out[start:stop] = grams.max(axis=(1, 2)).astype(np.int64)
    return out


def check_coherence(header, rows, ensembles, spec, trials):
    """Tail invariants plus an exact recount of every exceedance count."""
    problems = check_tail_columns(header, rows)
    if problems:
        return problems
    maxima = coherence_counts(ensembles, spec, trials)
    for r in rows:
        # an integer j has j/m > a exactly when j > floor(a*m), a*m taken as a rational
        limit = math.floor(Fraction(r["a"]) * spec.m)
        count = int(np.count_nonzero(maxima > limit))
        if r["empirical_coherence_tail"] != count / trials:
            problems.append(
                f"a={r['a']!r}: empirical_coherence_tail {r['empirical_coherence_tail']!r} "
                f"but exact count is {count}/{trials}"
            )
    return problems


def lattice_tie_errors(ensembles, ustat, kernels, spec, trials):
    """Strict coherence indicators 1{value > j/m} that disagree with exact arithmetic.

    Takes the first ``trials`` matrices, every pair of columns, and every even
    lattice level j = 0, 2, ..., m; returns (disagreements, decisions).
    """
    mats = ensembles.sample_batch(spec, 0, trials)
    signs = _integer_signs(mats, spec.m)
    rows, cols = np.triu_indices(spec.n, k=1)
    levels = np.arange(0, spec.m + 1, 2)
    errors = 0
    for t in range(trials):
        # subset_values enumerates pairs lexicographically, as triu_indices does
        values = ustat.subset_values(mats[t], kernels.COHERENCE, 2)
        exact = _exact_grams(signs[t : t + 1])[0][rows, cols]
        float_ind = values[:, None] > levels[None, :] / spec.m
        exact_ind = exact[:, None] > levels[None, :]
        errors += int(np.count_nonzero(float_ind != exact_ind))
    return errors, trials * len(rows) * len(levels)
