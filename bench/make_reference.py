"""Regenerate bench/reference.json: SHA-256 of each workload's CSV at fixed seeds.

Usage (from the root of a checkout): python3 bench/make_reference.py

Run it only when a change is meant to alter CSV bytes, and say so in CHANGES.md.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import verify

SEEDS = (7, 8117)   # the default seed and a held-out one


def main():
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out = Path(tmp) / "out.csv"
        for workload in run.WORKLOADS:
            digests[workload] = {}
            for seed in SEEDS:
                subprocess.run(
                    [sys.executable, "-m", "uniontight.cli", *run.cli_args(workload, seed, out)],
                    cwd=run.ROOT, env=dict(os.environ, PYTHONPATH=str(run.SRC)), check=True,
                )
                digests[workload][str(seed)] = verify.sha256(out.read_bytes())
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps({"sha256": digests}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
