"""uniontight benchmark: closed-loop CLI workloads with verified CSV output.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``uniontight`` subcommand call at a fixed size, run as a
closed loop with one client: one call in a new interpreter after another,
until S seconds have passed.  The seed is passed to the CLI, so the
same seed gives the same matrices.  Every call's CSV is checked (see
``verify.py``); a call that exits non-zero or fails a check counts as failed.

--trace 0 reports the end-to-end metrics (medians over the calls of the run):
  trials_per_ref_s  MC trials per reference second of the subcommand call
  cpu_ref_s         user+sys CPU time of the call, in reference seconds
  peak_rss_mb       peak RSS of the call's process
  setup_s           fresh interpreter through ``import uniontight.cli`` until
                    the subcommand starts (probes plus every call)

A reference second is the time in which a fixed calibration job that uses no
uniontight code runs ``1 / CALIBRATION_REF_S`` times.  The job is timed in the
call's own process just before and just after the call (see ``child.py``), so
the two time metrics follow the program and not the speed the shared host
happens to give the run (see README.md).

--trace 1 alternates untraced and traced calls and reports the per-layer
metrics of the traced ones (see README.md for what each should move).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import verify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

SETUP_PROBES = 5
CALL_TIMEOUT_S = 150
LATTICE_TRIALS = 512   # the first 512-trial chunk of the coherence workload
CALIBRATION_REF_S = 0.1  # one reference second = ten runs of the calibration job

WORKLOADS = {
    "extreme_sampling": {
        "command": "fig-extreme", "ensemble": "gaussian", "m": 5, "n": 10, "k": 2,
        "trials": 50_000, "threads": 2,
    },
    "extreme_ric": {
        "command": "fig-extreme", "ensemble": "gaussian", "m": 10, "n": 20, "k": 4,
        "trials": 128, "threads": 1,
    },
    "coherence": {
        "command": "fig-coherence", "ensemble": "bernoulli", "m": 50, "n": 100, "k": 2,
        "trials": 512, "threads": 1,
    },
}

# boundaries every call of the workload must cross; zero calls is an error
REQUIRED_LAYERS = {
    "fig-extreme": ("cli.main", "ustat.engine", "ensembles.sample_batch",
                    "kernels.gram_extremes", "poisson"),
    "fig-coherence": ("cli.main", "ustat.engine", "ensembles.sample_batch",
                      "poisson", "bounds"),
}


def declared_units(kind):
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def ref_s(report):
    """The call's wall time in reference seconds."""
    return report["call_s"] * report["wall_scale"]


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def cli_args(workload, seed, out, threads=None):
    w = WORKLOADS[workload]
    args = [w["command"], "--ensemble", w["ensemble"], "--m", str(w["m"]), "--n", str(w["n"])]
    if w["command"] == "fig-extreme":
        args += ["--k", str(w["k"])]
    args += ["--trials", str(w["trials"]), "--threads", str(threads or w["threads"]),
             "--seed", str(seed), "--out", str(out)]
    return args


def spawn(workdir, tag, mode, argv=()):
    """Run bench/child.py once; returns its report with setup_s added."""
    report_path = workdir / f"{tag}.json"
    cmd = [sys.executable, str(CHILD), str(report_path), mode]
    if mode != "setup":
        cmd += ["--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=CALL_TIMEOUT_S, check=False,
    )
    stderr = proc.stderr.decode(errors="replace")
    if not report_path.exists():
        # the child died before it could report, e.g. on an uncaught exception
        return {"returncode": proc.returncode or 1, "stderr": stderr}
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if Path(report["module"]).resolve() != (SRC / "uniontight" / "cli.py").resolve():
        raise BenchError(f"imported {report['module']}, not this checkout's src/uniontight")
    report.update(setup_s=report["ready"] - started, returncode=proc.returncode, stderr=stderr)
    return report


class Checker:
    """Verifies each call's CSV; the first output of a run is checked in full."""

    def __init__(self, workload, seed):
        import uniontight.ensembles as ensembles

        self.workload, self.seed = workload, seed
        self.ensembles = ensembles
        self.reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
        self.first = None

    def check(self, csv_path):
        try:
            data = csv_path.read_bytes()
        except OSError as exc:
            return [f"no CSV: {exc}"]
        if self.first is not None:
            return [] if data == self.first else ["CSV bytes differ from the run's first call"]
        w = WORKLOADS[self.workload]
        try:
            header, rows = verify.parse_csv(data.decode("utf-8"))
            if w["command"] == "fig-extreme":
                problems = verify.check_extreme(header, rows, w["k"])
            else:
                spec = self.ensembles.EnsembleSpec(w["ensemble"], w["m"], w["n"], self.seed)
                problems = verify.check_coherence(header, rows, self.ensembles, spec, w["trials"])
        except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
            problems = [f"malformed CSV: {exc!r}"]
        digest = self.reference["sha256"][self.workload].get(str(self.seed))
        if digest is not None and verify.sha256(data) != digest:
            problems.append(f"CSV sha256 differs from the reference for seed {self.seed}")
        if not problems:
            self.first = data
        return problems


def lattice_tie_errors(workload, seed):
    import uniontight.ensembles as ensembles
    import uniontight.kernels as kernels
    import uniontight.ustat as ustat

    w = WORKLOADS[workload]
    spec = ensembles.EnsembleSpec(w["ensemble"], w["m"], w["n"], seed)
    errors, decisions = verify.lattice_tie_errors(ensembles, ustat, kernels, spec, LATTICE_TRIALS)
    print(f"lattice tie errors: {errors} of {decisions} strict decisions", flush=True)
    return errors


def run(workload, seed, seconds, trace, workdir):
    w = WORKLOADS[workload]
    checker = Checker(workload, seed)
    setups = []
    for i in range(SETUP_PROBES):
        probe = spawn(workdir, f"setup{i}", "setup")
        if probe["returncode"]:
            raise BenchError(f"import of uniontight.cli failed: {probe['stderr'][-2000:]}")
        setups.append(probe["setup_s"])
    calls = {"0": [], "1": []}
    attempted = failed = 0

    def call(mode, threads=None):
        nonlocal attempted, failed
        attempted += 1
        out = workdir / f"out{attempted}.csv"
        report = spawn(workdir, f"call{attempted}", mode, cli_args(workload, seed, out, threads))
        if report["returncode"]:
            failed += 1
            print(f"call {attempted} exited {report['returncode']}: {report['stderr'][-500:]}",
                  file=sys.stderr, flush=True)
            return None
        # a call with a wrong CSV still ran to the end, so its times are kept
        problems = checker.check(out)
        if problems:
            failed += 1
            print(f"call {attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr, flush=True)
        report["csv_bytes"] = out.stat().st_size if out.exists() else 0
        # host speed around the call: reference seconds per measured second
        report["wall_scale"] = CALIBRATION_REF_S / statistics.mean(report["calibration_wall_s"])
        report["cpu_scale"] = CALIBRATION_REF_S / statistics.mean(report["calibration_cpu_s"])
        print(f"call {attempted} trace={mode} threads={threads or w['threads']}: "
              f"{report['call_s']:.3f} s, setup {report['setup_s']:.3f} s, calibration "
              + "/".join(f"{1000 * t:.0f}" for t in report["calibration_wall_s"]) + " ms", flush=True)
        return report

    # closed loop; a call starts only if one as long as the longest so far still fits
    start = time.monotonic()
    # the first call is checked but not timed: it pays for the memory, caches and
    # host state that the previous run or idle time left behind
    call("0")
    longest = time.monotonic() - start
    warm = attempted
    while attempted == warm or time.monotonic() - start + longest <= seconds:
        for mode in ("01" if trace else "0"):
            began = time.monotonic()
            report = call(mode)
            longest = max(longest, time.monotonic() - began)
            if report is not None:
                calls[mode].append(report)
    done = calls["0"]
    if not done or (trace and not calls["1"]):
        raise BenchError(f"no call of {workload} ran to the end ({failed} of {attempted} failed)")
    print(f"{workload}: {len(calls['0'])} untraced, {len(calls['1'])} traced calls "
          f"in {time.monotonic() - start:.1f} s", flush=True)

    if not trace:
        metrics = {
            "trials_per_ref_s": statistics.median(w["trials"] / ref_s(r) for r in done),
            "cpu_ref_s": statistics.median(r["cpu_s"] * r["cpu_scale"] for r in done),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in done]),
        }
        units = declared_units("end_to_end")
    else:
        traced = calls["1"]
        layers = {}
        for name, value in traced[0]["layers"].items():
            # counts stay whole numbers; times take the usual median
            median = statistics.median_low if isinstance(value, int) else statistics.median
            layers[name] = median(r["layers"][name] for r in traced)
        for name in REQUIRED_LAYERS[w["command"]]:
            if any(r["layers"][name + ".calls"] == 0 for r in traced):
                raise BenchError(f"boundary {name} recorded no calls on {workload}")
        untraced_s = statistics.median(r["call_s"] for r in done)
        untraced_ref_s = statistics.median(ref_s(r) for r in done)
        metrics = dict(layers)
        metrics["cli.csv_bytes"] = traced[0]["csv_bytes"]
        metrics["trace.overhead_frac"] = statistics.median(ref_s(r) for r in traced) / untraced_ref_s - 1.0
        # the end-to-end time metrics before scaling to reference seconds
        metrics["raw.trials_per_s"] = w["trials"] / untraced_s
        metrics["raw.cpu_s"] = statistics.median(r["cpu_s"] for r in done)
        if w["threads"] > 1:
            single = call("0", threads=1)
            if single is None:
                raise BenchError("the single-thread baseline call did not run to the end")
            metrics["ustat.threads2_speedup"] = ref_s(single) / untraced_ref_s
        else:
            metrics["ustat.threads2_speedup"] = 1.0  # the workload already runs one thread
        if w["ensemble"] == "bernoulli":
            metrics["kernels.lattice_tie_errors"] = lattice_tie_errors(workload, seed)
        else:
            metrics["kernels.lattice_tie_errors"] = 0  # Gaussian values have no lattice
        units = declared_units("per_layer")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "uniontight" / "cli.py").is_file():
        print(f"error: no uniontight sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
