"""One CLI call in a fresh interpreter, measured from inside its own process.

Usage: python3 bench/child.py REPORT.json TRACE(0|1) -- <uniontight CLI args>
       python3 bench/child.py REPORT.json setup

Writes a JSON report: the monotonic time at which the CLI is imported (the
parent subtracts its spawn time to get set-up time), the call's wall time,
user+sys CPU seconds and this process's peak RSS, the exit code, the times of
the calibration job run just before and just after the call, and with TRACE=1
the per-layer summary of the call's spans.  ``setup`` mode imports the CLI and
stops there.

The calibration job uses only numpy and the interpreter: many small
``eigvalsh`` calls and a loop, on 256 KB of inputs from a fixed seed that are
built before and freed after each run, so that the call runs without them.
Its time measures how fast the shared host runs this process at the moment of
the call.
"""

import json
import os
import resource
import sys
import time

import numpy as np


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def _calibration_grams():
    factors = np.random.default_rng(20121030).standard_normal((2_000, 4, 4))
    return factors @ factors.transpose(0, 2, 1)


def _calibrate():
    """(wall seconds, CPU seconds) of one run of the calibration job.

    The inputs are built before the clock starts and freed on return, so the
    call itself runs without them.
    """
    grams = _calibration_grams()
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(8):
        np.linalg.eigvalsh(grams)
    total = 0
    for i in range(1_000_000):
        total += i
    return time.perf_counter() - wall, time.process_time() - cpu


def main():
    report_path, mode = sys.argv[1], sys.argv[2]
    import uniontight.cli as cli

    report = {"ready": time.monotonic(), "module": os.path.abspath(cli.__file__)}
    if mode != "setup":
        _calibrate()  # warm-up
        calibration = [_calibrate()]
        argv = sys.argv[sys.argv.index("--") + 1 :]
        run = cli.main
        if mode == "1":
            import uniontight.ustat as ustat

            import spans

            tracer, run = spans.install(cli, ustat)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        code = run(argv)
        call_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        calibration.append(_calibrate())
        report.update(
            exit=code,
            call_s=call_s,
            cpu_s=_cpu_s(after) - _cpu_s(before),
            peak_rss_mb=after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            calibration_wall_s=[wall for wall, _ in calibration],
            calibration_cpu_s=[cpu for _, cpu in calibration],
        )
        if mode == "1":
            report["layers"] = spans.summarise(tracer.spans)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0 if report.get("exit", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
