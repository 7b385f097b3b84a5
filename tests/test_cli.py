import csv
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from uniontight import checks, cli, ustat
from uniontight.ensembles import EnsembleSpec, sample_batch
from uniontight.kernels import COHERENCE, SIGMA_MAX_SQ
from uniontight.cli import (
    _COMMANDS,
    _TYPES,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_MEMORY,
    EXIT_OK,
    SEED_ENV_VAR,
    _merge_config,
    _parse_config_file,
    build_parser,
    main,
)


_ROOT = Path(__file__).resolve().parents[1]


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _run(args):
    return main(args)


def test_fig_extreme_csv_shape(tmp_path):
    out = tmp_path / "extreme.csv"
    code = _run(
        [
            "fig-extreme", "--m", "5", "--n", "8", "--k", "2", "--trials", "400",
            "--a-min", "1.0", "--a-max", "5.0", "--a-steps", "9",
            "--seed", "3", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == [
        "a", "empirical_extreme", "empirical_se", "p_hat", "q_hat_1",
        "lambda", "one_minus_exp_neg_lambda", "eps_full", "eps_mid", "eps_single",
    ]
    assert len(rows) == 9
    emp = [float(r[1]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in emp)
    assert all(x >= y for x, y in zip(emp, emp[1:]))
    # round-trip float formatting
    assert float(rows[0][0]) == 1.0 and float(rows[-1][0]) == 5.0


def test_fig_extreme_single_trial_is_zero_one(tmp_path):
    out = tmp_path / "one.csv"
    assert (
        _run(
            [
                "fig-extreme", "--n", "6", "--trials", "1",
                "--a-min", "0.5", "--a-max", "4.0", "--a-steps", "8",
                "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    _, rows = _read_csv(out)
    for row in rows:
        assert float(row[1]) in (0.0, 1.0)
        assert float(row[3]) in (0.0, 1.0)


def test_fig_extreme_min_kernel_counts_small_singular_values(tmp_path):
    out = tmp_path / "min.csv"
    assert (
        _run(
            [
                "fig-extreme", "--n", "8", "--kernel", "neg_sigma_min_sq",
                "--trials", "300", "--a-min", "0.01", "--a-max", "1.2",
                "--a-steps", "10", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    _, rows = _read_csv(out)
    emp = [float(r[1]) for r in rows]
    # Pr{min_S sigma2_min < a} grows with a and saturates at 1 past a = 1
    assert all(x <= y for x, y in zip(emp, emp[1:]))
    assert emp[-1] == 1.0


def test_fig_extreme_byte_determinism(tmp_path, chunk_plan, drawn_spans):
    # 64-trial chunks at --threads 3 make 200 trials four chunks on two
    # workers; --threads 1 gets two chunks, of 128 and 72
    chunk_plan(EnsembleSpec("gaussian", 5, 7), SIGMA_MAX_SQ, 2, 64, threads=3)
    args = [
        "fig-extreme", "--n", "7", "--trials", "200", "--a-min", "1.0",
        "--a-max", "4.0", "--a-steps", "6", "--seed", "11",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert _run(args + ["--out", str(first)]) == EXIT_OK
    assert drawn_spans == [(0, 128), (128, 200)]
    drawn_spans.clear()
    assert _run(args + ["--out", str(second), "--threads", "3"]) == EXIT_OK
    assert sorted(drawn_spans) == [(0, 64), (64, 128), (128, 192), (192, 200)]
    assert first.read_bytes() == second.read_bytes()


# SHA-256 of fig-extreme CSVs at seed 7 on the min side and at k > m; the
# benchmark's reference CSVs pin only sigma_max_sq on Gaussian matrices
_PINNED_EXTREME_CSVS = [
    pytest.param(
        "neg_sigma_min_sq", "gaussian", 10, 20, 3, 512,
        "d68c36675089f27bcc06c9e535e6b5ddbe2255809b1746879cab9e9b387b1d7d", id="min-gaussian-10x20-k3",
    ),
    pytest.param(
        "neg_sigma_min_sq", "bernoulli", 6, 12, 3, 600,
        "fb88b326a6af23ea7e7e47e035ccd2521884ece6f11c7ffc65f02e0dadea3a3f", id="min-bernoulli-6x12-k3",
    ),
    pytest.param(
        "neg_sigma_min_sq", "bernoulli", 4, 10, 5, 300,
        "f88c7a9f185116f702076063c36f7d0b533484a69819424c7c802d354caa8fe9", id="min-bernoulli-4x10-k5",
    ),
    pytest.param(
        "sigma_max_sq", "bernoulli", 4, 10, 5, 300,
        "03a12c7bc87cc0a4c0d091ac6c95061c3704a3c3cc5203ad128014447ded417c", id="max-bernoulli-4x10-k5",
    ),
]


@pytest.mark.parametrize("kernel, ensemble, m, n, k, trials, digest", _PINNED_EXTREME_CSVS)
def test_fig_extreme_pinned_bytes(tmp_path, kernel, ensemble, m, n, k, trials, digest):
    out = tmp_path / "pinned.csv"
    args = ["--kernel", kernel, "--ensemble", ensemble, "--m", m, "--n", n, "--k", k, "--trials", trials]
    assert _run(["fig-extreme", *map(str, args), "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of Gaussian fig-extreme CSVs at seed 7 on the prefix-pruned max paths
# that no benchmark workload runs: wide n (27 trials, one chunk at one worker),
# near the subset cap, k = 6, and the min side, which prunes no prefix
_PINNED_PREFIX_CSVS = [
    pytest.param(
        ["--m", "20", "--n", "100", "--k", "3", "--trials", "27"],
        "35980d99a69370714c51c2b14dba4c62e507c023c96a2c1338f8bb7ff3892048", id="max-20x100-k3",
    ),
    pytest.param(
        ["--m", "20", "--n", "40", "--k", "5", "--trials", "8"],
        "9b732de616854fa08c366da3ab15a77a8280dfbe0ca19f38af044a55a1196364", id="max-20x40-k5",
    ),
    pytest.param(
        ["--m", "8", "--n", "16", "--k", "6", "--trials", "64"],
        "f76607e98a3851be0932ed05dd755764a2b0dfb3e33f592ca8b46e4490f80d94", id="max-8x16-k6",
    ),
    pytest.param(
        ["--m", "10", "--n", "20", "--k", "3", "--trials", "512", "--kernel", "neg_sigma_min_sq"],
        "d68c36675089f27bcc06c9e535e6b5ddbe2255809b1746879cab9e9b387b1d7d", id="min-10x20-k3",
    ),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("args, digest", _PINNED_PREFIX_CSVS)
def test_fig_extreme_prefix_paths_pinned_bytes(tmp_path, args, digest, threads):
    out = tmp_path / "pinned.csv"
    args = ["fig-extreme", "--ensemble", "gaussian", *args, "--seed", "7", "--threads", str(threads)]
    assert _run([*args, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("threads", [1, 2])
def test_fig_extreme_vectorized_sampler_pinned_bytes(tmp_path, threads):
    # 50 words per trial run the Philox rounds on whole trial chunks (1,092
    # trials a chunk at two workers, 2,184 at one), the extreme_sampling path
    out = tmp_path / "pinned.csv"
    args = ["--ensemble", "gaussian", "--m", "5", "--n", "10", "--k", "2", "--trials", "5000"]
    assert _run(["fig-extreme", *args, "--seed", "7", "--threads", str(threads), "--out", str(out)]) == EXIT_OK
    digest = "60eea8c74da00e9e2b0022d2b68c1ecd79fa7ec13e7d76cb129838a921da6956"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of Gaussian CSVs at seed 7 on the paths that read the diagonal and
# the column pairs alone: n = 300 (wider than one table) on both sides and for
# the coherence, and k = 1
_PINNED_PAIR_CSVS = [
    pytest.param(
        ["fig-coherence", "--ensemble", "gaussian", "--m", "50", "--n", "300", "--trials", "16"],
        "e4182d5411670dbcc933e003dc09259724272037ab79b1de4660d3973b0db6d4", id="coherence-50x300",
    ),
    pytest.param(
        ["fig-extreme", "--ensemble", "gaussian", "--m", "20", "--n", "300", "--k", "2", "--trials", "64",
         "--kernel", "sigma_max_sq"],
        "62db56b029bb8c2a34a2faeac27cd04bd24e9a70d7215905218e4349dcba12bd", id="max-20x300-k2",
    ),
    pytest.param(
        ["fig-extreme", "--ensemble", "gaussian", "--m", "20", "--n", "300", "--k", "2", "--trials", "64",
         "--kernel", "neg_sigma_min_sq"],
        "37139afd8779d53272b61f0c0b7d3bf23ae326d7733f2c935bdc231b620e4928", id="min-20x300-k2",
    ),
    pytest.param(
        ["fig-extreme", "--ensemble", "gaussian", "--m", "6", "--n", "40", "--k", "1", "--trials", "3000"],
        "780cd310dc47a2a8b35216ad05360ea319aaa5874b97a53ef2987f5b3e92d5af", id="max-6x40-k1",
    ),
]


@pytest.mark.parametrize("args, digest", _PINNED_PAIR_CSVS)
def test_pair_paths_pinned_bytes(tmp_path, args, digest):
    out = tmp_path / "pinned.csv"
    assert _run([*args, "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of Bernoulli fig-extreme CSVs at seed 7, taken while every
# Bernoulli eigen chunk still built a float lattice Gram outside the arena:
# k <= 2 on both sides at m = 1, n = 2, one and two sign words a column and
# two threads, now read from packed signs, and k >= 3, now drawn into the
# arena (k = 3 at 100 x 150 is one tall, wide chunk)
_PINNED_BERNOULLI_CSVS = [
    pytest.param("sigma_max_sq", 7, 10, 1, 2000, 1, 240,
                 "3753fb2568f0b199e7e94d2aa93ea995edf0d04a84bd487de2fda40772eb83e4", id="max-7x10-k1"),
    pytest.param("sigma_max_sq", 1, 6, 1, 500, 1, 240,
                 "3753fb2568f0b199e7e94d2aa93ea995edf0d04a84bd487de2fda40772eb83e4", id="max-1x6-k1"),
    pytest.param("sigma_max_sq", 4, 2, 1, 500, 1, 240,
                 "3753fb2568f0b199e7e94d2aa93ea995edf0d04a84bd487de2fda40772eb83e4", id="max-4x2-k1"),
    pytest.param("sigma_max_sq", 65, 30, 1, 1100, 2, 240,
                 "3753fb2568f0b199e7e94d2aa93ea995edf0d04a84bd487de2fda40772eb83e4", id="max-65x30-k1-threads2"),
    pytest.param("sigma_max_sq", 7, 10, 2, 2000, 1, 240,
                 "61a69080b4fcfd61208893be287906867ac8b4d70aed6fed4b0c673eeeddbdae", id="max-7x10-k2"),
    pytest.param("sigma_max_sq", 1, 6, 2, 500, 1, 240,
                 "fe4bcbcd32dd1253c473a4340340e2cc5b4c5ffb71dd528fb2cc9dbedc21491f", id="max-1x6-k2"),
    pytest.param("sigma_max_sq", 4, 2, 2, 500, 1, 240,
                 "2a0bda353b413584d4fd84aa65151cecc94e01e2b21d43261464554beb712ad9", id="max-4x2-k2"),
    pytest.param("sigma_max_sq", 65, 30, 2, 1100, 2, 240,
                 "be87cdc6d972c6de6228ba1765acc3fba38edb389865b81cc113484b76070333", id="max-65x30-k2-threads2"),
    pytest.param("sigma_max_sq", 10, 20, 4, 128, 1, 60,
                 "ffc0900dc3a345239bf33e316ebaaba7b8091ef25446fbd25d4ceb55703afb9b", id="max-10x20-k4"),
    pytest.param("sigma_max_sq", 100, 150, 3, 8, 1, 60,
                 "88a5220ed4472f30f69cd6356e5edea9f0ed1fec52b94d2248c8e6f58645f142", id="max-100x150-k3"),
    pytest.param("neg_sigma_min_sq", 7, 10, 1, 2000, 1, 240,
                 "81dc13c1f2ee3514bf06b6c8fa73b70a7f9eede5a878270ed4e3ca786bc71eed", id="min-7x10-k1"),
    pytest.param("neg_sigma_min_sq", 1, 6, 1, 500, 1, 240,
                 "81dc13c1f2ee3514bf06b6c8fa73b70a7f9eede5a878270ed4e3ca786bc71eed", id="min-1x6-k1"),
    pytest.param("neg_sigma_min_sq", 4, 2, 1, 500, 1, 240,
                 "81dc13c1f2ee3514bf06b6c8fa73b70a7f9eede5a878270ed4e3ca786bc71eed", id="min-4x2-k1"),
    pytest.param("neg_sigma_min_sq", 65, 30, 1, 1100, 2, 240,
                 "81dc13c1f2ee3514bf06b6c8fa73b70a7f9eede5a878270ed4e3ca786bc71eed", id="min-65x30-k1-threads2"),
    pytest.param("neg_sigma_min_sq", 7, 10, 2, 2000, 1, 240,
                 "9bc8827b568339f6653ad880f36f0a262318de766ee0be2edaf77d54637a05dc", id="min-7x10-k2"),
    pytest.param("neg_sigma_min_sq", 1, 6, 2, 500, 1, 240,
                 "0dfb98971d70b8f901132750f20d6b37f0509a68cdf7b13ee58d6f536f8d8081", id="min-1x6-k2"),
    pytest.param("neg_sigma_min_sq", 4, 2, 2, 500, 1, 240,
                 "48edcea3805d617a1da43368da587b30421bc206254d71922b0827e005bcf133", id="min-4x2-k2"),
    pytest.param("neg_sigma_min_sq", 65, 30, 2, 1100, 2, 240,
                 "0bd2636dfaab536ded896922ed4d7e4b1ae7b1d8eec68a6f612d75a28802aca5", id="min-65x30-k2-threads2"),
    pytest.param("neg_sigma_min_sq", 10, 20, 4, 128, 1, 60,
                 "0f5813ce11a067f2426fe61c46119939f678da753411295908a696c0d688fb93", id="min-10x20-k4"),
]


@pytest.mark.parametrize("kernel, m, n, k, trials, threads, steps, digest", _PINNED_BERNOULLI_CSVS)
def test_fig_extreme_bernoulli_pinned_bytes(tmp_path, kernel, m, n, k, trials, threads, steps, digest):
    out = tmp_path / "pinned.csv"
    args = ["--kernel", kernel, "--m", m, "--n", n, "--k", k, "--trials", trials, "--threads", threads]
    args = ["fig-extreme", "--ensemble", "bernoulli", *map(str, args), "--a-steps", str(steps), "--seed", "7"]
    assert _run([*args, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_fig_extreme_threads_byte_equal_with_a_short_last_chunk(tmp_path):
    # 5,001 trials leave a short last chunk at every thread count
    args = ["fig-extreme", "--m", "5", "--n", "10", "--k", "2", "--trials", "5001", "--seed", "7"]
    outs = [tmp_path / f"t{threads}.csv" for threads in (1, 2, 3)]
    for threads, out in zip((1, 2, 3), outs):
        assert _run([*args, "--threads", str(threads), "--out", str(out)]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_fig_extreme_overlap_restriction(tmp_path):
    out = tmp_path / "overlap.csv"
    assert (
        _run(
            [
                "fig-extreme", "--n", "9", "--k", "3", "--trials", "50",
                "--a-min", "1.0", "--a-max", "3.0", "--a-steps", "4",
                "--overlap", "2", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    header, rows = _read_csv(out)
    assert "q_hat_2" in header and "q_hat_1" not in header
    # eps columns need the full overlap set; they are left empty here
    for row in rows:
        assert row[header.index("eps_full")] == ""


def test_fig_rates_equal_exponents_when_c2_is_one(tmp_path):
    out = tmp_path / "rates.csv"
    assert (
        _run(
            [
                "fig-rates", "--beta", "1.0", "--beta-prime", "1.0",
                "--k-min", "4", "--k-max", "8", "--a-min", "0.2",
                "--a-max", "2.5", "--a-steps", "12", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    header, rows = _read_csv(out)
    assert header == ["k", "a", "side", "marginal_exponent", "joint_halved_exponent"]
    assert rows
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[4]), rel=1e-12)


def test_fig_rates_decreasing_in_k_at_fixed_a(tmp_path):
    out = tmp_path / "rates2.csv"
    assert (
        _run(
            [
                "fig-rates", "--ensemble", "bernoulli", "--permissive",
                "--k-min", "4", "--k-max", "20", "--a-min", "0.3",
                "--a-max", "2.7", "--a-steps", "5", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    header, rows = _read_csv(out)
    at_fixed = [
        (int(r[0]), float(r[3]), float(r[4]))
        for r in rows
        if r[2] == "max" and float(r[1]) == 1.5
    ]
    assert len(at_fixed) == 17
    ks, margs, joints = zip(*sorted(at_fixed))
    assert ks == tuple(range(4, 21))
    assert all(x > y for x, y in zip(margs, margs[1:]))
    assert all(x > y for x, y in zip(joints, joints[1:]))


def test_fig_rates_single_row_grid(tmp_path):
    out = tmp_path / "one_row.csv"
    assert (
        _run(
            [
                "fig-rates", "--k-min", "4", "--k-max", "4", "--a-min", "0.3",
                "--a-max", "5.0", "--a-steps", "2", "--a-fixed-min", "0.3",
                "--a-fixed-max", "0.3", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    header, rows = _read_csv(out)
    assert len(rows) == 1  # a = 5.0 exceeds k and is skipped; only a = 0.3 remains
    assert rows[0][2] == "min"


def test_fig_coherence_zero_beyond_one(tmp_path):
    out = tmp_path / "coh.csv"
    assert (
        _run(
            [
                "fig-coherence", "--m", "10", "--n", "12", "--trials", "150",
                "--a-min", "0.5", "--a-max", "1.3", "--a-steps", "9",
                "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    header, rows = _read_csv(out)
    assert header[:3] == ["a", "empirical_coherence_tail", "empirical_se"]
    for row in rows:
        if float(row[0]) > 1.0:
            assert float(row[1]) == 0.0


def test_fig_coherence_rejects_other_k():
    assert _run(["fig-coherence", "--k", "3", "--trials", "10"]) == EXIT_CONFIG


# SHA-256 of fig-coherence CSVs at seed 7, taken before Bernoulli coherence
# was read from packed sign bits: m on both sides of a 64-bit word, the m = 64
# grid on the lattice j/64 (ties), three chunks on two threads, and the
# Gaussian float path
_PINNED_COHERENCE_CSVS = [
    pytest.param(
        ["--ensemble", "bernoulli", "--m", "64", "--n", "40", "--trials", "300",
         "--a-min", "0.125", "--a-max", "0.75", "--a-steps", "41"],
        "6286d482125ff7a9439b735eb90de469078d00cc1eb423db26cb5c41ba3110fa", id="bernoulli-64x40-lattice-grid",
    ),
    pytest.param(
        ["--ensemble", "bernoulli", "--m", "65", "--n", "40", "--trials", "300"],
        "0b392ea9f999ad982c9066d8bd07277e442c2ffbd7f0f95ad3a5c91774061201", id="bernoulli-65x40",
    ),
    pytest.param(
        ["--ensemble", "bernoulli", "--m", "65", "--n", "40", "--trials", "1100", "--threads", "2"],
        "62c239c406049ff988a6abba9df6d5930dc49043ad5e8511ec2e08f5dacdcd6d", id="bernoulli-65x40-threads2",
    ),
    pytest.param(
        ["--ensemble", "gaussian", "--m", "20", "--n", "30", "--trials", "200"],
        "5de43015cddfcb9e9b86902528900708795b1ac58efd46ed726a509020e4cd47", id="gaussian-20x30",
    ),
]


@pytest.mark.parametrize("args, digest", _PINNED_COHERENCE_CSVS)
def test_fig_coherence_pinned_bytes(tmp_path, chunk_plan, args, digest):
    # two CPUs and a budget of two workers' chunks of 512 trials of 65 x 40
    # packed signs (80 words of 8 B), so the 1,100-trial case is three chunks
    # on two threads
    chunk_plan(EnsembleSpec("bernoulli", 65, 40), COHERENCE, 2, 512, threads=2)
    out = tmp_path / "pinned.csv"
    assert _run(["fig-coherence", *args, "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_bounds_table_rows(tmp_path):
    out = tmp_path / "table.csv"
    assert (
        _run(
            [
                "bounds-table", "--m", "60", "--n", "200", "--k", "8",
                "--a-min", "0.2", "--a-max", "2.0", "--a-steps", "4",
                "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    header, rows = _read_csv(out)
    assert header == ["label", "a", "value", "vacuous"]
    labels = {row[0] for row in rows}
    assert {"marginal_max", "marginal_min", "joint_max", "joint_min"} <= labels
    assert {"welch_lower_bound", "ric_union_bound", "coherence_tail_bound"} <= labels
    welch_rows = [row for row in rows if row[0] == "welch_lower_bound"]
    assert len(welch_rows) == 1 and welch_rows[0][1] == ""
    assert float(welch_rows[0][2]) == pytest.approx(math.sqrt(140 / (60 * 199)))
    for row in rows:
        assert row[3] in ("", "0", "1")


@pytest.mark.parametrize("a_min", ["0", "-1"])
def test_bounds_table_grid_through_zero(tmp_path, a_min):
    out = tmp_path / "table.csv"
    args = ["bounds-table", "--a-min", a_min, "--a-max", "1", "--a-steps", "3", "--out", str(out)]
    assert _run(args) == EXIT_OK
    _, rows = _read_csv(out)
    at_zero = {row[0]: row[2] for row in rows if row[1] and float(row[1]) == 0.0}
    assert float(at_zero["coherence_tail_bound"]) == 2.0
    assert "rate_condition_satisfied" in at_zero
    assert "coherence_eps_bound" not in at_zero  # the Gaussian proxy needs a > 0


def test_bounds_table_default_pinned_bytes(tmp_path):
    # the default grid starts at a = 0.1, clear of the a = 0 guard
    out = tmp_path / "table.csv"
    assert _run(["bounds-table", "--out", str(out)]) == EXIT_OK
    digest = "5e1abdd1cbba595b9f4f59954a65e6889c5dea8fac6f6d0a2a7f6c313ca18078"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_exit_code_invalid_config(capsys):
    assert _run(["fig-extreme", "--a-min", "3.0", "--a-max", "1.0"]) == EXIT_CONFIG
    assert _run(["fig-extreme", "--trials", "0"]) == EXIT_CONFIG
    assert _run(["fig-extreme", "--ensemble", "laplace"]) == EXIT_CONFIG
    assert _run(["fig-extreme", "--overlap", "5"]) == EXIT_CONFIG
    assert _run(["no-such-command"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid configuration" in err


def test_exit_code_infeasible_enumeration(capsys):
    code = _run(["fig-extreme", "--n", "50", "--k", "8", "--trials", "5"])
    assert code == EXIT_INFEASIBLE
    assert "C(50,8)" in capsys.readouterr().err
    # the coherence max builds no pair list, but C(1415, 2) > 10^6 is refused all the same
    assert _run(["fig-coherence", "--m", "50", "--n", "1415", "--trials", "512"]) == EXIT_INFEASIBLE
    assert "C(1415,2)" in capsys.readouterr().err


def test_exit_code_out_of_memory(tmp_path, capsys, monkeypatch):
    # stands in for the 74.5 GiB Gram of --m 2 --n 100000 --k 1, allocating nothing
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (1, 100000, 100000)")

    monkeypatch.setattr(cli, "extreme_experiment", exhausted)
    args = ["fig-extreme", "--m", "2", "--n", "100000", "--k", "1", "--trials", "1"]
    assert _run([*args, "--out", str(tmp_path / "x.csv")]) == EXIT_MEMORY
    assert "error: out of memory: Unable to allocate 74.5 GiB" in capsys.readouterr().err


# the benchmark's workloads (bench/run.py) and the trial chunks each must get
_BENCH_CHUNKS = [
    pytest.param(["fig-extreme", "--ensemble", "gaussian", "--m", "10", "--n", "20", "--k", "4",
                  "--trials", "128", "--threads", "1"], 128, id="extreme_ric"),
    pytest.param(["fig-coherence", "--ensemble", "bernoulli", "--m", "50", "--n", "100",
                  "--trials", "512", "--threads", "1"], 512, id="coherence"),
    pytest.param(["fig-extreme", "--ensemble", "gaussian", "--m", "5", "--n", "10", "--k", "2",
                  "--trials", "50000", "--threads", "2"], 1024, id="extreme_sampling"),
]


@pytest.mark.usefixtures("chunk_plan")  # two CPUs, the default budget
@pytest.mark.parametrize("args, chunk", _BENCH_CHUNKS)
def test_chunk_plan_of_the_benchmark_workloads(tmp_path, drawn_spans, args, chunk):
    # extreme_ric and coherence are one chunk each, as they were at 512-trial
    # chunks; extreme_sampling's two workers get at least `chunk` trials each
    assert _run([*args, "--seed", "7", "--out", str(tmp_path / "x.csv")]) == EXIT_OK
    spans = sorted(drawn_spans)
    trials = int(args[args.index("--trials") + 1])
    assert [start for start, _ in spans] + [trials] == [0] + [stop for _, stop in spans]
    if trials == chunk:
        assert spans == [(0, chunk)]
    else:
        assert min(stop - start for start, stop in spans[:-1]) >= chunk


def test_check_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    assert _run(["check", "--trials", "10", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    statuses = {g["name"]: g["status"] for g in report["groups"]}
    assert statuses["ensemble_moments"] == "skipped"
    assert report["failures"] == 0 and report["skipped"] >= 1

    def broken(trials, seed):
        return checks.FAIL, "forced failure"

    monkeypatch.setattr(checks, "GROUPS", (("forced", broken),))
    assert _run(["check", "--trials", "10", "--out", str(out)]) == EXIT_CHECK_FAILED
    assert json.loads(out.read_text())["failures"] == 1


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_check_refuses_trials_below_one(tmp_path, capsys, trials):
    out = tmp_path / "report.json"
    assert _run(["check", "--trials", trials, "--out", str(out)]) == EXIT_CONFIG
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_refused_before_sampling(tmp_path, monkeypatch, capsys):
    sampled = []

    def recording(*args, **kwargs):
        sampled.append(args)
        return sample_batch(*args, **kwargs)

    monkeypatch.setattr(ustat, "sample_batch", recording)
    args = ["fig-extreme", "--n", "6", "--trials", "10"]
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert _run([*args, "--out", str(out)]) == EXIT_CONFIG
        assert "cannot write --out" in capsys.readouterr().err
    assert sampled == []
    assert _run([*args, "--out", "-"]) == EXIT_OK
    assert sampled


def _cli_process(args, stdout):
    """The CLI run in a fresh interpreter, as from a shell, with its stderr as text."""
    path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "uniontight.cli", *args], stdout=stdout, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path), text=True, timeout=300,
    )


def _assert_one_write_error(proc, out):
    # exit 1 and one error line: no traceback, and no second error from the exit-time flush
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: cannot write --out {out!r}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["fig-extreme"], id="fig-extreme"),
        pytest.param(["check"], id="check"),
        # rows are written as they are made, so this write fails after the first buffer flush
        pytest.param(["fig-extreme", "--a-steps", "20000"], id="fig-extreme-mid-stream"),
    ],
)
def test_full_device_write_exits_with_one_error_line(command):
    proc = _cli_process([*command, "--trials", "10", "--out", "/dev/full"], subprocess.DEVNULL)
    _assert_one_write_error(proc, "/dev/full")


def test_closed_stdout_exits_with_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, so every write to the pipe fails
    try:
        proc = _cli_process(["fig-extreme", "--trials", "10"], write_end)
    finally:
        os.close(write_end)
    _assert_one_write_error(proc, "-")


_CSV_RUNS = [
    pytest.param(["fig-extreme", "--m", "4", "--n", "7", "--k", "3", "--trials", "100"],
                 id="fig-extreme"),
    pytest.param(["fig-rates", "--k-min", "4", "--k-max", "6"], id="fig-rates"),
    pytest.param(["fig-coherence", "--m", "10", "--n", "20", "--trials", "100"],
                 id="fig-coherence"),
    pytest.param(["bounds-table"], id="bounds-table"),
]


@pytest.mark.parametrize("args", _CSV_RUNS)
def test_stdout_and_file_get_the_same_bytes(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert _run([*args, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert _run([*args, "--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize(
    "args, code",
    [
        (["fig-extreme", "--overlap", "5"], EXIT_CONFIG),
        (["fig-extreme", "--n", "50", "--k", "8", "--trials", "5"], EXIT_INFEASIBLE),
        (["fig-rates", "--k-min", "1"], EXIT_CONFIG),
        # the preset of every k is checked before the header
        (["fig-rates", "--beta", "0.1"], EXIT_CONFIG),
        (["fig-coherence", "--a-min", "0"], EXIT_CONFIG),
        (["bounds-table", "--a-steps", "1"], EXIT_CONFIG),
    ],
)
def test_refused_runs_create_no_out_file(tmp_path, capsys, args, code):
    out = tmp_path / "never.csv"
    assert _run([*args, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# n = 6 < 2k - 1 at k = 4: overlap 1 cannot occur and its q is padded with 0
@pytest.mark.parametrize("n, k", [(8, 2), (8, 3), (8, 4), (6, 4)])
@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("kernel", ["sigma_max_sq", "neg_sigma_min_sq"])
def test_fig_extreme_rows_never_warn(tmp_path, kernel, ensemble, n, k):
    # each joint event holds the marginal subset on the same trials, so q_hat <= p_hat
    # and poisson's q_r > p warning cannot fire; any warning here fails the run
    args = ["fig-extreme", "--kernel", kernel, "--ensemble", ensemble, "--m", "5",
            "--n", str(n), "--k", str(k), "--trials", "300", "--seed", "11"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run([*args, "--out", str(tmp_path / "x.csv")]) == EXIT_OK


def test_fig_extreme_long_grid_memory_bound(tmp_path):
    # rows are written as they are made: no grid-sized list of rows or whole-CSV string
    args = ["fig-extreme", "--m", "5", "--n", "10", "--k", "2", "--trials", "512", "--seed", "7",
            "--a-steps", "50000", "--out", str(tmp_path / "x.csv")]
    tracemalloc.start()
    try:
        assert _run(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_fig_extreme_grid_columns_memory_bound(tmp_path):
    # 400,000 thresholds: each grid-sized column as one Python list peaked at
    # 100.8 MiB traced; converted a block of rows at a time it is 58 MiB, most
    # of it the three tail curves
    args = ["fig-extreme", "--m", "5", "--n", "10", "--k", "2", "--trials", "512", "--seed", "7",
            "--a-steps", "400000", "--out", str(tmp_path / "x.csv")]
    tracemalloc.start()
    try:
        assert _run(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2**20


def test_fig_extreme_k1_reads_only_the_diagonal(tmp_path):
    # a 3,000-column k = 1 run: an n x n Gram per trial peaked at 137.5 MiB
    # traced; the diagonal of two trials takes 0.4 MiB
    args = ["fig-extreme", "--ensemble", "gaussian", "--m", "2", "--n", "3000", "--k", "1", "--trials", "2",
            "--seed", "7", "--out", str(tmp_path / "x.csv")]
    tracemalloc.start()
    try:
        assert _run(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 120\nn = 6\nseed = 9  # comment\n\n")
    out_file = tmp_path / "f.csv"
    out_flag = tmp_path / "g.csv"
    base = ["fig-extreme", "--config", str(cfg), "--a-min", "1.0", "--a-max", "3.0",
            "--a-steps", "4"]
    assert _run(base + ["--out", str(out_file)]) == EXIT_OK
    assert _run(base + ["--trials", "60", "--out", str(out_flag)]) == EXIT_OK
    # flag overrides the file: fewer trials changes the empirical column
    assert out_file.read_bytes() != out_flag.read_bytes()
    direct = tmp_path / "h.csv"
    assert (
        _run(
            [
                "fig-extreme", "--trials", "120", "--n", "6", "--seed", "9",
                "--a-min", "1.0", "--a-max", "3.0", "--a-steps", "4",
                "--out", str(direct),
            ]
        )
        == EXIT_OK
    )
    assert out_file.read_bytes() == direct.read_bytes()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert _run(["fig-extreme", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [
        ("fig-extreme", "kernel = ric"),
        ("fig-extreme", "kernel = coherence"),
        ("fig-rates", "ensemble = laplace"),
    ],
)
def test_config_file_checks_choices(tmp_path, capsys, command, line):
    cfg = tmp_path / "choice.cfg"
    cfg.write_text(line + "\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "never.csv")]
    assert _run(args) == EXIT_CONFIG
    assert "bad value for" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_config_file_rejects_keys_of_other_subcommands(tmp_path, capsys):
    cfg = tmp_path / "foreign.cfg"
    cfg.write_text("trials = 5\n")
    assert _run(["fig-rates", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown option 'trials'" in capsys.readouterr().err


_REMOVED_FLAGS = [
    ("fig-extreme", "--permissive"),
    *(("fig-rates", flag) for flag in
      ("--m", "--n", "--k", "--trials", "--seed", "--overlap", "--threads")),
    *(("fig-coherence", flag) for flag in ("--k", "--overlap", "--permissive")),
    *(("bounds-table", flag) for flag in ("--trials", "--seed", "--overlap", "--threads")),
    *(("check", flag) for flag in
      ("--ensemble", "--m", "--n", "--k", "--a-min", "--a-max", "--a-steps",
       "--overlap", "--threads", "--permissive")),
    # a prefix of a flag the subcommand reads is not expanded to it
    ("fig-extreme", "--tri"),
    ("check", "--tri"),
    ("bounds-table", "--eps"),
    ("fig-coherence", "--thr"),
]


@pytest.mark.parametrize("command, flag", _REMOVED_FLAGS)
def test_subcommands_refuse_options_they_do_not_read(capsys, command, flag):
    value = {"--permissive": [], "--ensemble": ["gaussian"]}.get(flag, ["2"])
    assert _run([command, flag, *value]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err


def _parser_options(command):
    return set(vars(build_parser().parse_args([command]))) - {"command", "config"}


def test_parser_options_equal_config_keys(tmp_path):
    sample = {bool: "true", int: "1", float: "1.0", str: "x"}
    for command, (_, _, defaults) in _COMMANDS.items():
        accepted = set()
        for key, kind in _TYPES.items():
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {kind[0] if isinstance(kind, tuple) else sample[kind]}\n")
            try:
                accepted |= set(_parse_config_file(cfg, defaults))
            except ValueError as exc:
                assert "unknown option" in str(exc)
        assert accepted == _parser_options(command), command


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_flag_and_config_key_accept_and_refuse_the_same_values(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    samples = {int: ("3", "x"), float: ("0.5", "inf"), bool: ("true", "maybe"),
               str: (str(tmp_path / "x.csv"), str(tmp_path / "missing" / "x.csv"))}
    cfg = tmp_path / "one.cfg"
    for key in _COMMANDS[command][2]:
        kind, flag = _TYPES[key], "--" + key.replace("_", "-")
        valid, invalid = (kind[0], "bogus") if isinstance(kind, tuple) else samples[kind]
        for value, flag_args in ((valid, [flag] if kind is bool else [f"{flag}={valid}"]),
                                 (invalid, [f"{flag}={invalid}"])):
            cfg.write_text(f"{key} = {value}\n")
            from_config = [command, "--config", str(cfg)]
            if value is valid:
                merged = _merge_config(build_parser().parse_args(from_config))
                assert merged == _merge_config(build_parser().parse_args([command, *flag_args])), key
                assert merged[key] == {bool: True, int: 3, float: 0.5}.get(kind, valid), key
            else:
                assert _run(from_config) == EXIT_CONFIG, key
                assert _run([command, *flag_args]) == EXIT_CONFIG, key
                assert "invalid configuration" in capsys.readouterr().err


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## CLI\n.*?^```sh\n(.*?)^```$", readme, re.M | re.S)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("uniontight ")]
    assert {argv[1] for argv in commands} == set(_COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert _run(argv[1:]) == EXIT_OK, argv


def test_readme_lists_each_subcommand_options():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    listed = {}
    for item in re.findall(r"^- `([a-z-]+)`: (.*?)(?=^- |^\s*$)", readme, re.M | re.S):
        listed[item[0]] = set(re.findall(r"`(--[a-z-]+)`", item[1]))
    for command in _COMMANDS:
        flags = {"--" + dest.replace("_", "-") for dest in _parser_options(command)}
        assert listed.get(command) == flags, command


def test_readme_library_example_runs(capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(re.match(r"a=\S+ empirical=\S+ poisson=\S+ eps=\S+$", line) for line in printed)


def test_seed_env_var_ignored_without_seed_option(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    grid = ["--a-min", "0.5", "--a-max", "1.5", "--a-steps", "3"]
    out = str(tmp_path / "t.csv")
    assert _run(["fig-rates", "--k-min", "4", "--k-max", "5", *grid, "--out", out]) == EXIT_OK
    assert _run(["bounds-table", *grid, "--out", out]) == EXIT_OK
    assert _run(["fig-coherence", "--trials", "1", *grid, "--out", out]) == EXIT_CONFIG


def test_seed_env_var_used_as_default(tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    args = ["fig-extreme", "--n", "6", "--trials", "80", "--a-min", "1.0",
            "--a-max", "3.0", "--a-steps", "4"]
    monkeypatch.setenv(SEED_ENV_VAR, "77")
    assert _run(args + ["--out", str(out_env)]) == EXIT_OK
    monkeypatch.delenv(SEED_ENV_VAR)
    assert _run(args + ["--seed", "77", "--out", str(out_flag)]) == EXIT_OK
    assert out_env.read_bytes() == out_flag.read_bytes()
    monkeypatch.setenv(SEED_ENV_VAR, "not-an-int")
    assert _run(args + ["--out", str(out_env)]) == EXIT_CONFIG


def test_seed_flag_or_config_file_wins_over_a_bad_seed_env_var(tmp_path, monkeypatch):
    args = ["fig-extreme", "--n", "6", "--trials", "80", "--a-min", "1.0",
            "--a-max", "3.0", "--a-steps", "4"]
    unset, flag, file = (tmp_path / f"{name}.csv" for name in ("unset", "flag", "file"))
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert _run(args + ["--seed", "77", "--out", str(unset)]) == EXIT_OK
    monkeypatch.setenv(SEED_ENV_VAR, "not-an-int")
    assert _run(args + ["--seed", "77", "--out", str(flag)]) == EXIT_OK
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 77\n")
    assert _run(args + ["--config", str(cfg), "--out", str(file)]) == EXIT_OK
    assert flag.read_bytes() == unset.read_bytes() == file.read_bytes()
    # with no seed given the variable is read, and refused
    assert _run(args + ["--out", str(tmp_path / "none.csv")]) == EXIT_CONFIG


def test_stdout_output(capsys):
    assert (
        _run(
            [
                "fig-rates", "--k-min", "4", "--k-max", "4", "--a-min", "1.2",
                "--a-max", "1.8", "--a-steps", "2", "--out", "-",
            ]
        )
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert out.startswith("k,a,side,")


def test_fig_extreme_bernoulli_tie_at_one(tmp_path):
    # sigma2_max of two +-1/sqrt(m) columns is 1 + |<s_0, s_1>| / m, so it
    # exceeds a = 1 exactly when the integer inner product is nonzero
    trials = 600
    for m in (6, 50):
        out = tmp_path / f"bernoulli_{m}.csv"
        code = _run(
            [
                "fig-extreme", "--ensemble", "bernoulli", "--m", str(m), "--n", "4",
                "--k", "2", "--trials", str(trials), "--a-steps", "3",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        header, rows = _read_csv(out)
        assert float(rows[0][0]) == 1.0
        signs = np.sign(sample_batch(EnsembleSpec("bernoulli", m, 4, 3), 0, trials))
        inner = np.einsum("bm,bm->b", signs[:, :, 0], signs[:, :, 1])
        p_hat = float(rows[0][header.index("p_hat")])
        assert p_hat == np.count_nonzero(inner) / trials


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_fig_extreme_bernoulli_ties_match_integer_recount(tmp_path):
    # the grid points 1 + j/7 sit on the lattice values (m + |J|)/m of
    # sigma2_max, where a tie counts 0; pair_extremes rounds some of them up,
    # so at a = 12/7 the CSV reads 0.9985 where the recount gives 0.5145
    m, n, trials = 7, 10, 2000
    out = tmp_path / "ties.csv"
    code = _run(
        [
            "fig-extreme", "--ensemble", "bernoulli", "--m", str(m), "--n", str(n),
            "--k", "2", "--trials", str(trials), "--seed", "7",
            "--a-min", "1", "--a-max", "2", "--a-steps", "8", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    signs = np.sign(sample_batch(EnsembleSpec("bernoulli", m, n, 7), 0, trials)).astype(np.int64)
    inner = np.abs(np.einsum("bmi,bmj->bij", signs, signs))
    upper = np.triu_indices(n, 1)
    # the marginal pair is {0, 1}; the overlap-1 joint pairs it with {1, 2}
    curves = {
        "empirical_extreme": inner[:, upper[0], upper[1]].max(axis=1),
        "p_hat": inner[:, 0, 1],
        "q_hat_1": np.minimum(inner[:, 0, 1], inner[:, 1, 2]),
    }
    for row in rows:
        a = float(row[0])
        for name, j in curves.items():
            # sigma2_max is the lattice value (m + |J|)/m, one correctly rounded division
            want = sum(1 for x in j.tolist() if (m + x) / m > a) / trials
            assert float(row[header.index(name)]) == want, (row[0], name)


def _recorded_samples(monkeypatch):
    sampled = []

    def recording(*args, **kwargs):
        sampled.append(args)
        return sample_batch(*args, **kwargs)

    monkeypatch.setattr(ustat, "sample_batch", recording)
    return sampled


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_float_flag_refused_before_sampling(tmp_path, monkeypatch, capsys, value):
    sampled = _recorded_samples(monkeypatch)
    out = tmp_path / "never.csv"
    args = ["fig-extreme", "--n", "6", "--trials", "10", "--out", str(out)]
    assert _run([*args, f"--a-max={value}"]) == EXIT_CONFIG
    assert "invalid configuration" in capsys.readouterr().err
    assert sampled == [] and not out.exists()
    assert _run([*args, "--a-max=5.0"]) == EXIT_OK
    assert sampled


@pytest.mark.parametrize("line", ["a_max = inf", "a_min = nan", "a_max = -inf"])
def test_non_finite_float_config_key_refused_before_sampling(tmp_path, monkeypatch, capsys, line):
    sampled = _recorded_samples(monkeypatch)
    cfg = tmp_path / "float.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never.csv"
    assert _run(["fig-extreme", "--n", "6", "--trials", "10", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "expected a finite number" in err
    assert sampled == [] and not out.exists()


@pytest.mark.parametrize("flag", ["--beta", "--beta-prime", "--a-fixed-max", "--a-fixed-min"])
def test_fig_rates_refuses_non_finite_floats(tmp_path, capsys, flag):
    out = tmp_path / "never.csv"
    assert _run(["fig-rates", f"{flag}=nan", "--out", str(out)]) == EXIT_CONFIG
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()
