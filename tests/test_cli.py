import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from uniontight import checks, ustat
from uniontight.ensembles import EnsembleSpec, sample_batch
from uniontight.cli import (
    _COMMANDS,
    _TYPES,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    SEED_ENV_VAR,
    _parse_config_file,
    build_parser,
    main,
)


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


def test_fig_extreme_byte_determinism(tmp_path):
    args = [
        "fig-extreme", "--n", "7", "--trials", "200", "--a-min", "1.0",
        "--a-max", "4.0", "--a-steps", "6", "--seed", "11",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert _run(args + ["--out", str(first)]) == EXIT_OK
    assert _run(args + ["--out", str(second), "--threads", "3"]) == EXIT_OK
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
def test_fig_coherence_pinned_bytes(tmp_path, args, digest):
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


def test_readme_lists_each_subcommand_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = {}
    for item in re.findall(r"^- `([a-z-]+)`: (.*?)(?=^- |^\s*$)", readme, re.M | re.S):
        listed[item[0]] = set(re.findall(r"`(--[a-z-]+)`", item[1]))
    for command in _COMMANDS:
        flags = {"--" + dest.replace("_", "-") for dest in _parser_options(command)}
        assert listed.get(command) == flags, command


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
