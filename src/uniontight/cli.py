"""Batch CLI: figure-style CSV emission, bound tables and self checks.

Subcommands: ``fig-extreme``, ``fig-rates``, ``fig-coherence``,
``bounds-table``, ``check``.  Two tables declare the options: ``_TYPES``
gives each option's type or choices, and ``_COMMANDS`` gives each
subcommand its runner and the defaults of the options it reads, and of no
others.  Option precedence is flags > config file > built-in defaults.  A
config file holds flat ``key = value`` lines, keys being flag names with
dashes replaced by underscores; each line goes through the same argparse
options as the flag it names, so one parser checks every value.  Option names
must be exact on both paths: no abbreviated flag is expanded.  Subcommands
that take ``--seed`` read the UNIONTIGHT_SEED environment variable only when
neither ``--seed`` nor the config file sets the seed.

Exit codes: 0 success, 1 invalid configuration or a failed write to --out
(a full disk, a closed pipe), 2 infeasible enumeration, 3 self-check
failure, 4 out of memory (an allocation failed, such as the n x n Gram of
one trial at a very large n).

CSVs are deterministic: float cells use 17-significant-digit round-trip
formatting, counts are exact integers summed over trial chunks sized from one
byte budget (``ustat._CHUNK_BYTES``), and output is byte-identical across
runs and thread counts for a fixed configuration.

CSV rows are written as they are made: each CSV runner is a generator that
checks its configuration and runs its engine before it yields the header, so
config errors, enumeration refusals and all sampling come before --out is
opened.  A failure during the write exits non-zero and may leave a partial file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import checks
from .bounds import (
    FAMILY_BETA,
    TauPreset,
    coherence_eps_bound,
    coherence_eps_terms,
    coherence_gaussian_proxy,
    coherence_tail_bound,
    concentration_tail,
    is_vacuous,
    joint_bound,
    joint_halved_exponent,
    marginal_bound,
    marginal_exponent,
    rate_condition,
    ric_union_bound,
    welch_lower_bound,
)
from .ensembles import FAMILIES, EnsembleSpec
from .kernels import KernelId
from .poisson import lambda_n, poisson_nonzero_approx, poisson_report
from .ustat import (
    EnumerationInfeasibleError,
    extreme_experiment,
    feasible_overlaps,
    mc_extreme_tail,
    subset_count,
)

SEED_ENV_VAR = "UNIONTIGHT_SEED"
_ROW_BLOCK = 4096  # grid points whose cells are converted to Python floats at once

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_CHECK_FAILED = 3
EXIT_MEMORY = 4


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# option -> int/float/str, bool for a switch, or a tuple of string choices
_TYPES = {
    "ensemble": FAMILIES,
    "m": int,
    "n": int,
    "k": int,
    "trials": int,
    "seed": int,
    "a_min": float,
    "a_max": float,
    "a_steps": int,
    "overlap": int,
    "threads": int,
    "out": str,
    "permissive": bool,
    "kernel": ("sigma_max_sq", "neg_sigma_min_sq"),
    "k_min": int,
    "k_max": int,
    "beta": float,
    "beta_prime": float,
    "a_fixed_max": float,
    "a_fixed_min": float,
    "eps_const": float,
    "beta_bar": float,
}


def _finite_float(raw):
    """A float option's value; inf and nan are refused like unparsable text."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _add_options(parser, options):
    """Add a flag to ``parser`` for each of ``options``, typed from ``_TYPES``."""
    for key in options:
        flag, kind = "--" + key.replace("_", "-"), _TYPES[key]
        if kind is bool:
            parser.add_argument(flag, action="store_true", default=None)
        elif isinstance(kind, tuple):
            parser.add_argument(flag, choices=kind)
        else:
            parser.add_argument(flag, type=_finite_float if kind is float else kind)


def build_parser():
    parser = _Parser(prog="uniontight", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file")
        _add_options(p, defaults)
    return parser


def _parse_config_file(path, options):
    """Values of a flat key=value file, each line parsed as the flag of ``options`` it names."""
    parser = _Parser(allow_abbrev=False)
    _add_options(parser, options)
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in options:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            if _TYPES[key] is bool:
                # a switch's flag takes no value, so its line reads true/false or 1/0
                if raw.lower() not in ("true", "false", "1", "0"):
                    raise ConfigError("expected true/false")
                values[key] = raw.lower() in ("true", "1")
            else:
                flag = "--" + key.replace("_", "-")
                values[key] = getattr(parser.parse_args([f"{flag}={raw}"]), key)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _env_seed(default):
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:  # ConfigError among them
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _merge_config(args):
    """Defaults < config file < flags; UNIONTIGHT_SEED only for a seed neither sets."""
    defaults = _COMMANDS[args.command][2]
    given = _parse_config_file(args.config, defaults) if args.config else {}
    given.update({key: getattr(args, key) for key in defaults if getattr(args, key) is not None})
    if "seed" in defaults and "seed" not in given:
        given["seed"] = _env_seed(defaults["seed"])
    cfg = {**defaults, **given}
    _check_out(cfg["out"])
    return cfg


def _check_out(out):
    """Refuse an --out path that cannot be written, before any work is done."""
    if out == "-":
        return
    folder = os.path.dirname(os.path.abspath(out))
    target = out if os.path.exists(out) else folder
    named = os.path.basename(out) and not os.path.isdir(out)
    if not named or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write --out {out!r}")


def _validate_common(cfg):
    for key in ("trials", "threads", "m", "n", "k"):
        if key in cfg and cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    if not cfg["a_min"] < cfg["a_max"]:
        raise ConfigError("a-min must be strictly below a-max")
    if cfg["a_steps"] < 2:
        raise ConfigError("a-steps must be >= 2")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".17g")
    return str(value)


def _write(out, lines):
    """Write lines to --out -> EXIT_OK, or on failure print one error line -> EXIT_CONFIG."""
    try:
        if out == "-":
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(lines)
    except OSError as exc:
        if out == "-":
            # the interpreter flushes stdout again at exit: send that to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write --out {out!r}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _emit_csv(out, rows):
    """Write a runner's header, taken before --out is opened, then each row as it is made."""
    header = next(rows)
    lines = (",".join(map(_fmt, row)) + "\n" for row in itertools.chain([header], rows))
    return _write(out, lines)


def _preset(cfg, k):
    """--beta / --beta-prime, each falling back to the ensemble's moment preset."""
    beta, beta_prime, family = cfg["beta"], cfg["beta_prime"], cfg["ensemble"]
    return TauPreset.from_moment_scaling(
        FAMILY_BETA[family] if beta is None else beta,
        1.0 if beta_prime is None else beta_prime,
        k,
        family if beta is None and beta_prime is None else "custom",
    )


def _grid(cfg):
    return np.linspace(cfg["a_min"], cfg["a_max"], cfg["a_steps"])


def _rows(*columns):
    """The rows of equal-length grid columns as Python scalars, converted _ROW_BLOCK rows at a time."""
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        yield from zip(*(column[start : start + _ROW_BLOCK].tolist() for column in columns))


def _cell(func, *args):
    """A closed form's value, or None where it refuses its arguments with a ValueError."""
    try:
        return func(*args)
    except ValueError:
        return None


def run_fig_extreme(cfg):
    kernel = KernelId(cfg["kernel"])
    spec = EnsembleSpec(cfg["ensemble"], cfg["m"], cfg["n"], cfg["seed"])
    k = cfg["k"]
    lo, hi = (1.0, 6.0) if kernel.variant == "sigma_max_sq" else (0.005, 1.0)
    cfg["a_min"] = lo if cfg["a_min"] is None else cfg["a_min"]
    cfg["a_max"] = hi if cfg["a_max"] is None else cfg["a_max"]
    _validate_common(cfg)
    grid = _grid(cfg)
    overlaps = all_overlaps = feasible_overlaps(spec.n, k)
    if cfg["overlap"] is not None:
        if cfg["overlap"] not in all_overlaps:
            raise ConfigError(f"overlap must be one of {all_overlaps} for k={k}, n={spec.n}")
        overlaps = [cfg["overlap"]]
    # the negated-minimum kernel exceeds -a exactly when sigma2_min < a
    thresholds = grid if kernel.variant == "sigma_max_sq" else -grid
    run = extreme_experiment(
        spec, kernel, k, thresholds, cfg["trials"], overlaps=overlaps,
        threads=cfg["threads"],
    )
    full_set = overlaps == all_overlaps
    yield (
        ["a", "empirical_extreme", "empirical_se", "p_hat"]
        + [f"q_hat_{i}" for i in overlaps]
        + ["lambda", "one_minus_exp_neg_lambda", "eps_full", "eps_mid", "eps_single"]
    )
    # blocks of whole columns as Python floats: reading records one by one is slow
    columns = [grid, run.extreme.point, run.extreme.std_err, run.marginal.point]
    columns += [run.joint[i].point for i in overlaps]
    # lambda and the eps bounds depend on (p_hat, q_hats) alone, and a long
    # grid repeats few of those: each distinct row suffix is made once
    tails = {}
    # each joint event holds the marginal subset, so no q_hat exceeds p_hat
    for a, point, std_err, p_hat, *q_hats in _rows(*columns):
        key = (p_hat, *q_hats)
        if key not in tails:
            lam = lambda_n(spec.n, k, p_hat)
            tail = [lam, poisson_nonzero_approx(lam)]
            if p_hat > 0.0 and full_set:
                # overlaps infeasible for this n carry zero weight in the eps sums
                q_full = [0.0] * (k - 1)
                for pos, i in enumerate(overlaps):
                    q_full[i - 1] = q_hats[pos]
                report = poisson_report(spec.n, k, a, p_hat, q_full)
                tail += [report.eps_full, report.eps_mid, report.eps_single]
            else:
                tail += [None, None, None]
            tails[key] = [_fmt(value) for value in (*key, *tail)]
        yield [a, point, std_err, *tails[key]]


def run_fig_rates(cfg):
    _validate_common(cfg)
    if cfg["k_min"] < 2:
        raise ConfigError("k-min must be >= 2")
    if cfg["k_max"] < cfg["k_min"]:
        raise ConfigError("k-max must be >= k-min")
    permissive = cfg["permissive"]
    grid = np.unique(
        np.concatenate([_grid(cfg), [cfg["a_fixed_min"], cfg["a_fixed_max"]]])
    )
    # every preset is checked before the header, so a bad --beta writes nothing
    presets = [(k, _preset(cfg, k)) for k in range(cfg["k_min"], cfg["k_max"] + 1)]
    yield ["k", "a", "side", "marginal_exponent", "joint_halved_exponent"]
    for k, preset in presets:
        for (a,) in _rows(grid):
            for side in ("max", "min"):
                marg = _cell(marginal_exponent, side, a, k, preset, permissive)
                if marg is not None:
                    joint = _cell(joint_halved_exponent, side, a, k, preset, permissive)
                    yield [k, a, side, marg, joint]


def run_fig_coherence(cfg):
    _validate_common(cfg)
    if cfg["a_min"] <= 0.0:
        raise ConfigError("a-min must be positive (the Gaussian proxy needs a > 0)")
    spec = EnsembleSpec(cfg["ensemble"], cfg["m"], cfg["n"], cfg["seed"])
    grid = _grid(cfg)
    estimates = mc_extreme_tail(
        spec, KernelId("coherence"), 2, grid, cfg["trials"], threads=cfg["threads"]
    )
    yield [
        "a",
        "empirical_coherence_tail",
        "empirical_se",
        "p_gaussian_proxy",
        "lambda",
        "one_minus_exp_neg_lambda",
        "eps_term1",
        "eps_term2",
    ]
    n, m = spec.n, spec.m
    for a, point, std_err in _rows(grid, estimates.point, estimates.std_err):
        proxy = coherence_gaussian_proxy(a, m)
        lam = subset_count(n, 2) * proxy
        one_minus = poisson_nonzero_approx(lam)
        term1, term2 = coherence_eps_terms(n, m, a, lam)
        yield [a, point, std_err, proxy, lam, one_minus, term1, term2]


def run_bounds_table(cfg):
    _validate_common(cfg)
    k, m, n = cfg["k"], cfg["m"], cfg["n"]
    preset = _preset(cfg, k)
    permissive = cfg["permissive"]
    yield ["label", "a", "value", "vacuous"]
    # probability bounds get a vacuous flag; rows a closed form refuses are left out
    for (a,) in _rows(_grid(cfg)):
        bounds = []
        for side in ("max", "min"):
            tau = preset.tau_p(side)
            bounds.append((f"marginal_{side}", _cell(marginal_bound, side, a, k, m, tau, permissive)))
            bounds.append((f"joint_{side}", _cell(joint_bound, side, a, k, m, preset, permissive)))
        if 0.0 <= a <= 1.0:
            bounds.append(("coherence_tail_bound", _cell(coherence_tail_bound, a, m)))
            proxy = _cell(coherence_gaussian_proxy, a, m)
            if proxy is not None:
                lam = subset_count(n, 2) * proxy
                bounds.append(("coherence_eps_bound", _cell(coherence_eps_bound, n, m, a, lam)))
        yield from ([label, a, value, is_vacuous(value)] for label, value in bounds if value is not None)
        rate = _cell(rate_condition, n, k, m, a, cfg["beta_bar"])
        if rate is not None:
            yield ["rate_condition_satisfied", a, float(rate.satisfied), None]
    welch = _cell(welch_lower_bound, n, m)
    if welch is not None:
        yield ["welch_lower_bound", None, welch, None]
    bounds = [
        ("ric_union_bound", _cell(ric_union_bound, n, k, m, cfg["eps_const"])),
        ("concentration_tail", _cell(concentration_tail, cfg["eps_const"], cfg["ensemble"])),
    ]
    yield from ([label, None, value, is_vacuous(value)] for label, value in bounds if value is not None)


def run_check(cfg):
    if cfg["trials"] < 1:
        raise ConfigError("trials must be >= 1")
    results = checks.run_all(trials=cfg["trials"], seed=cfg["seed"])
    failures = sum(1 for r in results if r.status == checks.FAIL)
    skipped = sum(1 for r in results if r.status == checks.SKIPPED)
    report = {
        "trials": cfg["trials"],
        "seed": cfg["seed"],
        "groups": [
            {"name": r.name, "status": r.status, "detail": r.detail} for r in results
        ],
        "failures": failures,
        "skipped": skipped,
    }
    written = _write(cfg["out"], [json.dumps(report, indent=2) + "\n"])
    return written or (EXIT_CHECK_FAILED if failures else EXIT_OK)


# subcommand -> (runner, help, {option: default}); None where there is no default
_COMMANDS = {
    "fig-extreme": (
        run_fig_extreme,
        "extreme/marginal/joint tails with the Poisson approximation columns",
        {
            "ensemble": "gaussian",
            "m": 5,
            "n": 10,
            "k": 2,
            "trials": 20_000,
            "seed": 0,
            "a_min": None,
            "a_max": None,
            "a_steps": 60,
            "overlap": None,
            "threads": 1,
            "out": "-",
            "kernel": "sigma_max_sq",
        },
    ),
    "fig-rates": (
        run_fig_rates,
        "marginal vs halved joint exponents over threshold and subset-size grids",
        {
            "ensemble": "bernoulli",
            "a_min": 0.05,
            "a_max": 3.0,
            "a_steps": 60,
            "out": "-",
            "permissive": False,
            "k_min": 4,
            "k_max": 20,
            "beta": None,
            "beta_prime": None,
            "a_fixed_max": 1.5,
            "a_fixed_min": 0.5,
        },
    ),
    "fig-coherence": (
        run_fig_coherence,
        "mutual-coherence tail vs the union-bound prediction",
        {
            "ensemble": "bernoulli",
            "m": 50,
            "n": 100,
            "trials": 5_000,
            "seed": 0,
            "a_min": 0.1,
            "a_max": 0.9,
            "a_steps": 60,
            "threads": 1,
            "out": "-",
        },
    ),
    "bounds-table": (
        run_bounds_table,
        "closed-form bound curves as label/a/value/vacuous rows",
        {
            "ensemble": "bernoulli",
            "m": 100,
            "n": 1000,
            "k": 8,
            "a_min": 0.1,
            "a_max": 3.0,
            "a_steps": 60,
            "out": "-",
            "permissive": False,
            "eps_const": 0.5,
            "beta": None,
            "beta_prime": None,
            "beta_bar": 1.0,
        },
    ),
    "check": (
        run_check,
        "run the invariant suites and emit a machine-readable report",
        {"trials": 2_000, "seed": 0, "out": "-"},
    ),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        runner, cfg = _COMMANDS[args.command][0], _merge_config(args)
        return runner(cfg) if runner is run_check else _emit_csv(cfg["out"], runner(cfg))
    except EnumerationInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # ConfigError among them
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
