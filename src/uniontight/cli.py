"""Batch CLI: figure-style CSV emission, bound tables and self checks.

Subcommands: ``fig-extreme``, ``fig-rates``, ``fig-coherence``,
``bounds-table``, ``check``.  Two tables declare the options: ``_TYPES``
gives each option's type or choices, and ``_COMMANDS`` gives each
subcommand its runner and the defaults of the options it reads, and of no
others.  Option precedence is flags > config file (flat ``key = value``
lines, keys matching flag names with dashes replaced by underscores, checked
like the flags) > built-in defaults.  Subcommands that take ``--seed`` read
its default from the UNIONTIGHT_SEED environment variable when it is set.

Exit codes: 0 success, 1 invalid configuration, 2 infeasible enumeration,
3 self-check failure.

CSVs are deterministic: float cells use 17-significant-digit round-trip
formatting, counts are accumulated in fixed-size chunks, and output is
byte-identical across runs and thread counts for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

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
    mc_extreme_tail,
    subset_count,
)

SEED_ENV_VAR = "UNIONTIGHT_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_CHECK_FAILED = 3


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


def build_parser():
    parser = _Parser(prog="uniontight", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for key in defaults:
            flag, kind = "--" + key.replace("_", "-"), _TYPES[key]
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind)
            else:
                p.add_argument(flag, type=_finite_float if kind is float else kind)
    return parser


def _parse_config_file(path, options):
    """Values of a flat key=value file, checked like the flags of ``options``."""
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
        kind = _TYPES[key]
        try:
            if kind is bool:
                if raw.lower() not in ("true", "false", "1", "0"):
                    raise ValueError("expected true/false")
                values[key] = raw.lower() in ("true", "1")
            elif isinstance(kind, tuple):
                if raw not in kind:
                    raise ValueError(f"expected one of {', '.join(kind)}")
                values[key] = raw
            else:
                values[key] = (_finite_float if kind is float else kind)(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _env_seed(default):
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _merge_config(args):
    defaults = _COMMANDS[args.command][2]
    cfg = dict(defaults)
    if "seed" in cfg:
        cfg["seed"] = _env_seed(cfg["seed"])
    if args.config:
        cfg.update(_parse_config_file(args.config, defaults))
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
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


def _write(out, text):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _emit_csv(out, header, rows):
    text = ",".join(header) + "\n" + "".join(
        ",".join(_fmt(cell) for cell in row) + "\n" for row in rows
    )
    _write(out, text)


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


def run_fig_extreme(cfg):
    kernel = KernelId(cfg["kernel"])
    spec = EnsembleSpec(cfg["ensemble"], cfg["m"], cfg["n"], cfg["seed"])
    k = cfg["k"]
    lo, hi = (1.0, 6.0) if kernel.variant == "sigma_max_sq" else (0.005, 1.0)
    cfg["a_min"] = lo if cfg["a_min"] is None else cfg["a_min"]
    cfg["a_max"] = hi if cfg["a_max"] is None else cfg["a_max"]
    _validate_common(cfg)
    grid = _grid(cfg)
    all_overlaps = [i for i in range(1, k) if 2 * k - i <= spec.n]
    if cfg["overlap"] is not None:
        if cfg["overlap"] not in all_overlaps:
            raise ConfigError(
                f"overlap must be one of {all_overlaps} for k={k}, n={spec.n}"
            )
        overlaps = [cfg["overlap"]]
    else:
        overlaps = all_overlaps
    # the negated-minimum kernel exceeds -a exactly when sigma2_min < a
    thresholds = grid if kernel.variant == "sigma_max_sq" else -grid
    run = extreme_experiment(
        spec, kernel, k, thresholds, cfg["trials"], overlaps=overlaps,
        threads=cfg["threads"],
    )
    full_set = overlaps == all_overlaps
    header = (
        ["a", "empirical_extreme", "empirical_se", "p_hat"]
        + [f"q_hat_{i}" for i in overlaps]
        + ["lambda", "one_minus_exp_neg_lambda", "eps_full", "eps_mid", "eps_single"]
    )
    rows = []
    for idx, a in enumerate(grid):
        ext = run.extreme[idx]
        p_hat = run.marginal[idx].point
        q_hats = [run.joint[i][idx].point for i in overlaps]
        lam = lambda_n(spec.n, k, p_hat)
        row = [float(a), ext.point, ext.std_err, p_hat, *q_hats, lam,
               poisson_nonzero_approx(lam)]
        if p_hat > 0.0 and full_set:
            # overlaps infeasible for this n carry zero weight in the eps sums
            q_full = [0.0] * (k - 1)
            for pos, i in enumerate(overlaps):
                q_full[i - 1] = q_hats[pos]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = poisson_report(spec.n, k, float(a), p_hat, q_full)
            row += [report.eps_full, report.eps_mid, report.eps_single]
        else:
            row += [None, None, None]
        rows.append(row)
    _emit_csv(cfg["out"], header, rows)
    return EXIT_OK


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
    header = ["k", "a", "side", "marginal_exponent", "joint_halved_exponent"]
    rows = []
    for k in range(cfg["k_min"], cfg["k_max"] + 1):
        preset = _preset(cfg, k)
        for a in grid:
            for side in ("max", "min"):
                try:
                    marg = marginal_exponent(side, float(a), k, preset, permissive)
                except ValueError:
                    continue
                try:
                    joint = joint_halved_exponent(side, float(a), k, preset, permissive)
                except ValueError:
                    joint = None
                rows.append([k, float(a), side, marg, joint])
    _emit_csv(cfg["out"], header, rows)
    return EXIT_OK


def run_fig_coherence(cfg):
    _validate_common(cfg)
    if cfg["a_min"] <= 0.0:
        raise ConfigError("a-min must be positive (the Gaussian proxy needs a > 0)")
    spec = EnsembleSpec(cfg["ensemble"], cfg["m"], cfg["n"], cfg["seed"])
    grid = _grid(cfg)
    estimates = mc_extreme_tail(
        spec, KernelId("coherence"), 2, grid, cfg["trials"], threads=cfg["threads"]
    )
    header = [
        "a",
        "empirical_coherence_tail",
        "empirical_se",
        "p_gaussian_proxy",
        "lambda",
        "one_minus_exp_neg_lambda",
        "eps_term1",
        "eps_term2",
    ]
    rows = []
    n, m = spec.n, spec.m
    for est in estimates:
        a = est.threshold
        proxy = coherence_gaussian_proxy(a, m)
        lam = subset_count(n, 2) * proxy
        one_minus = poisson_nonzero_approx(lam)
        term1, term2 = coherence_eps_terms(n, m, a, lam)
        rows.append([a, est.point, est.std_err, proxy, lam, one_minus, term1, term2])
    _emit_csv(cfg["out"], header, rows)
    return EXIT_OK


def run_bounds_table(cfg):
    _validate_common(cfg)
    k, m, n = cfg["k"], cfg["m"], cfg["n"]
    preset = _preset(cfg, k)
    permissive = cfg["permissive"]
    header = ["label", "a", "value", "vacuous"]
    rows = []

    def curve(label, a, func, probability=True):
        try:
            value = func()
        except ValueError:
            return
        rows.append([label, a, value, is_vacuous(value) if probability else None])

    for a in _grid(cfg):
        a = float(a)
        for side in ("max", "min"):
            curve(
                f"marginal_{side}",
                a,
                lambda s=side, x=a: marginal_bound(s, x, k, m, preset.tau_p(s), permissive),
            )
            curve(
                f"joint_{side}",
                a,
                lambda s=side, x=a: joint_bound(s, x, k, m, preset, permissive),
            )
        if 0.0 <= a <= 1.0:
            curve("coherence_tail_bound", a, lambda x=a: coherence_tail_bound(x, m))
            curve(
                "coherence_eps_bound",
                a,
                lambda x=a: coherence_eps_bound(
                    n, m, x, subset_count(n, 2) * coherence_gaussian_proxy(x, m)
                ),
            )
        curve(
            "rate_condition_satisfied",
            a,
            lambda x=a: float(rate_condition(n, k, m, x, cfg["beta_bar"]).satisfied),
            probability=False,
        )
    curve("welch_lower_bound", None, lambda: welch_lower_bound(n, m), probability=False)
    curve("ric_union_bound", None, lambda: ric_union_bound(n, k, m, cfg["eps_const"]))
    curve(
        "concentration_tail",
        None,
        lambda: concentration_tail(cfg["eps_const"], cfg["ensemble"]),
    )
    _emit_csv(cfg["out"], header, rows)
    return EXIT_OK


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
    _write(cfg["out"], json.dumps(report, indent=2) + "\n")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


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
        return _COMMANDS[args.command][0](_merge_config(args))
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
