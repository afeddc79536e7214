"""Command-line surface.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 rejected null when
--exit-on-reject is set. Stochastic commands require --seed (or the
XI_BOOST_SEED environment variable) and are then bit-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import dataio
from .coefficients import METHODS, TESTED_METHODS, Method, pearson_r, score_sample
from .errors import ConfigError, XiBoostError
from .inference import (
    PermutationTestConfig,
    asymptotic_test,
    pearson_test,
    permutation_test,
)
from .power import beta_of_gamma, zeta
from .simulation import (
    POWER_METHODS,
    PowerStudyConfig,
    consistency_study,
    null_calibration_study,
    power_study,
    timing_study,
)

SEED_ENV_VAR = "XI_BOOST_SEED"

# methods `test` calibrates by permutation, in table order
_PERMUTATION_CHOICES = [m.value for m in TESTED_METHODS]


def _comma_list(text: str, cast, kind: str) -> list:
    """The nonblank comma-separated tokens of `text`, each cast; a bad token
    raises an error that argparse prints as it stands, naming `kind`."""
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of {kind}, got {text!r}") from None


def _int_list(text: str) -> list:
    return _comma_list(text, int, "integers")


def _float_list(text: str) -> list:
    return _comma_list(text, float, "numbers")


def _name_list(text: str) -> list:
    return _comma_list(text, str.strip, "method names")


# power-study settings by lowercased config key: the PowerStudyConfig field,
# which is also its flag's dest (except --seed), and the cast of a config value
_POWER_SETTINGS = {
    "n_values": ("n_values", _int_list), "m_values": ("M_values", _int_list),
    "rho0_values": ("rho0_values", _float_list), "methods": ("methods", _name_list),
    "replicates": ("replicates", int), "b": ("B", int), "alpha": ("alpha", float),
    "seed": ("master_seed", int), "workers": ("workers", int),
}


def _resolve_seed(parser: argparse.ArgumentParser, args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            parser.error(f"{SEED_ENV_VAR}={env!r} is not an integer")
    parser.error(f"--seed is required (or set {SEED_ENV_VAR})")


def _load(parser, args, method: Method, needs_seed: bool = False):
    """The data commands' prologue: check that -M is given exactly for the methods
    that take it, resolve the seed when the command or --jitter needs one, and
    load (and jitter) the sample. Returns (sample, seed)."""
    takes_m = METHODS[method].needs_m
    if takes_m != (args.neighbors is not None):
        parser.error(f"--method {args.method} {'requires' if takes_m else 'does not take'} -M")
    seed = _resolve_seed(parser, args) if needs_seed or args.jitter else args.seed
    sample = dataio.load_sample(args.data)
    return (sample.jittered(seed) if args.jitter else sample), seed


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xiboost",
        description="Rank correlation with many right nearest neighbors, "
                    "independence tests, and Monte Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_method(p, choices):  # first, so each usage line keeps its flag order
        p.add_argument("--method", required=True, choices=choices)
        p.add_argument("-M", "--neighbors", type=int, default=None)

    def add_common(p, data=True):
        if data:
            p.add_argument("data", help="two-column CSV (comma or tab)")
            p.add_argument("--jitter", action="store_true",
                           help="break ties: spread tied values in seeded random order")
        else:  # a study command
            p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (fallback: ${SEED_ENV_VAR})")
        p.add_argument("-o", "--output", default=None, help="write here instead of stdout")

    coef = sub.add_parser("coef", help="compute one coefficient")
    add_method(coef, [m.value for m in Method])
    coef.add_argument("--json", action="store_true", help="machine-readable output")
    add_common(coef)

    test = sub.add_parser("test", help="independence test")
    add_method(test, _PERMUTATION_CHOICES + ["xi-asymptotic", "pearson"])
    test.add_argument("-B", "--replicates", type=int, default=10_000,
                      help="null replicates for permutation methods")
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--override-regime", action="store_true",
                      help="run the asymptotic test outside M**4 <= n")
    test.add_argument("--exit-on-reject", action="store_true",
                      help="exit with code 3 when the null is rejected")
    add_common(test)

    pw = sub.add_parser("power-study", help="rejection-frequency table")
    pw.add_argument("--n-values", type=_int_list, default=None)
    pw.add_argument("--M-values", type=_int_list, default=None)
    pw.add_argument("--rho0-values", type=_float_list, default=None)
    pw.add_argument("--methods", type=_name_list, default=None,
                    help="comma list from: " + ",".join(m.value for m in POWER_METHODS))
    pw.add_argument("--replicates", type=int, default=None)
    pw.add_argument("-B", type=int, dest="B", default=None)
    pw.add_argument("--alpha", type=float, default=None)
    pw.add_argument("--workers", type=int, default=None)
    pw.add_argument("--config", default=None, help="key=value file mirroring these flags")
    add_common(pw, data=False)

    nc = sub.add_parser("null-calibration", help="null moments of the coefficient")
    nc.add_argument("--n", type=int, required=True)
    nc.add_argument("-M", "--neighbors", type=int, required=True)
    nc.add_argument("--replicates", type=int, default=20_000)
    nc.add_argument("--workers", type=int, default=1)
    add_common(nc, data=False)

    cons = sub.add_parser("consistency", help="coefficient trajectories vs population value")
    cons.add_argument("--rho-values", type=_float_list, required=True)
    cons.add_argument("--n-values", type=_int_list, required=True)
    cons.add_argument("--M-values", type=_int_list, required=True)
    cons.add_argument("--replicates", type=int, default=300)
    cons.add_argument("--workers", type=int, default=1)
    add_common(cons, data=False)

    tm = sub.add_parser("timing", help="wall-time benchmarks of the coefficient")
    tm.add_argument("--n-values", type=_int_list, required=True)
    tm.add_argument("--M-values", type=_int_list, required=True)
    tm.add_argument("--repetitions", type=int, default=30)
    tm.add_argument("--warmup", type=int, default=5)
    add_common(tm, data=False)

    bd = sub.add_parser("boundary", help="detection-boundary curves for plotting")
    bd.add_argument("--gamma-grid", default=None, metavar="START:STOP:STEP",
                    help="emit (gamma, beta) rows on this grid, read as exact decimals")
    bd.add_argument("--n", type=int, default=None)
    bd.add_argument("--M-values", type=_int_list, default=None)
    bd.add_argument("-o", "--output", default=None)
    return parser


def _run_coef(parser, args) -> int:
    method = Method(args.method)
    sample, _ = _load(parser, args, method)
    result = (pearson_r(sample) if method is Method.PEARSON
              else score_sample(sample, method, args.neighbors)[0])
    if args.json:
        _emit(args, json.dumps(dataclasses.asdict(result)) + "\n")
    else:
        suffix = f", M={result.M}" if result.M is not None else ""
        _emit(args, f"{method.value} = {result.value!r} (n={result.n}{suffix})\n")
    return 0


def _run_test(parser, args) -> int:
    # the normal-limit test is a test of xi-nm
    method = Method.XI_NM if args.method == "xi-asymptotic" else Method(args.method)
    sample, seed = _load(parser, args, method, args.method in _PERMUTATION_CHOICES)
    if args.method == "xi-asymptotic":
        result = asymptotic_test(sample, args.neighbors, args.alpha,
                                 override=args.override_regime)
    elif args.method == "pearson":
        result = pearson_test(sample, args.alpha)
    else:
        cfg = PermutationTestConfig(
            B=args.replicates, alpha=args.alpha, seed=seed, method=method, M=args.neighbors,
        )
        result = permutation_test(sample, cfg)
    _emit(args, json.dumps(dataclasses.asdict(result)) + "\n")
    return 3 if args.exit_on_reject and result.reject else 0


def _power_config(parser, args) -> PowerStudyConfig:
    """Flags over config-file values over defaults. Only the grid defaults
    live here; the rest are PowerStudyConfig's own."""
    settings: dict = {"n_values": [1000], "M_values": [1, 20],
                      "rho0_values": [0.0, 1.0, 2.0, 5.0], "methods": ["xi-pm"]}
    if args.config:
        for key, value in dataio.parse_config_file(args.config).items():
            if key.lower() not in _POWER_SETTINGS:
                raise ConfigError(f"unknown config key {key!r}")
            field, cast = _POWER_SETTINGS[key.lower()]
            try:
                settings[field] = cast(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
    for field, _ in _POWER_SETTINGS.values():
        flag = getattr(args, field, None)
        if flag is not None:
            settings[field] = flag
    if args.seed is not None or "master_seed" not in settings:
        settings["master_seed"] = _resolve_seed(parser, args)
    return PowerStudyConfig(**settings)


def _run_boundary(parser, args) -> int:
    lines = []
    if args.gamma_grid:
        try:
            start, stop, step = (Fraction(tok) for tok in args.gamma_grid.split(":"))
        except (ValueError, ZeroDivisionError):
            parser.error("--gamma-grid must look like START:STOP:STEP")
        if step <= 0:
            parser.error("--gamma-grid step must be positive")
        if stop < start:
            parser.error("--gamma-grid stop must not be below start")
        lines.append("gamma,beta")
        for k in range((stop - start) // step + 1):
            g = start + k * step
            lines.append(f"{float(g):.10g},{float(beta_of_gamma(g))!r}")
    elif args.n is not None and args.M_values:
        lines.append("n,M,zeta")
        for M in args.M_values:
            lines.append(f"{args.n},{M},{zeta(args.n, M)!r}")
    else:
        parser.error("boundary needs --gamma-grid or both --n and --M-values")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "coef":
            return _run_coef(parser, args)
        if args.command == "test":
            return _run_test(parser, args)
        if args.command == "boundary":
            return _run_boundary(parser, args)
        if args.command == "power-study":
            report = power_study(_power_config(parser, args))
        elif args.command == "null-calibration":
            report = null_calibration_study(args.n, args.neighbors, args.replicates,
                                            _resolve_seed(parser, args), workers=args.workers)
        elif args.command == "consistency":
            report = consistency_study(args.rho_values, args.n_values, args.M_values,
                                       args.replicates, _resolve_seed(parser, args),
                                       workers=args.workers)
        else:  # timing; argparse has refused any other command
            report = timing_study(args.n_values, args.M_values, repetitions=args.repetitions,
                                  warmup=args.warmup, seed=_resolve_seed(parser, args))
        _emit(args, dataio.format_report(report, args.output, args.format))
        return 0
    except SystemExit as exc:  # a usage error, from parsing or from parser.error in a handler
        return int(exc.code or 0)
    except (XiBoostError, OSError) as exc:  # OSError: unreadable input, unwritable output
        print(f"xiboost: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
