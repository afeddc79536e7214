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
from typing import Optional, Sequence

from . import dataio
from .coefficients import METHODS, Method
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
    StudyReport,
    consistency_study,
    null_calibration_study,
    power_study,
    timing_study,
)

SEED_ENV_VAR = "XI_BOOST_SEED"

# methods `test` calibrates by permutation, in table order
_PERMUTATION_CHOICES = [m.value for m in Method if METHODS[m].score is not None]


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


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


def _load(args, seed: Optional[int]):
    sample = dataio.load_sample(args.data)
    if args.jitter:
        if seed is None:
            raise ConfigError("--jitter needs a seed")
        sample = sample.jittered(seed)
    return sample


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        from pathlib import Path

        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_report(args, report: StudyReport) -> None:
    _emit(args, dataio.format_report(report, args.output, args.format))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xiboost",
        description="Rank correlation with many right nearest neighbors, "
                    "independence tests, and Monte Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True, seed=True, output=True):
        if data:
            p.add_argument("data", help="two-column CSV (comma or tab)")
            p.add_argument("--jitter", action="store_true",
                           help="break ties: spread tied values in seeded random order")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed (fallback: ${SEED_ENV_VAR})")
        if output:
            p.add_argument("-o", "--output", default=None, help="write here instead of stdout")

    coef = sub.add_parser("coef", help="compute one coefficient")
    coef.add_argument("--method", required=True, choices=[m.value for m in Method])
    coef.add_argument("-M", "--neighbors", type=int, default=None)
    coef.add_argument("--json", action="store_true", help="machine-readable output")
    add_common(coef)

    test = sub.add_parser("test", help="independence test")
    test.add_argument("--method", required=True,
                      choices=_PERMUTATION_CHOICES + ["xi-asymptotic", "pearson"])
    test.add_argument("-M", "--neighbors", type=int, default=None)
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
    pw.add_argument("--methods", default=None,
                    help="comma list from: " + ",".join(m.value for m in POWER_METHODS))
    pw.add_argument("--replicates", type=int, default=None)
    pw.add_argument("-B", type=int, dest="B", default=None)
    pw.add_argument("--alpha", type=float, default=None)
    pw.add_argument("--workers", type=int, default=None)
    pw.add_argument("--config", default=None, help="key=value file mirroring these flags")
    pw.add_argument("--format", choices=["json", "csv"], default=None)
    add_common(pw, data=False)

    nc = sub.add_parser("null-calibration", help="null moments of the coefficient")
    nc.add_argument("--n", type=int, required=True)
    nc.add_argument("-M", "--neighbors", type=int, required=True)
    nc.add_argument("--replicates", type=int, default=20_000)
    nc.add_argument("--workers", type=int, default=1)
    nc.add_argument("--format", choices=["json", "csv"], default=None)
    add_common(nc, data=False)

    cons = sub.add_parser("consistency", help="coefficient trajectories vs population value")
    cons.add_argument("--rho-values", type=_float_list, required=True)
    cons.add_argument("--n-values", type=_int_list, required=True)
    cons.add_argument("--M-values", type=_int_list, required=True)
    cons.add_argument("--replicates", type=int, default=300)
    cons.add_argument("--workers", type=int, default=1)
    cons.add_argument("--format", choices=["json", "csv"], default=None)
    add_common(cons, data=False)

    tm = sub.add_parser("timing", help="wall-time benchmarks of the coefficient")
    tm.add_argument("--n-values", type=_int_list, required=True)
    tm.add_argument("--M-values", type=_int_list, required=True)
    tm.add_argument("--repetitions", type=int, default=30)
    tm.add_argument("--warmup", type=int, default=5)
    tm.add_argument("--format", choices=["json", "csv"], default=None)
    add_common(tm, data=False)

    bd = sub.add_parser("boundary", help="detection-boundary curves for plotting")
    bd.add_argument("--gamma-grid", default=None, metavar="START:STOP:STEP",
                    help="emit (gamma, beta) rows on this grid")
    bd.add_argument("--n", type=int, default=None)
    bd.add_argument("--M-values", type=_int_list, default=None)
    bd.add_argument("-o", "--output", default=None)
    return parser


def _check_neighbors(parser, args, method: Method) -> None:
    """-M is given exactly for the methods that take it."""
    if METHODS[method].needs_m and args.neighbors is None:
        parser.error(f"--method {args.method} requires -M")
    if not METHODS[method].needs_m and args.neighbors is not None:
        parser.error(f"--method {args.method} does not take -M")


def _run_coef(parser, args) -> int:
    method = Method(args.method)
    seed = None
    if args.jitter:
        seed = _resolve_seed(parser, args)
    sample = _load(args, seed)
    _check_neighbors(parser, args, method)
    result = METHODS[method].coefficient(sample, args.neighbors)
    if args.json:
        _emit(args, json.dumps(dataclasses.asdict(result)) + "\n")
    else:
        suffix = f", M={result.M}" if result.M is not None else ""
        _emit(args, f"{method.value} = {result.value!r} (n={result.n}{suffix})\n")
    return 0


def _run_test(parser, args) -> int:
    needs_seed = args.method in _PERMUTATION_CHOICES or args.jitter
    seed = _resolve_seed(parser, args) if needs_seed else args.seed
    sample = _load(args, seed)
    # the normal-limit test is a test of xi-nm
    method = Method.XI_NM if args.method == "xi-asymptotic" else Method(args.method)
    _check_neighbors(parser, args, method)
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
    payload = dataclasses.asdict(result)
    payload["method"] = result.method.value
    _emit(args, json.dumps(payload) + "\n")
    if args.exit_on_reject and result.reject:
        return 3
    return 0


def _power_config(parser, args) -> PowerStudyConfig:
    settings: dict = {}
    if args.config:
        raw = dataio.parse_config_file(args.config)
        casts = {
            "n_values": _int_list, "m_values": _int_list,
            "rho0_values": _float_list,
            "methods": lambda v: [tok.strip() for tok in v.split(",")],
            "replicates": int, "b": int, "alpha": float,
            "seed": int, "workers": int,
        }
        for key, value in raw.items():
            lk = key.lower()
            if lk not in casts:
                raise ConfigError(f"unknown config key {key!r}")
            settings[lk] = casts[lk](value)
    def pick(flag, key, default):
        if flag is not None:
            return flag
        return settings.get(key, default)

    methods = pick(args.methods, "methods", "xi-pm")
    if isinstance(methods, str):
        methods = [tok.strip() for tok in methods.split(",")]
    seed = args.seed if args.seed is not None else settings.get("seed")
    if seed is None:
        seed = _resolve_seed(parser, args)
    return PowerStudyConfig(
        n_values=pick(args.n_values, "n_values", [1000]),
        M_values=pick(args.M_values, "m_values", [1, 20]),
        rho0_values=pick(args.rho0_values, "rho0_values", [0.0, 1.0, 2.0, 5.0]),
        methods=methods,
        replicates=pick(args.replicates, "replicates", 500),
        B=pick(args.B, "b", 999),
        alpha=pick(args.alpha, "alpha", 0.05),
        master_seed=seed,
        workers=pick(args.workers, "workers", 1),
    )


def _run_boundary(parser, args) -> int:
    lines = []
    if args.gamma_grid:
        try:
            start, stop, step = (float(tok) for tok in args.gamma_grid.split(":"))
        except ValueError:
            parser.error("--gamma-grid must look like START:STOP:STEP")
        if step <= 0:
            parser.error("--gamma-grid step must be positive")
        lines.append("gamma,beta")
        g = start
        while g <= stop + 1e-12:
            lines.append(f"{g:.10g},{beta_of_gamma(g)!r}")
            g += step
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
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "coef":
            return _run_coef(parser, args)
        if args.command == "test":
            return _run_test(parser, args)
        if args.command == "power-study":
            report = power_study(_power_config(parser, args))
            _emit_report(args, report)
            return 0
        if args.command == "null-calibration":
            seed = _resolve_seed(parser, args)
            report = null_calibration_study(args.n, args.neighbors, args.replicates,
                                            seed, workers=args.workers)
            _emit_report(args, report)
            return 0
        if args.command == "consistency":
            seed = _resolve_seed(parser, args)
            report = consistency_study(args.rho_values, args.n_values, args.M_values,
                                       args.replicates, seed, workers=args.workers)
            _emit_report(args, report)
            return 0
        if args.command == "timing":
            seed = _resolve_seed(parser, args)
            report = timing_study(args.n_values, args.M_values,
                                  repetitions=args.repetitions, warmup=args.warmup,
                                  seed=seed)
            _emit_report(args, report)
            return 0
        if args.command == "boundary":
            return _run_boundary(parser, args)
        parser.error(f"unknown command {args.command!r}")
    except SystemExit as exc:  # parser.error inside handlers
        return int(exc.code or 0)
    except XiBoostError as exc:
        print(f"xiboost: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
