"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -m acceptance -v -s`; `-m "not acceptance"` deselects it.
The Monte Carlo criteria (05, 06, 07, 11) dominate the runtime; the whole
suite takes about 7.5 minutes on a 2-vCPU host.
"""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from xiboost import (
    Sample,
    beta_of_gamma,
    derive_rng,
    monotone_extremal_values_exact,
    null_moments_enumerate,
    null_variance_asymptotic,
    permutation_test_fast_path_equivalence,
    xi_nm_exact,
    zeta,
)
from xiboost.coefficients import min_rank_sum, xi_fraction_from_min_sum
from xiboost.dataio import report_to_json
from xiboost.ranks import sorted_y_ranks
from xiboost.simulation import (
    PowerStudyConfig,
    consistency_study,
    null_calibration_study,
    power_study,
    timing_study,
)

pytestmark = pytest.mark.acceptance

WORKERS = 2


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{tail}")
    assert ok, f"criterion {num} {name}{tail}"


def test_01_exact_null_mean_by_enumeration():
    """Mean over all n! rank permutations is exactly zero, every small (n, M)."""
    failures = []
    for n in (3, 4, 5, 6):
        for M in range(1, n):
            moments = null_moments_enumerate(n, M)
            if moments.mean != 0:
                failures.append((n, M, moments.mean))
    _criterion(1, "exact null mean", not failures, detail=str(failures) or "all (n,M) zero")


def test_02_permutation_moment_oracle_n5():
    """Brute-force enumeration at n=5 reproduces the nine closed-form
    permutation moments exactly."""
    n = 5
    acc = defaultdict(Fraction)
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        r1, r2, r3, r4, _ = perm
        count += 1
        acc["r1"] += r1
        acc["min12"] += min(r1, r2)
        acc["r1_sq"] += r1 * r1
        acc["r1_r2"] += r1 * r2
        acc["r1_min23"] += r1 * min(r2, r3)
        acc["r1_min12"] += r1 * min(r1, r2)
        acc["min12_min34"] += min(r1, r2) * min(r3, r4)
        acc["min12_min13"] += min(r1, r2) * min(r1, r3)
        acc["min12_sq"] += min(r1, r2) ** 2
    for key in list(acc):
        acc[key] /= count
    mean_r = acc["r1"]
    mean_min = acc["min12"]
    checks = {
        "E[R1]": (mean_r, Fraction(n + 1, 2)),
        "E[min]": (mean_min, Fraction(n + 1, 3)),
        "Var[R1]": (acc["r1_sq"] - mean_r ** 2, Fraction((n + 1) * (n - 1), 12)),
        "Cov[R1,R2]": (acc["r1_r2"] - mean_r ** 2, Fraction(-(n + 1), 12)),
        "Cov[R1,min23]": (acc["r1_min23"] - mean_r * mean_min, Fraction(-(n + 1), 12)),
        "Cov[R1,min12]": (acc["r1_min12"] - mean_r * mean_min,
                          Fraction((n - 2) * (n + 1), 24)),
        "Cov[min12,min34]": (acc["min12_min34"] - mean_min ** 2,
                             Fraction(-4 * (n + 1), 45)),
        "Cov[min12,min13]": (acc["min12_min13"] - mean_min ** 2,
                             Fraction((n + 1) * (4 * n - 17), 180)),
        "Var[min12]": (acc["min12_sq"] - mean_min ** 2, Fraction((n - 2) * (n + 1), 18)),
    }
    bad = {k: (str(got), str(want)) for k, (got, want) in checks.items() if got != want}
    _criterion(2, "permutation moment oracle", not bad,
               detail=str(bad) if bad else "nine moments exact")


def test_03_null_variance_formula():
    """Monte Carlo variance matches the asymptotic formula at (1000, 20), and
    the variance-minimizing M scales like sqrt(n)."""
    report = null_calibration_study(1000, 20, 20_000, seed=31415, workers=WORKERS)
    row = report.rows[0]
    target = null_variance_asymptotic(1000, 20)
    assert target == pytest.approx(3.0667e-5, rel=1e-4)
    ratio_ok = abs(row["variance"] / target - 1.0) <= 0.15

    sizes = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    argmins = []
    for n in sizes:
        grid = np.arange(1, n, dtype=np.float64)
        values = 0.4 / (n * grid) + (8.0 / 15.0) * grid / n ** 2
        argmins.append(float(grid[np.argmin(values)]))
    slope = np.polyfit(np.log(sizes), np.log(argmins), 1)[0]
    scaling_ok = abs(slope - 0.5) < 0.02 and all(
        0.95 <= m / math.sqrt(0.75 * n) <= 1.05 for n, m in zip(sizes, argmins))
    _criterion(3, "null variance formula", ratio_ok and scaling_ok,
               detail=f"variance ratio {row['variance_ratio']:.3f}, argmin slope {slope:.3f}")


def test_04_central_limit_theorem():
    """sqrt(nM) times the null coefficient approaches N(0, 2/5) at (4096, 4)."""
    report = null_calibration_study(4096, 4, 2_000, seed=99991, workers=WORKERS)
    row = report.rows[0]
    scaled_var = row["variance"] * 4096 * 4
    var_ok = 0.36 <= scaled_var <= 0.44
    ks_ok = row["ks_distance"] is not None and row["ks_distance"] < 0.05
    _criterion(4, "central limit theorem", var_ok and ks_ok,
               detail=f"var {scaled_var:.4f}, KS {row['ks_distance']:.4f}")


def test_05_size_validity():
    """Null rejection frequency at n=1000, B=999 stays within binomial slack
    of the nominal 0.05 and matches the reference null row within 0.02."""
    cfg = PowerStudyConfig(n_values=[1000], M_values=[1, 20], rho0_values=[0.0],
                           methods=["xi-pm"], replicates=1000, B=999, alpha=0.05,
                           master_seed=16180, workers=WORKERS)
    report = power_study(cfg)
    freqs = {row["M"]: row["rejection_frequency"] for row in report.rows}
    reference = {1: 0.056, 20: 0.057}
    ok = all(freqs[m] <= 0.05 + 0.021 and abs(freqs[m] - reference[m]) <= 0.02
             for m in (1, 20))
    _criterion(5, "size validity", ok,
               detail=f"freq M=1 {freqs[1]:.3f}, M=20 {freqs[20]:.3f}")


def test_06_power_reproduction():
    """Desk-scale rejection frequencies match the reference power rows."""
    cfg = PowerStudyConfig(n_values=[1000], M_values=[1, 20, 100, 200],
                           rho0_values=[5.0, 2.0], methods=["xi-pm"],
                           replicates=500, B=999, alpha=0.05,
                           master_seed=20260810, workers=WORKERS)
    report = power_study(cfg)
    freq = {(row["M"], row["rho0"]): row["rejection_frequency"] for row in report.rows}
    reference_5 = {1: 0.176, 20: 0.851, 100: 0.982, 200: 0.997}
    reference_2 = {1: 0.075, 20: 0.154, 100: 0.365, 200: 0.427}
    row5 = [freq[(m, 5.0)] for m in (1, 20, 100, 200)]
    ok5 = all(abs(freq[(m, 5.0)] - reference_5[m]) <= 0.06 for m in reference_5)
    increasing = all(a < b for a, b in zip(row5, row5[1:]))
    ok2 = all(abs(freq[(m, 2.0)] - reference_2[m]) <= 0.07 for m in reference_2)
    _criterion(6, "power reproduction", ok5 and increasing and ok2,
               detail=f"rho0=5 row {row5}, rho0=2 row "
                      f"{[freq[(m, 2.0)] for m in (1, 20, 100, 200)]}")


def test_07_baseline_dominance():
    """The two-direction statistic beats the symmetric-neighbor baseline by
    at least 0.1 in power at (n=1000, M=100, rho0=5)."""
    cfg = PowerStudyConfig(n_values=[1000], M_values=[100], rho0_values=[5.0],
                           methods=["xi-pm", "symmetric-nn"], replicates=300,
                           B=999, alpha=0.05, master_seed=57721, workers=WORKERS)
    report = power_study(cfg)
    power = {row["method"]: row["rejection_frequency"] for row in report.rows}
    gap = power["xi-pm"] - power["symmetric-nn"]
    _criterion(7, "baseline dominance", gap >= 0.1,
               detail=f"xi-pm {power['xi-pm']:.3f} vs symmetric-nn "
                      f"{power['symmetric-nn']:.3f}")


def test_08_extremal_identities():
    """Monotone y = f(x) reproduces the closed-form range values exactly
    (rational arithmetic) for 200 random (n, M) pairs."""
    rng = derive_rng(82)
    bad = []
    for _ in range(200):
        n = int(rng.integers(2, 501))
        M = int(rng.integers(1, n))
        x = np.sort(rng.standard_normal(n))
        increasing, decreasing = monotone_extremal_values_exact(n, M)
        if xi_nm_exact(Sample(x, x.copy()), M) != increasing:
            bad.append((n, M, "increasing"))
        if xi_nm_exact(Sample(x, -x), M) != decreasing:
            bad.append((n, M, "decreasing"))
    _criterion(8, "extremal identities", not bad, detail=str(bad) or "200 pairs exact")


def test_09_bridge_bound():
    """|(n+1/2)/(n-1) * xi_{n,1} - xi_n| <= 3/(n+1) for 10,000 random samples,
    in exact rational arithmetic, with equality at the documented 3-point case."""
    rng = derive_rng(91)
    worst = Fraction(0)
    violations = 0
    equality_seen = False

    def exact_gap(s):
        rs = sorted_y_ranks(s)
        n = rs.size
        xi1 = xi_fraction_from_min_sum(min_rank_sum(rs, 1), n, 1)
        xin = 1 - Fraction(3 * int(np.abs(np.diff(rs)).sum()), n * n - 1)
        return abs(Fraction(2 * n + 1, 2 * (n - 1)) * xi1 - xin), Fraction(3, n + 1)

    for _ in range(10_000):
        n = int(rng.integers(2, 61))
        s = Sample(rng.standard_normal(n), rng.standard_normal(n))
        gap, bound = exact_gap(s)
        if gap > bound:
            violations += 1
        worst = max(worst, gap / bound)

    gap3, bound3 = exact_gap(Sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
    equality_seen = gap3 == bound3 == Fraction(3, 4)
    _criterion(9, "bridge bound", violations == 0 and equality_seen,
               detail=f"violations {violations}, worst gap/bound {float(worst):.6f}, "
                      f"equality at n=3: {equality_seen}")


def test_10_boundary_curve():
    """Exponent curve hits the documented values exactly and agrees with the
    rate expression in log space at n = 10**6."""
    exact_ok = (beta_of_gamma(Fraction(1, 4)) == Fraction(5, 16)
                and beta_of_gamma(Fraction(1, 2)) == Fraction(3, 8)
                and beta_of_gamma(Fraction(2, 3)) == Fraction(1, 3))
    n = 10 ** 6
    worst = 0.0
    for gamma in np.arange(0.05, 0.99, 0.02):
        M = min(n - 1, max(1, round(n ** float(gamma))))
        err = abs(-math.log(zeta(n, M)) / math.log(n) - beta_of_gamma(float(gamma)))
        worst = max(worst, err)
    _criterion(10, "boundary curve", exact_ok and worst <= 0.02,
               detail=f"exact points {exact_ok}, worst log-space error {worst:.4f}")


def test_11_consistency():
    """Mean coefficient at (n=5000, M=20) tracks the population value within
    0.02 across rho in {0, 0.2, 0.4, 0.6, 0.8}."""
    rhos = [0.0, 0.2, 0.4, 0.6, 0.8]
    report = consistency_study(rhos, [5000], [20], replicates=300, seed=14142,
                               workers=WORKERS)
    errors = {row["rho"]: abs(row["mean"] - row["population_xi"]) for row in report.rows}
    _criterion(11, "consistency", all(err < 0.02 for err in errors.values()),
               detail=", ".join(f"rho={r}: {e:.4f}" for r, e in errors.items()))


def test_12_fast_path_equivalence():
    """10,000 fuzz cases: the no-sort replicate shortcut equals the full
    coefficient pipeline bit-exactly."""
    rng = derive_rng(121)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 129))
        M = int(rng.integers(1, n))
        perm = rng.permutation(n) + 1
        a, b = permutation_test_fast_path_equivalence(perm, M)
        if a != b:
            mismatches += 1
    _criterion(12, "fast path equivalence", mismatches == 0,
               detail=f"mismatches {mismatches} / 10000")


def test_13_complexity_and_determinism():
    """Wall time scales with the neighbor count as the cost model predicts,
    and studies are byte-identical across worker counts."""
    report = timing_study([5000], [20, 200], repetitions=30, warmup=5, seed=131)
    times = {row["M"]: row["median_seconds"] for row in report.rows}
    ratio = times[200] / times[20]
    ratio_ok = 4.0 <= ratio <= 16.0

    cfg = dict(n_values=[200], M_values=[5], rho0_values=[0.0, 2.0],
               methods=["xi-pm", "symmetric-nn"], replicates=30, B=99,
               alpha=0.05, master_seed=13579)
    serial = report_to_json(power_study(PowerStudyConfig(**cfg, workers=1)))
    parallel = report_to_json(power_study(PowerStudyConfig(**cfg, workers=2)))
    power_ok = serial == parallel
    null_serial = report_to_json(null_calibration_study(512, 3, 400, seed=8, workers=1))
    null_parallel = report_to_json(null_calibration_study(512, 3, 400, seed=8, workers=2))
    null_ok = null_serial == null_parallel
    _criterion(13, "complexity and determinism", ratio_ok and power_ok and null_ok,
               detail=f"time ratio {ratio:.2f}, determinism "
                      f"{power_ok and null_ok}")
