"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest``; the per-criterion lines bypass output capture
so they always appear.  The Monte-Carlo criteria share fixed seeds and
run the full pipeline (generation, cross-validation, fit, transform,
decision) at desk scale.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import indirgof as ig
from indirgof.khmaladze import brownian_sup_quantile, gamma_quadrature
from indirgof.nulls import gamma_closed_form_gaussian, gaussian_null
from indirgof.simulation import paper_model, power_study

from helpers import oracle_points_for, rate_for, xi_oracle, xi_production_at

MASTER_SEED = 20240601
WORKERS = 4


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        with capsys.disabled():
            print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {number}: {detail}"

    return _announce


@pytest.fixture(scope="module")
def level_table():
    scenario = paper_model("normal", "uniform")
    return power_study([scenario], [100], reps=200, alpha=0.05,
                       seed=MASTER_SEED, workers=WORKERS)


@pytest.fixture(scope="module")
def power_table_300():
    scenario = paper_model("laplace", "uniform")
    return power_study([scenario], [300], reps=200, alpha=0.05,
                       seed=MASTER_SEED, workers=WORKERS)


@pytest.fixture(scope="module")
def power_table_500():
    scenarios = [paper_model("laplace", "uniform"),
                 paper_model("student-t", "uniform")]
    return power_study(scenarios, [500], reps=200, alpha=0.05,
                       seed=MASTER_SEED, workers=WORKERS)


def test_criterion_1_brownian_quantile(announce):
    value = brownian_sup_quantile(0.05)
    # time the bisection itself, not a hit in the per-alpha cache
    best = min(
        _timed(lambda: brownian_sup_quantile.__wrapped__(0.05)) for _ in range(20)
    )
    ok = abs(value - 2.2414) <= 5e-4 and best < 1e-3
    announce(1, ok,
             f"sup-|B| quantile q(0.05)={value:.6f} (target 2.2414 +/- 5e-4), "
             f"best runtime {best * 1e3:.3f} ms (< 1 ms)")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_gamma_cross_validation(announce):
    null = gaussian_null()
    start = time.perf_counter()
    worst = 0.0
    for t in (-5.0, -2.0, 0.0, 1.0, 2.5):
        gap = np.max(np.abs(gamma_closed_form_gaussian(t)
                            - gamma_quadrature(null, t)))
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    announce(2, ok,
             f"closed-form vs quadrature tail matrices agree to {worst:.2e} "
             f"(< 1e-6) in {elapsed:.2f} s (< 1 s)")


def test_criterion_3_exact_residual_identity(announce):
    rng = np.random.default_rng(314159)
    worst = 0.0
    for case in range(50):
        m = 1 + case % 2
        n = int(rng.integers(20, 201))
        radius = (1 + case % 3) if m == 1 else (2 if n >= 100 else 1)
        data = ig.Dataset(x=rng.random((n, m)), y=rng.normal(1.0, 2.0, n))
        fitted = ig.fit(data, ig.enumerate_lattice(m, radius))
        rel = abs(float(np.sum(fitted.residuals))) / (
            1.0 + float(np.sum(np.abs(data.y)))
        )
        worst = max(worst, rel)
    ok = worst <= 1e-8
    announce(3, ok,
             f"50 random fits: worst |sum of residuals| = {worst:.2e} "
             f"relative (bound 1e-8)")


def test_criterion_4_brute_force_oracle(announce):
    null = gaussian_null()
    rng = np.random.default_rng(271828)
    worst = 0.0
    for case in range(20):
        n = (12, 18, 25, 30)[case % 4]
        eps = rng.standard_normal(n)
        z = eps / np.sqrt(np.mean(eps**2))
        t0 = float(np.sort(z)[int(np.ceil(0.99 * n)) - 1])
        pts, sides = oracle_points_for(z, t0)
        oracle_vals, _ = xi_oracle(z, null, pts, sides)
        prod_vals, _ = xi_production_at(z, null, pts, sides)
        worst = max(worst, float(np.max(np.abs(prod_vals - oracle_vals))))
    ok = worst < 1e-4
    announce(4, ok,
             f"20 cases (n <= 30): max |production - direct quadrature| = "
             f"{worst:.2e} (< 1e-4)")


def test_criterion_5_level_at_desk_scale(announce, level_table):
    row = level_table.rows[0]
    ok = 0.009 <= row.rate <= 0.081 and row.failures == 0
    announce(5, ok,
             f"Gaussian errors, uniform design, n=100, 200 reps: rejection "
             f"rate {row.rate:.3f} in [0.009, 0.081], failures {row.failures}")
    assert row.rejections == 7, "the seeded count moved: a decision changed"


def test_criterion_6_power_at_desk_scale(announce, power_table_300):
    row = power_table_300.rows[0]
    ok = row.rate >= 0.75 and row.failures == 0
    announce(6, ok,
             f"Laplace errors, n=300, 200 reps: rejection rate "
             f"{row.rate:.3f} (>= 0.75), failures {row.failures}")
    assert row.rejections == 152, "the seeded count moved: a decision changed"


def test_criterion_7_power_ordering(announce, power_table_500):
    laplace = rate_for(power_table_500, "laplace", 500)
    student = rate_for(power_table_500, "student-t", 500)
    ok = laplace > student
    announce(7, ok,
             f"n=500: rejection(Laplace)={laplace:.3f} > "
             f"rejection(Student t)={student:.3f}")
    counts = [row.rejections for row in power_table_500.rows]
    assert counts == [195, 164], "the seeded counts moved: a decision changed"


def test_criterion_8_null_model_moments(announce):
    null = gaussian_null()
    mean, _ = quad(lambda t: t * null.pdf(t), -np.inf, np.inf)
    second, _ = quad(lambda t: t * t * null.pdf(t), -np.inf, np.inf)
    ok = abs(mean) <= 1e-6 and abs(second - 1.0) <= 1e-6
    announce(8, ok,
             f"Gaussian null quadrature: mean {mean:.2e} (|.| <= 1e-6), "
             f"variance {second:.8f} (1 +/- 1e-6)")


def test_criterion_9_documented_substitutions(announce):
    # Published three-decimal rejection tables, convergence-rate exponents
    # and the original-image statistics are not reproducible at desk scale;
    # criteria 3-7 stand in for them.  The published statistic values must
    # still drive the decision rule correctly.
    q = brownian_sup_quantile(0.05)
    ok = (not 1.5141 > q) and (39.8324 > q)
    announce(9, ok,
             f"decision rule on published statistics: 1.5141 accepts and "
             f"39.8324 rejects at q(0.05)={q:.4f}; exact table entries and "
             f"rate exponents are documented as out of desk-scale reach "
             f"(covered by criteria 3-7)")
