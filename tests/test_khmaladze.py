import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from indirgof.bandwidth import cv_select, default_radius_grid
from indirgof.errors import InsufficientDataError, SingularMatrixError
from indirgof.estimation import Dataset, fit
from indirgof.khmaladze import (
    ProcessTrace,
    brownian_sup_log10_tail,
    brownian_sup_quantile,
    brownian_sup_tail,
    build_scan,
    decide,
    gamma_closed_form_gaussian,
    gamma_quadrature,
    statistic,
    transform,
    transform_standardized,
)
from indirgof.nulls import gaussian_null, score_h, student_t_null
from indirgof.simulation import (
    THETA_COEFFS,
    IdentityPsi,
    SyntheticModel,
    generate,
    paper_model,
    power_study,
)
from indirgof.nulls import ErrorSampler
from indirgof.spectral import enumerate_lattice

from helpers import (
    oracle_points_for,
    reflection_sup_cdf,
    xi_oracle,
    xi_production_at,
)

NULL = gaussian_null()


class TestGammaClosedForm:
    def test_full_information_limit(self):
        assert_allclose(gamma_closed_form_gaussian(-40.0), np.diag([1.0, 1.0, 2.0]),
                        atol=1e-12)

    def test_value_at_zero(self):
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        expected = np.array([
            [0.5, phi0, 0.0],
            [phi0, 0.5, phi0],
            [0.0, phi0, 1.0],
        ])
        assert_allclose(gamma_closed_form_gaussian(0.0), expected, atol=1e-12)
        assert_allclose(expected[0], [0.5, 0.398942, 0.0], atol=5e-7)

    @pytest.mark.parametrize("t", [-5.0, -2.0, 0.0, 1.0, 2.5])
    def test_matches_quadrature(self, t):
        closed = gamma_closed_form_gaussian(t)
        quad = gamma_quadrature(NULL, t)
        assert np.max(np.abs(closed - quad)) < 1e-6

    def test_tail_is_small(self):
        # the slowest-decaying entry is (t^3 + t)*phi(t) ~ 9.2e-3 at t=4
        tail = gamma_quadrature(NULL, 4.0)
        assert np.max(np.abs(tail)) < 0.01
        assert np.max(np.abs(tail - gamma_closed_form_gaussian(4.0))) < 1e-9

    def test_deep_left_quadrature(self):
        assert_allclose(gamma_quadrature(NULL, -8.0), np.diag([1.0, 1.0, 2.0]),
                        atol=1e-6)

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    def test_monotone_loss_of_information(self, null_factory):
        ts = np.linspace(-3.0, 2.5, 12)
        mats = null_factory().tail_matrix(ts)
        for i in range(len(ts) - 1):
            diff = mats[i] - mats[i + 1]
            assert np.linalg.eigvalsh(diff)[0] >= -1e-9

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    def test_symmetry_and_psd(self, null_factory):
        for t in (-2.0, 0.0, 2.0):
            g = null_factory().tail_matrix(t)
            assert_allclose(g, g.T)
            assert np.linalg.eigvalsh(g)[0] > 0.0


class TestTailMatrices:
    def test_grid_matches_pointwise(self):
        null = student_t_null()
        grid = np.linspace(-3.0, 2.0, 257)
        on_grid = null.tail_matrix(grid)
        for idx in (0, 64, 128, 200, 256):
            pointwise = gamma_quadrature(null, grid[idx])
            assert np.max(np.abs(on_grid[idx] - pointwise)) < 1e-8

    def test_gaussian_uses_closed_form(self):
        grid = np.linspace(-5.0, 3.0, 129)
        assert_allclose(NULL.tail_matrix(grid), gamma_closed_form_gaussian(grid),
                        rtol=0, atol=0)


class TestBuildScan:
    def test_zero_at_lower_end(self):
        scan = build_scan(NULL, 2.0, 512)
        assert_allclose(scan.values[0], np.zeros(3))
        assert scan(np.array([scan.grid[0] - 5.0]))[0] == pytest.approx(0.0)

    def test_derivative_matches_integrand(self):
        scan = build_scan(NULL, 1.0, 4096)
        i = int(np.searchsorted(scan.grid, 0.0))
        lo, hi = scan.grid[i], scan.grid[i + 1]
        mid = 0.5 * (lo + hi)
        slope = (scan.values[i + 1, 0] - scan.values[i, 0]) / (hi - lo)
        expected = float(
            np.linalg.solve(gamma_closed_form_gaussian(mid), score_h(NULL, mid))[0]
            * NULL.pdf(mid)
        )
        assert slope == pytest.approx(expected, abs=1e-4)

    def test_halving_self_consistency(self):
        # relative per component: the accumulated values are O(100), so a
        # relative criterion is the meaningful Richardson check
        coarse = build_scan(NULL, 2.4, 4096)
        fine = build_scan(NULL, 2.4, 8191)  # exactly half the step
        rel = np.abs(coarse.values[-1] - fine.values[-1]) / np.maximum(
            1.0, np.abs(fine.values[-1])
        )
        assert np.max(rel) < 1e-6

    def test_singularity_reported_with_location(self):
        with pytest.raises(SingularMatrixError, match="t="):
            build_scan(NULL, 12.0, 512)

    def test_infinite_t0_rejected(self):
        with pytest.raises(ValueError):
            build_scan(NULL, math.inf, 512)

    @pytest.mark.parametrize("grid_size", [-5, 0, 1])
    def test_grid_below_two_points_rejected(self, grid_size):
        # a one-point grid is [t_lo]: it never reaches t0 and G0 would be 0
        with pytest.raises(ValueError, match=f"got {grid_size}"):
            build_scan(NULL, 2.0, grid_size)


class _StubFit:
    """Anything with an ecdf() works for the statistic denominator."""

    def __init__(self, f_t0):
        self._f = f_t0

    def ecdf(self, t):
        return self._f


class TestStatistic:
    def test_zero_process(self):
        trace = ProcessTrace(eval_points=np.array([0.0, 1.0]),
                             values=np.zeros(2), t0=1.0, n=20)
        assert statistic(trace, _StubFit(0.99)) == 0.0

    def test_arithmetic_example(self):
        trace = ProcessTrace(eval_points=np.array([0.0, 1.0]),
                             values=np.array([-3.0, 1.0]), t0=1.0, n=20)
        assert statistic(trace, _StubFit(0.99)) == pytest.approx(3.0151, abs=1e-4)


class TestTransform:
    def test_smoke_quantile_residuals(self):
        z = NULL.quantile((np.arange(1, 11) - 0.5) / 10.0)
        trace = transform_standardized(z, NULL)
        f_t0 = np.searchsorted(np.sort(z), trace.t0, side="right") / 10.0
        t_stat = float(np.max(np.abs(trace.values)) / math.sqrt(f_t0))
        assert np.isfinite(t_stat) and t_stat > 0.0

    def test_needs_ten_residuals(self):
        with pytest.raises(InsufficientDataError):
            transform_standardized(np.linspace(-1, 1, 9), NULL)

    def test_deterministic(self):
        rng = np.random.default_rng(55)
        z = rng.standard_normal(40)
        a = transform_standardized(z, NULL)
        b = transform_standardized(z.copy(), NULL)
        assert_allclose(a.eval_points, b.eval_points)
        assert_allclose(a.values, b.values)
        assert a.t0 == b.t0

    def test_t0_is_99th_percentile_order_statistic(self):
        rng = np.random.default_rng(56)
        z = rng.standard_normal(200)
        trace = transform_standardized(z, NULL)
        assert trace.t0 == float(np.sort(z)[197])  # ceil(0.99 * 200) = 198

    def test_eval_points_do_not_exceed_t0(self):
        rng = np.random.default_rng(57)
        z = rng.standard_normal(60)
        trace = transform_standardized(z, NULL)
        assert np.max(trace.eval_points) <= trace.t0 + 1e-12

    @pytest.mark.parametrize("seed,n", [(1, 12), (2, 25), (3, 30)])
    def test_matches_brute_force_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        eps = rng.standard_normal(n)
        z = eps / np.sqrt(np.mean(eps**2))
        t0 = float(np.sort(z)[int(np.ceil(0.99 * n)) - 1])
        pts, sides = oracle_points_for(z, t0)
        oracle_vals, _ = xi_oracle(z, NULL, pts, sides)
        prod_vals, _ = xi_production_at(z, NULL, 4096, pts, sides)
        assert np.max(np.abs(prod_vals - oracle_vals)) < 1e-4

    def test_generic_null_path(self):
        # closed-form Student t tail matrices end to end
        rng = np.random.default_rng(58)
        null = student_t_null(6.0)
        z = rng.standard_t(6.0, 60)
        z = z / np.sqrt(np.mean(z**2))
        trace = transform_standardized(z, null)
        assert np.all(np.isfinite(trace.values))

    def test_trace_rejects_points_beyond_t0(self):
        with pytest.raises(ValueError, match="t0"):
            ProcessTrace(eval_points=np.array([0.0, 2.0]),
                         values=np.zeros(2), t0=1.0, n=10)


class TestBrownianQuantiles:
    def test_paper_value(self):
        assert brownian_sup_quantile(0.05) == pytest.approx(2.2414, abs=5e-4)

    def test_tail_at_paper_quantile(self):
        assert brownian_sup_tail(2.2414) == pytest.approx(0.05, abs=5e-4)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.25, 0.5, 0.9])
    def test_matches_reflection_series(self, alpha):
        q = brownian_sup_quantile(alpha)
        assert 1.0 - reflection_sup_cdf(q) == pytest.approx(alpha, abs=2e-6)

    def test_median_against_frozen_random_walk(self):
        # 160k paths of a 16384-step random walk (seed 2718281828) put the
        # sample median of sup|walk| at 1.1444; the discrete supremum is
        # biased low by about 0.58/sqrt(steps) ~ 0.0046, inside the band.
        assert brownian_sup_quantile(0.5) == pytest.approx(1.1444, abs=0.01)

    def test_round_trip(self):
        for alpha in (0.02, 0.3, 0.7):
            assert brownian_sup_tail(brownian_sup_quantile(alpha)) == pytest.approx(
                alpha, abs=1e-5
            )

    def test_extreme_alpha(self):
        # sup|B| has essentially no mass below ~0.36, so the upper
        # 0.9999-quantile sits there and any ordinary statistic rejects
        q = brownian_sup_quantile(0.9999)
        assert 0.0 < q < 0.5
        assert brownian_sup_tail(q) == pytest.approx(0.9999, abs=1e-5)
        assert 0.5 > q  # a modest positive statistic already rejects
        assert brownian_sup_tail(0.0) == 1.0

    @pytest.mark.parametrize("q", [5.0, 7.0, 8.5, 10.0, 20.0])
    def test_upper_tail_keeps_relative_accuracy(self, q):
        # beyond q = 3 the reflection series is 4 * Phibar(q) to relative
        # 1e-18 (the next term is 4 * Phibar(3q)), so erfc is an oracle
        assert brownian_sup_tail(q) == pytest.approx(
            2.0 * math.erfc(q / math.sqrt(2.0)), rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("alpha", [1e-12, 1e-15, 1e-17])
    def test_tiny_alpha_quantile(self, alpha):
        q = brownian_sup_quantile(alpha)
        true_tail = 2.0 * math.erfc(q / math.sqrt(2.0))
        assert true_tail == pytest.approx(alpha, rel=1e-4, abs=0.0)

    def test_quantile_below_tail_underflow(self):
        # the tail underflows near q = 37.7; mpmath (50 digits) puts the
        # quantile of alpha = 1e-320 at 38.3053082
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ref = mpmath.findroot(
                lambda q: 2 * mpmath.erfc(q / mpmath.sqrt(2)) - mpmath.mpf("1e-320"), 38
            )
        assert brownian_sup_quantile(1e-320) == pytest.approx(float(ref), abs=1e-6)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            brownian_sup_quantile(0.0)
        with pytest.raises(ValueError):
            brownian_sup_quantile(1.0)

    @pytest.mark.parametrize("q", [1.0, 1.3, 2.0, 2.2414, 3.0, 5.0, 10.0, 20.0,
                                   37.0, 37.7, 38.0, 50.0, 112.9, 150.0, 200.0])
    def test_log10_tail_matches_high_precision_series(self, q):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x = mpmath.mpf(q)
            tail = 2 * sum((-1) ** k * mpmath.erfc((2 * k + 1) * x / mpmath.sqrt(2))
                           for k in range(40))
            ref = float(mpmath.log10(tail))
        assert brownian_sup_log10_tail(q) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.8, 0.999, 1.0, 4.0, 30.0])
    def test_log10_tail_is_log_of_tail_where_finite(self, q):
        expected = math.log10(brownian_sup_tail(q))
        assert brownian_sup_log10_tail(q) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("q, bits", [
        (0.3, "0x1.ffffd06af0b57p-1"), (0.8, "0x1.a127f904e1e41p-1"),
        (1.0, "0x1.422975f1d50c4p-1"), (2.2414, "0x1.999a571edb126p-5"),
        (20.0, "0x1.c0bd0f18806a3p-293"), (37.0, "0x1.eaccc6bfeacdap-993")])
    def test_tail_values_frozen(self, q, bits):
        assert brownian_sup_tail(q) == float.fromhex(bits)

    @pytest.mark.parametrize("alpha, bits", [
        (0.01, "0x1.674ce1b8ad8aap+1"), (0.05, "0x1.1ee648b225708p+1"),
        (0.1, "0x1.f5c0331d2b659p+0"), (1e-12, "0x1.ce6b4d01ee67ap+2")])
    def test_quantile_values_frozen(self, alpha, bits):
        assert brownian_sup_quantile(alpha) == float.fromhex(bits)


def _null_dataset(rng, n=120):
    x = rng.random((n, 2))
    y = 1.0 + np.cos(2 * np.pi * x[:, 0]) + 0.5 * rng.standard_normal(n)
    return Dataset(x=x, y=y)


class TestDecide:
    def test_threshold_logic_paper_statistics(self):
        q = brownian_sup_quantile(0.05)
        assert not 1.5141 > q
        assert 39.8324 > q

    def test_full_run_consistency(self):
        rng = np.random.default_rng(60)
        data = _null_dataset(rng)
        f = fit(data, enumerate_lattice(2, 2))
        report = decide(f, NULL, 0.05)
        assert report.reject == (report.statistic > report.q_alpha)
        assert report.n == 120
        assert report.f_hat_t0 >= 0.99
        assert report.sigma_hat == f.sigma_hat
        assert report.chosen_radius == 2.0
        assert report.null_name == "gaussian"
        assert 0.0 <= report.ks_diagnostic <= 1.0
        assert report.p_value == brownian_sup_tail(report.statistic)
        payload = report.to_dict()
        assert list(payload) == [
            "statistic", "p_value", "log10_p_value", "t0", "f_hat_t0", "alpha",
            "q_alpha", "reject", "sigma_hat", "chosen_radius", "n", "null",
            "ks_diagnostic",
        ]
        assert payload["null"] == "gaussian"

    def test_alpha_validated(self):
        rng = np.random.default_rng(61)
        f = fit(_null_dataset(rng), enumerate_lattice(2, 2))
        with pytest.raises(ValueError):
            decide(f, NULL, 1.5)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(62)
        data = _null_dataset(rng)
        scaled = Dataset(x=data.x, y=3.7 * data.y)
        f1 = fit(data, enumerate_lattice(2, 2))
        f2 = fit(scaled, enumerate_lattice(2, 2))
        assert np.max(np.abs(f1.z - f2.z)) < 1e-9
        assert f2.sigma_hat == pytest.approx(3.7 * f1.sigma_hat, rel=1e-12)
        r1 = decide(f1, NULL, 0.05)
        r2 = decide(f2, NULL, 0.05)
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(63)
        data = _null_dataset(rng)
        perm = rng.permutation(data.n)
        shuffled = Dataset(x=data.x[perm], y=data.y[perm])
        r1 = decide(fit(data, enumerate_lattice(2, 2)), NULL, 0.05)
        r2 = decide(fit(shuffled, enumerate_lattice(2, 2)), NULL, 0.05)
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 80),
           m=st.sampled_from([1, 2]), radius=st.sampled_from([1, 2]))
    def test_permutation_property(self, seed, n, m, radius):
        rng = np.random.default_rng(seed)
        x = rng.random((n, m))
        y = np.cos(2 * np.pi * x[:, 0]) + 0.5 * rng.standard_normal(n)
        perm = rng.permutation(n)
        lat = enumerate_lattice(m, radius)
        f1 = fit(Dataset(x=x, y=y), lat)
        f2 = fit(Dataset(x=x[perm], y=y[perm]), lat)
        assert_allclose(f2.residuals, f1.residuals[perm], rtol=0, atol=1e-12)
        s1 = decide(f1, NULL, 0.05).statistic
        s2 = decide(f2, NULL, 0.05).statistic
        assert s2 == pytest.approx(s1, rel=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 120),
           scale=st.floats(1e-3, 1e3))
    def test_scale_invariance_property(self, seed, n, scale):
        model = SyntheticModel(
            theta_coeffs=THETA_COEFFS,
            psi_coeffs=IdentityPsi(),
            covariate_law="uniform",
            error_sampler=ErrorSampler("normal", "normal", (0.5,)),
        )
        data = generate(model, n, np.random.default_rng(seed))
        lat = enumerate_lattice(data.m, 2)
        z1 = fit(data, lat).z
        z2 = fit(Dataset(x=data.x, y=scale * data.y), lat).z
        assert_allclose(z2, z1, rtol=0, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 80),
           error=st.sampled_from(["normal", "laplace", "student-t"]),
           null=st.sampled_from([NULL, student_t_null()]),
           alpha=st.floats(1e-3, 0.999))
    def test_p_value_agrees_with_reject(self, seed, n, error, null, alpha):
        data = generate(paper_model(error), n, np.random.default_rng(seed))
        report = decide(fit(data, enumerate_lattice(data.m, 1)), null, alpha)
        assert 0.0 <= report.p_value <= 1.0
        if abs(report.statistic - report.q_alpha) > 1e-6:
            assert (report.p_value < alpha) == report.reject

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 80),
           error=st.sampled_from(["normal", "laplace", "student-t"]),
           alphas=st.lists(st.floats(1e-3, 0.999), min_size=2, max_size=2))
    def test_decision_monotone_in_alpha(self, seed, n, error, alphas):
        lo, hi = sorted(alphas)
        data = generate(paper_model(error), n, np.random.default_rng(seed))
        fitted = fit(data, enumerate_lattice(data.m, 1))
        assert decide(fitted, NULL, lo).reject <= decide(fitted, NULL, hi).reject

    def test_gross_outlier_rejects(self):
        # one response shifted by +400 puts the largest z at 44.5, where
        # the Gaussian density underflows to zero
        data = generate(paper_model("normal"), 2000, np.random.default_rng(0))
        data.y[0] += 400.0
        radius = cv_select(data, default_radius_grid(data.n, data.m)).chosen
        report = decide(fit(data, enumerate_lattice(data.m, radius)), NULL, 0.05)
        assert report.reject
        assert np.isfinite(report.statistic)

    def test_gross_outlier_p_value_keeps_digits(self):
        # the statistic is far past the point where the tail underflows
        data = generate(paper_model("normal"), 2000, np.random.default_rng(0))
        data.y[0] += 400.0
        radius = cv_select(data, default_radius_grid(data.n, data.m)).chosen
        report = decide(fit(data, enumerate_lattice(data.m, radius)), NULL, 0.05)
        assert report.statistic == pytest.approx(112.9, abs=0.05)
        assert report.p_value == 0.0
        assert np.isfinite(report.log10_p_value)
        assert report.log10_p_value < -2000.0
        assert report.log10_p_value == brownian_sup_log10_tail(report.statistic)
        assert report.to_dict()["log10_p_value"] == report.log10_p_value


class TestNullCalibration:
    def test_known_regression_level(self):
        """With the regression known exactly, rejection matches alpha."""
        rng = np.random.default_rng(12345)
        q = brownian_sup_quantile(0.05)
        reps, n = 300, 200
        rejections = 0
        for _ in range(reps):
            eps = rng.standard_normal(n)
            z = eps / np.sqrt(np.mean(eps**2))
            trace = transform_standardized(z, NULL)
            f_t0 = np.searchsorted(np.sort(z), trace.t0, side="right") / n
            rejections += float(np.max(np.abs(trace.values)) / math.sqrt(f_t0)) > q
        rate = rejections / reps
        # binomial 95% band around 0.05 at 300 repetitions
        assert 0.025 <= rate <= 0.075

    @pytest.mark.slow
    def test_estimated_direct_regression_level(self):
        """Full pipeline level on the direct (undistorted) model."""
        model = SyntheticModel(
            theta_coeffs=THETA_COEFFS,
            psi_coeffs=IdentityPsi(),
            covariate_law="uniform",
            error_sampler=ErrorSampler("normal", "normal", (0.5,)),
        )
        table = power_study([model], [500], reps=500, alpha=0.05,
                            seed=424242, workers=4)
        assert table.rows[0].failures == 0
        assert table.rows[0].rate == pytest.approx(0.05, abs=0.02)
