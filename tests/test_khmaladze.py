import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import cumulative_trapezoid

from indirgof.bandwidth import default_radius_grid, select_and_fit
from indirgof.errors import InsufficientDataError, SingularMatrixError
from indirgof.estimation import Dataset, fit
from indirgof import khmaladze
from indirgof.khmaladze import (
    DEFAULT_SCAN_GRID,
    ProcessTrace,
    _solve_spd,
    brownian_sup_log10_tail,
    brownian_sup_quantile,
    brownian_sup_tail,
    build_scan,
    decide,
    gamma_quadrature,
    statistic,
    transform,
    transform_standardized,
)
from indirgof.nulls import (
    gamma_closed_form_gaussian,
    gaussian_null,
    score_h,
    student_t_null,
)
from indirgof.simulation import (
    SyntheticModel,
    generate,
    paper_model,
    power_study,
)
from indirgof.spectral import enumerate_lattice

from helpers import (
    identity_psi,
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


@pytest.fixture
def eigvalsh_batches(monkeypatch):
    """Batch shapes of every ``np.linalg.eigvalsh`` call made while active."""
    batches = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        batches.append(a.shape[:-2])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return batches


class TestBuildScan:
    def test_zero_at_lower_end(self, monkeypatch):
        monkeypatch.setattr(khmaladze, "DEFAULT_SCAN_GRID", 512)
        grid, g0 = build_scan(NULL, 2.0)
        assert grid.shape == (512,) and g0.shape == (512, 3)
        assert_allclose(g0[0], np.zeros(3))

    def test_derivative_matches_integrand(self):
        grid, g0 = build_scan(NULL, 1.0)
        i = int(np.searchsorted(grid, 0.0))
        lo, hi = grid[i], grid[i + 1]
        mid = 0.5 * (lo + hi)
        slope = (g0[i + 1, 0] - g0[i, 0]) / (hi - lo)
        expected = float(
            np.linalg.solve(gamma_closed_form_gaussian(mid), score_h(NULL, mid))[0]
            * NULL.pdf(mid)
        )
        assert slope == pytest.approx(expected, abs=1e-4)

    def test_halving_self_consistency(self, monkeypatch):
        # relative per component: the accumulated values are O(100), so a
        # relative criterion is the meaningful Richardson check
        assert DEFAULT_SCAN_GRID == 4096
        coarse = build_scan(NULL, 2.4)[1]
        monkeypatch.setattr(khmaladze, "DEFAULT_SCAN_GRID", 8191)  # half the step
        fine = build_scan(NULL, 2.4)[1]
        rel = np.abs(coarse[-1] - fine[-1]) / np.maximum(1.0, np.abs(fine[-1]))
        assert np.max(rel) < 1e-6

    @pytest.mark.parametrize("null_factory, t0, where", [
        (gaussian_null, 12.0, "t=10.9836"), (student_t_null, 300.0, "t=127.639"),
    ], ids=["gaussian", "student-t"])
    def test_singularity_reported_with_location(self, null_factory, t0, where,
                                                monkeypatch):
        # the first failing grid point, as the full per-point check names it
        monkeypatch.setattr(khmaladze, "DEFAULT_SCAN_GRID", 512)
        with pytest.raises(SingularMatrixError, match=f"at {where}$"):
            build_scan(null_factory(), t0)

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    def test_well_conditioned_scan_decomposes_two_matrices(self, null_factory,
                                                           eigvalsh_batches):
        build_scan(null_factory(), 2.5)
        assert eigvalsh_batches == [(2,)]

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    def test_failed_bound_falls_back_to_full_check(self, null_factory, monkeypatch,
                                                   eigvalsh_batches):
        null = null_factory()
        grid, g0 = build_scan(null, 2.5)
        eigs = np.linalg.eigvalsh(null.tail_matrix(grid))
        worst = float(np.max(eigs[:, -1] / eigs[:, 0]))
        bound = float(eigs[0, -1] / eigs[-1, 0])
        assert worst < bound
        monkeypatch.setattr(khmaladze, "GAMMA_CONDITION_LIMIT", math.sqrt(worst * bound))
        eigvalsh_batches.clear()
        again_grid, again_g0 = build_scan(null, 2.5)
        assert eigvalsh_batches == [(2,), (len(grid),)]
        assert np.array_equal(again_grid, grid)
        assert np.array_equal(again_g0, g0)

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    @pytest.mark.parametrize("points", [2, 3, 512, 4096])
    def test_trapezoid_matches_scipy_bit_for_bit(self, null_factory, points, monkeypatch):
        null = null_factory()
        monkeypatch.setattr(khmaladze, "DEFAULT_SCAN_GRID", points)
        grid, g0 = build_scan(null, 2.5)
        g = (_solve_spd(null.tail_matrix(grid), score_h(null, grid))
             * null.pdf(grid)[:, None])
        expected = cumulative_trapezoid(g, grid, axis=0, initial=0.0)
        assert np.array_equal(g0, expected)

    def test_infinite_t0_rejected(self):
        with pytest.raises(ValueError):
            build_scan(NULL, math.inf)


class TestSolveSpd:
    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    @pytest.mark.parametrize("t0", [-1.0, 0.5, 2.5, 4.0])
    def test_matches_lapack_solve(self, null_factory, t0):
        # Both solvers are backward stable, so they agree to 1e-12 relative
        # up to the rounding the conditioning of Gamma amplifies: about
        # eps * cond, which reaches 5e-9 at t0 = 4 for the Gaussian null.
        null = null_factory()
        grid = np.linspace(float(null.quantile(1e-6)), t0, DEFAULT_SCAN_GRID)
        gam = null.tail_matrix(grid)
        h = score_h(null, grid)
        got = _solve_spd(gam, h)
        ref = np.linalg.solve(gam, h[..., None])[..., 0]
        eps = np.finfo(float).eps
        scale = np.max(np.abs(ref), axis=1)
        tol = np.maximum(1e-12, 8.0 * eps * np.linalg.cond(gam))
        assert np.all(np.max(np.abs(got - ref), axis=1) <= tol * scale)
        residual = np.max(np.abs(np.einsum("kij,kj->ki", gam, got) - h), axis=1)
        norm_gam = np.max(np.sum(np.abs(gam), axis=2), axis=1)
        assert np.all(residual <= 8.0 * eps * norm_gam * np.max(np.abs(got), axis=1))


class _StubFit:
    """Anything with an ecdf() works for the statistic denominator."""

    def __init__(self, f_t0):
        self._f = f_t0

    def ecdf(self, t):
        return self._f


class TestStatistic:
    def test_zero_process(self):
        trace = ProcessTrace(eval_points=np.array([0.0, 1.0]),
                             values=np.zeros(2), t0=1.0)
        assert statistic(trace, _StubFit(0.99)) == 0.0

    def test_arithmetic_example(self):
        trace = ProcessTrace(eval_points=np.array([0.0, 1.0]),
                             values=np.array([-3.0, 1.0]), t0=1.0)
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
        prod_vals, _ = xi_production_at(z, NULL, pts, sides)
        assert np.max(np.abs(prod_vals - oracle_vals)) < 1e-4

    def test_generic_null_path(self):
        # closed-form Student t tail matrices end to end
        rng = np.random.default_rng(58)
        null = student_t_null(6.0)
        z = rng.standard_t(6.0, 60)
        z = z / np.sqrt(np.mean(z**2))
        trace = transform_standardized(z, null)
        assert np.all(np.isfinite(trace.values))

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    def test_grid_values_need_no_interpolation(self, null_factory):
        # The process reads G0 on the grid from the scan's own values and at
        # the jumps from its values at the residuals; interpolating G0 at
        # every point gives the same bytes.  Bytes, not np.array_equal: the
        # trace export writes the sign of a zero, and rounding to one decimal
        # leaves ties and a -0.0 among the residuals.
        null = null_factory()
        # unsorted, as fits give them
        z_raw = null.quantile(np.random.default_rng(59).random(300))
        z_tied = np.round(z_raw, 1)
        assert len(np.unique(z_tied)) < 300 and np.any(np.signbit(z_tied[z_tied == 0]))
        for sample in (z_raw, z_tied):
            trace = transform_standardized(sample, null)
            z = np.sort(sample)  # as the transform sorts: -0.0 and 0.0 may swap
            grid, g0 = build_scan(null, trace.t0)

            def g0_at(ts):
                return np.stack([np.interp(ts, grid, g0[:, c]) for c in range(3)], axis=-1)

            n, h = len(z), score_h(null, z)
            g_at_z = g0_at(np.minimum(z, trace.t0))
            pref_dot = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", g_at_z, h))])
            pref_h = np.vstack([np.zeros(3), np.cumsum(h, axis=0)])

            def interpolated(ts, side):
                idx = np.searchsorted(z, ts, side=side)
                suffix = pref_h[-1][None, :] - pref_h[idx]
                comp = (pref_dot[idx] + np.einsum("ij,ij->i", g0_at(ts), suffix)) / n
                return math.sqrt(n) * (idx / n - comp)

            jumps = np.unique(z[z <= trace.t0])
            pts = np.concatenate([grid, jumps, jumps])
            vals = np.concatenate([interpolated(grid, "right"),
                                   interpolated(jumps, "left"),
                                   interpolated(jumps, "right")])
            is_left = np.concatenate([np.zeros(len(grid)), -np.ones(len(jumps)),
                                      np.zeros(len(jumps))])
            order = np.lexsort((is_left, pts))
            assert trace.eval_points.tobytes() == pts[order].tobytes()
            assert trace.values.tobytes() == vals[order].tobytes()

    def test_trace_rejects_points_beyond_t0(self):
        with pytest.raises(ValueError, match="t0"):
            ProcessTrace(eval_points=np.array([0.0, 2.0]),
                         values=np.zeros(2), t0=1.0)


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
        (1.0, "0x1.422975f1d50c2p-1"), (2.2414, "0x1.999a571edb129p-5"),
        (20.0, "0x1.c0bd0f188070dp-293"), (37.0, "0x1.eaccc6bfeadb8p-993")])
    def test_tail_values_frozen(self, q, bits):
        assert brownian_sup_tail(q) == float.fromhex(bits)

    @pytest.mark.parametrize("alpha, bits", [
        (0.01, "0x1.674ce1b8ad8aap+1"), (0.05, "0x1.1ee648b225708p+1"),
        (0.1, "0x1.f5c0331d2b659p+0"), (1e-12, "0x1.ce6b4d01ee67ap+2")])
    def test_quantile_values_frozen(self, alpha, bits):
        assert brownian_sup_quantile(alpha) == float.fromhex(bits)
        assert brownian_sup_quantile.__wrapped__(alpha) == float.fromhex(bits)

    def test_quantile_cached_per_alpha(self):
        brownian_sup_quantile.cache_clear()
        first = brownian_sup_quantile(0.05)
        assert brownian_sup_quantile(0.05) is first
        assert brownian_sup_quantile.cache_info().hits == 1


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

    @pytest.mark.parametrize("alpha", [1.5, 0.0, 1.0])
    def test_alpha_validated(self, alpha, monkeypatch):
        rng = np.random.default_rng(61)
        f = fit(_null_dataset(rng), enumerate_lattice(2, 2))
        # a bad alpha fails before any transform work
        monkeypatch.setattr(khmaladze, "transform", None)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got"):
            decide(f, NULL, alpha)

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
           scale=st.floats(1e-300, 1e300))
    def test_scale_invariance_property(self, seed, n, scale):
        model = SyntheticModel(identity_psi, "uniform", "normal")
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
        _, fitted = select_and_fit(data, default_radius_grid(data.n, data.m))
        report = decide(fitted, NULL, 0.05)
        assert report.reject
        assert np.isfinite(report.statistic)

    def test_gross_outlier_p_value_keeps_digits(self):
        # the statistic is far past the point where the tail underflows
        data = generate(paper_model("normal"), 2000, np.random.default_rng(0))
        data.y[0] += 400.0
        _, fitted = select_and_fit(data, default_radius_grid(data.n, data.m))
        report = decide(fitted, NULL, 0.05)
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
        model = SyntheticModel(identity_psi, "uniform", "normal")
        table = power_study([model], [500], reps=500, alpha=0.05,
                            seed=424242, workers=4)
        assert table.rows[0].failures == 0
        assert table.rows[0].rate == pytest.approx(0.05, abs=0.02)
