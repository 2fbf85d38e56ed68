import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from indirgof.nulls import (
    student_t_null,
    check_fisher_information,
    gamma_closed_form_gaussian,
    gaussian_null,
    get_null,
    score_h,
)


class TestGaussianNull:
    def test_reference_values(self):
        null = gaussian_null()
        assert null.cdf(0.0) == pytest.approx(0.5)
        assert null.pdf(0.0) == pytest.approx(0.3989423, abs=5e-8)
        # -f'(1) = psi(1) f(1) = phi(1)
        assert null.location_score(1.0) * null.pdf(1.0) == pytest.approx(
            0.2419707, abs=5e-8
        )

    def test_quantile_inverts_cdf(self):
        null = gaussian_null()
        ps = np.linspace(0.001, 0.999, 499)
        assert np.max(np.abs(null.cdf(null.quantile(ps)) - ps)) < 1e-10

    def test_cdf_and_survival_match_high_precision(self):
        # Rounding t / sqrt(2) to a double moves Phi(t) by up to t^2 * 1.1e-16
        # relative, hence the t^2 in the bound.  This grid measures 3.4e-16 (scipy's
        # ndtr: 5.9e-16).
        ts = np.linspace(-38.0, 38.0, 1521)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.ncdf(t)) for t in ts])
            ref_sf = np.array([float(mpmath.ncdf(-t)) for t in ts])
        bound = 1e-15 * np.maximum(1.0, ts * ts)
        for got, want in ((gaussian_null().cdf(ts), ref),
                          (gamma_closed_form_gaussian(ts)[:, 0, 0], ref_sf)):
            kept = want > 1e-300
            rel = np.abs(got[kept] - want[kept]) / want[kept]
            assert np.all(rel <= bound[kept]), float(np.max(rel / bound[kept]))

    def test_quantile_edge_values(self):
        # scipy's ndtri: -inf at 0, +inf at 1, NaN for NaN and outside [0, 1]
        quantile = gaussian_null().quantile
        got = quantile(np.array([0.0, 1.0, np.nan, -0.1, 1.1, -np.inf, np.inf]))
        assert_array_equal(got, [-np.inf, np.inf] + [np.nan] * 5)
        assert quantile(0.0) == -np.inf and quantile(1.0) == np.inf
        assert math.isnan(quantile(np.nan)) and math.isnan(quantile(2.0))
        assert quantile(np.zeros((2, 3))).shape == (2, 3)

    def test_quantile_round_trip_to_rounding(self):
        # q is a rounded double, so Phi(q) may move by q^2 * 1.1e-16 relative
        null = gaussian_null()
        ps = np.linspace(1e-6, 1.0 - 1e-6, 20001)
        q = null.quantile(ps)
        err = np.abs(null.cdf(q) - ps)
        assert np.max(err) <= 2.3e-16
        assert np.all(err <= 2e-15 * ps * np.maximum(1.0, q * q))

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    def test_moments_by_quadrature(self, null_factory):
        null = null_factory()
        mean, _ = quad(lambda t: t * null.pdf(t), -np.inf, np.inf)
        second, _ = quad(lambda t: t * t * null.pdf(t), -np.inf, np.inf)
        assert mean == pytest.approx(0.0, abs=1e-6)
        assert second == pytest.approx(1.0, abs=1e-6)

    def test_sampler_matches_cdf(self):
        null = gaussian_null()
        rng = np.random.default_rng(101)
        draws = null.quantile(rng.random(100_000))
        draws = (draws - draws.mean()) / draws.std()
        sorted_d = np.sort(draws)
        n = len(sorted_d)
        cdf = null.cdf(sorted_d)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n)))
        assert ks < 0.01


class TestScore:
    def test_gaussian_spec_points(self):
        null = gaussian_null()
        assert_allclose(score_h(null, 2.0), [1.0, 2.0, 3.0], atol=1e-12)
        assert_allclose(score_h(null, 0.0), [1.0, 0.0, -1.0], atol=1e-12)
        assert_allclose(score_h(null, -1.0), [1.0, -1.0, 0.0], atol=1e-12)

    def test_gaussian_closed_form_on_grid(self):
        null = gaussian_null()
        ts = np.linspace(-6.0, 6.0, 241)
        h = score_h(null, ts)
        expected = np.stack([np.ones_like(ts), ts, ts * ts - 1.0], axis=-1)
        assert np.max(np.abs(h - expected)) < 1e-12

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    def test_location_score_matches_log_density_slope(self, null_factory):
        null = null_factory()
        ts = np.linspace(-4.0, 4.0, 161)
        eps = 1e-6
        log_f = lambda t: np.log(null.pdf(t))
        slope = (log_f(ts + eps) - log_f(ts - eps)) / (2 * eps)   # f'/f
        h = score_h(null, ts)
        assert np.max(np.abs(h[:, 1] + slope)) < 1e-6
        assert np.max(np.abs(h[:, 2] + (1.0 + ts * slope))) < 1e-5

    def test_vector_shape(self):
        h = score_h(gaussian_null(), np.zeros((4, 5)))
        assert h.shape == (4, 5, 3)

    @pytest.mark.parametrize("null_factory", [gaussian_null, student_t_null])
    def test_finite_where_density_underflows(self, null_factory):
        # the Gaussian density underflows near |t| = 38; the score must not
        h = score_h(null_factory(), np.array([40.0, 1e3, -1e3]))
        assert np.all(np.isfinite(h))

    def test_gaussian_far_tail_value(self):
        assert_allclose(score_h(gaussian_null(), 40.0), [1.0, 40.0, 1599.0],
                        rtol=0, atol=0)


def test_unknown_null_lists_options():
    with pytest.raises(ValueError, match="options: gaussian, student-t"):
        get_null("uniform")


def test_fisher_information_gaussian():
    # E[(1 + t^2) t^2] under the standard normal is 1 + 3 = 4
    assert check_fisher_information(gaussian_null()) == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("null_factory", [student_t_null])
def test_quantile_round_trip(null_factory):
    null = null_factory()
    ps = np.linspace(0.001, 0.999, 499)
    assert np.max(np.abs(null.cdf(null.quantile(ps)) - ps)) < 1e-10


def _mp_student_t_tail_matrix(df, t):
    """Tail information matrix of the unit-variance Student t by 40-digit quadrature."""
    df = mpmath.mpf(df)
    s = mpmath.sqrt(df / (df - 2))
    c = mpmath.gamma((df + 1) / 2) / (mpmath.gamma(df / 2) * mpmath.sqrt(df * mpmath.pi))

    def h_f(u):
        x = s * u
        psi = s * (df + 1) * x / (df + x * x)
        return (1, psi, u * psi - 1), s * c * (1 + x * x / df) ** (-(df + 1) / 2)

    def integrand(u, i, j):
        h, f = h_f(u)
        return h[i] * h[j] * f

    g = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            g[i, j] = g[j, i] = float(mpmath.quad(lambda u: integrand(u, i, j),
                                                  [t, t + 1, t + 10, mpmath.inf]))
    return g


@pytest.mark.slow
@pytest.mark.parametrize("df, rel", [(2.5, 1e-13), (3.0, 1e-13), (6.0, 1e-13),
                                     (30.0, 1e-13), (1e3, 1e-10), (1e5, 1e-10)])
def test_student_t_tail_matrix_matches_high_precision_quadrature(df, rel):
    ts = [-12.0, -3.0, -1.0, 0.5, 1.3, 3.0, 6.0]
    closed = student_t_null(df).tail_matrix(np.array(ts))
    with mpmath.workdps(40):
        for t, got in zip(ts, closed):
            ref = _mp_student_t_tail_matrix(df, mpmath.mpf(t))
            assert_allclose(got, ref, rtol=rel, atol=0.0)


def test_student_t_df_domain():
    with pytest.raises(ValueError):
        student_t_null(2.0)
