import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from indirgof import nulls
from indirgof.errors import ConvergenceError
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


class TestStudentTNull:
    def test_lower_tail_quantile_round_trip(self):
        null = student_t_null()
        ps = np.logspace(-300.0, -6.0, 295)
        q = null.quantile(ps)
        assert_allclose(null.cdf(q), ps, rtol=1e-12, atol=0.0)
        assert null.quantile(1e-200) < -1e30
        down_to_subnormal = null.quantile(np.logspace(-323.0, -6.0, 318))
        assert np.all(np.isfinite(down_to_subnormal))
        assert np.all(np.diff(down_to_subnormal) > 0.0)

    def test_cdf_edge_values(self):
        cdf = student_t_null().cdf
        got = cdf(np.array([-np.inf, np.inf, 0.0, -0.0, -1e200, 1e200, np.nan]))
        assert_array_equal(got, [0.0, 1.0, 0.5, 0.5, 0.0, 1.0, np.nan])

    def test_continued_fraction_refuses_to_return_unconverged_values(self):
        # b = 1e8 at z = 0.999 lies far outside the fraction's fast region
        with pytest.raises(ConvergenceError, match="did not converge"):
            nulls._beta_cf([(0.5, 3.0), (0.5, 1e8)], np.array([0, 1, 0]),
                           np.array([0.1, 0.999, 0.2]))

    def test_continued_fraction_passes_nan_through(self):
        got = nulls._beta_cf([(0.5, 3.0)], np.zeros(3, dtype=int), np.array([0.1, np.nan, 0.2]))
        assert math.isnan(got[1]) and np.all(np.isfinite(got[[0, 2]]))


def _mp_t_sf(df, x):
    """P(T_df > x) by 40-digit regularized incomplete beta functions."""
    df, x = mpmath.mpf(df), mpmath.mpf(x)
    if x < 0:
        return 1 - _mp_t_sf(df, -x)
    r = x * x / df
    if r * (df + 2) > 3:
        return mpmath.betainc(df / 2, 0.5, 0, 1 / (1 + r), regularized=True) / 2
    return 0.5 - mpmath.betainc(0.5, df / 2, 0, r / (1 + r), regularized=True) / 2


@pytest.mark.slow
@pytest.mark.parametrize("df, rel", [(2.5, 5e-14), (3.0, 5e-14), (6.0, 5e-14), (8.0, 5e-14),
                                     (30.0, 5e-14), (1e3, 1e-10), (1e5, 1e-10)])
def test_student_t_law_matches_high_precision_betainc(df, rel):
    if df < 100.0:
        xs = np.concatenate([np.linspace(-40.0, 40.0, 801), [100.0, 1e3]])
    else:  # mpmath's betainc fails where these tails fall far below a double
        xs = np.linspace(-30.0, 30.0, 121)
    with mpmath.workdps(40):
        want = np.array([float(_mp_t_sf(df, x)) for x in xs])
    assert_allclose(nulls._t_sf(df, xs), want, rtol=rel, atol=0.0)
    # the unit-variance cdf at t = -x / scale is the same tail at -scale t
    null, scale = student_t_null(df), math.sqrt(df / (df - 2.0))
    ts = -xs / scale
    with mpmath.workdps(40):
        want = np.array([float(_mp_t_sf(df, -scale * t)) for t in ts])
    assert_allclose(null.cdf(ts), want, rtol=rel, atol=0.0)


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


@pytest.mark.parametrize("null", [gaussian_null()]
                         + [student_t_null(df) for df in (2.5, 6.0, 30.0, 1e5)],
                         ids=lambda null: null.name)
def test_tail_matrix_holds_the_density_exactly(null):
    # build_scan reads f from Gamma_01 = integral_t^inf psi f = f(t), in place of pdf
    ts = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-1e3, 1e3, null.quantile(1e-6)]])
    assert np.array_equal(null.tail_matrix(ts)[..., 0, 1], null.pdf(ts))


_NULLS = [gaussian_null(), student_t_null(), student_t_null(2.5)]


@pytest.mark.parametrize("null", _NULLS, ids=lambda null: null.name)
def test_quantile_edge_values(null):
    # scipy's ndtri and t.ppf: -inf at 0 (and -0.0), +inf at 1, NaN for NaN and outside [0, 1]
    quantile = null.quantile
    got = quantile(np.array([0.0, -0.0, 1.0, np.nan, -0.1, 1.1, -np.inf, np.inf]))
    assert_array_equal(got, [-np.inf, -np.inf, np.inf] + [np.nan] * 5)
    assert quantile(0.0) == -np.inf and quantile(-0.0) == -np.inf and quantile(1.0) == np.inf
    assert quantile(1e-300) < quantile(1e-200) < quantile(1e-6) < 0.0
    assert math.isnan(quantile(np.nan)) and math.isnan(quantile(2.0))
    assert quantile(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("null", _NULLS, ids=lambda null: null.name)
def test_quantile_is_odd_about_one_half(null):
    # 1 - p is exact for p in (1/2, 1], so the quantile must flip its sign bit and no other
    rng = np.random.default_rng(5)
    p = np.concatenate([0.5 + 0.5 * rng.random(2000), 1.0 - np.logspace(-16.0, -0.31, 300),
                        [np.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 1.0]])
    p = p[p > 0.5]
    assert np.all((1.0 - p) + p == 1.0)
    lower, upper = null.quantile(1.0 - p), null.quantile(p)
    assert_array_equal(lower.view(np.uint64), (-upper).view(np.uint64))
    assert null.quantile(0.5) == 0.0


@pytest.mark.parametrize("null", _NULLS, ids=lambda null: null.name)
def test_scalar_quantile_is_a_float_equal_to_the_array_element(null):
    ps = [1e-6, 0.5, 0.3, 0.97, 1.0 - 1e-6, 5e-324, 1e-300, 0.0, -0.0, 1.0, np.nan, 2.0]
    whole = null.quantile(np.array(ps))
    for p, want in zip(ps, whole):
        for arg in (p, np.float64(p), np.array(p)):
            got = null.quantile(arg)
            assert type(got) is float
            assert got == want or (math.isnan(got) and math.isnan(want)), (p, got, want)


@pytest.mark.parametrize("df, name", [(6.0, "student-t(6)"), (6, "student-t(6)"),
                                      (np.float64(6.0), "student-t(6)"), (2.5, "student-t(2.5)"),
                                      (30.0, "student-t(30)"), (1e5, "student-t(100000)"),
                                      (6.0000001, "student-t(6.0000001)"),
                                      (2.0000000000000004, "student-t(2.0000000000000004)")])
def test_student_t_name_keeps_every_digit(df, name):
    # the report's null field and any cache keyed by name must tell distinct laws apart
    assert student_t_null(df).name == name


def test_student_t_df_domain():
    with pytest.raises(ValueError):
        student_t_null(2.0)
