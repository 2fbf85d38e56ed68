import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from indirgof.nulls import ErrorSampler, get_sampler
from indirgof.simulation import (
    THETA_COEFFS,
    IdentityPsi,
    LaplaceProductPsi,
    SyntheticModel,
    g1_cdf,
    g1_density,
    generate,
    ktheta_true,
    paper_model,
    poisson_count_image,
    power_study,
    sample_g1,
)

from helpers import truncated_laplace_pdf

SQRT2 = math.sqrt(2.0)


class TestCovariateLaw:
    def test_cdf_endpoints_and_midpoint(self):
        assert g1_cdf(0.0) == 0.0
        assert g1_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
        assert g1_cdf(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_is_antiderivative(self):
        xs = np.linspace(0.01, 0.99, 50)
        eps = 1e-6
        fd = (g1_cdf(xs + eps) - g1_cdf(xs - eps)) / (2 * eps)
        assert np.max(np.abs(fd - g1_density(xs))) < 1e-9

    def test_inverse_cdf_accuracy(self):
        rng = np.random.default_rng(200)
        u = rng.random(1000)
        x = sample_g1(np.random.default_rng(200), 1000)
        assert np.max(np.abs(g1_cdf(x) - u)) <= 1e-12

    def test_first_cosine_moment(self):
        # integral of cos(2 pi x) against g1 is -sqrt(2)/8 by orthogonality
        rng = np.random.default_rng(201)
        x = sample_g1(rng, 100_000)
        assert np.mean(np.cos(2 * np.pi * x)) == pytest.approx(-SQRT2 / 8, abs=0.01)


class TestDistortionCoefficients:
    def test_unit_mass(self):
        psi = LaplaceProductPsi()
        assert psi(np.array([[0, 0]]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_match_numeric_fourier_integral(self):
        # one-axis coefficients against direct quadrature of the
        # truncated, normalized Laplace density
        psi = LaplaceProductPsi()
        grid = (np.arange(4096) + 0.5) / 4096
        dens = truncated_laplace_pdf(grid)
        for k in (0, 1, 2, 3, 5):
            numeric = np.mean(dens * np.exp(-2j * np.pi * k * grid))
            analytic = psi(np.array([[k, 0]]))[0]
            assert abs(numeric.real - analytic) < 1e-6
            assert abs(numeric.imag) < 1e-9

    def test_decay_rate(self):
        # coefficients fall off like |k|^-2 per axis
        psi = LaplaceProductPsi()
        k = np.array([[8, 0], [16, 0]])
        ratio = psi(k)[0] / psi(2 * k[:1])[0]
        assert ratio == pytest.approx(4.0, rel=0.05)


class TestRegressionSurface:
    def test_value_at_origin_identity_distortion(self):
        model = SyntheticModel(THETA_COEFFS, IdentityPsi(), "uniform",
                               get_sampler("zero"))
        assert ktheta_true(model, np.array([0.0, 0.0])) == pytest.approx(4.5)

    def test_theta_coefficient_spot_values(self):
        assert THETA_COEFFS[(1, 0)] == 0.5
        assert THETA_COEFFS[(0, 2)] == -1.0
        assert THETA_COEFFS[(1, -1)] == -0.25

    def test_even_symmetry_required(self):
        bad = dict(THETA_COEFFS)
        bad[(1, 0)] = 0.75  # breaks evenness against (-1, 0)
        with pytest.raises(ValueError, match="even"):
            SyntheticModel(bad, IdentityPsi(), "uniform", get_sampler("zero"))

    def test_matches_convolution_quadrature(self):
        """Product-form surface equals the periodic convolution of the
        undistorted surface with the truncated Laplace density."""
        model = paper_model("zero", "uniform")
        direct = SyntheticModel(THETA_COEFFS, IdentityPsi(), "uniform",
                                get_sampler("zero"))
        g = 256
        grid = (np.arange(g) + 0.5) / g
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        theta_vals = ktheta_true(direct, np.column_stack([uu.ravel(), vv.ravel()]))
        theta_vals = theta_vals.reshape(g, g)
        rng = np.random.default_rng(202)
        for x in rng.random((3, 2)):
            kern = (truncated_laplace_pdf(x[0] - uu)
                    * truncated_laplace_pdf(x[1] - vv))
            quadrature = float(np.mean(theta_vals * kern))
            assert ktheta_true(model, x) == pytest.approx(quadrature, abs=1e-3)


class TestGenerate:
    def test_zero_noise_is_exact(self):
        model = paper_model("zero", "uniform")
        rng = np.random.default_rng(203)
        data = generate(model, 50, rng)
        assert_allclose(data.y, ktheta_true(model, data.x), atol=1e-14)

    def test_seed_reproducibility(self):
        model = paper_model("laplace", "nontrivial")
        a = generate(model, 40, np.random.default_rng(204))
        b = generate(model, 40, np.random.default_rng(204))
        assert_array_equal(a.x, b.x)
        assert_array_equal(a.y, b.y)

    def test_mean_matches_surface_within_clt_band(self):
        model = paper_model("normal", "uniform")
        rng = np.random.default_rng(205)
        data = generate(model, 10_000, rng)
        gap = np.mean(data.y) - np.mean(ktheta_true(model, data.x))
        assert abs(gap) <= 3 * 0.5 / 100.0

    def test_nontrivial_design_in_cube(self):
        model = paper_model("normal", "nontrivial")
        rng = np.random.default_rng(206)
        data = generate(model, 500, rng)
        assert data.x.shape == (500, 2)
        assert np.all((data.x >= 0) & (data.x <= 1))


class TestPoissonImage:
    def test_shape_and_counts(self):
        model = paper_model("zero", "uniform")
        img = poisson_count_image(model, 32, np.random.default_rng(207))
        assert img.shape == (32, 32)
        assert np.issubdtype(img.dtype, np.integer)
        assert np.all(img >= 0)


class TestPowerStudy:
    def test_deterministic(self):
        model = paper_model("normal", "uniform")
        a = power_study([model], [60], reps=4, alpha=0.05, seed=3)
        b = power_study([model], [60], reps=4, alpha=0.05, seed=3)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        model = paper_model("laplace", "uniform")
        serial = power_study([model], [60], reps=6, alpha=0.05, seed=4)
        parallel = power_study([model], [60], reps=6, alpha=0.05, seed=4,
                               workers=2)
        assert serial == parallel

    def test_failures_reported_not_dropped(self):
        model = paper_model("normal", "uniform")
        # an absurd candidate radius trips the lattice cap in every rep
        table = power_study([model], [30], reps=3, alpha=0.05, seed=5,
                            cv_radii=[2500.0])
        row = table.rows[0]
        assert row.failures == 3
        assert row.rejections == 0
        assert math.isnan(row.rate)

    def test_rows_and_serialization(self, tmp_path):
        model = paper_model("normal", "uniform")
        table = power_study([model], [50, 60], reps=2, alpha=0.05, seed=6)
        assert [r.n for r in table.rows] == [50, 60]
        assert all(r.reps == 2 for r in table.rows)
        payload = table.to_dict()
        assert payload["alpha"] == 0.05
        assert len(payload["rows"]) == 2
        out = tmp_path / "table.csv"
        table.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "error,design,n,reps,rejections,failures,rate,seed"
        assert len(lines) == 3
        assert list(payload["rows"][1]) == lines[0].split(",")
        assert lines[2].split(",") == [str(v) for v in payload["rows"][1].values()]

    def test_reps_validated(self):
        with pytest.raises(ValueError):
            power_study([paper_model("normal", "uniform")], [50], reps=0)

    @pytest.mark.slow
    def test_power_grows_with_sample_size(self):
        model = paper_model("laplace", "uniform")
        table = power_study([model], [100, 500], reps=60, alpha=0.05,
                            seed=7, workers=4)
        assert table.rate_for("laplace", 100) < table.rate_for("laplace", 500)


def test_unknown_covariate_law_rejected():
    with pytest.raises(ValueError, match="covariate law"):
        SyntheticModel(THETA_COEFFS, IdentityPsi(), "gaussian",
                       ErrorSampler("zero", "zero"))
