import ctypes
import json
import math
import multiprocessing

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from indirgof import simulation
from indirgof.cli import main
from indirgof.simulation import (
    ERROR_LAWS,
    THETA_COEFFS,
    SyntheticModel,
    g1_cdf,
    g1_density,
    generate,
    ktheta_true,
    laplace_psi,
    paper_model,
    power_study,
    sample_g1,
)

from helpers import identity_psi, poisson_count_image, rate_for, truncated_laplace_pdf

SQRT2 = math.sqrt(2.0)

_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads():
    """Thread count of each loaded OpenBLAS that has a getter."""
    counts = []
    for lib in simulation._loaded_openblas():
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
                break
    return counts


def _rep_on_one_blas_thread(*args):
    """Stands in for a repetition: "rejects" when this process runs BLAS on one thread."""
    counts = _blas_threads()
    return bool(counts) and all(c == 1 for c in counts)


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


class TestErrorLaws:
    def test_population_sds(self):
        # Student t(6): sqrt(6/4); Laplace(1/2): sqrt(2)/2
        assert math.sqrt(6.0 / 4.0) == pytest.approx(1.2247, abs=5e-5)
        assert math.sqrt(2.0) * 0.5 == pytest.approx(0.7071, abs=5e-5)

    def test_monte_carlo_sds(self):
        rng = np.random.default_rng(300)
        assert ERROR_LAWS["normal"](rng, 1_000_000).std() == pytest.approx(0.5, abs=0.005)
        assert ERROR_LAWS["laplace"](rng, 1_000_000).std() == pytest.approx(0.7071, abs=0.005)
        assert ERROR_LAWS["student-t"](rng, 1_000_000).std() == pytest.approx(1.2247, abs=0.02)

    def test_skew_normal_centering(self):
        # standard centred parametrization: mean 0, sd sqrt(1 - 2 d^2/pi)
        delta = 3.0 / math.sqrt(10.0)
        target_sd = math.sqrt(1.0 - 2.0 * delta * delta / math.pi)
        draws = ERROR_LAWS["skew-normal"](np.random.default_rng(301), 1_000_000)
        assert draws.mean() == pytest.approx(0.0, abs=0.005)
        assert draws.std() == pytest.approx(target_sd, abs=0.005)
        assert target_sd == pytest.approx(0.6535, abs=5e-5)

    def test_reproducibility(self):
        for name in ("normal", "laplace", "skew-normal", "student-t"):
            a = ERROR_LAWS[name](np.random.default_rng(7), 100)
            b = ERROR_LAWS[name](np.random.default_rng(7), 100)
            assert_array_equal(a, b)

    def test_zero_sampler(self):
        assert_array_equal(ERROR_LAWS["zero"](np.random.default_rng(1), 5), np.zeros(5))

    def test_draws_pinned(self):
        # The first draws at seed 2024, recorded before the error laws
        # became plain functions; the parity corpus reaches neither the
        # skew-normal nor the zero law.
        pinned = {
            "normal": ["0x1.07632a01e361cp-1", "0x1.a454df2d545f6p-1",
                       "0x1.258f693d4d4d4p-1", "-0x1.f24495e03365bp-2"],
            "laplace": ["0x1.bbbe920cb20c6p-3", "-0x1.b1ba18f890cc9p-2",
                        "-0x1.eb5200fcac466p-3", "0x1.d3c6a04e13309p-2"],
            "skew-normal": ["-0x1.c544b962c2560p-3", "0x1.a4d97a0c95c2cp-1",
                            "0x1.34e5f6c12cb72p-1", "0x1.4f2c8df6e19f4p-2"],
            "student-t": ["0x1.6a2995414545bp-1", "-0x1.b46e8c76f197cp+0",
                          "0x1.934866cd7efe0p-1", "0x1.532f92ee04be7p-1"],
            "zero": ["0x0.0p+0"] * 4,
        }
        assert sorted(ERROR_LAWS) == sorted(pinned)
        for name, hexes in pinned.items():
            draws = ERROR_LAWS[name](np.random.default_rng(2024), 4)
            assert [float(v).hex() for v in draws] == hexes, name

    def test_unknown_names_list_options(self):
        options = "options: laplace, normal, skew-normal, student-t, zero"
        with pytest.raises(ValueError, match=f"unknown error law 'cauchy'; {options}$"):
            paper_model("cauchy")


class TestDistortionCoefficients:
    def test_unit_mass(self):
        assert laplace_psi(np.array([[0, 0]]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_match_numeric_fourier_integral(self):
        # one-axis coefficients against direct quadrature of the
        # truncated, normalized Laplace density
        grid = (np.arange(4096) + 0.5) / 4096
        dens = truncated_laplace_pdf(grid)
        for k in (0, 1, 2, 3, 5):
            numeric = np.mean(dens * np.exp(-2j * np.pi * k * grid))
            analytic = laplace_psi(np.array([[k, 0]]))[0]
            assert abs(numeric.real - analytic) < 1e-6
            assert abs(numeric.imag) < 1e-9

    def test_decay_rate(self):
        # coefficients fall off like |k|^-2 per axis
        k = np.array([[8, 0], [16, 0]])
        ratio = laplace_psi(k)[0] / laplace_psi(2 * k[:1])[0]
        assert ratio == pytest.approx(4.0, rel=0.05)


class TestRegressionSurface:
    def test_value_at_origin_identity_distortion(self):
        model = SyntheticModel(identity_psi, "uniform", "zero")
        assert ktheta_true(model, np.array([0.0, 0.0])) == pytest.approx(4.5)

    def test_theta_coefficient_spot_values(self):
        assert THETA_COEFFS[(1, 0)] == 0.5
        assert THETA_COEFFS[(0, 2)] == -1.0
        assert THETA_COEFFS[(1, -1)] == -0.25

    def test_even_symmetry_required(self):
        # a real surface needs theta(-k) = theta(k)
        for k, v in THETA_COEFFS.items():
            assert THETA_COEFFS[tuple(-ki for ki in k)] == v, k

    def test_surface_pinned(self):
        # recorded before the distortions became module functions; the
        # parity corpus checks the surface only to within 1e-12
        pts = np.array([[0.0, 0.0], [0.25, 0.75], [0.5, 0.125], [0.9, 0.3]])
        pinned = {
            laplace_psi: ["0x1.ab5425d4863eep+0", "0x1.19b66b09c0a7cp+2",
                          "0x1.9e25146a4cc91p+2", "0x1.5c5e50eac7cb8p+2"],
            identity_psi: ["0x1.2000000000000p+2", "0x1.0000000000000p+2",
                           "0x1.0a827999fcef4p+3", "0x1.cdaa66d2c7dddp+2"],
        }
        for psi, hexes in pinned.items():
            values = ktheta_true(SyntheticModel(psi, "uniform", "zero"), pts)
            assert [float(v).hex() for v in values] == hexes, psi.__name__

    def test_matches_convolution_quadrature(self):
        """Product-form surface equals the periodic convolution of the
        undistorted surface with the truncated Laplace density."""
        model = paper_model("zero", "uniform")
        direct = SyntheticModel(identity_psi, "uniform", "zero")
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
        # failed repetitions are counted alike in the pool (to_dict: the rate is NaN)
        serial = power_study([model], [30], reps=3, seed=4, cv_radii=[2500.0])
        parallel = power_study([model], [30], reps=3, seed=4, cv_radii=[2500.0], workers=2)
        assert serial.to_dict() == parallel.to_dict() and serial.rows[0].failures == 3

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stand-in repetition reaches the workers only by fork")
    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        if not _blas_threads():
            pytest.skip("numpy's BLAS is not an OpenBLAS with a thread getter")
        monkeypatch.setattr(simulation, "run_single_rep", _rep_on_one_blas_thread)
        row = power_study([paper_model()], [30], reps=8, workers=2).rows[0]
        assert (row.rejections, row.failures) == (8, 0)

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
        out, json_out = tmp_path / "table.csv", tmp_path / "table.json"
        assert main(["simulate", "--scenarios", "normal", "--n", "50,60",
                     "--reps", "2", "--alpha", "0.05", "--seed", "6",
                     "--out", str(out), "--json-out", str(json_out)]) == 0
        payload = json.loads(json_out.read_text())
        assert [r["n"] for r in payload["rows"]] == [50, 60]
        assert all(r["reps"] == 2 for r in payload["rows"])
        assert payload["alpha"] == 0.05
        assert len(payload["rows"]) == 2
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "error,design,n,reps,rejections,failures,rate,seed"
        assert len(lines) == 3
        assert list(payload["rows"][1]) == lines[0].split(",")
        assert lines[2].split(",") == [str(v) for v in payload["rows"][1].values()]

    def test_reps_validated(self):
        model = paper_model("normal", "uniform")
        with pytest.raises(ValueError, match="reps"):
            power_study([model], [50], reps=0)
        with pytest.raises(ValueError, match="at least one scenario"):
            power_study([], [50], reps=1)
        with pytest.raises(ValueError, match="at least one scenario"):
            power_study([model], [], reps=1)
        # a worker count below 1 once ran serially without a word
        for workers in (0, -2):
            with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
                power_study([model], [50], reps=1, workers=workers)

    @pytest.mark.slow
    def test_power_grows_with_sample_size(self):
        model = paper_model("laplace", "uniform")
        table = power_study([model], [100, 500], reps=60, alpha=0.05,
                            seed=7, workers=4)
        assert rate_for(table, "laplace", 100) < rate_for(table, "laplace", 500)


def test_unknown_covariate_law_rejected():
    with pytest.raises(ValueError, match="covariate law"):
        SyntheticModel(identity_psi, "gaussian", "zero")
