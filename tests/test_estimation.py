import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from indirgof.bandwidth import default_radius_grid, select_and_fit
from indirgof.errors import DegenerateFitError
from indirgof.estimation import (
    RegressionFit,
    Dataset,
    estimate_coeffs,
    estimate_density,
    fit,
)
from indirgof.khmaladze import decide
from indirgof.nulls import gaussian_null
from indirgof.simulation import (
    THETA_COEFFS,
    generate,
    ktheta_true,
    laplace_psi,
    paper_model,
)
from indirgof.spectral import FreqLattice, enumerate_lattice, weight_matrix

from helpers import full_indices, full_phases


class TestDataset:
    def test_shapes_and_properties(self):
        data = Dataset(x=[[0.1, 0.2], [0.5, 0.9]], y=[1.0, 2.0])
        assert data.n == 2 and data.m == 2

    def test_rejects_out_of_cube(self):
        with pytest.raises(ValueError, match="unit cube"):
            Dataset(x=[[1.5]], y=[0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(x=[[0.5]], y=[np.nan])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="responses"):
            Dataset(x=[[0.5], [0.6]], y=[1.0])


def _raw(dens, x):
    """The density estimate at ``x`` before the clamp."""
    return 1.0 + dens.lattice.basis(x) @ dens.coeffs


class TestDensityEstimate:
    def test_single_point_at_origin(self):
        data = Dataset(x=[[0.0]], y=[7.0])
        lat = enumerate_lattice(1, 1)
        dens = estimate_density(data, lat)
        assert _raw(dens, np.array([[0.0]])) == pytest.approx([3.0])

    def test_zero_coefficient_exact_and_unit_integral(self):
        rng = np.random.default_rng(11)
        data = Dataset(x=rng.random((50, 2)), y=rng.random(50))
        lat = enumerate_lattice(2, 2)
        dens = estimate_density(data, lat)
        # the constant term is exactly 1; coeffs hold the rest of the series
        assert dens.coeffs.shape == (lat.size - 1,)
        assert_allclose(dens.coeffs, lat.basis(data.x).mean(axis=0), atol=1e-15)
        # rectangle rule integrates the trigonometric polynomial exactly
        grid = (np.arange(12) + 0.5) / 12
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        assert np.mean(_raw(dens, pts)) == pytest.approx(1.0, abs=1e-10)

    def test_clamp_applies_floor(self):
        data = Dataset(x=[[0.0], [0.01]], y=[0.0, 0.0])
        lat = enumerate_lattice(1, 3)
        dens = estimate_density(data, lat, floor=0.05)
        # far from both points the raw Dirichlet sum is negative
        raw = _raw(dens, np.array([[0.5]]))[0]
        assert raw < 0.05
        assert dens.evaluate(np.array([[0.5]]))[0] == pytest.approx(0.05)

    def test_floor_must_be_positive(self):
        data = Dataset(x=[[0.5]], y=[1.0])
        with pytest.raises(ValueError, match="floor"):
            estimate_density(data, enumerate_lattice(1, 1), floor=0.0)

    def test_uniform_density_sup_error(self):
        # large uniform sample: the raw estimate hugs the constant 1
        rng = np.random.default_rng(3)
        data = Dataset(x=rng.random((10_000, 2)), y=np.zeros(10_000))
        lat = enumerate_lattice(2, 3)
        dens = estimate_density(data, lat)
        grid = np.linspace(0.0, 1.0, 41)
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        assert np.max(np.abs(_raw(dens, pts) - 1.0)) < 0.15


def _complex_coeffs(c):
    """Complex rhat over :func:`full_indices` from the real coefficients."""
    upper = (c[1::2] - 1j * c[2::2]) / np.sqrt(2.0)
    return np.concatenate([c[:1], upper, np.conj(upper)])


class TestEstimateCoeffs:
    def test_single_point(self):
        data = Dataset(x=[[0.0]], y=[4.2])
        lat = enumerate_lattice(1, 1)
        dens = estimate_density(data, lat)
        coeffs = estimate_coeffs(data, dens, lat)
        u = 4.2 / dens.evaluate(np.array([[0.0]]))[0]
        # basis(0) = (sqrt(2), 0), so the complex rhat is u at k = -1, 0, 1
        assert_allclose(coeffs, [u, np.sqrt(2.0) * u, 0.0], atol=1e-12)

    def test_zero_response(self):
        rng = np.random.default_rng(13)
        data = Dataset(x=rng.random((25, 2)), y=np.zeros(25))
        lat = enumerate_lattice(2, 1)
        dens = estimate_density(data, lat)
        assert_array_equal(estimate_coeffs(data, dens, lat), np.zeros(5))

    def test_recovers_known_coefficients(self):
        # noiseless draw from the trigonometric regression distorted by
        # the Laplace product; compare against the analytic product form
        model = paper_model("zero", "uniform")
        rng = np.random.default_rng(5)
        data = generate(model, 4000, rng)
        lat = enumerate_lattice(2, 3)
        dens = estimate_density(data, lat)
        rhat = _complex_coeffs(estimate_coeffs(data, dens, lat))
        for i, k in enumerate(full_indices(lat)):
            if np.linalg.norm(k) > 2:
                continue
            truth = laplace_psi(k[None, :])[0] * THETA_COEFFS.get(tuple(k), 0.0)
            assert abs(rhat[i] - truth) < 0.05


class TestFit:
    def test_single_point_degenerates(self):
        data = Dataset(x=[[0.3]], y=[2.0])
        with pytest.raises(DegenerateFitError):
            fit(data, enumerate_lattice(1, 1))

    @pytest.mark.parametrize("data", [
        Dataset(x=np.random.default_rng(16).random((40, 2)), y=np.zeros(40)),
        generate(paper_model("zero", "uniform"), 1, np.random.default_rng(16)),
    ], ids=["zero-responses", "noiseless-single-draw"])
    def test_interpolating_fit_is_degenerate(self, data):
        with pytest.raises(DegenerateFitError, match="numerically zero"):
            fit(data, enumerate_lattice(2, 2))

    @pytest.mark.parametrize("scale", [1e-14, 1e155, 1e300])
    def test_extreme_scale_keeps_the_statistic(self, scale):
        # the responses once counted as zero (1e-14) or overflowed when
        # squared (1e155); the test is scale-free, so the answer must not move
        data = generate(paper_model("normal", "uniform"), 300, np.random.default_rng(0))
        scaled = Dataset(x=data.x, y=data.y * scale)
        cv, f = select_and_fit(scaled)
        assert cv.chosen == 2.0
        assert f.sigma_hat == pytest.approx(fit(data, f.lattice).sigma_hat * scale,
                                            rel=1e-12)
        stat = decide(f, gaussian_null(), 0.05).statistic
        assert stat == pytest.approx(2.343133948772471, rel=1e-12)

    def test_scale_and_standardization(self):
        rng = np.random.default_rng(15)
        data = Dataset(x=rng.random((60, 2)), y=rng.normal(1.0, 0.5, 60))
        f = fit(data, enumerate_lattice(2, 2))
        assert f.sigma_hat == pytest.approx(float(np.sqrt(np.mean(f.residuals**2))))
        assert_allclose(f.z * f.sigma_hat, f.residuals, atol=1e-14)
        assert np.mean(f.z**2) == pytest.approx(1.0, abs=1e-12)
        # the arithmetic of the standardizer on the two-residual example:
        # residuals (1, -1) have rms 1 and standardize to themselves
        r = np.array([1.0, -1.0])
        assert float(np.sqrt(np.mean(r**2))) == 1.0

    def test_mean_residual_identity(self):
        rng = np.random.default_rng(99)
        for case in range(20):
            m = 1 + case % 2
            n = int(rng.integers(20, 201))
            data = Dataset(x=rng.random((n, m)), y=rng.normal(2.0, 1.5, n))
            f = fit(data, enumerate_lattice(m, 1 + case % 3))
            bound = 1e-8 * (1.0 + np.sum(np.abs(data.y)))
            assert abs(np.sum(f.residuals)) <= bound

    def test_direct_equals_coefficient_form_at_data(self):
        # the coefficient series behind the residuals against the direct
        # weight-sum form (1/n) sum_j [y_j / g_hat(x_j)] W(x - x_j)
        rng = np.random.default_rng(16)
        data = Dataset(x=rng.random((80, 2)), y=rng.normal(size=80))
        lat = enumerate_lattice(2, 2)
        f = fit(data, lat)
        ratios = data.y / f.density.evaluate(data.x)
        direct = weight_matrix(lat, data.x) @ ratios / data.n
        assert_allclose(data.y - f.residuals, direct, atol=1e-9)

    def test_fit_forms_phases_once(self, monkeypatch):
        calls = []
        phases = FreqLattice.phases

        def counted(lattice, x):
            calls.append(len(x))
            return phases(lattice, x)

        monkeypatch.setattr(FreqLattice, "phases", counted)
        rng = np.random.default_rng(18)
        for m in (1, 2):
            data = Dataset(x=rng.random((70, m)), y=rng.normal(size=70))
            calls.clear()
            f = fit(data, enumerate_lattice(m, 2))
            assert calls == [70]
            # evaluation elsewhere forms its own phases
            f.predict(rng.random((4, m)))
            f.density.evaluate(rng.random((3, m)))
            assert calls == [70, 4, 3]

    def test_prediction_is_real(self):
        rng = np.random.default_rng(17)
        data = Dataset(x=rng.random((50, 1)), y=rng.normal(size=50))
        f = fit(data, enumerate_lattice(1, 3))
        pts = rng.random((30, 1))
        ph = full_phases(f.lattice, pts)
        complex_vals = (np.exp(1j * ph) * _complex_coeffs(f.coeffs)).sum(axis=1)
        scale = np.maximum(np.abs(complex_vals.real), 1.0)
        assert np.max(np.abs(complex_vals.imag) / scale) < 1e-10
        assert_allclose(f.predict(pts), complex_vals.real, atol=1e-10)

    def test_single_point_gives_one_value_per_row(self):
        # a 1-D point is one row: the evaluators return shape (1,), never a float
        rng = np.random.default_rng(19)
        data = Dataset(x=rng.random((40, 2)), y=rng.normal(size=40))
        f = fit(data, enumerate_lattice(2, 2))
        point = np.array([0.3, 0.6])
        assert f.predict(point).shape == (1,)
        assert f.density.evaluate(point).shape == (1,)
        assert ktheta_true(paper_model("zero"), point).shape == (1,)


def _fit_with_standardized(z):
    # Assemble a RegressionFit around a chosen residual multiset; only the
    # ecdf machinery is exercised through it.
    z = np.asarray(z, dtype=float)
    lat = enumerate_lattice(1, 1)
    data = Dataset(x=[[0.2], [0.5], [0.8]], y=[0.0, 0.0, 0.0])
    dens = estimate_density(data, lat)
    return RegressionFit(lattice=lat, coeffs=np.zeros(3),
                         density=dens, residuals=z.copy(), sigma_hat=1.0,
                         z=z, z_sorted=np.sort(z))


class TestEcdf:
    def test_spec_values(self):
        f = _fit_with_standardized([-1.0, 0.0, 1.0])
        assert f.ecdf(0.0) == pytest.approx(2.0 / 3.0)
        assert f.ecdf(-5.0) == 0.0
        assert f.ecdf(1.0) == 1.0

    def test_step_structure(self):
        rng = np.random.default_rng(19)
        data = Dataset(x=rng.random((40, 1)), y=rng.normal(size=40))
        f = fit(data, enumerate_lattice(1, 2))
        ts = np.sort(np.concatenate([f.z_sorted, f.z_sorted - 1e-9, [np.inf]]))
        vals = f.ecdf(ts)
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] == 1.0
        # each unique residual contributes a jump of its multiplicity / n
        uniq, counts = np.unique(f.z_sorted, return_counts=True)
        jumps = f.ecdf(uniq) - f.ecdf(uniq - 1e-12)
        assert_allclose(jumps, counts / f.n, atol=1e-12)


@pytest.mark.slow
def test_fit_improves_with_sample_size():
    """Sup-norm error on a 21x21 grid shrinks from n=200 to n=2000."""
    model = paper_model("normal", "uniform")
    grid = np.linspace(0.0, 1.0, 21)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    truth = ktheta_true(model, pts)
    errs = {}
    for n in (200, 2000):
        rng = np.random.default_rng(77)
        data = generate(model, n, rng)
        _, f = select_and_fit(data, default_radius_grid(n, 2))
        errs[n] = float(np.max(np.abs(f.predict(pts) - truth)))
    assert errs[2000] < errs[200]
