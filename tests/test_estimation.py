import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from indirgof import estimation
from indirgof.bandwidth import default_radius_grid, select_and_fit
from indirgof.errors import DegenerateFitError
from indirgof.estimation import (
    DENSITY_FLOOR,
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


def _raw(lattice, sample, x):
    """The density series of ``sample`` at ``x``, before the clamp."""
    return 1.0 + lattice.basis(x) @ lattice.basis(sample).mean(axis=0)


class TestDensityEstimate:
    def test_single_point_at_origin(self):
        # basis(0) = (sqrt(2), 0), so the series at the point is 1 + 2
        basis = enumerate_lattice(1, 1).basis(np.array([[0.0]]))
        assert estimate_density(basis) == pytest.approx([3.0])

    def test_zero_coefficient_exact_and_unit_integral(self):
        rng = np.random.default_rng(11)
        x = rng.random((50, 2))
        lat = enumerate_lattice(2, 2)
        basis = lat.basis(x)
        # at the sample rows: the clamped series, which is the Dirichlet-kernel
        # mean (1/n) sum_j W(x_i - x_j) of the weights
        density = estimate_density(basis)
        assert_array_equal(density, np.maximum(_raw(lat, x, x), DENSITY_FLOOR))
        assert_allclose(density, np.maximum(weight_matrix(lat, x).mean(axis=1),
                                            DENSITY_FLOOR), atol=1e-12)
        # the constant term is exactly 1, so the rectangle rule, exact for the
        # trigonometric polynomial, integrates the series to one
        grid = (np.arange(12) + 0.5) / 12
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        assert np.mean(_raw(lat, x, pts)) == pytest.approx(1.0, abs=1e-10)

    def test_clamp_applies_floor(self):
        # nine points near 0 and one at 0.5: there the radius-3 Dirichlet sum
        # is W(0) = 7 from the point itself and about W(0.5) = -1 from the rest
        x = np.array([[0.005 * j] for j in range(9)] + [[0.5]])
        lat = enumerate_lattice(1, 3)
        raw = _raw(lat, x, x)
        assert raw[-1] < DENSITY_FLOOR and np.all(raw[:-1] > DENSITY_FLOOR)
        density = estimate_density(lat.basis(x))
        assert density[-1] == DENSITY_FLOOR
        assert_array_equal(density[:-1], raw[:-1])

    def test_uniform_density_sup_error(self):
        # large uniform sample: the raw estimate hugs the constant 1
        rng = np.random.default_rng(3)
        x = rng.random((10_000, 2))
        lat = enumerate_lattice(2, 3)
        grid = np.linspace(0.0, 1.0, 41)
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        assert np.max(np.abs(_raw(lat, x, pts) - 1.0)) < 0.15
        assert np.max(np.abs(estimate_density(lat.basis(x)) - 1.0)) < 0.15


def _complex_coeffs(c):
    """Complex rhat over :func:`full_indices` from the real coefficients."""
    upper = (c[1::2] - 1j * c[2::2]) / np.sqrt(2.0)
    return np.concatenate([c[:1], upper, np.conj(upper)])


def _series(data, lattice):
    """The two steps of :func:`fit`, joined as ``RegressionFit.coeffs`` holds them."""
    basis = lattice.basis(data.x)
    const, coeffs = estimate_coeffs(basis, data.y, estimate_density(basis))
    return np.concatenate(([const], coeffs))


class TestEstimateCoeffs:
    def test_single_point(self):
        basis = enumerate_lattice(1, 1).basis(np.array([[0.0]]))
        const, coeffs = estimate_coeffs(basis, np.array([4.2]), np.array([3.0]))
        u = 4.2 / 3.0
        # basis(0) = (sqrt(2), 0), so the complex rhat is u at k = -1, 0, 1
        assert const == pytest.approx(u, rel=1e-15)
        assert_allclose(coeffs, [np.sqrt(2.0) * u, 0.0], atol=1e-12)

    def test_zero_response(self):
        rng = np.random.default_rng(13)
        data = Dataset(x=rng.random((25, 2)), y=np.zeros(25))
        assert_array_equal(_series(data, enumerate_lattice(2, 1)), np.zeros(5))

    def test_recovers_known_coefficients(self):
        # noiseless draw from the trigonometric regression distorted by
        # the Laplace product; compare against the analytic product form
        model = paper_model("zero", "uniform")
        rng = np.random.default_rng(5)
        data = generate(model, 4000, rng)
        lat = enumerate_lattice(2, 3)
        rhat = _complex_coeffs(_series(data, lat))
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
        ratios = data.y / estimate_density(lat.basis(data.x))
        direct = weight_matrix(lat, data.x) @ ratios / data.n
        assert_allclose(data.y - f.residuals, direct, atol=1e-9)

    def test_fit_forms_the_basis_once(self, monkeypatch):
        calls = []
        basis = FreqLattice.basis

        def counted(lattice, x):
            calls.append(len(x))
            return basis(lattice, x)

        monkeypatch.setattr(FreqLattice, "basis", counted)
        rng = np.random.default_rng(18)
        for m in (1, 2):
            data = Dataset(x=rng.random((70, m)), y=rng.normal(size=70))
            calls.clear()
            f = fit(data, enumerate_lattice(m, 2))
            assert calls == [70]
            # evaluation elsewhere forms its own basis
            f.predict(rng.random((4, m)))
            assert calls == [70, 4]

    @pytest.mark.parametrize("width", [1, 3])
    def test_predict_rejects_points_of_another_width(self, width):
        rng = np.random.default_rng(21)
        f = fit(Dataset(x=rng.random((40, 2)), y=rng.normal(size=40)), enumerate_lattice(2, 2))
        with pytest.raises(ValueError, match=rf"x has {width} columns, but the lattice has m = 2"):
            f.predict(rng.random((5, width)))

    def test_fit_runs_the_hooked_steps_once(self, monkeypatch):
        # fit looks both steps up through the module, where a tracer wraps them
        calls = []
        for name in ("estimate_density", "estimate_coeffs"):
            step = getattr(estimation, name)
            monkeypatch.setattr(estimation, name,
                                lambda *args, _name=name, _step=step:
                                calls.append(_name) or _step(*args))
        rng = np.random.default_rng(20)
        fit(Dataset(x=rng.random((50, 2)), y=rng.normal(size=50)), enumerate_lattice(2, 2))
        assert calls == ["estimate_density", "estimate_coeffs"]

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
        assert estimate_density(f.lattice.basis(point)).shape == (1,)
        assert ktheta_true(paper_model("zero"), point).shape == (1,)


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
