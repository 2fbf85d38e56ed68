import math
import tracemalloc

import numpy as np
import pytest

from indirgof import bandwidth
from indirgof.bandwidth import cv_select, default_radius_grid, loo_score, select_and_fit
from indirgof.errors import InsufficientDataError, LatticeCapError
from indirgof.estimation import DENSITY_FLOOR, Dataset, fit
from indirgof.simulation import generate, paper_model
from indirgof.spectral import FreqLattice, enumerate_lattice, weight_matrix

from helpers import dense_loo_score, refit_loo_prediction


def _uniform_data(rng, n, m=1, noise=0.3):
    x = rng.random((n, m))
    y = np.cos(2.0 * np.pi * x[:, 0]) + noise * rng.standard_normal(n)
    return Dataset(x=x, y=y)


def test_single_candidate_is_chosen():
    rng = np.random.default_rng(21)
    report = cv_select(_uniform_data(rng, 30), [2.0])
    assert report.chosen == 2.0
    assert len(report.candidates) == 1


def test_tie_breaks_to_smaller_radius():
    # radii 1 and 1.4 produce the identical one-dimensional lattice
    # {-1, 0, 1}, hence identical scores; the smaller radius must win
    rng = np.random.default_rng(22)
    report = cv_select(_uniform_data(rng, 40), [1.4, 1.0])
    scores = dict(report.candidates)
    assert scores[1.0] == scores[1.4]
    assert report.chosen == 1.0


def test_needs_three_observations():
    data = Dataset(x=[[0.1], [0.9]], y=[0.0, 1.0])
    with pytest.raises(InsufficientDataError):
        cv_select(data, [1.0])


def test_empty_grid_rejected():
    rng = np.random.default_rng(23)
    with pytest.raises(ValueError, match="empty"):
        cv_select(_uniform_data(rng, 20), [])


def test_default_grid_belongs_to_cv_select():
    data = generate(paper_model("normal", "uniform"), 120, np.random.default_rng(32))
    assert cv_select(data) == cv_select(data, default_radius_grid(data.n, data.m))


def test_scores_scale_exactly_with_a_power_of_two():
    # scores are quadratic in y and computed on y / 2**e, so y * 2**k gives
    # the scores times 4**k to the bit, and a score past double range is inf
    # with the choice intact and None in the JSON form
    rng = np.random.default_rng(33)
    data = _uniform_data(rng, 60, m=2)
    base = cv_select(data, [1.0, 2.0, 3.0])
    for k in (-500, -40, 7, 40):
        scaled = cv_select(Dataset(x=data.x, y=np.ldexp(data.y, k)), [1.0, 2.0, 3.0])
        assert scaled.chosen == base.chosen
        assert scaled.candidates == tuple((r, s * 4.0**k) for r, s in base.candidates)
    huge = cv_select(Dataset(x=data.x, y=np.ldexp(data.y, 600)), [1.0, 2.0, 3.0])
    assert huge.chosen == base.chosen
    assert all(s == np.inf for _, s in huge.candidates)
    assert all(s is None for _, s in huge.as_dict()["candidates"])
    lat = enumerate_lattice(2, 2.0)
    assert loo_score(Dataset(x=data.x, y=np.ldexp(data.y, 600)), lat) == np.inf


def test_scores_nonnegative():
    rng = np.random.default_rng(24)
    report = cv_select(_uniform_data(rng, 50), [1.0, 2.0, 3.0])
    assert all(score >= 0.0 for _, score in report.candidates)


def test_permutation_invariance():
    rng = np.random.default_rng(25)
    data = _uniform_data(rng, 40)
    perm = rng.permutation(40)
    shuffled = Dataset(x=data.x[perm], y=data.y[perm])
    for radius in (1.0, 2.0):
        lat = enumerate_lattice(1, radius)
        assert loo_score(data, lat) == pytest.approx(
            loo_score(shuffled, lat), rel=1e-10
        )


def test_incremental_matches_refit():
    """The O(n^2) held-out formula reproduces literal refits to 1e-10."""
    rng = np.random.default_rng(26)
    for m in (1, 2):
        n = 50 if m == 1 else 40
        data = _uniform_data(rng, n, m=m)
        lat = enumerate_lattice(m, 2)
        wmat_score = loo_score(data, lat)
        preds = np.array(
            [refit_loo_prediction(data, lat, j) for j in range(n)]
        )
        brute = float(np.mean((data.y - preds) ** 2))
        assert wmat_score == pytest.approx(brute, abs=1e-10)


def test_selects_true_cutoff_on_noiseless_polynomial():
    """Noiseless trig polynomial of exact band 2: radius 1 underfits."""
    rng = np.random.default_rng(27)
    n = 500
    x = rng.random((n, 1))
    y = 1.0 + 0.8 * np.cos(2 * np.pi * x[:, 0]) - 0.5 * np.cos(4 * np.pi * x[:, 0])
    data = Dataset(x=x, y=y)
    report = cv_select(data, [1.0, 2.0, 5.0])
    scores = dict(report.candidates)
    assert report.chosen in (2.0, 5.0)
    assert scores[2.0] < scores[1.0]
    # brute-force confirmation for the winning radius on a subsample
    sub = Dataset(x=data.x[:60], y=data.y[:60])
    lat = enumerate_lattice(1, report.chosen)
    preds = np.array([refit_loo_prediction(sub, lat, j) for j in range(60)])
    assert loo_score(sub, lat) == pytest.approx(
        float(np.mean((sub.y - preds) ** 2)), abs=1e-10
    )


def test_default_grid_shape():
    assert default_radius_grid(100, 2) == [1, 2, 3]
    assert default_radius_grid(500, 2) == [1, 2, 3, 4]
    assert default_radius_grid(10, 4) == [1, 2]


def test_default_grid_top_radius_is_the_exact_integer_root():
    # the float root falls one short at some exact powers: 64 ** (1/3) is
    # 3.9999999999999996, which once dropped radius 4 from the m = 1 grid
    for m in range(1, 13):
        for r in range(2, 41):
            n = r ** (m + 2)
            if n > 10**12:
                break
            assert default_radius_grid(n, m)[-1] == r, (n, m)
            if r - 1 >= 2:
                assert default_radius_grid(n - 1, m)[-1] == r - 1, (n - 1, m)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 40, 257])
def test_blocked_pass_matches_dense_oracle(m, n):
    # a non-monotone grid with a duplicate lattice (1 and 1.4 in 1-D);
    # 257 rows leave a partial last block
    rng = np.random.default_rng(100 * m + n)
    data = _uniform_data(rng, n, m=m)
    report = cv_select(data, [3, 1, 1.4, 2])
    for radius, score in report.candidates:
        ref = dense_loo_score(data, enumerate_lattice(m, radius))
        assert score == pytest.approx(ref, rel=1e-12, abs=0.0)


def _clustered_data(rng, n, m):
    # half the covariates in a tight cluster: the Dirichlet kernel's side
    # lobes push the leave-one-out density below the floor (even below
    # zero) at the sparse points, so the clamp decides some terms
    x = rng.random((n, m))
    x[: n // 2] = np.clip(0.3 + 0.03 * rng.standard_normal((n // 2, m)), 0.0, 1.0)
    y = np.cos(2.0 * np.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
    return Dataset(x=x, y=y)


@pytest.mark.parametrize("m", [1, 2])
def test_blocked_pass_matches_dense_oracle_under_active_floor(m):
    rng = np.random.default_rng(31 + m)
    n = 120
    data = _clustered_data(rng, n, m)
    x = data.x
    report = cv_select(data, [1, 2, 3])
    clamped = []
    for radius, score in report.candidates:
        lat = enumerate_lattice(m, radius)
        wmat = weight_matrix(lat, x)
        g_minus = (wmat.sum(axis=1)[:, None] - wmat) / (n - 1)
        clamped.append(bool(np.any(g_minus < DENSITY_FLOOR)))
        assert score == pytest.approx(dense_loo_score(data, lat), rel=1e-12, abs=0.0)
        assert loo_score(data, lat) == pytest.approx(score, rel=1e-12, abs=0.0)
    assert all(clamped)


@pytest.mark.parametrize(
    "design", [_uniform_data, _clustered_data], ids=["uniform", "clustered"]
)
def test_blocked_pass_matches_dense_oracle_at_large_n(design):
    # shell products this wide run on several BLAS threads; in the clustered
    # design the bound |W_ij| <= N skips the clamp in the dense half's row
    # blocks while the sparse half's need it.  Blocks hold 109, 46 and 32
    # rows, and each n leaves a short last block.
    m = 2
    for n in (300, 700, 1000):
        assert n % max(32, bandwidth._BLOCK_VALUES // n) != 0
        data = design(np.random.default_rng(34), n, m)
        report = cv_select(data, [1, 2, 3, 4, 5])
        for radius, score in report.candidates:
            assert score == pytest.approx(
                dense_loo_score(data, enumerate_lattice(m, radius)), rel=1e-12, abs=0.0
            ), (n, radius)


@pytest.mark.parametrize("m, j_max", [(1, 200), (2, 200), (3, 200), (4, 100)])
def test_cv_scores_the_lattice_the_fit_uses(m, j_max, monkeypatch):
    # at radius sqrt(j) CV must score the row prefix that enumerate_lattice
    # keeps, shell j included, which is the lattice the fit at that radius uses
    scored = {}
    real = bandwidth._prefix_scores

    def spy(data, zt, prefixes):
        result = real(data, zt, prefixes)
        scored.update(zip(prefixes, result[1]))
        return result

    monkeypatch.setattr(bandwidth, "_prefix_scores", spy)
    data = _uniform_data(np.random.default_rng(11), 16, m)
    radii = [math.sqrt(j) for j in range(1, j_max + 1)]
    for radius, score in cv_select(data, radii).candidates:
        assert score == scored[2 * len(enumerate_lattice(m, radius).indices)], radius


def test_candidates_keep_caller_order():
    rng = np.random.default_rng(28)
    report = cv_select(_uniform_data(rng, 60, m=2), [3.0, 1.0, 2.5, 2.0])
    assert [r for r, _ in report.candidates] == [3.0, 1.0, 2.5, 2.0]


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_radius_rejected(bad):
    rng = np.random.default_rng(29)
    with pytest.raises(ValueError, match="positive"):
        cv_select(_uniform_data(rng, 20), [1.0, bad, 2.0])


def _nontrivial_data():
    return generate(paper_model("normal", "nontrivial"), 300, np.random.default_rng(0))


def _assert_same_fit(fitted, expected):
    assert fitted.lattice.radius == expected.lattice.radius
    assert fitted.coeffs.tobytes() == expected.coeffs.tobytes()
    assert fitted.residuals.tobytes() == expected.residuals.tobytes()
    assert fitted.sigma_hat.hex() == expected.sigma_hat.hex()


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_select_and_fit_at_a_fixed_radius_skips_cv(radius):
    data = _nontrivial_data()
    # a fixed radius leaves the candidate grid unread
    report, fitted = select_and_fit(data, [7.0], radius=radius)
    assert report is None
    _assert_same_fit(fitted, fit(data, enumerate_lattice(data.m, radius)))


@pytest.mark.parametrize("radii", [None, [3.0, 1.0, 2.0]])
def test_select_and_fit_fits_at_the_cv_radius(radii):
    data = _nontrivial_data()
    report, fitted = select_and_fit(data, radii)
    assert report == cv_select(data, radii)
    _assert_same_fit(fitted, fit(data, enumerate_lattice(data.m, report.chosen)))


@pytest.mark.parametrize("radius", [None, 2.5])
def test_select_and_fit_forms_one_lattice_and_one_basis(radius, monkeypatch):
    # the fit at the cross-validated radius reads the CV pass's lattice and
    # basis instead of forming them a second time
    counts = {"enumerate_lattice": 0, "basis": 0}
    real_enumerate, real_basis = bandwidth.enumerate_lattice, FreqLattice.basis

    def enumerate_spy(*args):
        counts["enumerate_lattice"] += 1
        return real_enumerate(*args)

    def basis_spy(self, x):
        counts["basis"] += 1
        return real_basis(self, x)

    monkeypatch.setattr(bandwidth, "enumerate_lattice", enumerate_spy)
    monkeypatch.setattr(FreqLattice, "basis", basis_spy)
    select_and_fit(_nontrivial_data(), radius=radius)
    assert counts == {"enumerate_lattice": 1, "basis": 1}


def test_select_and_fit_rejects_an_empty_grid():
    rng = np.random.default_rng(23)
    with pytest.raises(ValueError, match="empty"):
        select_and_fit(_uniform_data(rng, 20), [])


def test_radius_over_lattice_cap_rejected():
    rng = np.random.default_rng(30)
    with pytest.raises(LatticeCapError):
        cv_select(_uniform_data(rng, 20, m=2), [1.0, 2005.0])


def test_peak_allocation_stays_linear_in_n():
    # one n x n float matrix at n = 2000 alone is 32 MB
    data = generate(paper_model("normal", "uniform"), 2000, np.random.default_rng(0))
    tracemalloc.start()
    try:
        cv_select(data, default_radius_grid(data.n, data.m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("rows, n", [(1, 3), (32, 2000), (65, 500), (109, 300)])
def test_block_buffers_start_on_a_cache_line(rows, n):
    buf = bandwidth._cache_aligned(rows, n)
    assert buf.shape == (rows, n) and buf.flags.c_contiguous
    assert buf.ctypes.data % 64 == 0


def test_blocked_pass_writes_products_into_its_buffer(monkeypatch):
    # each block's shell product once took a fresh (32, n) array, 512 KB at
    # n = 2000; written into the block's buffer, the pass peaks at about 1.52
    # MB there against 1.75 MB before.  At n = 500 the blocks of 65 rows
    # need 520 KB of buffers, and the pass stays below n = 2000's bound.
    peaks = []
    real = bandwidth._prefix_scores

    def traced(data, zt, prefixes):
        tracemalloc.start()
        try:
            return real(data, zt, prefixes)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(bandwidth, "_prefix_scores", traced)
    for n in (500, 2000):
        data = generate(paper_model("normal", "uniform"), n, np.random.default_rng(0))
        cv_select(data, default_radius_grid(data.n, data.m))
    assert peaks[0] < 1.64e6 and peaks[1] < 1.64e6
