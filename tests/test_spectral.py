import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from indirgof import bandwidth, spectral
from indirgof.errors import LatticeCapError
from indirgof.estimation import Dataset
from indirgof.spectral import FreqLattice, enumerate_lattice, max_squared_norm, weight_matrix

from helpers import (
    brute_lattice_count,
    complex_weight_sum,
    full_indices,
    phases,
    smoothing_weight,
)


class TestEnumerateLattice:
    def test_dim1_radius1(self):
        lat = enumerate_lattice(1, 1)
        assert lat.size == 3
        assert_array_equal(lat.indices, [[1]])

    def test_dim2_radius1(self):
        lat = enumerate_lattice(2, 1)
        assert lat.size == 5
        assert_array_equal(lat.indices, [[0, 1], [1, 0]])
        expected = {(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)}
        assert {tuple(k) for k in full_indices(lat)} == expected

    def test_dim2_radius_2p5_against_brute_scan(self):
        lat = enumerate_lattice(2, 2.5)
        assert lat.size == 21
        assert lat.size == brute_lattice_count(2, 2.5, span=3)

    @pytest.mark.parametrize("m,radius", [(1, 4), (2, 3.2), (3, 2)])
    def test_brute_count_matches(self, m, radius):
        lat = enumerate_lattice(m, radius)
        assert lat.size == brute_lattice_count(m, radius, span=int(radius) + 1)

    @pytest.mark.parametrize("m, j_max", [(1, 200), (2, 200), (3, 200), (4, 100)])
    def test_radius_sqrt_j_keeps_shell_j(self, m, j_max):
        # the double nearest sqrt(3) or sqrt(13) lies below it, and its square
        # below 3 or 13; the shell must stay all the same
        whole = enumerate_lattice(m, math.ceil(math.sqrt(j_max)))
        norms = np.sum(whole.indices**2, axis=1)
        for j in range(1, j_max + 1):
            lat = enumerate_lattice(m, math.sqrt(j))
            assert_array_equal(lat.indices, whole.indices[norms <= j], err_msg=f"j={j}")

    def test_max_squared_norm_is_the_last_shell_inside(self):
        for j in range(1, 5000):
            for radius in (math.sqrt(j), np.nextafter(math.sqrt(j), 0.0)):
                bound = max_squared_norm(radius)
                assert math.sqrt(bound) <= radius < math.sqrt(bound + 1)

    def test_cap_exceeded_names_size(self):
        # the count is rounded to four digits: 16,088,121
        with pytest.raises(LatticeCapError, match=r"scan of 1\.609e\+7 candidate"):
            enumerate_lattice(2, 2005)

    @pytest.mark.parametrize("m, size", [(11, 6865), (12, 9993)])
    def test_cap_counts_the_ball_not_the_cube(self, m, size):
        # the cube of 5**m candidates is far over the cap; the ball is not
        assert enumerate_lattice(m, 2).size == size

    def test_cap_refuses_the_partial_ball_that_would_exceed_it(self):
        with pytest.raises(LatticeCapError, match=r"1\.298e\+5 candidate"):
            enumerate_lattice(16, 2)

    def test_memory_follows_the_ball_not_the_cube(self):
        # the (2*2 + 1)^8 = 390,625-candidate cube alone would take 25 MB
        tracemalloc.start()
        try:
            lat = enumerate_lattice(8, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lat.indices) == 856
        assert peak < 5e6

    def test_cap_is_checked_before_the_axis_values_are_formed(self):
        # the 2,000,001 axis values alone once took 16 MB before the refusal
        tracemalloc.start()
        try:
            with pytest.raises(LatticeCapError, match=r"2\.000e\+6 candidate"):
                enumerate_lattice(2, 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_astronomical_radius_hits_the_cap(self):
        # once numpy's "Maximum allowed size exceeded", naming neither cap nor radius
        with pytest.raises(LatticeCapError, match=r"radius=1e\+300\) exceeds the cap") as err:
            enumerate_lattice(2, 1e300)
        # the 301-digit count is rounded, not printed in full
        assert "2.000e+300 candidate" in str(err.value) and len(str(err.value)) < 200

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_lattice(0, 1.0)
        with pytest.raises(ValueError):
            enumerate_lattice(2, 0.0)
        with pytest.raises(ValueError, match="positive and finite, got inf"):
            enumerate_lattice(2, float("inf"))

    @pytest.mark.parametrize("m,radius", [(1, 4), (2, 3.2), (3, 2.5)])
    def test_one_index_of_each_pair(self, m, radius):
        lat = enumerate_lattice(m, radius)
        stored = [tuple(k) for k in lat.indices.tolist()]
        assert all(k > tuple(-c for c in k) for k in stored)
        full = stored + [tuple(-c for c in k) for k in stored] + [(0,) * m]
        assert len(set(full)) == len(full) == lat.size
        assert len(full) == brute_lattice_count(m, radius, span=int(radius) + 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sorted_by_norm_with_prefixes(self, m):
        # by norm, ties in lexicographic order
        big = enumerate_lattice(m, 3.5)
        norms = np.sum(big.indices**2, axis=1)
        keys = [(int(nrm), tuple(k)) for nrm, k in zip(norms, big.indices.tolist())]
        assert keys == sorted(keys)
        for radius in (0.5, 1, np.sqrt(2), 1.9, 2, 2.5, 3, 3.2):
            lat = enumerate_lattice(m, radius)
            assert lat.indices.shape[1] == m
            assert_array_equal(lat.indices, big.indices[:len(lat.indices)])
            assert np.all(norms[len(lat.indices):] > radius * radius)


class TestSmoothingWeight:
    def test_origin_dim1(self):
        lat = enumerate_lattice(1, 1)
        assert smoothing_weight(lat, np.array([0.0])) == pytest.approx(3.0)

    def test_half_period_dim1(self):
        # 1 + 2*cos(pi) = -1
        lat = enumerate_lattice(1, 1)
        assert smoothing_weight(lat, np.array([0.5])) == pytest.approx(-1.0)

    def test_origin_dim2(self):
        lat = enumerate_lattice(2, 1)
        assert smoothing_weight(lat, np.array([0.0, 0.0])) == pytest.approx(5.0)

    def test_origin_equals_total_weight(self):
        # every index inside the cutoff carries weight 1
        for m, r in [(1, 3), (2, 2.5), (3, 1.5)]:
            lat = enumerate_lattice(m, r)
            w0 = smoothing_weight(lat, np.zeros(m))
            assert w0 == pytest.approx(float(lat.size), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_even_function(self, point):
        lat = enumerate_lattice(2, 2)
        x = np.array(point)
        assert smoothing_weight(lat, x) == pytest.approx(
            smoothing_weight(lat, -x), abs=1e-12
        )

    def test_matches_complex_form(self):
        rng = np.random.default_rng(42)
        for m, r in [(1, 2), (2, 2.5)]:
            lat = enumerate_lattice(m, r)
            pts = rng.random((40, m))
            direct = smoothing_weight(lat, pts)
            via_complex = complex_weight_sum(lat, pts)
            assert np.max(np.abs(via_complex.imag)) < 1e-10
            assert_allclose(direct, via_complex.real, atol=1e-12)

    def test_unit_integral_over_cube(self):
        # Only the zero frequency survives integration; the rectangle rule
        # is exact for trigonometric polynomials once it out-resolves them.
        lat = enumerate_lattice(2, 2)
        y = np.array([0.3, 0.71])
        grid = (np.arange(16) + 0.5) / 16
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        vals = smoothing_weight(lat, pts - y)
        assert np.mean(vals) == pytest.approx(1.0, abs=1e-6)


class TestWeightMatrix:
    def test_matches_pointwise_weights(self):
        rng = np.random.default_rng(7)
        lat = enumerate_lattice(2, 2)
        x = rng.random((15, 2))
        mat = weight_matrix(lat, x)
        for i in range(15):
            expected = smoothing_weight(lat, x[i] - x)
            assert_allclose(mat[i], expected, atol=1e-10)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        lat = enumerate_lattice(1, 3)
        x = rng.random((20, 1))
        mat = weight_matrix(lat, x)
        assert_array_equal(mat, mat.T)


def _long_double_basis(lattice, x):
    """The basis from long-double phases, cosines and sines."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    ph = two_pi * (x.astype(np.longdouble) @ lattice.indices.T.astype(np.longdouble))
    out = np.empty((len(x), lattice.size - 1), dtype=np.longdouble)
    out[:, 0::2] = np.sqrt(np.longdouble(2)) * np.cos(ph)
    out[:, 1::2] = np.sqrt(np.longdouble(2)) * np.sin(ph)
    return out


class TestBasis:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_products_give_weight_matrix(self, m):
        rng = np.random.default_rng(20 + m)
        lat = enumerate_lattice(m, 2.5)
        x, x_other = rng.random((9, m)), rng.random((7, m))
        pairs = weight_matrix(lat, np.vstack([x, x_other]))[:9, 9:]
        assert_allclose(1.0 + lat.basis(x) @ lat.basis(x_other).T, pairs, atol=1e-12)

    def test_column_layout(self):
        rng = np.random.default_rng(24)
        lat = enumerate_lattice(2, 2)
        x = rng.random((5, 2))
        z = lat.basis(x)
        assert z.shape == (5, lat.size - 1) and z.dtype == np.float64
        ph = phases(lat, x)
        assert_allclose(z[:, 0::2], np.sqrt(2.0) * np.cos(ph), atol=1e-15)
        assert_allclose(z[:, 1::2], np.sqrt(2.0) * np.sin(ph), atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_transpose_is_c_contiguous(self, m):
        # cross-validation reads the basis as (N - 1, n) rows
        x = np.random.default_rng(30 + m).random((11, m))
        z = enumerate_lattice(m, 2.5).basis(x)
        assert z.T.flags.c_contiguous

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_interleaved_construction(self, m):
        rng = np.random.default_rng(40 + m)
        lat = enumerate_lattice(m, 3.0)
        x = rng.random((57, m))
        ph = phases(lat, x)
        expected = np.empty((len(x), lat.size - 1))
        expected[:, 0::2] = np.sqrt(2.0) * np.cos(ph)
        expected[:, 1::2] = np.sqrt(2.0) * np.sin(ph)
        assert_allclose(lat.basis(x), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "m, radius, bound",
        [(1, 11, 1.5e-14), (2, 11, 1.5e-14), (3, 11, 1.5e-14), (12, 2, 1.5e-14),
         (1, 40, 3e-14)],  # radius 40 at m = 1: the edge of --cv-grid 40
    )
    def test_matches_long_double_phases(self, m, radius, bound):
        lat = enumerate_lattice(m, radius)
        x = np.random.default_rng(60 + m).random((200 if m == 1 else 60, m))
        assert np.max(np.abs(lat.basis(x) - _long_double_basis(lat, x))) <= bound

    def test_empty_lattice_gives_no_columns(self):
        # radius 0.5 holds only k = 0, which the fit's constant carries
        x = np.random.default_rng(70).random((6, 2))
        assert enumerate_lattice(2, 0.5).basis(x).shape == (6, 0)

    def test_single_point_is_one_row(self):
        lat = enumerate_lattice(3, 2.5)
        point = np.random.default_rng(71).random(3)
        z = lat.basis(point)
        assert z.shape == (1, lat.size - 1)
        assert np.max(np.abs(z - _long_double_basis(lat, point[None, :]))) <= 1.5e-14

    @pytest.mark.parametrize("n_points", [700, spectral._BLOCK_VALUES + 3])
    def test_row_blocks_that_do_not_divide_the_lattice(self, n_points):
        # 700 points give row blocks of 5 over 56 indices; past one block's
        # worth of points, the points split into blocks as well
        lat = enumerate_lattice(2, 6)
        x = np.random.default_rng(72).random((n_points, 2))
        assert np.max(np.abs(lat.basis(x) - _long_double_basis(lat, x))) <= 1.5e-14

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_points_of_another_width(self, width):
        x = np.random.default_rng(73).random((4, width))
        with pytest.raises(ValueError, match=rf"x has {width} columns, but the lattice has m = 2"):
            enumerate_lattice(2, 2).basis(x)

    def test_peak_allocation_stays_under_the_direct_construction(self):
        # cos and sin of an (H, P) phase matrix peaked at 2.75 MB here
        lat = enumerate_lattice(2, 6)
        x = np.random.default_rng(74).random((2000, 2))
        tracemalloc.start()
        try:
            z = lat.basis(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.nbytes == 1_792_000
        assert peak <= 2.75e6

    def test_cv_reads_the_basis_without_a_copy(self, monkeypatch):
        rng = np.random.default_rng(50)
        data = Dataset(x=rng.random((40, 2)), y=rng.standard_normal(40))
        bases, read = [], []
        basis, prefix_scores = FreqLattice.basis, bandwidth._prefix_scores

        def kept_basis(lattice, x):
            bases.append(basis(lattice, x))
            return bases[-1]

        def kept_scores(data, zt, prefixes):
            read.append(zt)
            return prefix_scores(data, zt, prefixes)

        monkeypatch.setattr(FreqLattice, "basis", kept_basis)
        monkeypatch.setattr(bandwidth, "_prefix_scores", kept_scores)
        bandwidth.cv_select(data, [1.0, 2.0])
        assert len(bases) == len(read) == 1
        assert np.shares_memory(read[0], bases[0])
