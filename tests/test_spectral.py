import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from indirgof.errors import LatticeCapError
from indirgof.spectral import enumerate_lattice, weight_matrix

from helpers import brute_lattice_count, complex_weight_sum, full_indices, smoothing_weight


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

    def test_cap_exceeded_names_size(self):
        with pytest.raises(LatticeCapError, match="16088121"):
            enumerate_lattice(2, 2005)

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
        ph = lat.phases(x)
        assert_allclose(z[:, 0::2], np.sqrt(2.0) * np.cos(ph), atol=1e-15)
        assert_allclose(z[:, 1::2], np.sqrt(2.0) * np.sin(ph), atol=1e-15)
