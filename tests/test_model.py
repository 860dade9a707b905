import itertools

import numpy as np
import pytest

from ccdrobust.design import gen_ccd
from ccdrobust.model import expand_points, model_matrix, num_params


class TestExpandPoint:
    """One point, as a 1 x k array."""

    def test_origin(self):
        assert expand_points([[0, 0]]).tolist() == [[1, 0, 0, 0, 0, 0]]

    def test_all_ones_k3(self):
        f, = expand_points([[1, 1, 1]])
        assert f.tolist() == [1.0] * 10

    def test_axial_k2(self):
        assert expand_points([[2, 0]]).tolist() == [[1, 2, 0, 4, 0, 0]]

    def test_interaction_ordering(self):
        f, = expand_points([[2.0, 3.0, 5.0]])
        # interactions lexicographic: x1x2, x1x3, x2x3
        assert f[-3:].tolist() == [6.0, 10.0, 15.0]


class TestExpandPoints:
    @staticmethod
    def reference(x):
        """f(x) term by term: intercept, linear, pure quadratic, interactions."""
        k = len(x)
        return ([1.0] + list(x) + [x[i] ** 2 for i in range(k)]
                + [x[i] * x[j] for i in range(k) for j in range(i + 1, k)])

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rows_match_reference(self, k):
        pts = np.random.default_rng(k).uniform(-2, 2, (50, k))
        F = expand_points(pts)
        assert F.shape == (50, num_params(k))
        for x, f in zip(pts, F):
            assert f.tolist() == self.reference(x.tolist())

    @pytest.mark.parametrize("k", [2, 5])
    def test_empty_input(self, k):
        assert expand_points(np.empty((0, k))).shape == (0, num_params(k))

    @staticmethod
    def per_column(pts):
        """expand_points as it was first written: an m x p column-major
        matrix filled one model column at a time."""
        pts = np.asarray(pts, dtype=float)
        m, k = pts.shape
        F = np.empty((m, num_params(k)), order="F")
        F[:, 0] = 1.0
        F[:, 1:1 + k] = pts
        np.multiply(pts, pts, out=F[:, 1 + k:1 + 2 * k])
        for col, (i, j) in enumerate(itertools.combinations(range(k), 2), start=1 + 2 * k):
            np.multiply(pts[:, i], pts[:, j], out=F[:, col])
        return F

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("m", [0, 1, 3, 2048, 5000])
    def test_matches_per_column_reference(self, k, m):
        rng = np.random.default_rng(100 * k + m)
        base = rng.uniform(-2, 2, (2 * m, 2 * k))
        base[rng.random(base.shape) < 0.05] = -0.0
        layouts = {"C": np.ascontiguousarray(base[:m, :k]),
                   "F": np.asfortranarray(base[:m, :k]),
                   "strided": base[::2, ::2]}
        for name, pts in layouts.items():
            got, want = expand_points(pts), self.per_column(pts)
            assert got.dtype == want.dtype == np.float64, name
            assert got.shape == want.shape and got.strides == want.strides, name
            assert got.flags.f_contiguous, name
            assert got.tobytes(order="A") == want.tobytes(order="A"), name

    def test_strided_view(self):
        base = np.random.default_rng(0).uniform(-2, 2, (40, 8))
        pts = base[::3, 1::2]  # 14 x 4, neither C- nor F-contiguous
        assert not pts.flags.c_contiguous and not pts.flags.f_contiguous
        F = expand_points(pts)
        for x, f in zip(pts, F):
            assert np.array_equal(f, expand_points(x[None].copy())[0])


class TestModelMatrix:
    @pytest.mark.parametrize("k,shape", [(2, (12, 6)), (4, (28, 15)), (5, (46, 21))])
    def test_shapes(self, k, shape):
        X = model_matrix(gen_ccd(k, 1.0, 4))
        assert X.shape == shape

    def test_first_column_ones(self):
        X = model_matrix(gen_ccd(3, 1.681, 4))
        assert np.all(X[:, 0] == 1.0)

    def test_computed_once_and_read_only(self):
        d = gen_ccd(3, 1.681, 4)
        X = model_matrix(d)
        assert model_matrix(d) is X
        assert not X.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0] = 2.0

    def test_rows_match_expansion(self):
        d = gen_ccd(2, 1.414, 2)
        X = model_matrix(d)
        for i, x in enumerate(d.coords):
            assert np.array_equal(X[i], expand_points(x[None])[0])


def test_param_count_matches_table_headers():
    assert [num_params(k) for k in (2, 3, 4, 5)] == [6, 10, 15, 21]
    for k in range(2, 8):
        assert num_params(k) == (k + 1) * (k + 2) // 2


def test_permutation_equivariance():
    k = 3
    x = np.array([0.3, -1.2, 2.0])
    for perm in itertools.permutations(range(k)):
        fx, fy = expand_points([x[list(perm)], x])
        # linear and quadratic blocks permute
        assert np.allclose(fx[1:1 + k], fy[1:1 + k][list(perm)])
        assert np.allclose(fx[1 + k:1 + 2 * k], fy[1 + k:1 + 2 * k][list(perm)])
        # interaction entries are the same multiset
        assert np.allclose(sorted(fx[1 + 2 * k:]), sorted(fy[1 + 2 * k:]))

