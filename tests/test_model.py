import itertools

import numpy as np
import pytest

from ccdrobust.design import gen_ccd
from ccdrobust.model import (
    column_labels,
    expand_point,
    expand_points,
    model_matrix,
    model_matrix_to_csv,
    num_params,
)


class TestExpandPoint:
    def test_origin(self):
        assert expand_point((0, 0)).tolist() == [1, 0, 0, 0, 0, 0]

    def test_all_ones_k3(self):
        f = expand_point((1, 1, 1))
        assert f.tolist() == [1.0] * 10

    def test_axial_k2(self):
        assert expand_point((2, 0)).tolist() == [1, 2, 0, 4, 0, 0]

    def test_interaction_ordering(self):
        f = expand_point((2.0, 3.0, 5.0))
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

    def test_strided_view(self):
        base = np.random.default_rng(0).uniform(-2, 2, (40, 8))
        pts = base[::3, 1::2]  # 14 x 4, neither C- nor F-contiguous
        assert not pts.flags.c_contiguous and not pts.flags.f_contiguous
        F = expand_points(pts)
        for x, f in zip(pts, F):
            assert np.array_equal(f, expand_point(x.copy()))


class TestModelMatrix:
    @pytest.mark.parametrize("k,shape", [(2, (12, 6)), (4, (28, 15)), (5, (46, 21))])
    def test_shapes(self, k, shape):
        X = model_matrix(gen_ccd(k, 1.0, 4))
        assert X.shape == shape

    def test_first_column_ones(self):
        X = model_matrix(gen_ccd(3, 1.681, 4))
        assert np.all(X[:, 0] == 1.0)

    def test_rows_match_expansion(self):
        d = gen_ccd(2, 1.414, 2)
        X = model_matrix(d)
        for i, pt in enumerate(d.points):
            assert np.array_equal(X[i], expand_point(pt.coords))


def test_param_count_matches_table_headers():
    assert [num_params(k) for k in (2, 3, 4, 5)] == [6, 10, 15, 21]
    for k in range(2, 8):
        assert num_params(k) == (k + 1) * (k + 2) // 2


def test_permutation_equivariance():
    k = 3
    x = np.array([0.3, -1.2, 2.0])
    for perm in itertools.permutations(range(k)):
        fx = expand_point(x[list(perm)])
        fy = expand_point(x)
        # linear and quadratic blocks permute
        assert np.allclose(fx[1:1 + k], fy[1:1 + k][list(perm)])
        assert np.allclose(fx[1 + k:1 + 2 * k], fy[1 + k:1 + 2 * k][list(perm)])
        # interaction entries are the same multiset
        assert np.allclose(sorted(fx[1 + 2 * k:]), sorted(fy[1 + 2 * k:]))


def test_csv_headers():
    text = model_matrix_to_csv(gen_ccd(2, 1.0, 1))
    assert text.splitlines()[0] == "1,x1,x2,x1^2,x2^2,x1*x2"
    assert column_labels(3) == ["1", "x1", "x2", "x3", "x1^2", "x2^2", "x3^2",
                                "x1*x2", "x1*x3", "x2*x3"]
