import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdrobust import linalg
from ccdrobust.design import gen_ccd
from ccdrobust.linalg import SingularMatrixError
from ccdrobust.model import model_matrix, num_params


def info_matrix(k, alpha, n0=4):
    return linalg.cross_product(model_matrix(gen_ccd(k, alpha, n0)))


class TestCrossProduct:
    def test_intercept_entry_is_n(self):
        assert info_matrix(2, 1.0)[0, 0] == 12

    @pytest.mark.parametrize("alpha,expected", [(1.0, 6.0), (2.0, 12.0)])
    def test_second_moment_entry(self, alpha, expected):
        M = info_matrix(2, alpha)
        assert M[1, 1] == pytest.approx(expected)

    def test_row_partition_additivity(self):
        X = model_matrix(gen_ccd(3, 1.732, 4))
        for split in (1, 5, 9):
            M = linalg.cross_product(X[:split]) + linalg.cross_product(X[split:])
            assert np.max(np.abs(M - linalg.cross_product(X))) < 1e-12


class TestInvert:
    def test_identity(self):
        assert np.allclose(linalg.invert(np.eye(6)), np.eye(6))

    def test_diagonal(self):
        assert np.allclose(linalg.invert(np.diag([2.0, 4.0])),
                           np.diag([0.5, 0.25]))

    def test_k2_trace(self):
        tr = linalg.trace(linalg.invert(info_matrix(2, 1.0)))
        assert tr == pytest.approx(1.5416, abs=2e-4)

    def test_inverse_consistency(self):
        M = info_matrix(4, 2.0)
        Minv = linalg.invert(M)
        assert np.max(np.abs(M @ Minv - np.eye(M.shape[0]))) < 1e-9

    def test_involution(self):
        for k, alpha in [(2, 1.0), (3, 1.681), (5, 2.378)]:
            M = info_matrix(k, alpha)
            assert np.max(np.abs(linalg.invert(linalg.invert(M)) - M)) < 1e-8

    def test_singular_raises(self):
        M = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            linalg.invert(M)

    @given(i=st.integers(0, 5), j=st.integers(0, 5),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=30, deadline=None)
    def test_non_finite_raises_value_error(self, i, j, bad):
        M = info_matrix(2, 1.0)
        M[i, j] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            linalg.invert(M)

    def test_underdetermined_design_raises(self):
        X = model_matrix(gen_ccd(2, 1.0, 4))[:5]  # 5 rows, 6 params
        with pytest.raises(SingularMatrixError):
            linalg.invert(linalg.cross_product(X))


class TestTrace:
    def test_identity(self):
        assert linalg.trace(np.eye(10)) == 10

    def test_k3_alpha1(self):
        tr = linalg.trace(linalg.invert(info_matrix(3, 1.0)))
        assert tr == pytest.approx(1.9369, abs=2e-4)

    def test_k5_alpha3(self):
        tr = linalg.trace(linalg.invert(info_matrix(5, 3.0)))
        assert tr == pytest.approx(0.5963, abs=2e-4)


class TestHatTrace:
    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (2, 2.0), (4, 2.25)])
    def test_equals_p(self, k, alpha):
        X = model_matrix(gen_ccd(k, alpha, 4))
        assert linalg.hat_trace(X) == pytest.approx(num_params(k), abs=1e-9)

    def test_residual_design(self):
        X = model_matrix(gen_ccd(3, 1.681, 4))
        X_res = np.delete(X, 0, axis=0)
        assert linalg.hat_trace(X_res) == pytest.approx(10, abs=1e-9)
