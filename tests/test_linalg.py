import math

import numpy as np
import pytest

from ccdrobust import linalg
from ccdrobust.criteria import a_trace
from ccdrobust.design import gen_ccd
from ccdrobust.linalg import SingularMatrixError
from ccdrobust.model import model_matrix


def info_matrix(k, alpha, n0=4):
    X = model_matrix(gen_ccd(k, alpha, n0))
    return X.T @ X


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
            M = X[:split].T @ X[:split] + X[split:].T @ X[split:]
            assert np.max(np.abs(M - X.T @ X)) < 1e-12


class TestInvert:
    def test_identity(self):
        assert np.allclose(linalg.invert(np.eye(6)), np.eye(6))

    def test_diagonal(self):
        assert np.allclose(linalg.invert(np.diag([2.0, 4.0])),
                           np.diag([0.5, 0.25]))

    def test_k2_trace(self):
        tr = np.trace(linalg.invert(info_matrix(2, 1.0)))
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("j", range(6))
    @pytest.mark.parametrize("i", range(6))
    def test_non_finite_raises_value_error(self, i, j, bad):
        M = info_matrix(2, 1.0)
        M[i, j] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            linalg.invert(M)

    def test_underdetermined_design_raises(self):
        X = model_matrix(gen_ccd(2, 1.0, 4))[:5]  # 5 rows, 6 params
        with pytest.raises(SingularMatrixError):
            linalg.invert(X.T @ X)


def _residual_stacks():
    """(k, alpha, n0, stack of the full CCD's X'X and its three residuals')."""
    for k in (2, 3, 4, 5):
        for alpha in (0.7, 1.0, 1.5, math.sqrt(k), 2.2):
            for n0 in (2, 4):
                X = model_matrix(gen_ccd(k, alpha, n0))
                Xs = [X] + [np.asfortranarray(np.delete(X, r, axis=0))
                            for r in (0, 2 ** k, 2 ** k + 2 * k)]
                yield k, alpha, n0, np.stack([Xd.T @ Xd for Xd in Xs])


class TestInvertStack:
    def test_each_inverse_is_the_one_alone(self):
        for k, alpha, n0, stack in _residual_stacks():
            inverses = linalg.invert(stack)
            assert inverses.shape == stack.shape
            for M, Minv in zip(stack, inverses):
                alone = linalg.invert(M)
                assert alone.tobytes() == Minv.tobytes(), (k, alpha, n0)
                assert np.array_equal(Minv, Minv.T)

    def test_stack_of_one(self):
        M = info_matrix(3, 1.681)
        assert linalg.invert(M[None]).tobytes() == linalg.invert(M).tobytes()

    def test_scale_checked_per_matrix(self):
        # 2^-70 I is well conditioned on its own scale; judged against the
        # other matrix's scale its pivots would fall below SINGULARITY_RTOL
        inverses = linalg.invert(np.stack([2.0 ** -70 * np.eye(3), np.eye(3)]))
        assert np.array_equal(inverses[0], 2.0 ** 70 * np.eye(3))
        assert np.array_equal(inverses[1], np.eye(3))

    @pytest.mark.parametrize("bad", [0, 1, 3])
    def test_one_singular_matrix_fails_the_stack(self, bad):
        stack = next(_residual_stacks())[3].copy()
        stack[bad] = np.ones_like(stack[bad])
        with pytest.raises(SingularMatrixError):
            linalg.invert(stack)

    def test_zero_matrix_in_stack(self):
        stack = np.stack([np.eye(3), np.zeros((3, 3))])
        with pytest.raises(SingularMatrixError, match="zero matrix"):
            linalg.invert(stack)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stack_raises_value_error(self, bad):
        stack = next(_residual_stacks())[3].copy()
        stack[2, 1, 4] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            linalg.invert(stack)


class TestATrace:
    def test_k3_alpha1(self):
        assert a_trace(gen_ccd(3, 1.0, 4)) == pytest.approx(1.9369, abs=2e-4)

    def test_k5_alpha3(self):
        assert a_trace(gen_ccd(5, 3.0, 4)) == pytest.approx(0.5963, abs=2e-4)

