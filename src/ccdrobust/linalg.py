"""Dense symmetric-matrix kernel for the design criteria.

Everything downstream reduces to a handful of operations on the p x p
information matrix X'X: form it, invert it, take traces.  Inversion
goes through a Cholesky factorization so that a residual design that can
no longer estimate all p parameters fails loudly (SingularMatrixError)
instead of returning garbage, and a matrix holding NaN or inf is
rejected (ValueError) before it is factorized.

All arithmetic is 64-bit; the error variance is taken as 1 throughout,
so variances are reported per unit sigma^2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrixError",
    "symmetrize",
    "cross_product",
    "invert",
    "trace",
    "hat_trace",
]

# Relative pivot threshold below which the matrix is declared singular.
SINGULARITY_RTOL = 1e-12


class SingularMatrixError(Exception):
    """The information matrix is (numerically) singular: the design cannot
    estimate all p model parameters."""


def symmetrize(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return (M + M.T) / 2.0


def cross_product(X: np.ndarray) -> np.ndarray:
    """X'X, symmetrized."""
    X = np.asarray(X, dtype=float)
    return symmetrize(X.T @ X)


def invert(M: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky:
    M = LL' gives M^{-1} = L^{-T} L^{-1}.

    Raises ValueError when M holds NaN or inf, and SingularMatrixError
    when a pivot falls below SINGULARITY_RTOL of the working scale (the
    largest diagonal entry).
    """
    M = symmetrize(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains NaN or inf")
    scale = float(np.max(np.abs(np.diag(M)))) if M.size else 0.0
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    # Pivots of the factorization are diag(L)^2.
    if float(np.min(np.diag(L)) ** 2) < SINGULARITY_RTOL * scale:
        raise SingularMatrixError(
            f"pivot below {SINGULARITY_RTOL:g} of working scale")
    Linv = np.linalg.inv(L)
    return symmetrize(Linv.T @ Linv)


def trace(M: np.ndarray) -> float:
    return float(np.trace(M))


def hat_trace(X: np.ndarray) -> float:
    """trace of the hat matrix X (X'X)^{-1} X'; equals p for any design
    whose information matrix is invertible."""
    Minv = invert(cross_product(X))
    return float(np.einsum("ij,jk,ik->", X, Minv, X))
