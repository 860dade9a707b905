"""Dense symmetric-matrix kernel for the design criteria.

`invert` is the one factorization in the package: criteria.information_inverse
forms a design's p x p information matrix X'X and inverts it here, once
per design.  Inversion goes through a Cholesky factorization so that a
residual design that can no longer estimate all p parameters fails
loudly (SingularMatrixError) instead of returning garbage, and a matrix
holding NaN or inf is rejected (ValueError) before it is factorized.

All arithmetic is 64-bit; the error variance is taken as 1 throughout,
so variances are reported per unit sigma^2.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SingularMatrixError", "invert"]

# Relative pivot threshold below which the matrix is declared singular.
SINGULARITY_RTOL = 1e-12


class SingularMatrixError(Exception):
    """The information matrix is (numerically) singular: the design cannot
    estimate all p model parameters."""


def invert(M: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky:
    M = LL' gives M^{-1} = L^{-T} L^{-1}.

    numpy forms both X'X and L^{-T} L^{-1} as symmetric rank-k updates, so
    M = X'X and its inverse come out exactly symmetric.

    Raises ValueError when M holds NaN or inf, and SingularMatrixError
    when a pivot falls below SINGULARITY_RTOL of the working scale (the
    largest diagonal entry).
    """
    M = np.asarray(M, dtype=float)
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
    return Linv.T @ Linv
