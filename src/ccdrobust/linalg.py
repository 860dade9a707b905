"""Dense symmetric-matrix kernel for the design criteria.

`invert` is the one factorization in the package.  It takes a p x p
information matrix X'X, as criteria.information_inverse passes it, or a
stack of them, as missing.scenario_sweep passes the four designs of an
alpha (the full CCD and its three single-deletion residuals); both go
through the same calls.  Inversion goes through a
Cholesky factorization so that a residual design that can no longer
estimate all p parameters fails loudly (SingularMatrixError) instead of
returning garbage, and a stack holding NaN or inf is rejected
(ValueError) before it is factorized.  numpy factorizes a stack one
matrix at a time, so each inverse is bit-identical to that of its matrix
inverted alone.

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
    """Inverses of a (d, p, p) stack of symmetric positive-definite
    matrices via Cholesky: M = LL' gives M^{-1} = L^{-T} L^{-1}.  One
    cholesky, one inv and one product serve the whole stack, and the
    checks below are made per matrix.  A lone p x p matrix is inverted
    the same way.

    numpy forms both X'X and L^{-T} L^{-1} as symmetric rank-k updates, so
    M = X'X and its inverse come out exactly symmetric.

    Raises ValueError when the stack holds NaN or inf, and
    SingularMatrixError when any matrix has a pivot below SINGULARITY_RTOL
    of its own working scale (its largest diagonal entry); the error does
    not say which, so a caller that must know inverts each alone.
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix contains NaN or inf")
    scale = np.abs(M.diagonal(0, -2, -1)).max(-1, initial=0.0)
    if (scale == 0.0).any():
        raise SingularMatrixError("zero matrix")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    # Pivots of the factorization are diag(L)^2.
    pivots = L.diagonal(0, -2, -1).min(-1, initial=np.inf) ** 2
    if (pivots < SINGULARITY_RTOL * scale).any():
        raise SingularMatrixError(
            f"pivot below {SINGULARITY_RTOL:g} of working scale")
    Linv = np.linalg.inv(L)
    return Linv.swapaxes(-1, -2) @ Linv
