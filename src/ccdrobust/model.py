"""Expansion of design points under the full second-order polynomial model.

The model vector for a point x of dimension k is ordered
[1, x_1..x_k, x_1^2..x_k^2, x_1 x_2, x_1 x_3, ..., x_{k-1} x_k], giving
p = (k+1)(k+2)/2 terms.  Interactions are lexicographic (i < j); all the
criteria computed downstream are invariant to column permutations, but a
fixed order keeps serialized matrices comparable.
"""

from __future__ import annotations

import numpy as np

from .design import Design

__all__ = [
    "num_params",
    "expand_points",
    "model_matrix",
]


def num_params(k: int) -> int:
    """Parameter count p = 1 + 2k + k(k-1)/2 = (k+1)(k+2)/2."""
    return (k + 1) * (k + 2) // 2


def expand_points(pts: np.ndarray) -> np.ndarray:
    """Row-wise model expansion of an m x k array of points.

    The p x m transpose is written in C order, one contiguous row per model
    term: the squares in one np.multiply, and the interactions x_i x_j of
    each i in one more, row i broadcast over rows i+1..k, which needs no
    temporary array.  The m x p result is its transpose, so column-major.
    """
    pts = np.asarray(pts, dtype=float)
    m, k = pts.shape
    P = np.empty((num_params(k), m))
    P[0] = 1.0
    P[1:1 + k] = pts.T
    np.multiply(P[1:1 + k], P[1:1 + k], out=P[1 + k:1 + 2 * k])
    row = 1 + 2 * k
    for i in range(1, k):
        np.multiply(P[i], P[i + 1:1 + k], out=P[row:row + k - i])
        row += k - i
    return P.T


def model_matrix(design: Design) -> np.ndarray:
    """n x p model matrix, rows in design order, column-major:
    expand_points(design.coords), read-only and computed once per design."""
    return design._memo("model_matrix", lambda: expand_points(design.coords))
