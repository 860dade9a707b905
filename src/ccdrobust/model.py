"""Expansion of design points under the full second-order polynomial model.

The model vector for a point x of dimension k is ordered
[1, x_1..x_k, x_1^2..x_k^2, x_1 x_2, x_1 x_3, ..., x_{k-1} x_k], giving
p = (k+1)(k+2)/2 terms.  Interactions are lexicographic (i < j); all the
criteria computed downstream are invariant to column permutations, but a
fixed order keeps serialized matrices comparable.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence

import numpy as np

from .design import Design

__all__ = [
    "num_params",
    "interaction_pairs",
    "column_labels",
    "expand_point",
    "expand_points",
    "model_matrix",
    "model_matrix_to_csv",
]


def num_params(k: int) -> int:
    """Parameter count p = 1 + 2k + k(k-1)/2 = (k+1)(k+2)/2."""
    return (k + 1) * (k + 2) // 2


def interaction_pairs(k: int) -> list[tuple[int, int]]:
    """Zero-based factor index pairs (i, j), i < j, lexicographic."""
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def column_labels(k: int) -> list[str]:
    labels = ["1"]
    labels += [f"x{i + 1}" for i in range(k)]
    labels += [f"x{i + 1}^2" for i in range(k)]
    labels += [f"x{i + 1}*x{j + 1}" for i, j in interaction_pairs(k)]
    return labels


def expand_point(x: Sequence[float]) -> np.ndarray:
    """Model vector f(x) of length (k+1)(k+2)/2 for a single point."""
    return expand_points(np.asarray(x, dtype=float).reshape(1, -1))[0]


def expand_points(pts: np.ndarray) -> np.ndarray:
    """Row-wise model expansion of an m x k array of points.

    The m x p result is preallocated column-major, so that each model
    column is written in place and contiguously.
    """
    pts = np.asarray(pts, dtype=float)
    m, k = pts.shape
    F = np.empty((m, num_params(k)), order="F")
    F[:, 0] = 1.0
    F[:, 1:1 + k] = pts
    np.multiply(pts, pts, out=F[:, 1 + k:1 + 2 * k])
    for col, (i, j) in enumerate(interaction_pairs(k), start=1 + 2 * k):
        np.multiply(pts[:, i], pts[:, j], out=F[:, col])
    return F


def model_matrix(design: Design) -> np.ndarray:
    """n x p model matrix; row order matches the design point order."""
    return expand_points(design.coords())


def model_matrix_to_csv(design: Design) -> str:
    X = model_matrix(design)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(column_labels(design.k))
    for row in X:
        writer.writerow([repr(v) for v in row])
    return buf.getvalue()
