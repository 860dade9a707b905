"""Construction of standard central composite designs in coded units.

A CCD for k factors consists of a full 2^k factorial portion at levels
-1/+1, 2k axial points at distance alpha from the center, and n0 center
replicates, for n = 2^k + 2k + n0 runs in total.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "PointClass",
    "Design",
    "gen_ccd",
    "canonical_probe_points",
    "design_to_csv",
]

# The largest factor count: criteria_report's rotatability index draws one
# Halton base per factor from criteria._PRIMES, which has 12.
_MAX_K = 12


class PointClass(Enum):
    """Classification of a CCD run: factorial vertex, axial (star) point,
    or center replicate."""

    FACTORIAL = "factorial"
    AXIAL = "axial"
    CENTER = "center"


@dataclass(frozen=True, eq=False)
class Design:
    """An immutable design with axial distance alpha: an n x k array of
    coded coordinates and the PointClass of each row, both read-only and
    copied from what is passed in.  Equality is identity.

    The canonical ordering is: factorial points (lexicographic over levels,
    -1 before +1), then axial pairs per axis (-alpha before +alpha, axis 1
    to k), then the center replicates.  Residual designs produced by
    deleting rows keep the surviving rows in this order.
    """

    alpha: float
    coords: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        classes = np.array(self.classes, dtype=object)
        if coords.ndim != 2 or classes.shape != coords.shape[:1]:
            raise ValueError(f"coords must be n x k and classes of length n, got "
                             f"shapes {coords.shape} and {classes.shape}")
        coords.flags.writeable = classes.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "_memoized", {})  # see _memo

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]

    def rows_of_class(self, point_class: PointClass) -> np.ndarray:
        return np.flatnonzero(self.classes == point_class)

    def _memo(self, key, make):
        """make(), computed once per design and kept under key, read-only if
        an array; nothing is kept if make raises (make never returns None)."""
        value = self._memoized.get(key)
        if value is None:
            value = make()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._memoized[key] = value
        return value


def _check_ccd_args(k: int, alpha: float, n0: int) -> None:
    """The ValueError gen_ccd raises for its arguments, if any."""
    if not 2 <= k <= _MAX_K:
        raise ValueError(f"k must be in [2, {_MAX_K}], got {k}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")


def gen_ccd(k: int, alpha: float, n0: int) -> Design:
    """Build a full central composite design.

    Raises ValueError for k < 2 (the interaction term degenerates) or
    k > 12, alpha that is not finite and > 0, or n0 < 1.
    """
    _check_ccd_args(k, alpha, n0)
    nf = 2 ** k
    coords = np.zeros((nf + 2 * k + n0, k))
    # factorial row i has level +1 on axis j where bit k-1-j of i is set
    bits = (np.arange(nf)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    coords[:nf] = 2.0 * bits - 1.0
    axes = np.arange(k)
    coords[nf + 2 * axes, axes] = -float(alpha)
    coords[nf + 2 * axes + 1, axes] = float(alpha)
    classes = np.repeat(np.array(list(PointClass), dtype=object), [nf, 2 * k, n0])
    return Design(float(alpha), coords, classes)


def canonical_probe_points(design: Design) -> np.ndarray:
    """One representative location per point class, as the rows of a 3 x k
    array: the all-(+1) factorial vertex, the (+alpha, 0, ..., 0) axial
    point, and the origin."""
    probes = np.zeros((3, design.k))
    probes[0] = 1.0
    probes[1, 0] = design.alpha
    return probes


def design_to_csv(design: Design) -> str:
    """Serialize as CSV: one row per point, k coordinate columns then a
    `class` column, with a header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(design.k)] + ["class"])
    for row, cls in zip(design.coords.tolist(), design.classes):
        writer.writerow([repr(c) for c in row] + [cls.value])
    return buf.getvalue()

