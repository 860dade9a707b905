"""Construction of standard central composite designs in coded units.

A CCD for k factors consists of a full 2^k factorial portion at levels
-1/+1, 2k axial points at distance alpha from the center, and n0 center
replicates, for n = 2^k + 2k + n0 runs in total.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "PointClass",
    "DesignPoint",
    "Design",
    "gen_ccd",
    "canonical_probe_points",
    "design_to_csv",
    "design_from_csv",
]


class PointClass(Enum):
    """Classification of a CCD run: factorial vertex, axial (star) point,
    or center replicate."""

    FACTORIAL = "factorial"
    AXIAL = "axial"
    CENTER = "center"


@dataclass(frozen=True)
class DesignPoint:
    """A single design run: k coded coordinates plus its point class."""

    coords: tuple[float, ...]
    point_class: PointClass

    @property
    def k(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class Design:
    """An immutable, ordered tuple of design points with factor count k
    and axial distance alpha.

    The canonical ordering is: factorial points (lexicographic over levels,
    -1 before +1), then axial pairs per axis (-alpha before +alpha, axis 1
    to k), then the center replicates.  Residual designs produced by
    deleting rows keep the surviving points in this order.
    """

    k: int
    alpha: float
    points: tuple[DesignPoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def n(self) -> int:
        return len(self.points)

    def class_count(self, point_class: PointClass) -> int:
        return sum(1 for pt in self.points if pt.point_class is point_class)

    def rows_of_class(self, point_class: PointClass) -> list[int]:
        return [i for i, pt in enumerate(self.points)
                if pt.point_class is point_class]

    def coords(self) -> np.ndarray:
        """n x k array of the coded coordinates, in design order."""
        return np.array([pt.coords for pt in self.points], dtype=float)


def gen_ccd(k: int, alpha: float, n0: int) -> Design:
    """Build a full central composite design.

    Raises ValueError for k < 2 (the interaction term degenerates),
    alpha that is not finite and > 0, or n0 < 1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")

    points: list[DesignPoint] = []
    for levels in itertools.product((-1.0, 1.0), repeat=k):
        points.append(DesignPoint(levels, PointClass.FACTORIAL))
    for axis in range(k):
        for sign in (-1.0, 1.0):
            coords = [0.0] * k
            coords[axis] = sign * alpha
            points.append(DesignPoint(tuple(coords), PointClass.AXIAL))
    center = DesignPoint((0.0,) * k, PointClass.CENTER)
    points.extend([center] * n0)
    return Design(k=k, alpha=float(alpha), points=points)


def canonical_probe_points(design: Design) -> tuple[DesignPoint, DesignPoint, DesignPoint]:
    """One representative location per point class: the all-(+1) factorial
    vertex, the (+alpha, 0, ..., 0) axial point, and the origin."""
    k, alpha = design.k, design.alpha
    factorial = DesignPoint((1.0,) * k, PointClass.FACTORIAL)
    axial = DesignPoint((alpha,) + (0.0,) * (k - 1), PointClass.AXIAL)
    center = DesignPoint((0.0,) * k, PointClass.CENTER)
    return factorial, axial, center


def design_to_csv(design: Design) -> str:
    """Serialize as CSV: one row per point, k coordinate columns then a
    `class` column, with a header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(design.k)] + ["class"])
    for pt in design.points:
        writer.writerow([repr(c) for c in pt.coords] + [pt.point_class.value])
    return buf.getvalue()


def design_from_csv(text: str, alpha: float | None = None) -> Design:
    """Parse the CSV emitted by design_to_csv.

    alpha is recovered from the axial rows when not given explicitly.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    k = len(header) - 1
    points = []
    for row in reader:
        if not row:
            continue
        coords = tuple(float(v) for v in row[:k])
        points.append(DesignPoint(coords, PointClass(row[k])))
    if alpha is None:
        axial = [pt for pt in points if pt.point_class is PointClass.AXIAL]
        alpha = max(abs(c) for pt in axial for c in pt.coords) if axial else 1.0
    return Design(k=k, alpha=float(alpha), points=points)
