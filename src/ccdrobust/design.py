"""Construction of standard central composite designs in coded units.

A CCD for k factors consists of a full 2^k factorial portion at levels
-1/+1, 2k axial points at distance alpha from the center, and n0 center
replicates, for n = 2^k + 2k + n0 runs in total.
"""

from __future__ import annotations

import csv
import functools
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

# The most (k, n0) entries _unit_ccd keeps.  At n0 = 4 an alpha = 1 design
# holds 2.2 KB of arrays at k = 5 and 0.43 MB at k = 12, so 16 of the widest
# hold 6.9 MB.
_TEMPLATES = 16


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
    copied from what is passed in.  Equality is identity.  Every design
    expands its own model rows and probe rows, once (_memo).

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

    def _memo(self, key: str, make) -> np.ndarray:
        """The array make() returns, computed once per design and kept
        read-only under key by the one function that computes it
        (model.model_matrix, criteria._probe_rows and
        criteria.information_inverse); nothing is kept if make raises."""
        value = self._memoized.get(key)
        if value is None:
            value = make()
            value.flags.writeable = False
            self._memoized[key] = value
        return value


def _check_integers(**values) -> None:
    """Raise TypeError naming the first of values that is a bool or not an integer."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_positive(name: str, value) -> float:
    """value as a float, checked before any cache sees it: the rule for alpha,
    a region's size, a sphere's radius and a grid step.  Raises TypeError
    for a bool, a string, a numpy value that is not a 0-d integer or float,
    or anything else math.isfinite cannot take; ValueError for a value that
    is not finite and > 0."""
    kind = getattr(getattr(value, "dtype", None), "kind", "f")
    try:
        if isinstance(value, bool) or kind not in "iuf" or getattr(value, "ndim", 0):
            raise TypeError
        finite = math.isfinite(value)
    except TypeError:
        raise TypeError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int too large for a float
        finite = False
    if not (finite and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return float(value)


def _check_ccd_args(k: int, alpha: float | None, n0: int) -> float | None:
    """alpha as a float, after raising the TypeError or ValueError gen_ccd
    raises for its arguments, if any, in the order k, alpha (_check_positive),
    n0; with alpha None, k and n0 alone, as scenario_sweep checks them before
    any alpha."""
    _check_integers(k=k, n0=n0)
    if not 2 <= k <= _MAX_K:
        raise ValueError(f"k must be in [2, {_MAX_K}], got {k}")
    alpha = None if alpha is None else _check_positive("alpha", alpha)
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    return alpha


def gen_ccd(k: int, alpha: float, n0: int) -> Design:
    """Build a full central composite design: a new Design on every call,
    whose coordinates are those of the (k, n0) design at alpha = 1
    (_unit_ccd) with the axial entries scaled to +-alpha.

    Raises TypeError for k or n0 that is a bool or not an integer, or alpha
    that is a bool; ValueError for k < 2 (the interaction term degenerates)
    or k > 12, alpha that is not finite and > 0, or n0 < 1.
    """
    alpha = _check_ccd_args(k, alpha, n0)
    k = int(k)
    unit = _unit_ccd(k, int(n0))
    coords = unit.coords.copy()
    coords[2 ** k:2 ** k + 2 * k] *= alpha
    return Design(alpha, coords, unit.classes)


# (flips, blocks): the flip-invariant axes, and a partition of the axes into
# blocks of mutually transposable ones, each in axis order.
_Symmetry = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _symmetry(X: np.ndarray) -> _Symmetry:
    """The product-form symmetry of a design's n x k coordinates X:
    (flips, blocks), the axes whose sign flip leaves the multiset of rows
    unchanged and the partition of the axes into blocks whose
    transpositions do, each in axis order.  Each candidate is applied to
    the rows, which are then sorted and compared with X's sorted rows.
    Since (a c) = (a b)(b c)(a b), each axis is tested against the first
    axis of each block found so far; since (a b) carries the flip of a to
    the flip of b, a block's axes are all flip-invariant or none.  The
    signed permutations these generate leave the SPV, the region and the
    grid unchanged.  A symmetry not of this form (a deleted mixed-sign
    factorial vertex is fixed by signed transpositions) contributes only its
    product subgroup, so the search domain is larger than it could be, but
    correct.  criteria.g_max passes a design's coords; for a CCD and its
    class deletions, missing._sweep_symmetries states the values.
    """
    k = X.shape[1]
    rows = X[np.lexsort(X.T)]

    def invariant(Y: np.ndarray) -> bool:
        return np.array_equal(Y[np.lexsort(Y.T)], rows)

    flips = tuple(j for j in range(k) if invariant(np.where(np.arange(k) == j, -X, X)))
    blocks: list[list[int]] = []
    for j in range(k):
        for block in blocks:
            axes = list(range(k))
            axes[block[0]], axes[j] = j, block[0]
            if invariant(X[:, axes]):
                block.append(j)
                break
        else:
            blocks.append([j])
    return flips, tuple(tuple(block) for block in blocks)


@functools.lru_cache(maxsize=_TEMPLATES)
def _unit_ccd(k: int, n0: int) -> Design:
    """The CCD gen_ccd(k, 1.0, n0) builds, whose axial rows hold -1 and +1 on
    each axis in turn: built once per (k, n0) for gen_ccd to scale at every
    alpha, and never returned by it."""
    nf = 2 ** k
    coords = np.zeros((nf + 2 * k + n0, k))
    # factorial row i has level +1 on axis j where bit k-1-j of i is set
    bits = (np.arange(nf)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    coords[:nf] = 2.0 * bits - 1.0
    axes = np.arange(k)
    coords[nf + 2 * axes, axes] = -1.0
    coords[nf + 2 * axes + 1, axes] = 1.0
    classes = np.repeat(np.array(list(PointClass), dtype=object), [nf, 2 * k, n0])
    return Design(1.0, coords, classes)


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

