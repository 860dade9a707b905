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

# The most center runs, refused before _unit_ccd builds anything: at k = 12
# and n0 = 10,000 a design has 14,120 runs, whose model matrix takes 10.3 MB.
_MAX_N0 = 10_000

# A design's symmetry (flips, blocks): the axes whose sign flip leaves its
# rows unchanged, and a partition of the axes into blocks whose
# transpositions do, in canonical form (flips sorted, each block sorted,
# blocks ordered by their first axis).  criteria.g_max reads it.
_Symmetry = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]

# The most (k, n0) entries _unit_ccd keeps.  At n0 = 4 an alpha = 1 design
# holds 2.2 KB of arrays at k = 5 and 0.43 MB at k = 12, so 16 of the widest
# hold 6.9 MB; at n0 = _MAX_N0, 1.5 MB at k = 12 and 23.5 MB for 16.
_TEMPLATES = 16


class PointClass(Enum):
    """Classification of a CCD run: factorial vertex, axial (star) point,
    or center replicate."""

    FACTORIAL = "factorial"
    AXIAL = "axial"
    CENTER = "center"


@dataclass(frozen=True, eq=False)
class Design:
    """An immutable design with axial distance alpha (_check_positive's
    float), an n x k array of coded coordinates and the PointClass of each
    row, both read-only and copied from what is passed in; a class that is
    not a PointClass member is a TypeError.  Equality is identity.  Each
    design expands its own model and probe rows once (_memo).

    Its symmetry, whose fundamental domain g_max's grid search covers, is
    stated by the function that builds it (_stating): gen_ccd and
    missing.delete_rows.  A design built here states none (no flip, one
    block per axis), even for symmetric rows; g_max says what that costs.

    The canonical ordering is: factorial points (lexicographic over levels,
    -1 before +1), then axial pairs per axis (-alpha before +alpha, axis 1
    to k), then the center replicates.  Residual designs produced by
    deleting rows keep the surviving rows in this order.
    """

    alpha: float
    coords: np.ndarray
    classes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_positive("alpha", self.alpha))
        coords = np.array(self.coords, dtype=float)
        classes = np.array(self.classes, dtype=object)
        if coords.ndim != 2 or classes.shape != coords.shape[:1]:
            raise ValueError(f"coords must be n x k and classes of length n, got "
                             f"shapes {coords.shape} and {classes.shape}")
        if not set(map(type, classes.tolist())) <= {PointClass}:  # a str is not coerced
            bad = next(c for c in classes.tolist() if type(c) is not PointClass)
            raise TypeError(f"design class must be a PointClass, got {bad!r}")
        coords.flags.writeable = classes.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "_memoized", {})  # see _memo
        self._stating(((), tuple((j,) for j in range(coords.shape[1]))))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]

    def rows_of_class(self, point_class: PointClass) -> np.ndarray:
        return np.flatnonzero(self.classes == point_class)

    def _stating(self, symmetry: _Symmetry) -> Design:
        """The design, whose stated symmetry is now symmetry, canonical."""
        object.__setattr__(self, "_stated_symmetry", symmetry)
        return self

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


def _check_integer(name: str, value, low: float, high: int | None = None) -> int:
    """value as an int, checked before any cache sees it: the rule for k, n0,
    a sample count and a row index.  Raises TypeError for a bool or a value
    not an integer (numpy's are), ValueError for one outside [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


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


def _check_ccd_args(k, alpha, n0) -> tuple[int, float | None, int]:
    """k, alpha and n0 as an int, a float and an int, checked in that order
    by _check_integer and _check_positive; with alpha None, k and n0 alone,
    as scenario_sweep checks them before any alpha."""
    k = _check_integer("k", k, 2, _MAX_K)
    alpha = None if alpha is None else _check_positive("alpha", alpha)
    return k, alpha, _check_integer("n0", n0, 1, _MAX_N0)


def gen_ccd(k: int, alpha: float, n0: int) -> Design:
    """Build a full central composite design: a new Design on every call,
    whose coordinates are those of the (k, n0) design at alpha = 1
    (_unit_ccd) with the axial entries scaled to +-alpha.  It states the
    CCD's symmetry: every axis flips, and all axes form one block.

    Raises TypeError for k or n0 that is a bool or not an integer, or alpha
    that is a bool; ValueError for k < 2 (the interaction term degenerates)
    or k > 12, alpha that is not finite and > 0, or n0 outside [1, 10,000].
    """
    k, alpha, n0 = _check_ccd_args(k, alpha, n0)
    unit = _unit_ccd(k, n0)
    coords = unit.coords.copy()
    coords[2 ** k:2 ** k + 2 * k] *= alpha
    axes = tuple(range(k))
    return Design(alpha, coords, unit.classes)._stating((axes, (axes,)))


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

