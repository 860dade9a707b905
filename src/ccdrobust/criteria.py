"""Estimation and prediction criteria for second-order designs.

Covers the A-criterion (trace of the inverse information matrix), the
scaled prediction variance v(x) = N f'(x)(X'X)^{-1} f(x), its maximum
over a region (G) with the associated G-efficiency p / max v, its
region average (V) via the analytic region-moments matrix, and a
rotatability index measuring how far v(x) is from being constant on a
sphere around the center.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from . import linalg
from .design import Design, canonical_probe_points
from .model import expand_point, expand_points, interaction_pairs, model_matrix, num_params

__all__ = [
    "RegionShape",
    "Region",
    "CriteriaReport",
    "information_inverse",
    "spv",
    "spv_many",
    "probe_spv",
    "g_max",
    "g_efficiency",
    "region_moments",
    "v_avg",
    "sphere_points",
    "rotatability_index",
    "sample_region",
    "monte_carlo_moments",
    "criteria_report",
]


class RegionShape(Enum):
    CUBOIDAL = "cuboidal"
    SPHERICAL = "spherical"


@dataclass(frozen=True)
class Region:
    """Region of interest: a cube [-a, a]^k (size = half-width a) or a
    ball of radius r (size = r), both centered at the origin."""

    shape: RegionShape
    size: float

    def __post_init__(self):
        if not (math.isfinite(self.size) and self.size > 0):
            raise ValueError(f"region size must be finite and > 0, got {self.size}")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.shape is RegionShape.CUBOIDAL:
            return np.all(np.abs(pts) <= self.size + 1e-12, axis=1)
        return np.einsum("ij,ij->i", pts, pts) <= self.size ** 2 + 1e-12


def information_inverse(design: Design) -> np.ndarray:
    """(X'X)^{-1} for the design's full quadratic model matrix: the only
    place a design is inverted.  Computed once per (immutable) Design, kept
    in its __dict__ as functools.cached_property would, and read-only."""
    Minv = design.__dict__.get("_information_inverse")
    if Minv is None:
        Minv = linalg.invert(linalg.cross_product(model_matrix(design)))
        Minv.flags.writeable = False
        design.__dict__["_information_inverse"] = Minv
    return Minv


def spv(design: Design, x: Sequence[float]) -> float:
    """Scaled prediction variance N f'(x)(X'X)^{-1} f(x).

    N is the run count of the design being evaluated, so a residual
    design is scaled by its own (reduced) size.
    """
    return design.n * linalg.quad_form(expand_point(x), information_inverse(design))


def spv_many(design: Design, pts: np.ndarray) -> np.ndarray:
    """Vectorized SPV over the rows of an m x k point array:
    N times the row sums of (F M^{-1}) * F for the model matrix F."""
    F = expand_points(pts)
    return design.n * np.einsum("ij,ij->i", F @ information_inverse(design), F)


def probe_spv(design: Design) -> tuple[float, float, float]:
    """SPV at the three canonical probe points (factorial vertex, axial
    point, center)."""
    pts = np.array([pt.coords for pt in canonical_probe_points(design)])
    return tuple(float(v) for v in spv_many(design, pts))


# g_max: the largest grid (points in the region's bounding box) it accepts,
# and the relative spread below which two SPVs tie (symmetric points of a
# design agree to ~1e-15; distinct values differ by >= 1e-4).
_MAX_GRID_POINTS = 10 ** 8
_G_TIE_RTOL = 1e-12


def _grid_chunks(region: Region, k: int, step: float,
                 chunk_rows: int = 200_000,
                 fundamental: bool = False) -> Iterator[np.ndarray]:
    """Regular grid over the region's bounding box in C order, restricted to
    the region, in chunks of at most chunk_rows points.  With fundamental,
    only the grid points with 0 <= x_1 <= ... <= x_k, still in C order.  A
    box of more than _MAX_GRID_POINTS points raises ValueError before
    anything is allocated, whether or not it is then reduced."""
    n1 = int(min(region.size / step + 1e-9, _MAX_GRID_POINTS))  # no int(inf)
    shape = (2 * n1 + 1,) * k
    total = math.prod(shape)
    if total > _MAX_GRID_POINTS:
        raise ValueError(f"G grid at step {step:g} has more than "
                         f"{_MAX_GRID_POINTS:.0e} points; use a coarser grid step")
    axis = np.arange(-n1, n1 + 1, dtype=float) * step
    if fundamental:
        # Axis indices n1 <= i_1 <= ... <= i_k are c_j + n1 - j for the
        # k-subsets c_1 < ... < c_k of range(n1 + k), which itertools yields
        # in lexicographic, hence C, order.
        subsets = itertools.combinations(range(n1 + k), k)
        total = math.comb(n1 + k, k)

        def indices(start: int, stop: int) -> np.ndarray:
            flat = np.fromiter(itertools.chain.from_iterable(
                itertools.islice(subsets, stop - start)),
                dtype=np.intp, count=(stop - start) * k)
            return flat.reshape(-1, k) + (n1 - np.arange(k))
    else:
        def indices(start: int, stop: int) -> np.ndarray:
            return np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)
    for start in range(0, total, chunk_rows):
        block = axis[indices(start, min(start + chunk_rows, total))]
        block = block[region.contains(block)]
        if block.size:
            yield block


def _fully_symmetric(design: Design) -> bool:
    """True when the design's rows, as a multiset, are invariant under every
    sign flip and axis permutation (the symmetry group of the cube and the
    ball).  Checked exactly on the coordinates under the group's generators:
    negate axis 0, swap axes 0 and 1, cycle the axes."""
    X = design.coords()

    def rows_sorted(A: np.ndarray) -> np.ndarray:
        return A[np.lexsort(A.T[::-1])]

    flipped = X.copy()
    flipped[:, 0] = -flipped[:, 0]
    swap = list(range(design.k))
    swap[:2] = swap[1::-1]  # axes 0 and 1; the identity when k = 1
    swapped = X[:, swap]
    cycled = np.roll(X, 1, axis=1)
    base = rows_sorted(X)
    return all(np.array_equal(base, rows_sorted(Y))
               for Y in (flipped, swapped, cycled))


def g_max(design: Design, region: Region,
          grid_step: float | None = 0.1) -> tuple[float, tuple[float, ...]]:
    """Maximum SPV over the evaluation set and its location.

    The evaluation set is the design's own points, the three canonical
    probe points, and (when grid_step is not None) a regular grid over
    the region at that spacing.  A finer grid can only enlarge the set,
    so the reported maximum never shrinks under refinement.  The location
    is the first point in evaluation order (design rows, probes, grid)
    within _G_TIE_RTOL of the running maximum, so rounding cannot pick
    among tied maximizers; the value is the exact maximum.

    When the design is invariant under every sign flip and axis
    permutation (a full CCD, or one with a center run deleted), so is its
    SPV, and the region and the grid are too: the grid part of the
    evaluation order is then its fundamental domain 0 <= x_1 <= ... <= x_k
    in C order, 2^k k! times fewer points at most.  A tied grid maximum is
    reported there: at k=5, alpha=1, step 0.2 the location is (0 0 1 1 1),
    not (-1 -1 -1 0 0).
    """
    if grid_step is not None and grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    best_val = -math.inf
    best_loc: tuple[float, ...] = ()

    def consider(pts: np.ndarray) -> None:
        nonlocal best_val, best_loc
        if not len(pts):
            return
        vals = spv_many(design, pts)
        top = float(vals.max())
        if top > best_val * (1 + _G_TIE_RTOL):
            i = int(np.argmax(vals >= top * (1 - _G_TIE_RTOL)))
            best_loc = tuple(float(c) for c in pts[i])
        best_val = max(best_val, top)

    consider(design.coords())
    consider(np.array([pt.coords for pt in canonical_probe_points(design)]))
    if grid_step is not None:
        for chunk in _grid_chunks(region, design.k, grid_step,
                                  fundamental=_fully_symmetric(design)):
            consider(chunk)
    return best_val, best_loc


def g_efficiency(design: Design, region: Region,
                 grid_step: float | None = 0.1) -> float:
    """p divided by the maximum SPV over the region."""
    gmax, _ = g_max(design, region, grid_step)
    return num_params(design.k) / gmax


def region_moments(region: Region, k: int) -> np.ndarray:
    """Analytic p x p region-moments matrix E[f(x) f(x)'] under the
    uniform measure on the region.

    Cube [-a, a]^k: E[x_i^2] = a^2/3, E[x_i^4] = a^4/5,
    E[x_i^2 x_j^2] = a^4/9.  Ball of radius r: E[x_i^2] = r^2/(k+2),
    E[x_i^4] = 3 r^4/((k+2)(k+4)), E[x_i^2 x_j^2] = r^4/((k+2)(k+4)).
    Odd moments vanish by symmetry.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    s = region.size
    if region.shape is RegionShape.CUBOIDAL:
        m2, m4, m22 = s ** 2 / 3, s ** 4 / 5, s ** 4 / 9
    else:
        m2 = s ** 2 / (k + 2)
        m4 = 3 * s ** 4 / ((k + 2) * (k + 4))
        m22 = s ** 4 / ((k + 2) * (k + 4))

    p = num_params(k)
    pairs = interaction_pairs(k)
    M = np.zeros((p, p))
    lin = lambda i: 1 + i
    quad = lambda i: 1 + k + i
    inter = lambda idx: 1 + 2 * k + idx
    M[0, 0] = 1.0
    for i in range(k):
        M[lin(i), lin(i)] = m2
        M[0, quad(i)] = M[quad(i), 0] = m2
        M[quad(i), quad(i)] = m4
        for j in range(i + 1, k):
            M[quad(i), quad(j)] = M[quad(j), quad(i)] = m22
    for idx in range(len(pairs)):
        M[inter(idx), inter(idx)] = m22
    return M


def v_avg(design: Design, region: Region) -> float:
    """Average SPV over the region:
    N * trace((X'X)^{-1} E[f f']) under the uniform measure on R."""
    return design.n * float(np.trace(information_inverse(design)
                                     @ region_moments(region, design.k)))


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i > 0:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sphere_points(k: int, radius: float, n: int) -> np.ndarray:
    """n deterministic, well-spread points on the sphere of the given
    radius: Halton sequence mapped through the Gaussian quantile and
    normalized (equal angular spacing for k = 2).  The Halton bases are
    the first len(_PRIMES) primes, which bounds k."""
    if k > len(_PRIMES):
        raise ValueError(f"sphere_points supports k <= {len(_PRIMES)}, got {k}")
    return radius * _unit_sphere_points(k, n)


@functools.lru_cache(maxsize=64)
def _unit_sphere_points(k: int, n: int) -> np.ndarray:
    """sphere_points on the unit sphere, computed once per (k, n) and
    returned read-only, since every caller shares it."""
    if k == 2:
        theta = 2 * math.pi * np.arange(n) / n
        g = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        ppf = NormalDist().inv_cdf
        g = np.array([[ppf(_radical_inverse(i + 1, _PRIMES[d])) for d in range(k)]
                      for i in range(n)])
        g /= np.linalg.norm(g, axis=1, keepdims=True)
    g.flags.writeable = False
    return g


def rotatability_index(design: Design, radius: float, n_samples: int = 200) -> float:
    """Standard deviation of SPV over points on the sphere of the given
    radius; ~0 iff the design is rotatable at that radius."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    vals = spv_many(design, sphere_points(design.k, radius, n_samples))
    return float(np.std(vals))


def _sample_region_rng(region: Region, k: int, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    if region.shape is RegionShape.CUBOIDAL:
        return rng.uniform(-region.size, region.size, size=(n, k))
    g = rng.standard_normal((n, k))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = region.size * rng.random(n) ** (1.0 / k)
    return g * radii[:, None]


def sample_region(region: Region, k: int, n: int, seed: int) -> np.ndarray:
    """n uniform samples from the region (seeded, reproducible)."""
    return _sample_region_rng(region, k, n, np.random.default_rng(seed))


def monte_carlo_moments(region: Region, k: int, n: int, seed: int = 0,
                        chunk: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of the region-moments matrix and the standard
    error of each entry; the independent check for region_moments.

    Accumulates F'F and (F*F)'(F*F) per chunk of the n x p model matrix F.
    """
    p = num_params(k)
    total = np.zeros((p, p))
    total_sq = np.zeros((p, p))
    rng = np.random.default_rng(seed)
    done = 0
    while done < n:
        m = min(chunk, n - done)
        pts = _sample_region_rng(region, k, m, rng)
        F = expand_points(pts)
        F2 = F * F
        total += F.T @ F
        total_sq += F2.T @ F2
        done += m
    mean = total / n
    var = (total_sq - n * mean ** 2) / (n - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n)
    return mean, se


@dataclass
class CriteriaReport:
    """All criteria for one design, in the layout of the report CSV/JSON."""

    alpha: float
    a_trace: float
    spv_factorial: float
    spv_axial: float
    spv_center: float
    g_max: float
    g_max_location: tuple[float, ...]
    g_eff: float
    v_avg_cuboidal: float
    v_avg_spherical: float
    rotatability_index: float

    FIELDS = ("alpha", "a_trace", "spv_factorial", "spv_axial", "spv_center",
              "g_max", "g_max_location", "g_eff", "v_avg_cuboidal",
              "v_avg_spherical", "rotatability_index")

    def as_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.FIELDS}
        d["g_max_location"] = "(" + " ".join(f"{c:g}" for c in self.g_max_location) + ")"
        return d


def criteria_report(design: Design, region: Region | None = None,
                    grid_step: float | None = 0.1,
                    rot_radius: float = 1.0,
                    rot_samples: int = 200) -> CriteriaReport:
    """Evaluate every criterion for one design.

    v_avg is reported under both default region conventions, the unit
    cube and the sphere of radius sqrt(k); g_max uses the given region
    (unit cube when omitted) plus the design points and probes.
    """
    if region is None:
        region = Region(RegionShape.CUBOIDAL, 1.0)
    f, a, c = probe_spv(design)
    gmax, loc = g_max(design, region, grid_step)
    return CriteriaReport(
        alpha=design.alpha,
        a_trace=linalg.trace(information_inverse(design)),
        spv_factorial=f,
        spv_axial=a,
        spv_center=c,
        g_max=gmax,
        g_max_location=loc,
        g_eff=num_params(design.k) / gmax,
        v_avg_cuboidal=v_avg(design, Region(RegionShape.CUBOIDAL, 1.0)),
        v_avg_spherical=v_avg(design, Region(RegionShape.SPHERICAL, math.sqrt(design.k))),
        rotatability_index=rotatability_index(design, rot_radius, rot_samples),
    )
