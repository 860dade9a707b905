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
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from . import linalg
from .design import Design, canonical_probe_points
from .model import expand_points, model_matrix, num_params

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
    """Scaled prediction variance N f'(x)(X'X)^{-1} f(x) at one point:
    spv_many on a single row.

    N is the run count of the design being evaluated, so a residual
    design is scaled by its own (reduced) size.
    """
    return float(spv_many(design, np.atleast_2d(x))[0])


def spv_many(design: Design, pts: np.ndarray) -> np.ndarray:
    """Vectorized SPV over the rows of an m x k point array:
    N times the row sums of (F M^{-1}) * F for the model matrix F."""
    F = expand_points(pts)
    return design.n * np.einsum("ij,ij->i", F @ information_inverse(design), F)


def probe_spv(design: Design) -> tuple[float, float, float]:
    """SPV at the three canonical probe points (factorial vertex, axial
    point, center)."""
    return tuple(float(v) for v in spv_many(design, canonical_probe_points(design)))


# g_max: the largest grid (points in the region's bounding box) it accepts,
# and the relative spread below which two SPVs tie (symmetric points of a
# design agree to ~1e-15; distinct values differ by >= 1e-4).
_MAX_GRID_POINTS = 10 ** 8
_G_TIE_RTOL = 1e-12

# (flips, blocks): the flip-invariant axes, and a partition of the axes into
# blocks of mutually transposable ones, each in axis order.
_Symmetry = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _symmetry(design: Design) -> _Symmetry:
    """The product-form symmetry of the design, read exactly from its
    coordinates: (flips, blocks), the axes whose sign flip leaves the
    multiset of rows unchanged, and the partition of the axes into blocks
    whose transpositions leave it unchanged, each block in axis order.

    Transposition invariance is an equivalence relation, since
    (a c) = (a b)(b c)(a b), so each axis is compared with the first axis of
    each block found so far; and a block's axes are all flip-invariant or
    none, since (a b) carries the flip of a to the flip of b.  The signed
    permutations these generate leave the SPV, the region and the grid
    unchanged.  A symmetry not of this form (a deleted mixed-sign factorial
    vertex is fixed by signed transpositions) contributes only its product
    subgroup, so the search domain is larger than it could be, but correct.
    """
    X = design.coords
    k = design.k

    def rows_sorted(A: np.ndarray) -> np.ndarray:
        return A[np.lexsort(A.T[::-1])]

    base = rows_sorted(X)

    def invariant(A: np.ndarray) -> bool:
        return np.array_equal(base, rows_sorted(A))

    flips = tuple(j for j in range(k)
                  if invariant(np.where(np.arange(k) == j, -X, X)))
    blocks: list[list[int]] = []
    for j in range(k):
        for block in blocks:
            swap = list(range(k))
            swap[block[0]], swap[j] = j, block[0]
            if invariant(X[:, swap]):
                block.append(j)
                break
        else:
            blocks.append([j])
    return flips, tuple(tuple(block) for block in blocks)


def _multisets(n: np.ndarray, r: int) -> np.ndarray:
    """C(n + r - 1, r), the number of non-decreasing r-tuples of n values,
    elementwise and exact: after step i the product is C(n + i - 1, i)."""
    count = np.ones_like(n)
    for i in range(1, r + 1):
        count = count * (n + i - 1) // i
    return count


def _grid_chunks(region: Region, step: float,
                 symmetry: _Symmetry,
                 chunk_rows: int = 200_000) -> Iterator[np.ndarray]:
    """Regular grid points at the given step in the region, in C order and
    in chunks of at most chunk_rows points, over the fundamental domain of
    a symmetry (flips, blocks) as _symmetry returns it: x_j >= 0 on each
    flip-invariant axis, and non-decreasing coordinates within each block.
    With no flips and one block per axis that is the whole bounding box.  A
    box of more than _MAX_GRID_POINTS points raises ValueError before
    anything is allocated, whatever the domain.

    The domain is the product over the blocks of each block's
    non-decreasing index tuples.  It is built axis by axis, so that C order
    holds also when a block's axes are not adjacent: a prefix of the first
    j axes extends to the product of the blocks' multiset counts over the
    remaining axes, and a run of prefixes whose extensions fit in one chunk
    is expanded whole, while a prefix with more is split by its next axis.
    """
    flips, blocks = symmetry
    k = sum(len(block) for block in blocks)
    n1 = int(min(region.size / step + 1e-9, _MAX_GRID_POINTS))  # no int(inf)
    if (2 * n1 + 1) ** k > _MAX_GRID_POINTS:
        raise ValueError(f"G grid at step {step:g} has more than "
                         f"{_MAX_GRID_POINTS:.0e} points; use a coarser grid step")
    axis = np.arange(-n1, n1 + 1, dtype=float) * step
    top = 2 * n1  # the largest axis index; index n1 is x = 0
    low = [n1 if j in flips else 0 for j in range(k)]
    prev = [-1] * k  # the previous axis of the same block
    for block in blocks:
        for a, b in zip(block, block[1:]):
            prev[b] = a

    def floor(P: np.ndarray, j: int) -> np.ndarray:
        """The least index of axis j after each prefix row of P."""
        if prev[j] >= 0:
            return P[:, prev[j]]
        return np.full(len(P), low[j], dtype=np.intp)

    def extensions(P: np.ndarray) -> np.ndarray:
        """The number of domain points that extend each prefix row."""
        count = np.ones(len(P), dtype=np.int64)
        for block in blocks:
            rest = [a for a in block if a >= P.shape[1]]
            if rest:
                count *= _multisets(top + 1 - floor(P, rest[0]), len(rest))
        return count

    def extend(P: np.ndarray) -> np.ndarray:
        """Each prefix row followed by every index its next axis allows."""
        start = floor(P, P.shape[1])
        reps = top + 1 - start
        rows = np.repeat(np.arange(len(P)), reps)
        offset = np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)
        return np.column_stack([P[rows], start[rows] + offset])

    def chunks(P: np.ndarray) -> Iterator[np.ndarray]:
        ends = np.cumsum(extensions(P))
        i = 0
        while i < len(P):
            stop = int(np.searchsorted(ends, (ends[i - 1] if i else 0) + chunk_rows,
                                       side="right"))
            if stop == i:
                yield from chunks(extend(P[i:i + 1]))
                i += 1
                continue
            Q = P[i:stop]
            while Q.shape[1] < k:
                Q = extend(Q)
            pts = axis[Q]
            del Q  # not kept alive while the chunk is evaluated
            pts = pts[region.contains(pts)]
            if pts.size:
                yield pts
            i = stop

    yield from chunks(np.empty((1, 0), dtype=np.intp))


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

    The grid is searched over the fundamental domain of the design's
    symmetry (see _symmetry and _grid_chunks), in C order: the SPV, the
    region and the grid are invariant under every sign flip and axis
    transposition that leaves the design's rows unchanged, so each grid
    point has an image in the domain with the same SPV.
    - A full CCD, or one missing a center run: 0 <= x_1 <= ... <= x_k,
      up to 2^k k! times fewer points than the box.
    - Missing a factorial vertex: non-decreasing coordinates within each
      set of axes on which the vertex has the same sign; for (-1, ..., -1)
      x_1 <= ... <= x_k, up to k! times fewer.
    - Missing an axial run on axis j: x_j free, and the other axes
      non-negative and non-decreasing, up to 2^(k-1) (k-1)! times fewer.
    - A design with no such symmetry: the whole box.
    A tied grid maximum is reported at the domain's representative: at
    k=5, alpha=1, step 0.2 the full design's location is (0 0 1 1 1), not
    (-1 -1 -1 0 0).

    The result is kept in the (immutable) design's __dict__ per (region,
    grid_step), as information_inverse keeps the inverse, so each design
    is searched once per region and step.
    """
    if grid_step is not None and grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    memo = design.__dict__.setdefault("_g_max", {})
    if (region, grid_step) in memo:
        return memo[region, grid_step]
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

    consider(design.coords)
    consider(canonical_probe_points(design))
    if grid_step is not None:
        for chunk in _grid_chunks(region, grid_step, _symmetry(design)):
            consider(chunk)
    memo[region, grid_step] = best_val, best_loc
    return memo[region, grid_step]


def g_efficiency(design: Design, region: Region,
                 grid_step: float | None = 0.1) -> float:
    """p divided by the maximum SPV over the region."""
    gmax, _ = g_max(design, region, grid_step)
    return num_params(design.k) / gmax


@functools.lru_cache(maxsize=64)
def region_moments(region: Region, k: int) -> np.ndarray:
    """Analytic p x p region-moments matrix E[f(x) f(x)'] under the
    uniform measure on the region, computed once per (region, k) and
    returned read-only, since every caller shares it.

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
    lin = np.arange(1, 1 + k)
    quad = np.arange(1 + k, 1 + 2 * k)
    inter = np.arange(1 + 2 * k, p)
    M = np.zeros((p, p))
    M[0, 0] = 1.0
    M[lin, lin] = m2
    M[0, quad] = M[quad, 0] = m2
    M[np.ix_(quad, quad)] = m22
    M[quad, quad] = m4
    M[inter, inter] = m22
    M.flags.writeable = False
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
        g_eff=g_efficiency(design, region, grid_step),
        v_avg_cuboidal=v_avg(design, Region(RegionShape.CUBOIDAL, 1.0)),
        v_avg_spherical=v_avg(design, Region(RegionShape.SPHERICAL, math.sqrt(design.k))),
        rotatability_index=rotatability_index(design, rot_radius, rot_samples),
    )
