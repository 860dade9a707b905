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
import threading
from collections.abc import Iterator
from dataclasses import dataclass, fields
from enum import Enum
from statistics import NormalDist

import numpy as np

from . import linalg
from .design import (Design, _MAX_K, _Symmetry, _check_integer, _check_positive,
                     canonical_probe_points)
from .model import expand_points, model_matrix, num_params

__all__ = [
    "RegionShape",
    "Region",
    "CriteriaReport",
    "information_inverse",
    "a_trace",
    "spv_many",
    "probe_spv",
    "g_max",
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
    ball of radius r (size = r), both centered at the origin.  contains
    admits points up to 1e-12 outside either, measured in distance.
    Raises TypeError for a shape that is not a RegionShape; the size is
    stored as the float design._check_positive returns for it."""

    shape: RegionShape
    size: float

    def __post_init__(self):
        if not isinstance(self.shape, RegionShape):
            raise TypeError(f"region shape must be a RegionShape, got {self.shape!r}")
        object.__setattr__(self, "size", _check_positive("region size", self.size))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.shape is RegionShape.CUBOIDAL:
            return np.all(np.abs(pts) <= self.size + 1e-12, axis=1)
        return np.einsum("ij,ij->i", pts, pts) <= (self.size + 1e-12) ** 2


def information_inverse(design: Design) -> np.ndarray:
    """(X'X)^{-1} for the design's full quadratic model matrix.  Computed
    once per (immutable) Design and read-only (Design._memo), so that A, G
    and V, each computed on every call, read it; a failed inversion is not
    kept."""
    def invert() -> np.ndarray:
        X = model_matrix(design)
        return linalg.invert(X.T @ X)
    return design._memo("information_inverse", invert)


def _a_traces(Minv: np.ndarray) -> np.ndarray:
    """trace(M^{-1}) of one inverse, or of each in a stack: the A-criterion
    kernel of a_trace and scenario_sweep."""
    return np.trace(Minv, axis1=-2, axis2=-1)


def a_trace(design: Design) -> float:
    """The A-criterion: trace((X'X)^{-1}), the summed variance of the
    parameter estimates."""
    return float(_a_traces(information_inverse(design)))


def spv_many(design: Design, pts: np.ndarray) -> np.ndarray:
    """Scaled prediction variance N f'(x)(X'X)^{-1} f(x) at each row x of an m x k
    point array, N the design's run count (so a residual is scaled by its own size),
    expanded and scored one _spv block at a time.  Raises ValueError unless pts is
    a finite m x k array, or naming the first point whose SPV is not finite."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != design.k:
        raise ValueError(f"points must be an m x {design.k} array, "
                         f"got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    Minv, width = information_inverse(design), _spv_width(num_params(design.k))
    vals = np.empty(len(pts))
    for i in range(0, len(pts), width):
        vals[i:i + width] = _spv(design.n, Minv, expand_points(pts[i:i + width]))
    if not (finite := np.isfinite(vals)).all():
        raise ValueError(f"SPV at point {tuple(pts[finite.argmin()].tolist())} is not finite")
    return vals


# _spv's p x width blocks of M^-1 F' stay in L2; a power-of-two width aligns BLAS's kernels.
_SPV_BLOCK_BYTES = 2 ** 18


def _spv_width(p: int) -> int:
    return 1 << (_SPV_BLOCK_BYTES // (8 * p)).bit_length()


def _spv(n: int, Minv: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The SPV kernel, for one inverse: n times the column sums of (M^{-1} F') * F',
    the SPV at each row of F, in _spv_width blocks of the C-contiguous F' (one block
    skips the loop's overhead).  A value's last bits depend on F's length and the
    row's place in it, so two scans agree to the bit only on the same F."""
    Ft, width = F.T, _spv_width(F.shape[1])
    if Ft.shape[1] <= width:
        return n * np.einsum("ij,ij->j", Minv @ Ft, Ft)
    out = np.empty(Ft.shape[1])
    for i in range(0, len(out), width):
        B = Ft[:, i:i + width]
        np.einsum("ij,ij->j", Minv @ B, B, out=out[i:i + width])
    return n * out


def _probe_rows(design: Design) -> np.ndarray:
    """The model rows of the canonical probe points, expanded once per
    design."""
    return design._memo("probe_rows",
                        lambda: expand_points(canonical_probe_points(design)))


def probe_spv(design: Design) -> tuple[float, float, float]:
    """SPV at the three canonical probe points (factorial vertex, axial
    point, center)."""
    return tuple(_spv(design.n, information_inverse(design), _probe_rows(design)).tolist())


# g_max: the largest grid (points in the region's bounding box) it accepts,
# and the relative spread below which two SPVs tie (symmetric points of a
# design agree to ~1e-15; distinct values differ by >= 1e-4).
_MAX_GRID_POINTS = 10 ** 8
_G_TIE_RTOL = 1e-12

# g_max's grid domains, kept for the life of the process while they fit in
# _GRID_CACHE_BYTES, which also bounds each chunk of _grid_chunks: a read-only
# model matrix per (region, step, symmetry).  The largest domain of `sweep
# --k 3 --grid-step 0.02`, 176,851 points, is 13.5 MiB.  _grid_lock guards
# each lookup, and each check-and-insert.
_GRID_CACHE_BYTES = 32 * 2 ** 20
_grid_cache: dict[tuple, np.ndarray] = {}
_grid_lock = threading.Lock()

def _grid_half_width(region: Region, step: float, k: int) -> int:
    """n1, the largest index whose axis value n1*step Region.contains accepts:
    the k-dimensional G grid at this step has the axis values -n1*step ..
    n1*step, so a cube's grid lies in the cube by construction.  Raises,
    before anything is allocated, what design._check_positive raises for the
    step, and ValueError for a box of more than _MAX_GRID_POINTS points."""
    step = _check_positive("grid_step", step)
    n1 = int(min(region.size / step, _MAX_GRID_POINTS))  # no int(inf)
    while n1 > 0 and not region.contains(np.array([[n1 * step]]))[0]:
        n1 -= 1
    while ((2 * n1 + 3) ** k <= _MAX_GRID_POINTS  # else refused below
           and region.contains(np.array([[(n1 + 1) * step]]))[0]):
        n1 += 1
    if (2 * n1 + 1) ** k > _MAX_GRID_POINTS:
        raise ValueError(f"G grid at step {step:g} has more than "
                         f"{_MAX_GRID_POINTS:.0e} points; use a coarser grid step")
    return n1


def _grid_chunks(region: Region, step: float,
                 symmetry: _Symmetry) -> Iterator[np.ndarray]:
    """Regular grid points at the given step in the region, in C order, in
    chunks of at most _GRID_CACHE_BYTES of model rows (and at least one
    point), over the fundamental domain of a symmetry (flips, blocks) as a
    design states it: x_j >= 0 on each flip-invariant axis, and
    non-decreasing coordinates within each block.  With no flips and one
    block per axis that is the whole bounding box, whose edge and size
    check, whatever the domain, are _grid_half_width's.

    The domain is the product over the blocks of each block's
    non-decreasing index tuples.  It is built axis by axis, so that C order
    holds also when a block's axes are not adjacent: the prefixes of the
    first j axes are split into runs whose next axis adds at most a
    chunk's rows, and each run is extended by that axis in turn.
    A cube's grid lies in the cube and is never filtered; a ball's points
    are each tested.
    """
    flips, blocks = symmetry
    k = sum(len(block) for block in blocks)
    n1 = _grid_half_width(region, step, k)
    most = max(1, _GRID_CACHE_BYTES // (8 * num_params(k)))
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

    def extend(P: np.ndarray) -> np.ndarray:
        """Each prefix row followed by every index its next axis allows."""
        start = floor(P, P.shape[1])
        reps = top + 1 - start
        rows = np.repeat(np.arange(len(P)), reps)
        offset = np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)
        return np.column_stack([P[rows], start[rows] + offset])

    def chunks(P: np.ndarray) -> Iterator[np.ndarray]:
        if P.shape[1] == k:
            for i in range(0, len(P), most):
                pts = axis[P[i:i + most]]
                if region.shape is RegionShape.SPHERICAL:
                    pts = pts[region.contains(pts)]
                if pts.size:
                    yield pts
            return
        ends = np.cumsum(top + 1 - floor(P, P.shape[1]))
        i = 0
        while i < len(P):
            stop = max(i + 1, int(np.searchsorted(
                ends, (ends[i - 1] if i else 0) + most, side="right")))
            yield from chunks(extend(P[i:stop]))
            i = stop

    yield from chunks(np.empty((1, 0), dtype=np.intp))


def _grid_models(region: Region, step: float,
                 symmetry: _Symmetry) -> Iterator[np.ndarray]:
    """The model matrix of _grid_chunks' domain, the points its columns 1..k:
    whole and read-only if it fits in _GRID_CACHE_BYTES, from _grid_cache or
    expanded and kept if it fits in what the kept domains leave; else in
    _spv_width blocks counted from its first point across its chunks, each
    expanded as it is asked for, so that _spv scores them as the whole, to
    the bit.  The key holds the step's float from design._check_positive."""
    step = _check_positive("grid_step", step)
    key = (region, step, symmetry)
    with _grid_lock:
        cached = _grid_cache.get(key)
    if cached is not None:
        yield cached
        return
    chunks, head, rows = _grid_chunks(region, step, symmetry), [], 0
    for pts in chunks:  # a ball's chunks are cut before its points are tested
        head.append(pts)
        rows += len(pts)
        if rows * 8 * num_params(pts.shape[1]) > _GRID_CACHE_BYTES:
            break
    else:
        F = expand_points(np.concatenate(head))
        F.flags.writeable = False
        with _grid_lock:
            if F.nbytes <= _GRID_CACHE_BYTES - sum(G.nbytes for G in _grid_cache.values()):
                _grid_cache[key] = F
        yield F
        return
    width, carry = _spv_width(num_params(pts.shape[1])), pts[:0]
    for pts in itertools.chain(head, chunks):
        pts = np.concatenate((carry, pts))
        end = len(pts) - len(pts) % width
        for i in range(0, end, width):
            yield expand_points(pts[i:i + width])
        carry = pts[end:]
    if len(carry):
        yield expand_points(carry)


def g_max(design: Design, region: Region,
          grid_step: float | None = None) -> tuple[float, tuple[float, ...]]:
    """Maximum SPV over the evaluation set and its location.

    The evaluation set is the design's own points, the three canonical
    probe points, and (when grid_step is not None) a regular grid over
    the region at that spacing.  A finer grid can only enlarge the set,
    so the reported maximum never shrinks under refinement.  The location is
    the first point within _G_TIE_RTOL of the maximum of the chunk (design
    rows and probes, then the grid's) that last raised the running maximum
    by more than _G_TIE_RTOL, so rounding cannot pick among tied maximizers;
    the value is the exact maximum.

    The grid is searched over the fundamental domain of the symmetry the
    design states (see Design and _grid_chunks), in C order: the SPV, the
    region and the grid are invariant under every sign flip and axis
    transposition that leaves the design's rows unchanged, so each grid
    point has an image in the domain with the same SPV.  gen_ccd and
    missing.delete_rows state it from the CCD's layout and the rows
    deleted.
    - A full CCD, or one missing a center run: 0 <= x_1 <= ... <= x_k,
      up to 2^k k! times fewer points than the box.
    - Missing a factorial vertex: non-decreasing coordinates within each
      set of axes on which the vertex has the same sign; for (-1, ..., -1)
      x_1 <= ... <= x_k, up to k! times fewer.
    - Missing an axial run on axis j: x_j free, and the other axes
      non-negative and non-decreasing, up to 2^(k-1) (k-1)! times fewer.
    - A design missing rows that no flip or swap fixes: the whole box.
    - A design built directly with Design(...) states no symmetry: the
      whole box, even when its rows are symmetric.  That is up to 2^k k!
      times more points than its domain, for the same G within 1e-12, and
      a tied maximum is reported at the first point of the box in C order.
    A tied grid maximum is reported at the domain's representative: at
    k=5, alpha=1, step 0.2 the full design's location is (0 0 1 1 1), not
    (-1 -1 -1 0 0).

    The domain depends only on (region, grid_step, symmetry), so designs
    of one symmetry share it at any alpha; _grid_models keeps its model
    matrix while it fits in _GRID_CACHE_BYTES, else expands it on every
    search, in _spv blocks if it is larger than the cache.  The scan is
    _g_scan, which missing.scenario_sweep also runs for each of its
    designs; only g_max locates the maximum.  A bad step raises ValueError
    where its grid is built (_grid_half_width), and a G that is not finite
    one naming the region's size and the step.
    """
    rows, probes = model_matrix(design), _probe_rows(design)
    symmetry = None if grid_step is None else design._stated_symmetry
    best, (F, vals, top) = _g_scan(design.n, information_inverse(design), rows, probes,
                                   symmetry, region, grid_step)
    i = int(np.argmax(vals >= top * (1 - _G_TIE_RTOL)))
    return best, tuple(F[i, 1:1 + design.k].tolist())


def _g_scan(n: int, Minv: np.ndarray, rows: np.ndarray, probes: np.ndarray,
            symmetry: _Symmetry | None, region: Region, grid_step: float | None
            ) -> tuple[float, tuple[np.ndarray, np.ndarray, float]]:
    """G, the maximum SPV of the design with run count n and inverse Minv
    over its model rows and the probes' as one chunk, then, when grid_step
    is not None, over each chunk _grid_models yields for the symmetry; one
    _spv call per chunk.  Returns G and the last chunk whose maximum beat
    the running maximum by more than _G_TIE_RTOL, as (its model rows, its
    SPVs, its maximum): the chunk in which g_max locates G."""
    best, at = -math.inf, None
    grid = () if grid_step is None else _grid_models(region, grid_step, symmetry)
    for F in itertools.chain((np.concatenate((rows, probes)),), grid):
        vals = _spv(n, Minv, F)
        top = float(vals.max())
        if not math.isfinite(top):
            raise ValueError(f"G over the region of size {region.size!r} at grid step "
                             f"{grid_step!r} is not finite")
        if top > best * (1 + _G_TIE_RTOL):  # so top > best: an SPV is >= 0
            at = F, vals, top
        best = max(best, top)
    return best, at


@functools.lru_cache(maxsize=64, typed=True)
def region_moments(region: Region, k: int) -> np.ndarray:
    """Analytic p x p region-moments matrix E[f(x) f(x)'] under the
    uniform measure on the region, computed once per (region, k) and
    returned read-only, since every caller shares it.  k is checked by
    design._check_integer (2 <= k <= _MAX_K; the cache is typed, so 3.0 is
    not served as 3), and a size whose 3 size^4 overflows is a ValueError.

    Cube [-a, a]^k: E[x_i^2] = a^2/3, E[x_i^4] = a^4/5,
    E[x_i^2 x_j^2] = a^4/9.  Ball of radius r: E[x_i^2] = r^2/(k+2),
    E[x_i^4] = 3 r^4/((k+2)(k+4)), E[x_i^2 x_j^2] = r^4/((k+2)(k+4)).
    Odd moments vanish by symmetry.
    """
    k = _check_integer("k", k, 2, _MAX_K)
    s = region.size
    if not math.isfinite(3 * s * s * s * s):  # the sphere's m4 numerator, the largest
        raise ValueError(f"region size {s!r} is too large: its moments overflow")
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
    return float(_v_from_moments(design.n, information_inverse(design),
                                 region_moments(region, design.k), region))


def _v_from_moments(n: int | np.ndarray, Minv: np.ndarray, M: np.ndarray, region: Region):
    """n * trace(M^{-1} M_R) for a p x p moments matrix M_R of region: the
    V-average formula, shared by v_avg, scenario_sweep (a stack of d inverses
    and d run counts) and verify's printed-convention cells.  Raises
    ValueError naming the region's size when a value is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = n * np.trace(Minv @ M, axis1=-2, axis2=-1)
    if not all(map(math.isfinite, v.flat)):
        raise ValueError(f"V over the region of size {region.size!r} is not finite")
    return v


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
    the first len(_PRIMES) primes, which bounds k (design._MAX_K).  A new
    array on every call.  The radius is checked by design._check_positive,
    then k and n by design._check_integer (2 <= k <= _MAX_K, n >= 1)."""
    radius = _check_positive("radius", radius)
    k = _check_integer("k", k, 2, _MAX_K)
    n = _check_integer("n", n, 1)
    if k == 2:
        theta = 2 * math.pi * np.arange(n) / n
        g = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        ppf = NormalDist().inv_cdf
        g = np.array([[ppf(_radical_inverse(i + 1, _PRIMES[d])) for d in range(k)]
                      for i in range(n)])
        g /= np.linalg.norm(g, axis=1, keepdims=True)
    return radius * g


# rotatability_index's points on the sphere.
_ROT_POINTS = 200


@functools.lru_cache(maxsize=64)
def _sphere_rows(k: int, radius: float) -> np.ndarray:
    """The model rows of rotatability_index's _ROT_POINTS points on the
    sphere of the given radius, expanded once per (k, radius) and returned
    read-only, since every caller shares them.  The radius is the float
    rotatability_index's _check_positive returns, so a refused one is not
    kept and no key is a bool or an array."""
    F = expand_points(sphere_points(k, radius, _ROT_POINTS))
    F.flags.writeable = False
    return F


def rotatability_index(design: Design, radius: float) -> float:
    """Standard deviation of SPV over _ROT_POINTS (200) points on the sphere
    of the given radius (checked by design._check_positive; sphere_points,
    expanded once by _sphere_rows); ~0 iff the design is rotatable there.
    Raises ValueError naming the radius when the index is not finite (its
    SPVs or their squares overflow, from about radius 1e50 at k = 3)."""
    radius = _check_positive("radius", radius)
    F = _sphere_rows(design.k, radius)  # warns where its rows overflow, as model rows do
    with np.errstate(over="ignore", invalid="ignore"):
        index = float(np.std(_spv(design.n, information_inverse(design), F)))
    if not math.isfinite(index):
        raise ValueError(f"rotatability index at radius {radius!r} is not finite")
    return index


def sample_region(region: Region, k: int, n: int,
                  seed: int | np.random.Generator) -> np.ndarray:
    """n uniform samples from the region, drawn from
    np.random.default_rng(seed): seeded and reproducible for an int seed,
    and the next draws of the stream for a Generator, which default_rng
    returns unchanged.  k and n are checked by design._check_integer
    (1 <= k <= _MAX_K, 0 <= n <= _MAX_SAMPLES)."""
    k = _check_integer("k", k, 1, _MAX_K)
    n = _check_integer("n", n, 0, _MAX_SAMPLES)
    rng = np.random.default_rng(seed)
    if region.shape is RegionShape.CUBOIDAL:
        return rng.uniform(-region.size, region.size, size=(n, k))
    g = rng.standard_normal((n, k))
    g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
    g *= (region.size * rng.random(n) ** (1.0 / k))[:, None]
    return g


# monte_carlo_moments' samples per draw: the ball sampler draws directions
# and radii per chunk, so this size is part of the seeded stream.
_MC_CHUNK = 100_000

# sample_region's most samples, refused before any is drawn: 10**7 of them
# take 0.96 GB at k = 12, and no caller draws more than 200,000 at once.
_MAX_SAMPLES = 10 ** 7


def monte_carlo_moments(region: Region, k: int, n: int,
                        seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of the region-moments matrix and the standard
    error of each entry, from n >= 2 seeded uniform samples; the
    independent check for region_moments.

    Samples are drawn in chunks of _MC_CHUNK points, and the chunk size
    fixes the seeded stream: the ball sampler draws all of a chunk's
    directions before its radii, so another chunk size would draw other
    points.  Each chunk is accumulated in tiles of _spv_width(p) rows, the
    block an _spv scan expands: F'F and (F*F)'(F*F) are summed from the
    tile's model matrix F, which stays in cache, instead of from a
    chunk-sized F written once and streamed from memory twice.  Tiling
    reorders the sums only, so it moves no result by more than rounding.
    k and n are checked by design._check_integer (2 <= k <= _MAX_K, and
    n >= 2 for a standard error) before any sample is drawn.
    """
    k = _check_integer("k", k, 2, _MAX_K)
    n = _check_integer("n", n, 2)
    p = num_params(k)
    width = _spv_width(p)
    total = np.zeros((p, p))
    total_sq = np.zeros((p, p))
    rng = np.random.default_rng(seed)
    done = 0
    while done < n:
        m = min(_MC_CHUNK, n - done)
        pts = sample_region(region, k, m, rng)
        for start in range(0, m, width):
            F = expand_points(pts[start:start + width])
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

    def as_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.FIELDS}
        d["g_max_location"] = "(" + " ".join(f"{c:g}" for c in self.g_max_location) + ")"
        return d


CriteriaReport.FIELDS = tuple(f.name for f in fields(CriteriaReport))


def criteria_report(design: Design, region: Region | None = None,
                    grid_step: float | None = None) -> CriteriaReport:
    """Evaluate every criterion for one design.

    v_avg is reported under both default region conventions, the unit
    cube and the sphere of radius sqrt(k); g_max uses the given region
    (unit cube when omitted) plus the design points and probes; the
    rotatability index is taken on the unit sphere.  Each criterion is its
    public function's value: probe_spv, g_max, a_trace, v_avg and
    rotatability_index.
    """
    if region is None:
        region = Region(RegionShape.CUBOIDAL, 1.0)
    k = design.k
    f, a, c = probe_spv(design)
    gmax, loc = g_max(design, region, grid_step)
    return CriteriaReport(
        alpha=design.alpha,
        a_trace=a_trace(design),
        spv_factorial=f,
        spv_axial=a,
        spv_center=c,
        g_max=gmax,
        g_max_location=loc,
        g_eff=num_params(k) / gmax,
        v_avg_cuboidal=v_avg(design, Region(RegionShape.CUBOIDAL, 1.0)),
        v_avg_spherical=v_avg(design, Region(RegionShape.SPHERICAL, math.sqrt(k))),
        rotatability_index=rotatability_index(design, 1.0),
    )
