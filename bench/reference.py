"""Independent numpy recompute of the ccdrobust formulas.

Nothing here imports the package.  The design construction, model
expansion, information inverse (eigenvalue test plus LU solve, where the
package uses Cholesky), SPV, region moments, sphere points (stdlib
``NormalDist`` where the package uses scipy) and Monte-Carlo moments
(``F'F`` accumulation where the package forms per-sample outer products)
are written out again, so that the benchmark can check the package's
outputs on any seed, not only on the seed its golden values come from.
"""

from __future__ import annotations

import itertools
import math
from statistics import NormalDist

import numpy as np

# X'X counts as singular when its smallest eigenvalue is below this share
# of its largest.  The workloads keep every estimable design far above it
# and every inestimable one far below it.
SINGULAR_RTOL = 1e-9
CLASSES = ("factorial", "axial", "center")
# Chunk of the package's Monte-Carlo sampler; the samples of a seed depend
# on it, because the sphere sampler interleaves its two draws per chunk.
MC_CHUNK = 100_000
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def num_params(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def expand(pts) -> np.ndarray:
    """Second-order model rows [1, x, x^2, x_i x_j (i < j, lexicographic)]."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    i, j = np.triu_indices(pts.shape[1], 1)
    return np.hstack([np.ones((len(pts), 1)), pts, pts ** 2, pts[:, i] * pts[:, j]])


def ccd(k: int, alpha: float, n0: int) -> np.ndarray:
    """CCD points: 2^k factorial, 2k axial (-alpha before +alpha), n0 centers."""
    factorial = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
    axial = np.zeros((2 * k, k))
    for axis in range(k):
        axial[2 * axis, axis] = -alpha
        axial[2 * axis + 1, axis] = alpha
    return np.vstack([factorial, axial, np.zeros((n0, k))])


def first_row(k: int, cls: str) -> int:
    return {"factorial": 0, "axial": 2 ** k, "center": 2 ** k + 2 * k}[cls]


def probes(k: int, alpha: float) -> np.ndarray:
    return np.array([[1.0] * k, [alpha] + [0.0] * (k - 1), [0.0] * k])


def inverse(pts: np.ndarray) -> np.ndarray | None:
    """(X'X)^{-1} of the design points, or None when X'X is singular."""
    X = expand(pts)
    M = X.T @ X
    ev = np.linalg.eigvalsh(M)
    if ev[0] <= SINGULAR_RTOL * ev[-1]:
        return None
    return np.linalg.solve(M, np.eye(len(M)))


def spv(Minv: np.ndarray, n: int, pts) -> np.ndarray:
    F = expand(pts)
    return n * ((F @ Minv) * F).sum(axis=1)


def lattice(k: int, step: float, half: float = 1.0):
    """Regular grid over the cube [-half, half]^k, yielded in chunks of
    whole slices along the first axis."""
    n1 = math.floor(half / step + 1e-9)
    axis = np.arange(-n1, n1 + 1) * step
    rest = np.stack(np.meshgrid(*[axis] * (k - 1), indexing="ij"), -1).reshape(-1, k - 1)
    take = max(1, 100_000 // len(rest))
    for start in range(0, len(axis), take):
        vals = axis[start:start + take]
        yield np.column_stack([np.repeat(vals, len(rest)), np.tile(rest, (len(vals), 1))])


def lattice_max(Minv, n, k, step, half=1.0) -> float:
    return max(float(spv(Minv, n, chunk).max()) for chunk in lattice(k, step, half))


def g_max(Minv, n, pts, k, alpha, grid_step=None) -> float:
    """Max SPV over design points, probes and (optionally) the unit-cube grid."""
    best = float(spv(Minv, n, np.vstack([pts, probes(k, alpha)])).max())
    if grid_step is not None:
        best = max(best, lattice_max(Minv, n, k, grid_step))
    return best


def moments(shape: str, size: float, k: int) -> np.ndarray:
    """Uniform-measure E[f f'] over the cube [-size, size]^k or the ball of
    radius size, in the column order of expand()."""
    if shape == "cube":
        m2, m4, m22 = size ** 2 / 3, size ** 4 / 5, size ** 4 / 9
    else:
        m2 = size ** 2 / (k + 2)
        m4 = 3 * size ** 4 / ((k + 2) * (k + 4))
        m22 = size ** 4 / ((k + 2) * (k + 4))
    p = num_params(k)
    M = np.zeros((p, p))
    lin, quad = np.arange(1, k + 1), np.arange(k + 1, 2 * k + 1)
    M[0, 0] = 1.0
    M[lin, lin] = m2
    M[0, quad] = M[quad, 0] = m2
    M[np.ix_(quad, quad)] = m22
    M[quad, quad] = m4
    inter = np.arange(2 * k + 1, p)
    M[inter, inter] = m22
    return M


def v_avg(Minv, n, shape, size, k) -> float:
    return n * float(np.trace(Minv @ moments(shape, size, k)))


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += f * digit
        f /= base
    return inv


def sphere_points(k: int, radius: float, n: int) -> np.ndarray:
    """Equal angles for k = 2; Halton points through the normal quantile,
    normalized, for k >= 3."""
    if k == 2:
        theta = 2 * math.pi * np.arange(n) / n
        return radius * np.column_stack([np.cos(theta), np.sin(theta)])
    inv_cdf = NormalDist().inv_cdf
    g = np.array([[inv_cdf(_radical_inverse(i + 1, _PRIMES[d])) for d in range(k)]
                  for i in range(n)])
    return radius * g / np.linalg.norm(g, axis=1, keepdims=True)


def loss_row(k: int, n0: int, alpha: float, grid_step: float | None = None) -> dict:
    """One scenario_sweep row on the unit cube: A-trace of the full design,
    and the loss and relative G/V efficiency of deleting the first run of
    each class (None with the class listed as inestimable when the residual
    design is singular)."""
    pts = ccd(k, alpha, n0)
    n = len(pts)
    Minv = inverse(pts)
    tr = float(np.trace(Minv))
    g_full = g_max(Minv, n, pts, k, alpha, grid_step)
    v_full = v_avg(Minv, n, "cube", 1.0, k)
    row = {"alpha": alpha, "a_full": tr, "inestimable": []}
    for cls in CLASSES:
        res = np.delete(pts, first_row(k, cls), axis=0)
        Rinv = inverse(res)
        if Rinv is None:
            row["inestimable"].append(cls)
            row.update({f"loss_{cls}": None, f"re_g_{cls}": None, f"re_v_{cls}": None})
            continue
        row[f"loss_{cls}"] = float(np.trace(Rinv)) / tr - 1.0
        row[f"re_g_{cls}"] = g_full / g_max(Rinv, n - 1, res, k, alpha, grid_step)
        row[f"re_v_{cls}"] = v_full / v_avg(Rinv, n - 1, "cube", 1.0, k)
    return row


def criteria_row(k: int, n0: int, alpha: float) -> dict:
    """criteria_report of the full CCD on the unit cube with no G grid, except
    g_max_location, which the caller checks with spv_at()."""
    pts = ccd(k, alpha, n0)
    n = len(pts)
    Minv = inverse(pts)
    f, a, c = spv(Minv, n, probes(k, alpha))
    gmax = g_max(Minv, n, pts, k, alpha)
    return {
        "alpha": alpha,
        "a_trace": float(np.trace(Minv)),
        "spv_factorial": float(f), "spv_axial": float(a), "spv_center": float(c),
        "g_max": gmax,
        "g_eff": num_params(k) / gmax,
        "v_avg_cuboidal": v_avg(Minv, n, "cube", 1.0, k),
        "v_avg_spherical": v_avg(Minv, n, "sphere", math.sqrt(k), k),
        "rotatability_index": float(np.std(spv(Minv, n, sphere_points(k, 1.0, 200)))),
    }


def spv_at(k: int, n0: int, alpha: float, loc) -> float:
    """SPV of the full CCD at one location."""
    pts = ccd(k, alpha, n0)
    return float(spv(inverse(pts), len(pts), [loc])[0])


def in_evaluation_set(k: int, n0: int, alpha: float, loc, tol: float = 1e-9) -> bool:
    """A G-max location must be a design point, a probe, or in the unit cube."""
    loc = np.asarray(loc, dtype=float)
    cands = np.vstack([ccd(k, alpha, n0), probes(k, alpha)])
    return bool(np.all(np.abs(loc) <= 1.0 + tol)
                or np.any(np.all(np.abs(cands - loc) <= tol, axis=1)))


def mc_moments(shape: str, size: float, k: int, n: int, seed: int):
    """Monte-Carlo mean and standard error of f f' from the package's sampler
    stream: per chunk, a uniform cube draw, or normal directions followed by
    radii for the ball."""
    rng = np.random.default_rng(seed)
    p = num_params(k)
    S, Q = np.zeros((p, p)), np.zeros((p, p))
    done = 0
    while done < n:
        m = min(MC_CHUNK, n - done)
        if shape == "cube":
            pts = rng.uniform(-size, size, size=(m, k))
        else:
            g = rng.standard_normal((m, k))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            pts = g * (size * rng.random(m) ** (1.0 / k))[:, None]
        F = expand(pts)
        S += F.T @ F
        F2 = F * F
        Q += F2.T @ F2
        done += m
    mean = S / n
    var = (Q - n * mean ** 2) / (n - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / n)
