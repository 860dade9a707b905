"""Missing-observation analysis: residual designs and their criteria.

Deleting rows from a design partitions the information matrix as
X'X = X'_m X_m + X'_r X_r.  The loss in precision of the parameter
estimates is the relative increase of the A-trace,
trace((X'_r X_r)^{-1}) / trace((X'X)^{-1}) - 1, and the predictive
damage is summarized by the G- and V-efficiencies of the residual
design relative to the full one.

Each design's SPV is scaled by its own run count, so a residual design's
by N - m: SPV is a per-observation quantity, and this is the convention
of the reference tables (`verify.resolve_spv_scale` compares it with
scaling by the full N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .criteria import (Region, _a_traces, _g_scan, _probe_rows, _spv, _v_from_moments,
                       a_trace, g_max, region_moments, v_avg)
from .design import Design, PointClass, _Symmetry, _check_ccd_args, _check_integer, gen_ccd
from .linalg import SingularMatrixError
from .model import model_matrix

__all__ = [
    "LossReport",
    "delete_rows",
    "increase_in_variance",
    "loss_precision",
    "relative_g_efficiency",
    "relative_v_efficiency",
    "scenario_sweep",
]


def delete_rows(design: Design, indices: list[int]) -> Design:
    """Residual design with the given rows removed, in their order.  Raises
    TypeError for an index that is a bool or not an integer, ValueError for
    repeated ones, IndexError for one out of range.  The residual expands
    its own model rows and probe rows, each the parent's to the bit."""
    indices = [_check_integer("row index", i, -math.inf) for i in indices]
    if len(set(indices)) != len(indices):
        raise ValueError("deleted indices must be distinct")
    for i in indices:
        if not 0 <= i < design.n:
            raise IndexError(f"row index {i} out of range for n={design.n}")
    keep = np.ones(design.n, dtype=bool)
    keep[indices] = False
    return Design(design.alpha, design.coords[keep], design.classes[keep])


def increase_in_variance(full: Design, residual: Design) -> float:
    """Increase of the A-trace caused by the missing rows:
    trace((X'_r X_r)^{-1}) - trace((X'X)^{-1}); always >= 0."""
    return a_trace(residual) - a_trace(full)


def loss_precision(full: Design, residual: Design) -> float:
    """Relative loss in precision of the parameter estimates:
    trace((X'_r X_r)^{-1}) / trace((X'X)^{-1}) - 1."""
    return _loss(a_trace(full), a_trace(residual))


def relative_g_efficiency(full: Design, residual: Design, region: Region,
                          grid_step: float | None = None) -> float:
    """Ratio of the full design's maximum SPV to the residual design's,
    each scaled by its own run count; > 1 means the deletion did little
    harm."""
    g_full, _ = g_max(full, region, grid_step)
    g_res, _ = g_max(residual, region, grid_step)
    return _efficiency(g_full, g_res)


def relative_v_efficiency(full: Design, residual: Design, region: Region) -> float:
    """Ratio of the full design's average SPV over the region to the
    residual design's."""
    return _efficiency(v_avg(full, region), v_avg(residual, region))


def _loss(a_full: float, a_res: float) -> float:
    """The loss in precision from the two A-traces, for loss_precision and
    scenario_sweep."""
    return a_res / a_full - 1.0


def _efficiency(full: float, res: float) -> float:
    """A relative efficiency from the full design's G or V and the
    residual's, for relative_g_efficiency, relative_v_efficiency and
    scenario_sweep."""
    return full / res


@dataclass
class LossReport:
    """One row of the loss/efficiency table: a full design at one alpha
    and the effect of deleting one point of each class.

    A value of None marks a cell whose residual design was inestimable.
    """

    alpha: float
    a_full: float
    loss_factorial: float | None = None
    loss_axial: float | None = None
    loss_center: float | None = None
    re_g_factorial: float | None = None
    re_g_axial: float | None = None
    re_g_center: float | None = None
    re_v_factorial: float | None = None
    re_v_axial: float | None = None
    re_v_center: float | None = None
    inestimable: list[str] = field(default_factory=list)

    FIELDS = ("alpha", "a_full",
              "loss_factorial", "loss_axial", "loss_center",
              "re_g_factorial", "re_g_axial", "re_g_center",
              "re_v_factorial", "re_v_axial", "re_v_center")


def scenario_sweep(k: int, n0: int, alphas: list[float], region: Region,
                   grid_step: float | None = None) -> list[LossReport]:
    """For each alpha: build the full CCD, delete one representative
    point of each class in turn, and collect loss and relative G/V
    efficiency.  Inestimable cells are flagged, not raised; an inestimable
    full design raises SingularMatrixError naming its alpha.

    The four designs of an alpha are scored as one stack, each value equal
    to the bit to what the per-design functions (loss_precision,
    relative_g_efficiency, relative_v_efficiency) give:
    - each residual's model matrix is the full design's without the
      class's first row in gen_ccd's order (0, 2^k, 2^k + 2k), joined
      from the rows before and after it, column-major as expand_points
      writes them; each X'X is formed alone;
    - the four X'X are inverted in one linalg.invert call, or, if one is
      singular, each alone, so that only a singular residual is flagged;
    - the A-traces, the V values and each design's G over its rows and the
      probes take one stacked call each, the last the SPV over [full rows;
      probes] with each residual's deleted row masked;
    - with a grid, each design's G is the larger of that and the maximum
      g_max's scan (criteria._g_scan) finds over its grid domain, from its
      symmetry, which is the same at every alpha (_sweep_symmetries).
    The loss and the efficiencies are the per-design functions' _loss and
    _efficiency; each design's G enters by its value alone.
    """
    tags = [cls.value for cls in PointClass]
    k, _, n0 = _check_ccd_args(k, None, n0)
    deleted = (0, 2 ** k, 2 ** k + 2 * k)
    reports = []
    for alpha in alphas:
        full = gen_ccd(k, alpha, n0)
        n = full.n
        X = model_matrix(full)
        models = [X] + [np.concatenate((X[:row], X[row + 1:])) for row in deleted]
        Minv, live = _invert_stack(alpha, np.stack([Xd.T @ Xd for Xd in models]))
        ns = np.array([n, n - 1, n - 1, n - 1])[live]
        a = _a_traces(Minv).tolist()
        v = _v_from_moments(ns, Minv, region_moments(region, k), region).tolist()
        F = np.vstack([X, _probe_rows(full)])
        S = _spv(ns, Minv, F)
        for j, i in enumerate(live[1:], 1):
            S[j, deleted[i - 1]] = -np.inf
        g = S.max(axis=1).tolist()
        if grid_step is not None:
            sym = _sweep_symmetries(k)
            g = [max(g[j], _g_scan(ns[j], Minv[j], k, sym[i], region, grid_step)[0])
                 for j, i in enumerate(live)]
        rep = LossReport(alpha=alpha, a_full=a[0])
        for j, i in enumerate(live[1:], 1):
            tag = tags[i - 1]
            setattr(rep, f"loss_{tag}", _loss(a[0], a[j]))
            setattr(rep, f"re_g_{tag}", _efficiency(g[0], g[j]))
            setattr(rep, f"re_v_{tag}", _efficiency(v[0], v[j]))
        rep.inestimable = [tags[i - 1] for i in (1, 2, 3) if i not in live]
        reports.append(rep)
    return reports


def _sweep_symmetries(k: int) -> tuple[_Symmetry, ...]:
    """The _symmetry of gen_ccd(k, alpha, n0) and of the residuals
    scenario_sweep scores, from Box and Hunter's (1957) CCD layout: every
    flip and swap for the full design and without a center run; the swaps
    without row 0, the (-1, ..., -1) vertex; the flips and swaps of axes
    2..k without row 2^k, (-alpha, 0, ..., 0).  n0 and alpha > 0 do not
    matter: center runs sit at the origin, and an axial run has one nonzero
    coordinate, so it never equals a vertex or the center."""
    axes = tuple(range(k))
    return (axes, (axes,)), ((), (axes,)), (axes[1:], ((0,), axes[1:])), (axes, (axes,))


def _invert_stack(alpha: float, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The inverses of the estimable matrices of the stack M (the full
    design's first) and their indices in it: all of M, inverted in one
    call, or, when that call finds a singular matrix, each inverted alone.
    Raises SingularMatrixError naming alpha when the full design is the
    singular one."""
    try:
        return linalg.invert(M), list(range(len(M)))
    except SingularMatrixError:
        pass
    inverses, live = [], []
    for i in range(len(M)):
        try:
            inverses.append(linalg.invert(M[i]))
        except SingularMatrixError as exc:
            if i == 0:
                raise SingularMatrixError(
                    f"the full design at alpha={alpha:g} is inestimable ({exc})") from exc
            continue
        live.append(i)
    return np.stack(inverses), live
