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
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .criteria import (Region, _a_traces, _g_scan, _probe_rows, _v_from_moments, a_trace,
                       g_max, region_moments, v_avg)
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
    its own model rows and probe rows, each the parent's to the bit, and
    states the part of the parent's symmetry that fixes every deleted row
    (_fixing)."""
    indices = [_check_integer("row index", i, -math.inf) for i in indices]
    if len(set(indices)) != len(indices):
        raise ValueError("deleted indices must be distinct")
    for i in indices:
        if not 0 <= i < design.n:
            raise IndexError(f"row index {i} out of range for n={design.n}")
    keep = np.ones(design.n, dtype=bool)
    keep[indices] = False
    residual = Design(design.alpha, design.coords[keep], design.classes[keep])
    return residual._stating(_fixing(design._stated_symmetry, design.coords[indices]))


def _fixing(symmetry: _Symmetry, rows: np.ndarray) -> _Symmetry:
    """The part of a design's symmetry (flips, blocks) that fixes each of the
    m x k rows, so that it is a symmetry of the design without them: a flip
    of an axis on which every row is 0, and each block split into the axes
    on which the rows take equal values; canonical as design._Symmetry
    is.  It is a subgroup of the residual's symmetry, and for one deleted
    row of a CCD all its flips and swaps (Box and Hunter's 1957 layout); a
    flip or swap that maps two deleted rows onto each other is lost."""
    flips, blocks = symmetry
    columns = list(map(tuple, rows.T.tolist()))
    parts: dict[tuple, list[int]] = {}
    for b, block in enumerate(blocks):
        for j in block:
            parts.setdefault((b, columns[j]), []).append(j)
    return (tuple(j for j in flips if not any(columns[j])),
            tuple(sorted(map(tuple, parts.values()))))


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

    @property
    def inestimable(self) -> list[str]:
        """The classes whose residual was inestimable, in PointClass order."""
        return [cls.value for cls in PointClass if getattr(self, f"loss_{cls.value}") is None]


LossReport.FIELDS = tuple(f.name for f in fields(LossReport))


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
    - the A-traces and the V values take one stacked call each;
    - each design's G is g_max's scan (criteria._g_scan) of its own model
      rows and the probes, then, with a grid, of the grid domain of its
      symmetry: the full design's as gen_ccd states it, and each
      residual's as delete_rows would (_fixing of its deleted row).
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
        with np.errstate(over="ignore", invalid="ignore"):  # linalg.invert refuses inf
            M = np.stack([Xd.T @ Xd for Xd in models])
        Minv, live = _invert_stack(alpha, M)
        ns = np.array([n, n - 1, n - 1, n - 1])[live]
        a = _a_traces(Minv).tolist()
        v = _v_from_moments(ns, Minv, region_moments(region, k), region).tolist()
        sym = [None] * 4
        if grid_step is not None:
            sym = [full._stated_symmetry]
            sym += [_fixing(sym[0], full.coords[row:row + 1]) for row in deleted]
        probes = _probe_rows(full)
        g = [_g_scan(ns[j], Minv[j], models[i], probes, sym[i], region, grid_step)[0]
             for j, i in enumerate(live)]
        rep = LossReport(alpha=alpha, a_full=a[0])
        for j, i in enumerate(live[1:], 1):
            tag = tags[i - 1]
            setattr(rep, f"loss_{tag}", _loss(a[0], a[j]))
            setattr(rep, f"re_g_{tag}", _efficiency(g[0], g[j]))
            setattr(rep, f"re_v_{tag}", _efficiency(v[0], v[j]))
        reports.append(rep)
    return reports


def _invert_stack(alpha: float, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The inverses of the estimable matrices of the stack M (the full
    design's first) and their indices in it: all of M, inverted in one
    call, or, when that call finds a singular or a non-finite matrix (an
    X'X that overflowed), each inverted alone.  Raises SingularMatrixError
    naming alpha, with linalg's reason, when the full design is that one."""
    try:
        return linalg.invert(M), list(range(len(M)))
    except (SingularMatrixError, ValueError):
        pass
    inverses, live = [], []
    for i in range(len(M)):
        try:
            inverses.append(linalg.invert(M[i]))
        except (SingularMatrixError, ValueError) as exc:
            if i == 0:
                raise SingularMatrixError(
                    f"the full design at alpha={alpha:g} is inestimable ({exc})") from exc
            continue
        live.append(i)
    return np.stack(inverses), live
