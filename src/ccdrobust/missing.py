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

from dataclasses import dataclass, field

import numpy as np

from .criteria import Region, _probe_rows, a_trace, g_max, v_avg
from .design import Design, PointClass, gen_ccd
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
    repeated ones, IndexError for one out of range.  The residual's model
    matrix is the parent's kept rows, column-major as expand_points writes
    it, so X'X is a fresh expansion's to the bit; its probe rows are the
    parent's."""
    for i in indices:
        if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
            raise TypeError(f"row index {i!r} is not an integer")
    if len(set(indices)) != len(indices):
        raise ValueError("deleted indices must be distinct")
    for i in indices:
        if not 0 <= i < design.n:
            raise IndexError(f"row index {i} out of range for n={design.n}")
    keep = np.ones(design.n, dtype=bool)
    keep[list(indices)] = False
    residual = Design(design.alpha, design.coords[keep], design.classes[keep])
    residual._memo("model_matrix", lambda: np.asfortranarray(model_matrix(design)[keep]))
    residual._memo("probe_rows", lambda: _probe_rows(design))
    return residual


def increase_in_variance(full: Design, residual: Design) -> float:
    """Increase of the A-trace caused by the missing rows:
    trace((X'_r X_r)^{-1}) - trace((X'X)^{-1}); always >= 0."""
    return a_trace(residual) - a_trace(full)


def loss_precision(full: Design, residual: Design) -> float:
    """Relative loss in precision of the parameter estimates:
    trace((X'_r X_r)^{-1}) / trace((X'X)^{-1}) - 1."""
    return a_trace(residual) / a_trace(full) - 1.0


def relative_g_efficiency(full: Design, residual: Design, region: Region,
                          grid_step: float | None = None) -> float:
    """Ratio of the full design's maximum SPV to the residual design's,
    each scaled by its own run count; > 1 means the deletion did little
    harm."""
    g_full, _ = g_max(full, region, grid_step)
    g_res, _ = g_max(residual, region, grid_step)
    return g_full / g_res


def relative_v_efficiency(full: Design, residual: Design, region: Region) -> float:
    """Ratio of the full design's average SPV over the region to the
    residual design's."""
    return v_avg(full, region) / v_avg(residual, region)


@dataclass
class LossReport:
    """One row of the loss/efficiency table: a full design at one alpha
    and the effect of deleting one point of each class.

    A value of None marks a cell whose residual design was inestimable.
    `full` is the full design itself, which FIELDS leaves out.
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
    full: Design | None = field(default=None, repr=False, compare=False)

    FIELDS = ("alpha", "a_full",
              "loss_factorial", "loss_axial", "loss_center",
              "re_g_factorial", "re_g_axial", "re_g_center",
              "re_v_factorial", "re_v_axial", "re_v_center")


def scenario_sweep(k: int, n0: int, alphas: list[float], region: Region,
                   grid_step: float | None = None) -> list[LossReport]:
    """For each alpha: build the full CCD, delete one representative
    point of each class in turn, and collect loss and relative G/V
    efficiency.  Inestimable cells are flagged, not raised; an inestimable
    full design raises SingularMatrixError naming its alpha."""
    reports = []
    for alpha in alphas:
        full = gen_ccd(k, alpha, n0)
        try:
            a_full = a_trace(full)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"the full design at alpha={alpha:g} is inestimable ({exc})") from exc
        rep = LossReport(alpha=alpha, a_full=a_full, full=full)
        for cls in PointClass:
            row = full.rows_of_class(cls)[0]
            residual = delete_rows(full, [row])
            tag = cls.value
            try:
                setattr(rep, f"loss_{tag}", loss_precision(full, residual))
                setattr(rep, f"re_g_{tag}",
                        relative_g_efficiency(full, residual, region, grid_step))
                setattr(rep, f"re_v_{tag}",
                        relative_v_efficiency(full, residual, region))
            except SingularMatrixError:
                rep.inestimable.append(tag)
        reports.append(rep)
    return reports
