"""Recompute every embedded reference-table cell and report deviations.

Each cell is compared at a tolerance of 1.5 units in its last printed
digit.  Cells can be "gated" (they count toward the overall pass/fail
verdict) or informational.  The V-average column is gated only for the
k values where the region calibration reproduces the printed numbers
under the documented convention (unit cube, full moments matrix); for
k = 4 and 5 the printed averages match only a defective moments matrix
with the interaction block dropped, so those cells are annotated and
reported without gating.

The printed loss cells are ratios of A-traces truncated to the four
decimals of the printed A column, trunc4(tr_res) / trunc4(tr_full) - 1,
not the exact ratio that `loss_precision` returns.  The exact values stay
gated; `paper_loss` reproduces the printed convention in ungated
`[paper-trunc4]` cells, as `_paper_v_average` does for the k = 4/5 V
averages.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .criteria import (Region, RegionShape, _v_from_moments, a_trace,
                       information_inverse, probe_spv, region_moments, v_avg)
from .design import Design, PointClass, gen_ccd
from .fixtures import LOSS_TABLES, SPV_TABLES, ulp_tolerance
from .missing import delete_rows, loss_precision

__all__ = [
    "CellCheck",
    "CalibrationResult",
    "paper_loss",
    "verify_tables",
    "calibrate_v_region",
    "resolve_spv_scale",
]

@dataclass
class CellCheck:
    table: str
    alpha: str
    missing: str          # "none" for full-design rows, "" for loss tables
    column: str
    expected: str
    computed: float
    gated: bool

    @property
    def tolerance(self) -> float:
        return ulp_tolerance(self.expected)

    @property
    def deviation(self) -> float:
        return abs(self.computed - float(self.expected))

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@functools.lru_cache(maxsize=None)  # bounded by the fixture: 104 designs
def _fixture_design(k: int, alpha: float, n0: int, missing: str) -> Design:
    """The CCD of a fixture row, less the first run of the `missing` class
    ("none" keeps every run).  Each design is built once, so the loss
    tables, the SPV tables, the calibration and the scale resolution share
    its cached inverse."""
    if missing == "none":
        return gen_ccd(k, alpha, n0)
    full = _fixture_design(k, alpha, n0, "none")
    return delete_rows(full, [full.rows_of_class(PointClass(missing))[0]])


_PAPER_DECIMALS = 4    # decimals of the printed A column


def _truncate(x: float) -> float:
    """Cut a non-negative `x` to the printed A column's 4 decimals
    (1.541666... -> 1.5416).  Rounding x * 10**4 to 6 places first keeps a
    value that lands on a digit boundary, such as 17/16 = 1.0625, from
    being cut to the digit below when binary round-off leaves it at
    1.06249999..."""
    scale = 10 ** _PAPER_DECIMALS
    return math.floor(round(x * scale, 6)) / scale


def paper_loss(a_full: float, a_res: float) -> float:
    """Loss in precision under the convention that reproduces the printed
    loss tables: the ratio of the residual and full A-traces, each
    truncated to the 4 decimals of the printed A column, minus one."""
    return _truncate(a_res) / _truncate(a_full) - 1.0


def _verify_loss_table(tid: str) -> list[CellCheck]:
    spec = LOSS_TABLES[tid]
    k, n0 = spec["k"], spec["n0"]
    checks = []
    for alpha_s, a_s, f_s, ax_s, c_s in spec["rows"]:
        full = _fixture_design(k, float(alpha_s), n0, "none")
        a_full = a_trace(full)
        checks.append(CellCheck(tid, alpha_s, "", "a_trace", a_s, a_full, True))
        for cls, exp_s in zip((c.value for c in PointClass), (f_s, ax_s, c_s)):
            residual = _fixture_design(k, float(alpha_s), n0, cls)
            checks.append(CellCheck(tid, alpha_s, cls, f"loss_{cls}", exp_s,
                                    loss_precision(full, residual), True))
            checks.append(CellCheck(tid, alpha_s, cls, f"loss_{cls}[paper-trunc4]",
                                    exp_s, paper_loss(a_full, a_trace(residual)), False))
    return checks


def _paper_v_average(design: Design, k: int) -> float:
    """V under the convention that reproduces the printed averages:
    unit-cube moments, with the interaction block dropped for k >= 4."""
    cube = Region(RegionShape.CUBOIDAL, 1.0)
    M = region_moments(cube, k)
    if k >= 4:
        ni = k * (k - 1) // 2
        M = M.copy()
        M[-ni:, :] = 0.0
        M[:, -ni:] = 0.0
    return float(_v_from_moments(design.n, information_inverse(design), M, cube))


def _verify_spv_table(tid: str) -> list[CellCheck]:
    spec = SPV_TABLES[tid]
    k, n0 = spec["k"], spec["n0"]
    checks = []
    for alpha_s, missing, vf_s, va_s, vc_s, v_s in spec["rows"]:
        design = _fixture_design(k, float(alpha_s), n0, missing)
        for col, exp_s, val in zip(("spv_factorial", "spv_axial", "spv_center"),
                                   (vf_s, va_s, vc_s), probe_spv(design)):
            checks.append(CellCheck(tid, alpha_s, missing, col, exp_s, val, True))
        # V column: gate k=2,3 under the calibrated unit-cube convention;
        # k=4,5 reproduce only the interaction-dropped matrix (annotated).
        v_cal = v_avg(design, Region(RegionShape.CUBOIDAL, 1.0))
        checks.append(CellCheck(tid, alpha_s, missing, "v_avg", v_s, v_cal, k <= 3))
        if k > 3:
            checks.append(CellCheck(tid, alpha_s, missing, "v_avg[paper-moments]",
                                    v_s, _paper_v_average(design, k), False))
    return checks


# Each table id, in the default order, with the function that checks it.
_CHECKERS = {**{tid: _verify_loss_table for tid in sorted(LOSS_TABLES)},
             **{tid: _verify_spv_table for tid in sorted(SPV_TABLES)}}


def verify_tables(tids: list[str] | None = None) -> list[CellCheck]:
    """Each table's cells, each id once in the order given (none: all).
    ValueError for the first id that names no table, before any is computed."""
    tids = list(dict.fromkeys(tids or _CHECKERS))
    for tid in tids:
        if tid not in _CHECKERS:
            raise ValueError(f"unknown table id {tid!r}")
    return [c for tid in tids for c in _CHECKERS[tid](tid)]


@dataclass
class CalibrationResult:
    """Outcome of matching the k=2 V column against candidate regions."""

    verdict: str                      # convention name, or "unreconciled"
    max_rel_error: dict[str, float]   # per candidate, worst relative error


def calibrate_v_region() -> CalibrationResult:
    """Identify which region convention reproduces the k=2 full-design V
    column, trying each region shape at size 1 and at size alpha, named
    "cuboidal(1)" .. "spherical(alpha)": the closest one, if its worst
    relative error is at most 2%."""
    spec = SPV_TABLES["1b"]
    rows = [(float(a), float(v)) for a, miss, *_rest, v in spec["rows"]
            if miss == "none"]
    errs: dict[str, float] = {}
    for alpha, target in rows:
        full = _fixture_design(spec["k"], alpha, spec["n0"], "none")
        for shape in RegionShape:
            for label, size in (("1", 1.0), ("alpha", alpha)):
                name = f"{shape.value}({label})"
                rel = abs(v_avg(full, Region(shape, size)) - target) / target
                errs[name] = max(errs.get(name, 0.0), rel)
    best = min(errs, key=errs.get)
    return CalibrationResult(best if errs[best] <= 0.02 else "unreconciled", errs)


def resolve_spv_scale() -> tuple[str, dict[str, float]]:
    """Decide whether residual-design SPV should be scaled by the reduced
    run count or the full one, by matching the residual rows of the k=2
    SPV table under both conventions."""
    spec = SPV_TABLES["1b"]
    devs = {"residual": 0.0, "full": 0.0}
    cells = 0
    for alpha_s, missing, vf_s, va_s, vc_s, _v in spec["rows"]:
        if missing == "none":
            continue
        full = _fixture_design(spec["k"], float(alpha_s), spec["n0"], "none")
        design = _fixture_design(spec["k"], float(alpha_s), spec["n0"], missing)
        mults = {"residual": 1.0, "full": full.n / design.n}
        for exp_s, val in zip((vf_s, va_s, vc_s), probe_spv(design)):
            cells += 1
            for name, mult in mults.items():
                devs[name] += abs(val * mult - float(exp_s))
    mean_devs = {name: dev / cells for name, dev in devs.items()}
    choice = min(mean_devs, key=mean_devs.get)
    return choice, mean_devs
