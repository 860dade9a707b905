"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1 and 2 compare the recomputed loss cells against the
reference tables at 1.5 units of the last printed digit.  The printed
cells are ratios of A-traces truncated to 4 decimals (the same truncation
as the printed A column, e.g. 1.5416 for an exact 1.54166...), so they are
reproduced through `verify.paper_loss`; the exact `loss_precision` is held
to that convention within the bound the truncation allows.
"""

import math
import time

import numpy as np
import pytest

from ccdrobust.cli import main
from ccdrobust.criteria import (
    Region,
    RegionShape,
    information_inverse,
    monte_carlo_moments,
    probe_spv,
    region_moments,
    rotatability_index,
    sample_region,
    spv_many,
    v_avg,
)
from ccdrobust.design import PointClass, gen_ccd
from ccdrobust.fixtures import LOSS_TABLES, SPV_TABLES, ulp_tolerance
from ccdrobust.linalg import hat_trace
from ccdrobust.missing import delete_rows, increase_in_variance, loss_precision
from ccdrobust.model import expand_point, model_matrix, num_params
from ccdrobust.verify import _truncate, calibrate_v_region, paper_loss, verify_table

CUBE1 = Region(RegionShape.CUBOIDAL, 1.0)
CLASSES = {"factorial": PointClass.FACTORIAL, "axial": PointClass.AXIAL,
           "center": PointClass.CENTER}


def report(num, ok, text):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def loss_cells(tid):
    """A-trace check, plus every printed loss cell reproduced at 1.5 ulp by
    the truncated-trace convention.  The exact `loss_precision` must agree
    with that convention within the truncation bound: with exact traces
    T_f, T_r, their truncations t_f, t_r and e = T - t in [0, 1e-4),
    |T_r/T_f - t_r/t_f| = |t_r e_f - t_f e_r| / (T_f t_f)
                        < 1e-4 max(t_f, t_r) / (T_f t_f)."""
    spec = LOSS_TABLES[tid]
    fails, total = [], 0
    a_ok = True
    for alpha_s, a_s, f_s, ax_s, c_s in spec["rows"]:
        full = gen_ccd(spec["k"], float(alpha_s), spec["n0"])
        a = float(np.trace(information_inverse(full)))
        a_ok &= abs(a - float(a_s)) <= 2e-4
        for cls, exp_s in (("factorial", f_s), ("axial", ax_s), ("center", c_s)):
            res = delete_rows(full, [full.rows_of_class(CLASSES[cls])[0]])
            a_res = float(np.trace(information_inverse(res)))
            val = paper_loss(a, a_res)
            t_f, t_r = _truncate(a), _truncate(a_res)
            bound = 1e-4 * max(t_f, t_r) / (a * t_f)
            total += 1
            if (abs(val - float(exp_s)) > ulp_tolerance(exp_s)
                    or abs(loss_precision(full, res) - val) > bound):
                fails.append((alpha_s, cls, exp_s, val))
    return a_ok, fails, total


def test_criterion_01_table_1a():
    t0 = time.perf_counter()
    a_ok, fails, total = loss_cells("1a")
    elapsed = time.perf_counter() - t0
    ok = a_ok and not fails and elapsed < 1.0
    report(1, ok,
           f"table 1a: A-trace +/-0.0002 {'ok' if a_ok else 'FAIL'}; "
           f"loss cells at 1.5 ulp: {total - len(fails)}/{total} "
           f"({elapsed:.2f}s)")


def test_criterion_02_tables_2a_3a_4a():
    t0 = time.perf_counter()
    all_ok, lines = True, []
    for tid in ("2a", "3a", "4a"):
        a_ok, fails, total = loss_cells(tid)
        all_ok &= a_ok and not fails
        lines.append(f"{tid}: {total - len(fails)}/{total}")
    elapsed = time.perf_counter() - t0
    report(2, all_ok and elapsed < 5.0,
           f"loss cells at 1.5 ulp: {', '.join(lines)} ({elapsed:.2f}s)")


def test_criterion_03_full_probe_spv():
    t0 = time.perf_counter()
    worst = 0.0
    for tid, spec in SPV_TABLES.items():
        for alpha_s, missing, vf_s, va_s, vc_s, _v in spec["rows"]:
            if missing != "none":
                continue
            full = gen_ccd(spec["k"], float(alpha_s), spec["n0"])
            for exp_s, val in zip((vf_s, va_s, vc_s), probe_spv(full)):
                worst = max(worst, abs(val - float(exp_s)))
    elapsed = time.perf_counter() - t0
    report(3, worst <= 0.01 and elapsed < 1.0,
           f"full-design probe SPVs, worst |dev| {worst:.4f} <= 0.01 "
           f"({elapsed:.2f}s)")


def test_criterion_04_residual_probe_spv():
    t0 = time.perf_counter()
    total, within = 0, 0
    exceptions = []
    for tid, spec in SPV_TABLES.items():
        for alpha_s, missing, vf_s, va_s, vc_s, _v in spec["rows"]:
            if missing == "none":
                continue
            full = gen_ccd(spec["k"], float(alpha_s), spec["n0"])
            res = delete_rows(full, [full.rows_of_class(CLASSES[missing])[0]])
            for exp_s, val in zip((vf_s, va_s, vc_s), probe_spv(res)):
                total += 1
                if abs(val - float(exp_s)) <= 0.02:
                    within += 1
                else:
                    exceptions.append((tid, alpha_s, missing, exp_s))
    elapsed = time.perf_counter() - t0
    frac = within / total
    for exc in exceptions:
        print(f"    documented exception: {exc}")
    report(4, frac >= 0.95 and elapsed < 5.0,
           f"residual probe SPVs (N-1 scaling): {within}/{total} within "
           f"+/-0.02 ({100 * frac:.1f}%), {len(exceptions)} exceptions "
           f"({elapsed:.2f}s)")


def test_criterion_05_hat_trace():
    worst = 0.0
    for tid, spec in LOSS_TABLES.items():
        k, n0 = spec["k"], spec["n0"]
        for alpha_s, *_rest in spec["rows"]:
            full = gen_ccd(k, float(alpha_s), n0)
            X = model_matrix(full)
            worst = max(worst, abs(hat_trace(X) - num_params(k)))
            for row in range(full.n):
                Xr = np.delete(X, row, axis=0)
                worst = max(worst, abs(hat_trace(Xr) - num_params(k)))
    report(5, worst < 1e-9,
           f"trace(H) = p for all full and single-deletion designs, "
           f"worst |dev| {worst:.2e} < 1e-9")


def test_criterion_06_rotatability():
    ok = True
    details = []
    for k in (2, 3, 4, 5):
        alpha = 2 ** (k / 4)
        idx = rotatability_index(gen_ccd(k, alpha, 4), 1.0, 200)
        ok &= idx < 1e-6
        details.append(f"k={k}: {idx:.1e}")
    idx_non = rotatability_index(gen_ccd(2, 1.0, 4), 1.0, 200)
    ok &= idx_non > 0.05
    report(6, ok,
           f"rotatability index < 1e-6 at alpha = 2^(k/4) ({', '.join(details)}); "
           f"k=2 alpha=1: {idx_non:.3f} > 0.05")


def test_criterion_07_deletion_symmetry():
    worst = 0.0
    for k in (2, 3, 4, 5):
        for alpha in (1.0, 2 ** (k / 4)):
            full = gen_ccd(k, alpha, 4)
            for cls in PointClass:
                losses = [loss_precision(full, delete_rows(full, [i]))
                          for i in full.rows_of_class(cls)]
                worst = max(worst, max(losses) - min(losses))
    report(7, worst < 1e-10,
           f"within-class deletion loss spread, worst {worst:.2e} < 1e-10")


def test_criterion_08_moments_oracle():
    n, seed = 1_000_000, 5
    ok = True
    worst_sigma = 0.0
    for k in (2, 3, 4, 5):
        for shape in (RegionShape.CUBOIDAL, RegionShape.SPHERICAL):
            region = Region(shape, 1.0 if shape is RegionShape.CUBOIDAL
                            else math.sqrt(k))
            analytic = region_moments(region, k)
            mc, se = monte_carlo_moments(region, k, n, seed=seed)
            sig = np.abs(mc - analytic) / np.maximum(se, 1e-15)
            sig[se == 0] = 0.0
            worst_sigma = max(worst_sigma, float(sig.max()))
            ok &= bool(np.all(sig <= 3.0))
    # v_avg vs Monte-Carlo mean of SPV, 1% relative
    worst_rel = 0.0
    for k, alpha in ((2, 1.0), (3, 1.681), (4, 2.0), (5, 2.378)):
        d = gen_ccd(k, alpha, 4)
        for shape in (RegionShape.CUBOIDAL, RegionShape.SPHERICAL):
            region = Region(shape, 1.0 if shape is RegionShape.CUBOIDAL
                            else math.sqrt(k))
            analytic = v_avg(d, region)
            mc = float(np.mean([
                spv_many(d, sample_region(region, k, 100_000, seed + i)).mean()
                for i in range(10)]))
            worst_rel = max(worst_rel, abs(mc - analytic) / analytic)
    ok &= worst_rel < 0.01
    report(8, ok,
           f"moments MC oracle (10^6 samples, seed {seed}): worst "
           f"{worst_sigma:.2f} sigma <= 3; v_avg MC rel err "
           f"{100 * worst_rel:.3f}% < 1%")


def test_criterion_09_rank_one_oracle():
    worst = 0.0
    for tid, spec in LOSS_TABLES.items():
        k, n0 = spec["k"], spec["n0"]
        for alpha_s, *_rest in spec["rows"]:
            full = gen_ccd(k, float(alpha_s), n0)
            from ccdrobust.criteria import information_inverse
            Minv = information_inverse(full)
            for row in range(full.n):
                f = expand_point(full.coords[row])
                predicted = float(f @ Minv @ Minv @ f) / (1.0 - float(f @ Minv @ f))
                actual = increase_in_variance(full, delete_rows(full, [row]))
                worst = max(worst, abs(actual - predicted))
    report(9, worst < 1e-9,
           f"rank-one-update oracle for every single deletion, worst "
           f"|dev| {worst:.2e} < 1e-9")


def test_criterion_10_v_region_calibration():
    cal = calibrate_v_region()
    recorded = cal.verdict in set(cal.max_rel_error) | {"unreconciled"}
    report(10, recorded,
           f"V-column calibration verdict recorded: {cal.verdict} "
           f"(max rel err {cal.max_rel_error.get(cal.verdict, float('nan')):.4f}); "
           f"k=4/5 annotation: printed averages reproduce only with the "
           f"interaction block dropped from the moments matrix")


def test_criterion_11_qualitative_shapes():
    ok = True
    notes = []
    for k in (2, 3):
        full = gen_ccd(k, 1.0, 4)
        losses = {cls: loss_precision(full, delete_rows(
            full, [full.rows_of_class(CLASSES[cls])[0]]))
            for cls in ("factorial", "axial", "center")}
        good = losses["factorial"] > losses["axial"] > losses["center"]
        ok &= good
        notes.append(f"k={k} f>a>c: {good}")
    for k in (4, 5):
        full = gen_ccd(k, 1.0, 4)
        losses = {cls: loss_precision(full, delete_rows(
            full, [full.rows_of_class(CLASSES[cls])[0]]))
            for cls in ("factorial", "axial", "center")}
        good = losses["axial"] == max(losses.values())
        ok &= good
        notes.append(f"k={k} axial largest: {good}")
    # k=5 center-loss curve peaks near alpha ~ 2.31
    grid = np.arange(1.8, 2.8001, 0.01)
    center_losses = []
    for alpha in grid:
        full = gen_ccd(5, float(alpha), 4)
        res = delete_rows(full, [full.rows_of_class(PointClass.CENTER)[0]])
        center_losses.append(loss_precision(full, res))
    peak = float(grid[int(np.argmax(center_losses))])
    ok &= 2.2 <= peak <= 2.45
    notes.append(f"k=5 center peak at alpha={peak:.2f} in [2.2, 2.45]")
    report(11, ok, "; ".join(notes))


def test_criterion_12_determinism(tmp_path):
    names = ("loss_k2.csv", "loss_k2_long.csv", "criteria_k2.csv",
             "loss_k2.svg", "loss_k2_long.csv")
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["sweep", "--k", "2", "--alphas", "1.0,1.414,2.0",
                     "--out", str(out)]) == 0
        assert main(["plot", "--k", "2", "--metric", "loss",
                     "--alphas", "1.0,1.414,2.0", "--out", str(out)]) == 0
        outs.append({name: (out / name).read_bytes() for name in names})
    ok = outs[0] == outs[1]
    report(12, ok, "repeated sweep+plot runs produce byte-identical "
                   "CSV and SVG artifacts")


def test_verify_harness_gated_summary():
    # companion summary: the harness's own gate over all embedded tables
    gated = [c for tid in list(LOSS_TABLES) + list(SPV_TABLES)
             for c in verify_table(tid) if c.gated]
    passed = sum(c.passed for c in gated)
    print(f"    verify harness: {passed}/{len(gated)} gated cells at 1.5 ulp")
    assert passed / len(gated) > 0.80
