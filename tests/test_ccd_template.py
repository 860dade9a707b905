"""gen_ccd's cached alpha = 1 designs against the construction they replace.

Every design gen_ccd scales from its (k, n0) design at alpha = 1
(design._unit_ccd) is compared, byte for byte and with its dtype,
strides, contiguity and write flags, with gen_ccd and expand_points as
they were before that cache (kept below as the oracle): the coordinates
and classes, the model rows and probe rows the design expands, the X'X of
the three residuals in the stack scenario_sweep hands to linalg.invert,
and rotatability_index's sphere rows.
"""

import math
import warnings

import numpy as np
import pytest

from ccdrobust import criteria, design, linalg, missing, verify
from ccdrobust.cli import DEFAULT_ALPHAS, main
from ccdrobust.criteria import (Region, RegionShape, _probe_rows, _sphere_rows, a_trace,
                                criteria_report, sphere_points)
from ccdrobust.design import Design, PointClass, canonical_probe_points, gen_ccd
from ccdrobust.fixtures import LOSS_TABLES, SPV_TABLES
from ccdrobust.missing import delete_rows, scenario_sweep
from ccdrobust.model import model_matrix, num_params

CUBE1 = Region(RegionShape.CUBOIDAL, 1.0)


def _gen_ccd(k, alpha, n0):
    """gen_ccd as it was before templates: every array built on each call."""
    nf = 2 ** k
    coords = np.zeros((nf + 2 * k + n0, k))
    bits = (np.arange(nf)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    coords[:nf] = 2.0 * bits - 1.0
    axes = np.arange(k)
    coords[nf + 2 * axes, axes] = -float(alpha)
    coords[nf + 2 * axes + 1, axes] = float(alpha)
    classes = np.repeat(np.array(list(PointClass), dtype=object), [nf, 2 * k, n0])
    return Design(float(alpha), coords, classes)


def _expand_points(pts):
    """expand_points as it was before templates."""
    pts = np.asarray(pts, dtype=float)
    m, k = pts.shape
    P = np.empty((num_params(k), m))
    P[0] = 1.0
    P[1:1 + k] = pts.T
    np.multiply(P[1:1 + k], P[1:1 + k], out=P[1 + k:1 + 2 * k])
    row = 1 + 2 * k
    for i in range(1, k):
        np.multiply(P[i], P[i + 1:1 + k], out=P[row:row + k - i])
        row += k - i
    return P.T


def _layout(a):
    return (a.dtype, a.shape, a.strides, a.flags.c_contiguous, a.flags.f_contiguous)


def assert_same_array(got, want):
    """The same bytes (so -0.0 counts), dtype, shape, strides and
    contiguity."""
    assert _layout(got) == _layout(want)
    assert got.tobytes() == want.tobytes()


def _alphas(k):
    return [1e-300, 0.5, 1.0, math.sqrt(k), round(math.sqrt(k), 3), 3.5, 1e150]


class _Stacked(Exception):
    """Raised by the test's linalg.invert, to stop a sweep at its stack."""


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("n0", [1, 2, 4, 7])
def test_templates_fill_in_the_oracles_arrays(k, n0, monkeypatch):
    stacks = []

    def capture(M):
        stacks.append(M)
        raise _Stacked
    monkeypatch.setattr(linalg, "invert", capture)
    nf = 2 ** k
    for alpha in _alphas(k):
        d, want = gen_ccd(k, alpha, n0), _gen_ccd(k, alpha, n0)
        assert type(d.alpha) is float and d.alpha == want.alpha
        assert_same_array(d.coords, want.coords)
        assert d.classes.dtype == object and d.classes.shape == want.classes.shape
        assert all(a is b for a, b in zip(d.classes, want.classes))
        assert not d.coords.flags.writeable and not d.classes.flags.writeable

        X, X_want = model_matrix(d), _expand_points(want.coords)
        assert_same_array(X, X_want)
        assert not X.flags.writeable
        P = _probe_rows(d)
        assert_same_array(P, _expand_points(canonical_probe_points(want)))
        assert not P.flags.writeable

        # the sweep's stack: the X'X of the full design and of delete_rows'
        # residuals, whose rows are slices of the oracle's (at alpha = 1e150
        # the products overflow to inf and NaN, silently here)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(_Stacked):
                scenario_sweep(k, n0, [alpha], CUBE1)
            M = stacks.pop()
            assert len(M) == 4
            assert_same_array(M[0], X.T @ X)
            for got, row in zip(M[1:], (0, nf, nf + 2 * k)):
                keep = np.ones(d.n, dtype=bool)
                keep[row] = False
                Xr = model_matrix(delete_rows(d, [row]))
                assert_same_array(Xr, np.asfortranarray(X_want[keep]))
                assert_same_array(got, Xr.T @ Xr)


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("n0", [1, 2, 4, 7])
def test_template_symmetries_hold_at_every_alpha(k, n0, monkeypatch):
    # the symmetries scenario_sweep hands its grid scans, which do not depend
    # on alpha, are those gen_ccd states and delete_rows states for the first
    # run of each class, at every n0 and alpha (test_criteria.py checks them
    # against their definition)
    scanned = []

    def recording(n, Minv, rows, probes, symmetry, region, grid_step):
        scanned.append(symmetry)
        return 1.0, None

    monkeypatch.setattr(missing, "_g_scan", recording)
    rep, = scenario_sweep(k, n0, [1.5], CUBE1, grid_step=1.0)
    assert rep.inestimable == [] and len(scanned) == 4
    seeded = np.random.default_rng(2300 + 10 * k + n0).uniform(0.05, 4.0, 3).tolist()
    for alpha in _alphas(k) + seeded:
        d = gen_ccd(k, alpha, n0)
        stated = [d._stated_symmetry] + [delete_rows(d, [d.rows_of_class(cls)[0]])._stated_symmetry
                                         for cls in PointClass]
        assert stated == scanned, alpha


@pytest.mark.parametrize("k", range(2, 13))
def test_unit_sphere_rows_are_the_expanded_sphere(k):
    for radius in (1.0, 1.2):
        F = _sphere_rows(k, radius)
        assert_same_array(F, _expand_points(sphere_points(k, radius, criteria._ROT_POINTS)))
        assert not F.flags.writeable
        assert _sphere_rows(k, radius) is F


@pytest.mark.parametrize("k", [2, 5])
def test_overflowing_square_warns_where_the_model_is_first_needed(k):
    # alpha * alpha overflows at 1e200: gen_ccd builds the design silently,
    # and the model rows warn, as the expansion does; nothing is kept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = gen_ccd(k, 1e200, 1)
        for rows in (model_matrix, _probe_rows):
            with pytest.raises(RuntimeWarning, match="overflow"):
                rows(d)
        with pytest.raises(RuntimeWarning, match="overflow"):
            _expand_points(d.coords)
        assert d._memoized == {}
        with pytest.raises(RuntimeWarning, match="overflow"):
            scenario_sweep(k, 1, [1e200], CUBE1)
    # with warnings ignored, the rows are the oracle's (inf squares), the
    # inversion refuses them, and the sweep names the full design's alpha
    want = _gen_ccd(k, 1e200, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_same_array(model_matrix(d), _expand_points(want.coords))
        assert_same_array(_probe_rows(d), _expand_points(canonical_probe_points(want)))
        with pytest.raises(ValueError, match="NaN or inf"):
            a_trace(d)
        with pytest.raises(linalg.SingularMatrixError,
                           match=r"alpha=1e\+200 is inestimable \(matrix contains NaN or inf\)"):
            scenario_sweep(k, 1, [1e200], CUBE1)


def test_templates_are_read_only_and_out_of_reach(ccd_templates):
    d, d1 = gen_ccd(3, 1.5, 4), gen_ccd(3, 1.0, 4)
    t = ccd_templates(3, 4)
    assert t is not d and t is not d1 and (t.alpha, t.n, t.k) == (1.0, 18, 3)
    assert_same_array(t.coords, d1.coords)
    held = [t.coords, t.classes]
    for a in held:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    saved = [a.copy() for a in held]
    # a design's own arrays, its classes too, are copies, which it may make
    # writeable, also at alpha = 1
    for e in (d, d1):
        for a in (e.coords, e.classes, model_matrix(e), _probe_rows(e)):
            assert not any(np.shares_memory(a, b) for b in held)
            a.flags.writeable = True
            a[...] = 7.0
    for a, b in zip(held, saved):
        assert np.array_equal(a, b)
    e, want = gen_ccd(3, 1.5, 4), _gen_ccd(3, 1.5, 4)
    assert e is not d and ccd_templates.cache_info().misses == 1
    assert_same_array(e.coords, want.coords)
    assert_same_array(model_matrix(e), _expand_points(want.coords))
    assert not np.shares_memory(e.coords, d.coords)


def test_one_template_serves_every_alpha(ccd_templates, invert_calls):
    # a k=3 sweep, 8 alphas x 4 designs factorized, and a criteria_report of
    # a fresh full design at each alpha, from one alpha = 1 design: the
    # sweep's gen_ccd builds it at the first alpha and reads it at each of
    # the other 7; each of the 9 reports' gen_ccd reads it once more
    reports = scenario_sweep(3, 4, DEFAULT_ALPHAS[3], CUBE1)
    assert invert_calls[0] == 32
    for rep in reports:
        criteria_report(gen_ccd(3, rep.alpha, 4))
    assert invert_calls[0] == 40
    criteria_report(gen_ccd(3, 1.681, 4))
    assert invert_calls[0] == 41
    info = ccd_templates.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(DEFAULT_ALPHAS[3]))
    # 5 runs left of a k=2 design cannot estimate p=6 parameters
    res = delete_rows(gen_ccd(2, 1.0, 4), list(range(7)))
    for attempt in (1, 2, 3):
        with pytest.raises(criteria.linalg.SingularMatrixError):
            a_trace(res)
    assert invert_calls[0] == 41 + 3
    assert ccd_templates.cache_info().misses == 2


def test_verify_builds_one_template_per_table_layout(ccd_templates, invert_calls, capsys):
    # 26 full fixture designs and 78 residuals factorized, and one alpha = 1
    # design for each (k, n0) of the tables
    verify._fixture_design.cache_clear()
    assert main(["verify"]) == 2
    assert invert_calls[0] == 104
    layouts = {(t["k"], t["n0"]) for t in (*LOSS_TABLES.values(), *SPV_TABLES.values())}
    assert ccd_templates.cache_info().misses == len(layouts)
    assert "gated cells: 384/464 pass" in capsys.readouterr().out.splitlines()


def test_template_cache_is_bounded():
    assert design._unit_ccd.cache_info().maxsize == design._TEMPLATES
    assert _sphere_rows.cache_info().maxsize == 64
