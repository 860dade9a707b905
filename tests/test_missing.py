import math
import re

import numpy as np
import pytest

from ccdrobust import criteria, design, missing
from ccdrobust.cli import DEFAULT_ALPHAS
from ccdrobust.criteria import (
    CriteriaReport,
    Region,
    RegionShape,
    a_trace,
    criteria_report,
    g_max,
    information_inverse,
    probe_spv,
    region_moments,
    sphere_points,
    spv_many,
)
from ccdrobust.design import PointClass, canonical_probe_points, gen_ccd
from ccdrobust.linalg import SingularMatrixError
from ccdrobust.missing import (
    LossReport,
    delete_rows,
    increase_in_variance,
    loss_precision,
    relative_g_efficiency,
    relative_v_efficiency,
    scenario_sweep,
)
from ccdrobust.model import expand_points, model_matrix, num_params

CUBE1 = Region(RegionShape.CUBOIDAL, 1.0)


class TestDeleteRows:
    def test_delete_center(self):
        d = gen_ccd(2, 1.0, 4)
        r = delete_rows(d, [d.rows_of_class(PointClass.CENTER)[0]])
        assert r.n == 11
        assert len(r.rows_of_class(PointClass.CENTER)) == 3

    def test_delete_nothing(self):
        d = gen_ccd(2, 1.0, 4)
        r = delete_rows(d, [])
        assert np.array_equal(r.coords, d.coords)
        assert np.array_equal(r.classes, d.classes)

    def test_information_partition(self):
        d = gen_ccd(3, 1.732, 4)
        idx = [0, 5, 9]
        r = delete_rows(d, idx)
        X = model_matrix(d)
        Xm = X[idx]
        Xr = model_matrix(r)
        diff = X.T @ X - Xr.T @ Xr
        assert np.max(np.abs(diff - Xm.T @ Xm)) < 1e-12

    def test_bad_indices(self):
        d = gen_ccd(2, 1.0, 4)
        with pytest.raises(IndexError):
            delete_rows(d, [99])
        with pytest.raises(ValueError):
            delete_rows(d, [1, 1])

    def test_numpy_integer_indices(self):
        d = gen_ccd(2, 1.0, 2)
        r = delete_rows(d, [np.int64(2), np.intp(1), np.int32(0)])
        assert np.array_equal(r.coords, d.coords[3:])

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_residual_rows_sliced_from_parent(self, k):
        # a residual expands its own rows: the parent's kept model rows and
        # its probe rows, bit for bit and column-major
        full = gen_ccd(k, 1.3, 2)
        for rows in ([0], [full.n - 1], [1, 5, full.n - 2]):
            r = delete_rows(full, rows)
            kept = np.asfortranarray(np.delete(model_matrix(full), rows, axis=0))
            for got, want in ((model_matrix(r), kept),
                              (criteria._probe_rows(r), criteria._probe_rows(full))):
                assert got.strides == want.strides and got.flags.f_contiguous
                assert got.tobytes(order="A") == want.tobytes(order="A")
                assert not got.flags.writeable


class TestIncreaseInVariance:
    def test_zero_for_identical(self):
        d = gen_ccd(2, 1.0, 4)
        assert increase_in_variance(d, d) == 0

    def test_k2_missing_factorial(self):
        full = gen_ccd(2, 1.0, 4)
        res = delete_rows(full, [0])
        iv = increase_in_variance(full, res)
        assert iv / a_trace(full) == pytest.approx(0.4702906, abs=2e-4)

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 2.0), (4, 2.25)])
    def test_rank_one_update_oracle(self, k, alpha):
        full = gen_ccd(k, alpha, 4)
        Minv = information_inverse(full)
        for row, f in enumerate(expand_points(full.coords)):
            leverage = float(f @ Minv @ f)
            # Sherman-Morrison: removing row x changes trace(Minv) by
            # trace(Minv x x' Minv) / (1 - x' Minv x)
            predicted = float(f @ Minv @ Minv @ f) / (1.0 - leverage)
            actual = increase_in_variance(full, delete_rows(full, [row]))
            assert actual == pytest.approx(predicted, abs=1e-9)


class TestLossPrecision:
    # paper values are ratios of A-traces truncated to 4 decimals, which
    # moves them up to ~1e-4 from the exact ratio (see verify.paper_loss)
    @pytest.mark.parametrize("k,alpha,cls,expected", [
        (2, 1.0, PointClass.FACTORIAL, 0.4702906),
        (3, 2.0, PointClass.AXIAL, 0.1031823),
        (5, 2.236, PointClass.CENTER, 0.122504),
    ])
    def test_paper_cells(self, k, alpha, cls, expected):
        full = gen_ccd(k, alpha, 4)
        res = delete_rows(full, [full.rows_of_class(cls)[0]])
        assert loss_precision(full, res) == pytest.approx(expected, abs=2e-4)

    def test_nonnegative(self):
        full = gen_ccd(3, 1.5, 4)
        for row in range(full.n):
            assert loss_precision(full, delete_rows(full, [row])) > 0

    def test_class_representative_independence(self):
        full = gen_ccd(2, 1.21, 4)
        for cls in PointClass:
            losses = [loss_precision(full, delete_rows(full, [i]))
                      for i in full.rows_of_class(cls)]
            assert max(losses) - min(losses) < 1e-10

    def test_inestimable_residual_raises(self):
        full = gen_ccd(2, 1.0, 4)
        res = delete_rows(full, list(range(7)))  # 5 runs left, p = 6
        with pytest.raises(SingularMatrixError):
            loss_precision(full, res)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_leverage_one_exactly_when_inestimable(self, k):
        # deleting run i leaves X'X - f_i f_i', singular iff the leverage
        # h_i = f_i'(X'X)^{-1} f_i = SPV_i / N is 1
        inestimable = set()
        for n0 in (1, 4):
            for alpha in sorted({*DEFAULT_ALPHAS[k], math.sqrt(k)}):
                full = gen_ccd(k, alpha, n0)
                h = spv_many(full, full.coords) / full.n
                for i in range(full.n):
                    try:
                        a_trace(delete_rows(full, [i]))
                        singular = False
                    except SingularMatrixError:
                        singular = True
                        inestimable.add((n0, alpha, full.classes[i]))
                    assert (1 - h[i] <= 1e-9) == singular, (n0, alpha, i)
        assert inestimable == {(1, math.sqrt(k), PointClass.CENTER)}


class TestRelativeEfficiencies:
    def test_identity_cases(self):
        d = gen_ccd(2, 1.5, 4)
        assert relative_g_efficiency(d, d, CUBE1) == pytest.approx(1.0)
        assert relative_v_efficiency(d, d, CUBE1) == pytest.approx(1.0)

    def test_re_g_default_matches_g_max_default(self):
        full = gen_ccd(3, 1.5, 4)
        res = delete_rows(full, [0])
        re = relative_g_efficiency(full, res, CUBE1)
        assert re == relative_g_efficiency(full, res, CUBE1, None)
        assert re == criteria.g_max(full, CUBE1)[0] / criteria.g_max(res, CUBE1)[0]

    def test_re_g_k2_missing_center(self):
        full = gen_ccd(2, 1.0, 4)
        res = delete_rows(full, [full.rows_of_class(PointClass.CENTER)[0]])
        re = relative_g_efficiency(full, res, CUBE1, grid_step=None)
        assert re == pytest.approx(9.500 / 8.732, abs=1e-3)

    def test_re_g_k2_alpha2_missing_axial(self):
        full = gen_ccd(2, 2.0, 4)
        res = delete_rows(full, [full.rows_of_class(PointClass.AXIAL)[0]])
        re = relative_g_efficiency(full, res, CUBE1, grid_step=None)
        assert re == pytest.approx(9.500 / 9.533, abs=1e-3)

    def test_re_v_k2_missing_factorial(self):
        full = gen_ccd(2, 1.0, 4)
        res = delete_rows(full, [0])
        re = relative_v_efficiency(full, res, CUBE1)
        assert re == pytest.approx(3.633 / 4.913, abs=1e-3)

    def test_re_v_k3_missing_center(self):
        full = gen_ccd(3, 3.0, 4)
        res = delete_rows(full, [full.rows_of_class(PointClass.CENTER)[0]])
        re = relative_v_efficiency(full, res, CUBE1)
        assert re == pytest.approx(3.392 / 3.497, abs=1e-3)


class TestResidualSpvScaling:
    def test_residual_design_average_is_p(self):
        # (1/N_r) sum of residual SPV over residual points equals p
        full = gen_ccd(3, 1.681, 4)
        res = delete_rows(full, [0])
        vals = spv_many(res, res.coords)
        assert vals.mean() == pytest.approx(10, abs=1e-9)

    def test_residual_probe_values_match_table(self):
        full = gen_ccd(2, 1.0, 4)
        res = delete_rows(full, [0])
        f, a, c = probe_spv(res)
        assert (f, a, c) == (pytest.approx(9.533, abs=2e-3),
                             pytest.approx(5.866, abs=2e-3),
                             pytest.approx(2.383, abs=2e-3))


class TestScenarioSweep:
    def test_k2_paper_grid(self):
        alphas = [1.0, 1.21, 1.414, 1.5, 2.0]
        reports = scenario_sweep(2, 4, alphas, CUBE1)
        assert len(reports) == 5
        expected_a = [1.5416, 1.2440, 1.0626, 0.9967, 0.7187]
        for rep, a in zip(reports, expected_a):
            assert rep.a_full == pytest.approx(a, abs=2e-4)
        assert reports[0].loss_factorial == pytest.approx(0.4702906, abs=2e-4)

    def test_k4_alpha1_factorial_loss(self):
        reports = scenario_sweep(4, 4, [1.0], CUBE1)
        assert reports[0].loss_factorial == pytest.approx(0.0480706, abs=2e-4)

    def test_empty_alphas(self):
        assert scenario_sweep(2, 4, [], CUBE1) == []

    @pytest.mark.parametrize("k,n0,exc", [(13, 4, ValueError), (1, 4, ValueError),
                                          (3, 0, ValueError), (3.0, 4, TypeError),
                                          (True, 4, TypeError), (3, np.float64(4), TypeError)])
    def test_bad_layout_refused_before_the_template_cache(self, k, n0, exc, ccd_templates):
        # k and n0 are checked before any alpha, also when there is none, so
        # gen_ccd's (k, n0) cache is not touched
        for alphas in ([], [1.5]):
            for grid_step in (None, 0.5):
                with pytest.raises(exc, match="must be"):
                    scenario_sweep(k, n0, alphas, CUBE1, grid_step)
        info = ccd_templates.cache_info()
        assert (info.hits, info.misses) == (0, 0)

    def test_a_trace_decreases_in_alpha_k2(self):
        alphas = [1.0, 1.21, 1.414, 1.5, 2.0]
        traces = [r.a_full for r in scenario_sweep(2, 4, alphas, CUBE1)]
        assert all(a > b for a, b in zip(traces, traces[1:]))

    def test_one_g_search_per_design(self, monkeypatch):
        # per alpha: the full design once, then each of the 3 residuals;
        # counted per search, as the grid domain itself is built once
        calls = [0]
        real = criteria._grid_models

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(criteria, "_grid_models", counting)
        reports = scenario_sweep(3, 4, [1.0, 1.681], CUBE1, grid_step=0.5)
        assert calls[0] == 2 * 4
        for rep in reports:
            full = gen_ccd(3, rep.alpha, 4)
            for cls in PointClass:
                res = delete_rows(full, [full.rows_of_class(cls)[0]])
                assert getattr(rep, f"re_g_{cls.value}") == relative_g_efficiency(
                    full, res, CUBE1, grid_step=0.5)


# -- the stacked sweep against the per-design computation it replaced ------

SPHERE = {k: Region(RegionShape.SPHERICAL, math.sqrt(k)) for k in range(2, 6)}


def _invert_alone(M):
    """linalg.invert of one matrix, as it was before it took stacks."""
    scale = float(np.max(np.abs(np.diag(M))))
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if float(np.min(np.diag(L)) ** 2) < 1e-12 * scale:
        raise SingularMatrixError("pivot")
    Linv = np.linalg.inv(L)
    return Linv.T @ Linv


class _Alone:
    """One design scored on its own, each criterion by its own calls, as
    scenario_sweep and criteria_report scored designs before stacking."""

    def __init__(self, design):
        self.design, self.k = design, design.k
        self.X = expand_points(design.coords)
        self.P = expand_points(canonical_probe_points(design))
        self.Minv = _invert_alone(self.X.T @ self.X)

    def spv(self, F):
        return self.design.n * np.einsum("ij,ij->i", F @ self.Minv, F)

    def a(self):
        return float(np.trace(self.Minv))

    def v(self, region):
        return self.design.n * float(np.trace(self.Minv @ region_moments(region, self.k)))

    def g(self):
        best, loc = -math.inf, ()
        for F in (self.X, self.P):
            vals = self.spv(F)
            top = float(vals.max())
            if top > best * (1 + 1e-12):
                i = int(np.argmax(vals >= top * (1 - 1e-12)))
                loc = tuple(float(c) for c in F[i, 1:1 + self.k])
            best = max(best, top)
        return best, loc

    def report(self):
        f, a, c = (float(s) for s in self.spv(self.P))
        gmax, loc = self.g()
        sphere = expand_points(sphere_points(self.k, 1.0, 200))
        return CriteriaReport(self.design.alpha, self.a(), f, a, c, gmax, loc,
                              num_params(self.k) / gmax, self.v(CUBE1),
                              self.v(SPHERE[self.k]), float(np.std(self.spv(sphere))))


def _sweep_alone(k, n0, alphas, region):
    reports = []
    for alpha in alphas:
        full = gen_ccd(k, alpha, n0)
        f = _Alone(full)
        rep = LossReport(alpha=alpha, a_full=f.a())
        for cls in PointClass:
            try:
                r = _Alone(delete_rows(full, [full.rows_of_class(cls)[0]]))
            except SingularMatrixError:
                rep.inestimable.append(cls.value)
                continue
            setattr(rep, f"loss_{cls.value}", r.a() / f.a() - 1.0)
            setattr(rep, f"re_g_{cls.value}", f.g()[0] / r.g()[0])
            setattr(rep, f"re_v_{cls.value}", f.v(region) / r.v(region))
        reports.append(rep)
    return reports


def _bits(report, fields):
    """The fields as their reprs: bit for bit, -0.0 and the type included."""
    return [repr(getattr(report, f)) for f in fields]


class TestStackedSweep:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("n0", [1, 2, 4])
    def test_bit_identical_to_each_design_alone(self, k, n0):
        alphas = [round(0.5 + 0.1 * i, 1) for i in range(31)]
        alphas += [math.sqrt(k), round(math.sqrt(k), 3)]
        fields = LossReport.FIELDS + ("inestimable",)
        for rep, want in zip(scenario_sweep(k, n0, alphas, CUBE1),
                             _sweep_alone(k, n0, alphas, CUBE1), strict=True):
            assert _bits(rep, fields) == _bits(want, fields), rep.alpha
            full = gen_ccd(k, rep.alpha, n0)
            assert (_bits(criteria_report(full, CUBE1), CriteriaReport.FIELDS)
                    == _bits(_Alone(full).report(), CriteriaReport.FIELDS)), rep.alpha

    def test_residual_rows_stay_column_major(self, monkeypatch):
        # each residual's X'X is formed from rows laid out column-major, as
        # expand_points writes them: a BLAS may round X'X of a C-order copy
        # differently, so the artifacts would pass here and move elsewhere
        layouts = []

        class Rows(np.ndarray):
            def __matmul__(self, other):
                layouts.append(other.flags.f_contiguous)
                return np.asarray(self) @ np.asarray(other)

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def concatenate(self, *args, **kwargs):
                return np.concatenate(*args, **kwargs).view(Rows)

        monkeypatch.setattr(missing, "np", Numpy())
        for k in (2, 5, 12):
            layouts.clear()
            scenario_sweep(k, 1, [2.0], CUBE1)
            assert layouts == [True] * 3, k

    @pytest.mark.parametrize("k", [2, 3])
    def test_report_of_residual_whose_g_is_at_a_probe(self, k):
        # without its one center run a design's G is at the center probe,
        # which is none of its rows, from alpha = 1.3 on
        for alpha in (0.8, 1.3, 1.6, 2.0):
            full = gen_ccd(k, alpha, 1)
            res = delete_rows(full, [full.rows_of_class(PointClass.CENTER)[0]])
            report = criteria_report(res, CUBE1)
            assert (_bits(report, CriteriaReport.FIELDS)
                    == _bits(_Alone(res).report(), CriteriaReport.FIELDS))
            assert (report.g_max_location == (0.0,) * k) == (alpha > 1)

    @pytest.mark.parametrize("n0", [1, 4])
    def test_grid_path_matches_per_design_functions(self, n0):
        # at alpha = sqrt(k) a one-center-run design cannot lose its center
        # run, so a singular residual rides the stack on the grid path
        for k, step in ((2, 0.5), (3, 0.25), (3, 0.5), (4, 0.5), (5, 0.5)):
            alphas = [0.8, 1.3, math.sqrt(k), 2.4]
            for region in (CUBE1, SPHERE[k]):
                for rep in scenario_sweep(k, n0, alphas, region, grid_step=step):
                    self.assert_matches_per_design_functions(rep, k, n0, region, step)

    @staticmethod
    def assert_matches_per_design_functions(rep, k, n0, region, step):
        full = gen_ccd(k, rep.alpha, n0)
        assert rep.a_full == a_trace(full)
        if n0 == 1 and rep.alpha == math.sqrt(k):
            assert rep.inestimable == ["center"]
        for cls in PointClass:
            res = delete_rows(full, [full.rows_of_class(cls)[0]])
            try:
                want = (loss_precision(full, res),
                        relative_g_efficiency(full, res, region, step),
                        relative_v_efficiency(full, res, region))
            except SingularMatrixError:
                assert cls.value in rep.inestimable
                continue
            got = tuple(getattr(rep, f"{m}_{cls.value}") for m in ("loss", "re_g", "re_v"))
            assert repr(got) == repr(want), (k, step, rep.alpha, cls.value)

    def test_grid_path_factorizes_each_design_once(self, invert_calls):
        # each design's grid scan reads its inverse from the stack
        scenario_sweep(3, 4, [1.0, 1.681], CUBE1, grid_step=0.5)
        assert invert_calls[0] == 2 * 4

    def test_grid_path_builds_no_residual(self, monkeypatch):
        # a residual's grid domain is keyed by the symmetry the sweep keeps
        # for its (k, n0), so no residual Design is built
        calls = {"delete_rows": 0, "_grid_models": 0}
        for module, name in ((missing, "delete_rows"), (criteria, "_grid_models")):
            def counting(*args, real=getattr(module, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counting)
        for region in (CUBE1, SPHERE[3]):
            calls.update(delete_rows=0, _grid_models=0)
            # n0 = 1 at alpha = sqrt(3): the center residual is singular
            reports = scenario_sweep(3, 1, [1.3, math.sqrt(3)], region, grid_step=0.5)
            assert reports[1].inestimable == ["center"]
            assert calls == {"delete_rows": 0, "_grid_models": 4 + 3}

    def test_grid_path_computes_no_symmetry_per_alpha(self, monkeypatch, ccd_templates,
                                                      grid_cache):
        # the sweep computes no symmetry, since _sweep_symmetries states its
        # four; g_max of any design computes its own, on a grid
        calls = []

        def counting(X, real=design._symmetry):
            calls.append(X.shape)
            return real(X)
        assert criteria._symmetry is design._symmetry
        for module in (design, criteria):
            monkeypatch.setattr(module, "_symmetry", counting)
        for k in (3, 5):
            reports = scenario_sweep(k, 4, [1.0, 1.7, 2.0], CUBE1, grid_step=0.5)
            assert calls == []
            assert scenario_sweep(k, 4, [1.0, 1.7, 2.0], CUBE1, grid_step=0.5) == reports
            assert calls == []
        # the deleted (-1, -1, +1) vertex leaves x1 <-> x2 as the only
        # symmetry, whose domain and maximum stay as they were
        res = delete_rows(gen_ccd(3, 1.7, 4), [1])
        assert g_max(res, CUBE1) == (14.05113396634448, (1.0, 1.0, -1.0))
        assert calls == []
        assert g_max(res, CUBE1, grid_step=0.5) == (33.96996033357576, (-1.0, -1.0, 1.0))
        assert calls == [(res.n, 3)]
        assert (CUBE1, 0.5, ((), ((0, 1), (2,)))) in grid_cache

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_one_singular_residual_flagged_rest_bit_identical(self, k, invert_calls):
        # n0 = 1 at alpha = sqrt(k): the stack fails on the center deletion,
        # and each matrix is then factorized alone
        alpha = math.sqrt(k)
        rep, = scenario_sweep(k, 1, [alpha], CUBE1)
        want, = _sweep_alone(k, 1, [alpha], CUBE1)
        assert rep.inestimable == ["center"]
        assert rep.loss_center is rep.re_g_center is rep.re_v_center is None
        fields = LossReport.FIELDS + ("inestimable",)
        assert _bits(rep, fields) == _bits(want, fields)
        assert invert_calls[0] == 4 + 4

    def test_singular_full_design_raises(self):
        with pytest.raises(SingularMatrixError,
                           match=r"the full design at alpha=1e-06 is inestimable"):
            scenario_sweep(2, 4, [1.0, 1e-6], CUBE1)

    def test_singular_full_design_raises_on_grid_path(self):
        with pytest.raises(SingularMatrixError,
                           match=r"the full design at alpha=1e-06 is inestimable"):
            scenario_sweep(2, 4, [1e-6], CUBE1, grid_step=0.5)
