import numpy as np
import pytest

from ccdrobust import criteria
from ccdrobust.criteria import Region, RegionShape, information_inverse, probe_spv
from ccdrobust.design import PointClass, gen_ccd
from ccdrobust.linalg import SingularMatrixError, cross_product, trace
from ccdrobust.missing import (
    delete_rows,
    increase_in_variance,
    loss_precision,
    relative_g_efficiency,
    relative_v_efficiency,
    scenario_sweep,
)
from ccdrobust.model import expand_point, model_matrix

CUBE1 = Region(RegionShape.CUBOIDAL, 1.0)


class TestDeleteRows:
    def test_delete_center(self):
        d = gen_ccd(2, 1.0, 4)
        r = delete_rows(d, [d.rows_of_class(PointClass.CENTER)[0]])
        assert r.n == 11
        assert r.class_count(PointClass.CENTER) == 3

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
        diff = cross_product(X) - cross_product(model_matrix(r))
        assert np.max(np.abs(diff - cross_product(Xm))) < 1e-12

    def test_bad_indices(self):
        d = gen_ccd(2, 1.0, 4)
        with pytest.raises(IndexError):
            delete_rows(d, [99])
        with pytest.raises(ValueError):
            delete_rows(d, [1, 1])


class TestIncreaseInVariance:
    def test_zero_for_identical(self):
        d = gen_ccd(2, 1.0, 4)
        assert increase_in_variance(d, d) == 0

    def test_k2_missing_factorial(self):
        full = gen_ccd(2, 1.0, 4)
        res = delete_rows(full, [0])
        iv = increase_in_variance(full, res)
        tr_full = trace(information_inverse(full))
        assert iv / tr_full == pytest.approx(0.4702906, abs=2e-4)

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 2.0), (4, 2.25)])
    def test_rank_one_update_oracle(self, k, alpha):
        full = gen_ccd(k, alpha, 4)
        Minv = information_inverse(full)
        for row in range(full.n):
            f = expand_point(full.coords[row])
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


class TestRelativeEfficiencies:
    def test_identity_cases(self):
        d = gen_ccd(2, 1.5, 4)
        assert relative_g_efficiency(d, d, CUBE1) == pytest.approx(1.0)
        assert relative_v_efficiency(d, d, CUBE1) == pytest.approx(1.0)

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
        from ccdrobust.criteria import spv_many
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

    def test_a_trace_decreases_in_alpha_k2(self):
        alphas = [1.0, 1.21, 1.414, 1.5, 2.0]
        traces = [r.a_full for r in scenario_sweep(2, 4, alphas, CUBE1)]
        assert all(a > b for a, b in zip(traces, traces[1:]))

    def test_one_g_search_per_design(self, monkeypatch):
        # per alpha: the full design once, then each of the 3 residuals
        calls = [0]
        real = criteria._grid_chunks

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(criteria, "_grid_chunks", counting)
        reports = scenario_sweep(3, 4, [1.0, 1.681], CUBE1, grid_step=0.5)
        assert calls[0] == 2 * 4
        for rep in reports:
            full = gen_ccd(3, rep.alpha, 4)
            for cls in PointClass:
                res = delete_rows(full, [full.rows_of_class(cls)[0]])
                assert getattr(rep, f"re_g_{cls.value}") == relative_g_efficiency(
                    full, res, CUBE1, grid_step=0.5)
