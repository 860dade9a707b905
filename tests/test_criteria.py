import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdrobust import linalg
from ccdrobust.cli import DEFAULT_ALPHAS
from ccdrobust.criteria import (
    Region,
    RegionShape,
    _grid_chunks,
    criteria_report,
    g_efficiency,
    g_max,
    information_inverse,
    monte_carlo_moments,
    probe_spv,
    region_moments,
    rotatability_index,
    sample_region,
    sphere_points,
    spv,
    spv_many,
    v_avg,
)
from ccdrobust.design import gen_ccd
from ccdrobust.missing import scenario_sweep
from ccdrobust.model import num_params

CUBE1 = Region(RegionShape.CUBOIDAL, 1.0)


@pytest.fixture
def invert_calls(monkeypatch):
    """Counts linalg.invert calls; the count is calls[0]."""
    calls = [0]
    real = linalg.invert

    def counting(M):
        calls[0] += 1
        return real(M)

    monkeypatch.setattr(linalg, "invert", counting)
    return calls


class TestInformationInverse:
    def test_cached_and_read_only(self):
        d = gen_ccd(3, 1.681, 4)
        Minv = information_inverse(d)
        assert information_inverse(d) is Minv
        assert not Minv.flags.writeable
        with pytest.raises(ValueError):
            Minv[0, 0] = 0.0

    def test_sweep_inverts_each_design_once(self, invert_calls):
        # 8 alphas x (full design + 3 single-deletion residuals)
        scenario_sweep(3, 4, DEFAULT_ALPHAS[3], CUBE1)
        assert invert_calls[0] == 32

    def test_criteria_report_inverts_once(self, invert_calls):
        criteria_report(gen_ccd(3, 1.681, 4))
        assert invert_calls[0] == 1


class TestSpv:
    def test_k2_factorial_vertex(self):
        assert spv(gen_ccd(2, 1.0, 4), (1, 1)) == pytest.approx(9.500, abs=1e-3)

    def test_k2_alpha2_mirror(self):
        assert spv(gen_ccd(2, 2.0, 4), (1, 1)) == pytest.approx(6.000, abs=1e-3)

    def test_k3_center(self):
        assert spv(gen_ccd(3, 1.732, 4), (0, 0, 0)) == pytest.approx(4.499, abs=1e-3)

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 1.681), (4, 2.0)])
    def test_design_average_is_p(self, k, alpha):
        # (1/N) sum of SPV over the design's own points equals p exactly
        d = gen_ccd(k, alpha, 4)
        vals = spv_many(d, d.coords())
        assert vals.mean() == pytest.approx(num_params(k), abs=1e-9)

    def test_sign_flip_and_permutation_invariance(self):
        d = gen_ccd(3, 1.5, 4)
        x = (0.4, -0.9, 1.2)
        base = spv(d, x)
        assert spv(d, (-0.4, -0.9, 1.2)) == pytest.approx(base, rel=1e-12)
        assert spv(d, (1.2, 0.4, -0.9)) == pytest.approx(base, rel=1e-12)


class TestGMax:
    def test_low_alpha_max_at_factorial_vertex(self):
        val, loc = g_max(gen_ccd(2, 1.0, 4), CUBE1, grid_step=0.1)
        assert val == pytest.approx(9.500, abs=1e-3)
        assert sorted(abs(c) for c in loc) == [1.0, 1.0]

    def test_high_alpha_max_at_axial_point(self):
        val, loc = g_max(gen_ccd(2, 2.0, 4), CUBE1, grid_step=0.1)
        assert val == pytest.approx(9.500, abs=1e-3)
        assert sorted(abs(c) for c in loc) == [0.0, 2.0]

    def test_rotatable_probe_spvs_nearly_equal(self):
        f, a, _ = probe_spv(gen_ccd(2, 1.414, 4))
        assert f == pytest.approx(7.500, abs=1e-3)
        assert a == pytest.approx(7.499, abs=1e-3)

    def test_finer_grid_never_smaller(self):
        d = gen_ccd(3, 1.5, 4)
        coarse, _ = g_max(d, CUBE1, grid_step=0.5)
        fine, _ = g_max(d, CUBE1, grid_step=0.1)
        assert fine >= coarse - 1e-12

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            g_max(gen_ccd(2, 1.0, 4), CUBE1, grid_step=-0.1)

    def test_tied_maximum_at_first_point_in_evaluation_order(self):
        # the six axial points tie; (-2, 0, 0) is the first axial design row
        assert g_max(gen_ccd(3, 2.0, 4), CUBE1, grid_step=None)[1] == (-2.0, 0.0, 0.0)
        # rotatable: the factorial vertices tie with the axial points and come first
        assert (g_max(gen_ccd(4, 2.0, 4), CUBE1, grid_step=None)[1]
                == (-1.0, -1.0, -1.0, -1.0))

    def test_refuses_absurd_grid(self):
        # 2001^5 grid points; refused before anything is allocated
        with pytest.raises(ValueError, match="coarser grid step"):
            g_max(gen_ccd(5, 2.0, 4), CUBE1, grid_step=0.001)


class TestGridChunks:
    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    def test_bounded_chunks_in_c_order(self, shape):
        region = Region(shape, 1.0)
        chunks = list(_grid_chunks(region, 3, 0.25, chunk_rows=100))
        assert max(len(c) for c in chunks) <= 100
        axis = np.arange(-4, 5, dtype=float) * 0.25
        want = np.array(list(itertools.product(axis, repeat=3)))
        assert np.array_equal(np.vstack(chunks), want[region.contains(want)])


class TestGEfficiency:
    def test_k2(self):
        eff = g_efficiency(gen_ccd(2, 1.0, 4), CUBE1, grid_step=None)
        assert eff == pytest.approx(6 / 9.5, abs=1e-3)

    def test_k3(self):
        eff = g_efficiency(gen_ccd(3, 1.0, 4), CUBE1, grid_step=None)
        assert eff == pytest.approx(10 / 14.292, abs=1e-3)


class TestRegionMoments:
    def test_cuboidal_entries(self):
        M = region_moments(CUBE1, 2)
        assert M[0, 0] == 1.0
        assert M[0, 3] == pytest.approx(1 / 3)   # intercept vs x1^2
        assert M[3, 3] == pytest.approx(1 / 5)
        assert M[3, 4] == pytest.approx(1 / 9)

    def test_spherical_entries(self):
        M = region_moments(Region(RegionShape.SPHERICAL, 1.0), 2)
        assert M[3, 3] == pytest.approx(3 / 24)
        assert M[1, 1] == pytest.approx(1 / 4)

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    def test_monte_carlo_agreement(self, shape):
        region = Region(shape, 1.3)
        analytic = region_moments(region, 3)
        mc, se = monte_carlo_moments(region, 3, 200_000, seed=0)
        # 3-standard-error band, with a floor for entries whose MC error is ~0
        assert np.all(np.abs(mc - analytic) <= 3 * se + 1e-12)

    def test_positive_semidefinite(self):
        for region in (CUBE1, Region(RegionShape.SPHERICAL, 2.0)):
            eigs = np.linalg.eigvalsh(region_moments(region, 4))
            assert eigs.min() > -1e-12


class TestVAvg:
    def test_matches_table_value(self):
        assert v_avg(gen_ccd(2, 1.0, 4), CUBE1) == pytest.approx(3.633, abs=2e-3)

    def test_self_measure_gives_p(self):
        # if the region moments equal (1/N) X'X, the average is exactly p
        d = gen_ccd(3, 1.681, 4)
        from ccdrobust.linalg import cross_product
        from ccdrobust.model import model_matrix
        M = cross_product(model_matrix(d)) / d.n
        Minv = information_inverse(d)
        assert d.n * float(np.trace(Minv @ M)) == pytest.approx(
            num_params(3), abs=1e-9)

    def test_monte_carlo_mean_of_spv(self):
        d = gen_ccd(2, 1.5, 4)
        region = Region(RegionShape.SPHERICAL, 1.2)
        analytic = v_avg(d, region)
        pts = sample_region(region, 2, 200_000, seed=3)
        mc = spv_many(d, pts).mean()
        assert mc == pytest.approx(analytic, rel=0.01)


class TestRotatability:
    def test_rotatable_k2(self):
        d = gen_ccd(2, 2 ** 0.5, 4)
        assert rotatability_index(d, 1.0, 200) < 1e-6

    def test_near_rotatable_k3(self):
        assert rotatability_index(gen_ccd(3, 1.681, 4), 1.2, 200) < 1e-3

    def test_non_rotatable_k2(self):
        assert rotatability_index(gen_ccd(2, 1.0, 4), 1.0, 200) > 0.1

    def test_rejects_bad_args(self):
        d = gen_ccd(2, 1.0, 4)
        with pytest.raises(ValueError):
            rotatability_index(d, -1.0)
        with pytest.raises(ValueError):
            rotatability_index(d, 1.0, n_samples=1)

    def test_sphere_points_bounds_k(self):
        pts = sphere_points(12, 2.0, 50)
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)
        with pytest.raises(ValueError, match="k <= 12"):
            sphere_points(13, 1.0, 50)


class TestCriteriaReport:
    def test_fields_and_consistency(self):
        rep = criteria_report(gen_ccd(2, 1.0, 4), grid_step=0.25)
        assert rep.a_trace == pytest.approx(1.5416, abs=2e-4)
        assert rep.g_max >= max(rep.spv_factorial, rep.spv_axial, rep.spv_center) - 1e-9
        assert rep.g_eff == pytest.approx(num_params(2) / rep.g_max)
        assert rep.v_avg_cuboidal == pytest.approx(3.633, abs=2e-3)
        d = rep.as_dict()
        assert list(d) == list(rep.FIELDS)
        assert d["g_max_location"].startswith("(")


def test_region_validation():
    with pytest.raises(ValueError):
        Region(RegionShape.CUBOIDAL, 0.0)
    with pytest.raises(ValueError):
        region_moments(CUBE1, 1)


@given(shape=st.sampled_from(RegionShape),
       size=st.one_of(st.floats(max_value=0.0),
                      st.sampled_from([math.nan, math.inf])))
@settings(max_examples=30, deadline=None)
def test_region_rejects_size_not_finite_and_positive(shape, size):
    with pytest.raises(ValueError, match="region size"):
        Region(shape, size)
