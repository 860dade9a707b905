import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdrobust import criteria
from ccdrobust.cli import DEFAULT_ALPHAS
from ccdrobust.criteria import (
    Region,
    RegionShape,
    _grid_chunks,
    _symmetry,
    _unit_sphere_points,
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
from ccdrobust.design import Design, PointClass, canonical_probe_points, gen_ccd
from ccdrobust.missing import delete_rows, scenario_sweep
from ccdrobust.model import expand_points, model_matrix, num_params

CUBE1 = Region(RegionShape.CUBOIDAL, 1.0)


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
        vals = spv_many(d, d.coords)
        assert vals.mean() == pytest.approx(num_params(k), abs=1e-9)

    def test_agrees_with_linear_solve(self):
        d = gen_ccd(3, 2.0, 4)
        x = (0.4, -0.7, 1.1)
        f = expand_points(np.array([x]))[0]
        X = model_matrix(d)
        direct = d.n * float(f @ np.linalg.solve(X.T @ X, f))
        assert spv(d, x) == pytest.approx(direct, rel=1e-12)

    def test_is_spv_many_on_one_row(self):
        d = gen_ccd(3, 1.5, 4)
        x = (0.4, -0.9, 1.2)
        assert spv(d, x) == spv_many(d, np.array([x]))[0]

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

    def test_search_kept_per_region_and_step(self, monkeypatch):
        d = gen_ccd(3, 1.5, 4)
        first = g_max(d, CUBE1, grid_step=0.5)

        def no_search(*args, **kwargs):
            raise AssertionError("searched again")

        monkeypatch.setattr(criteria, "spv_many", no_search)
        assert g_max(d, Region(RegionShape.CUBOIDAL, 1.0), grid_step=0.5) is first
        assert g_efficiency(d, CUBE1, grid_step=0.5) == num_params(3) / first[0]
        for design, step in ((d, 0.25), (gen_ccd(3, 1.5, 4), 0.5)):
            with pytest.raises(AssertionError, match="searched again"):
                g_max(design, CUBE1, grid_step=step)

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


def _deleted(design, cls):
    return delete_rows(design, [design.rows_of_class(cls)[0]])


def _without(design, *runs):
    """design with the first run at each of the given coordinates deleted."""
    coords = design.coords.tolist()
    return delete_rows(design, [coords.index(list(map(float, c))) for c in runs])


def _with_points(coords):
    return Design(1.0, coords, [PointClass.FACTORIAL] * len(coords))


def _box_symmetry(k):
    """No flips and one block per axis: the whole box."""
    return (), tuple((j,) for j in range(k))


def _box_grid(region, k, step):
    """The grid points of the region's bounding box in the region, in C order."""
    n1 = int(region.size / step + 1e-9)
    axis = np.arange(-n1, n1 + 1, dtype=float) * step
    grid = np.array(list(itertools.product(axis, repeat=k)))
    return grid[region.contains(grid)]


class TestReducedGSearch:
    """g_max against a brute-force search of the whole box grid."""

    @staticmethod
    def brute_force(design, region, step):
        pts = np.vstack([design.coords, canonical_probe_points(design),
                         _box_grid(region, design.k, step)])
        return float(spv_many(design, pts).max()), {tuple(x) for x in pts}

    def assert_matches_brute_force(self, design, region, step):
        val, loc = g_max(design, region, grid_step=step)
        want, evaluated = self.brute_force(design, region, step)
        assert val == pytest.approx(want, rel=1e-12, abs=0)
        assert spv(design, loc) == pytest.approx(val, rel=1e-12, abs=0)
        assert loc in evaluated

    @pytest.mark.parametrize("k,step", [(2, 0.1), (3, 0.25), (4, 0.5), (5, 0.5)])
    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    @pytest.mark.parametrize("deleted", [None, *PointClass])
    @pytest.mark.parametrize("alpha", [1.0, 1.7])
    def test_matches_brute_force(self, k, step, shape, deleted, alpha):
        region = Region(shape, 1.0 if shape is RegionShape.CUBOIDAL else math.sqrt(k))
        d = gen_ccd(k, alpha, 2)
        if deleted is not None:
            d = _deleted(d, deleted)
        self.assert_matches_brute_force(d, region, step)

    @pytest.mark.parametrize("k,step", [(2, 0.1), (3, 0.25), (4, 0.5), (5, 0.5)])
    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    @pytest.mark.parametrize("runs", ["mixed_vertex", "last_plus_alpha",
                                      "middle_minus_alpha", "factorial_and_axial"])
    @pytest.mark.parametrize("alpha", [1.0, 1.7])
    def test_other_deletions_match_brute_force(self, k, step, shape, runs, alpha):
        region = Region(shape, 1.0 if shape is RegionShape.CUBOIDAL else math.sqrt(k))
        axial = lambda j, a: tuple(a if i == j else 0.0 for i in range(k))
        deleted = {
            # its stabilizer, the signed permutations fixing (1, -1, ..., -1),
            # is not in product form: it is searched over the product
            # subgroup, axis 0 free and axes 1..k-1 one block
            "mixed_vertex": [(1.0,) + (-1.0,) * (k - 1)],
            "last_plus_alpha": [axial(k - 1, alpha)],
            # the other axes form a block whose axes are not adjacent
            "middle_minus_alpha": [axial(k // 2, -alpha)],
            "factorial_and_axial": [(-1.0,) * k, axial(0, -alpha)],
        }[runs]
        self.assert_matches_brute_force(_without(gen_ccd(k, alpha, 2), *deleted),
                                        region, step)

    def test_tied_grid_maximum_in_fundamental_domain(self):
        val, loc = g_max(gen_ccd(5, 1.0, 4), CUBE1, grid_step=0.2)
        assert loc == (0.0, 0.0, 1.0, 1.0, 1.0)
        assert spv(gen_ccd(5, 1.0, 4), (-1, -1, -1, 0, 0)) == pytest.approx(val, rel=1e-12)

    def test_domain_sizes(self, monkeypatch):
        # points handed to spv_many: the design rows, 3 probes, then the grid
        counts = []
        real = criteria.spv_many

        def counting(design, pts):
            counts[-1] += len(pts)
            return real(design, pts)

        monkeypatch.setattr(criteria, "spv_many", counting)
        full = gen_ccd(5, 1.5, 4)
        rng = np.random.default_rng(0)
        designs = {"full": (full, 126),
                   "center": (_deleted(full, PointClass.CENTER), 126),
                   "factorial": (_deleted(full, PointClass.FACTORIAL), 1287),
                   "axial": (_deleted(full, PointClass.AXIAL), 630),
                   "no symmetry": (_with_points(rng.uniform(-1, 1, (30, 5))), 9 ** 5)}
        for name, (d, grid) in designs.items():
            counts.append(0)
            g_max(d, CUBE1, grid_step=0.25)
            assert counts[-1] == d.n + 3 + grid, name


def _symmetry_cases():
    for k in (2, 3, 4, 5):
        axes = tuple(range(k))
        for n0 in (1, 4):
            for alpha in (1.0, 1.5):
                full = gen_ccd(k, alpha, n0)
                yield f"k={k}-n0={n0}-alpha={alpha}-full", full, (axes, (axes,))
                yield (f"k={k}-n0={n0}-alpha={alpha}-center",
                       _deleted(full, PointClass.CENTER), (axes, (axes,)))
                # the first factorial run, (-1, ..., -1)
                yield (f"k={k}-n0={n0}-alpha={alpha}-factorial",
                       _deleted(full, PointClass.FACTORIAL), ((), (axes,)))
                # the first axial run, on axis 0
                yield (f"k={k}-n0={n0}-alpha={alpha}-axial", _deleted(full, PointClass.AXIAL),
                       (axes[1:], ((0,), axes[1:])))
    yield "square", _with_points([(1, 1), (1, -1), (-1, 1), (-1, -1)]), ((0, 1), ((0, 1),))
    yield ("flips-only rectangle", _with_points([(1, 2), (1, -2), (-1, 2), (-1, -2)]),
           ((0, 1), ((0,), (1,))))
    yield ("permutations-only triangle", _with_points([(1, 0), (0, 1), (0, 0)]),
           ((), ((0, 1),)))
    yield ("box with a longer axis",
           _with_points(list(itertools.product((-1, 1), (-1, 1), (-2, 2)))),
           ((0, 1, 2), ((0, 1), (2,))))
    # sign flips and cyclic shifts of the axes, but no transposition
    cyclic = [(x[i], x[(i + 1) % 3], x[(i + 2) % 3])
              for x in itertools.product((-2, 2), (-1, 1), (0,)) for i in range(3)]
    yield "cyclic", _with_points(cyclic), ((0, 1, 2), ((0,), (1,), (2,)))
    # one run moved by one ulp: only the swap of axes 1 and 2 survives
    pts = gen_ccd(3, 1.5, 1).coords.tolist()
    pts[0] = (np.nextafter(-1.0, 0.0), -1.0, -1.0)
    yield "one-ulp perturbed run", _with_points(pts), ((), ((0,), (1, 2)))
    yield ("no symmetry", _with_points([(0.1, 0.2, 0.3), (0.5, -0.4, 0.0), (-0.7, 0.6, 0.9)]),
           _box_symmetry(3))


@pytest.mark.parametrize("design,want", [case[1:] for case in _symmetry_cases()],
                         ids=[case[0] for case in _symmetry_cases()])
def test_symmetry_truth_table(design, want):
    assert _symmetry(design) == want


class TestGridChunks:
    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    def test_bounded_chunks_in_c_order(self, shape):
        region = Region(shape, 1.0)
        chunks = list(_grid_chunks(region, 0.25, _box_symmetry(3), chunk_rows=100))
        assert max(len(c) for c in chunks) <= 100
        assert np.array_equal(np.vstack(chunks), _box_grid(region, 3, 0.25))

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    @pytest.mark.parametrize("symmetry", [
        ((0, 1), ((0, 1),)),
        ((0, 1, 2), ((0, 1, 2),)),
        ((), ((0, 1, 2, 3, 4),)),
        ((1, 2, 3, 4), ((0,), (1, 2, 3, 4))),
        ((0, 2, 4), ((0, 2, 4), (1, 3))),
        ((1,), ((0, 3), (1,), (2,))),
    ], ids=["full-k2", "full-k3", "factorial-k5", "axial-k5",
            "non-adjacent-blocks-k5", "mixed-k4"])
    @pytest.mark.parametrize("chunk_rows", [1, 100])
    def test_fundamental_domain_in_c_order(self, shape, symmetry, chunk_rows):
        region = Region(shape, 1.0)
        chunks = list(_grid_chunks(region, 0.25, symmetry, chunk_rows=chunk_rows))
        assert max(len(c) for c in chunks) <= chunk_rows
        flips, blocks = symmetry
        box = _box_grid(region, sum(map(len, blocks)), 0.25)
        keep = np.all(box[:, list(flips)] >= 0, axis=1)
        for block in blocks:
            keep &= np.all(np.diff(box[:, list(block)], axis=1) >= 0, axis=1)
        assert np.array_equal(np.vstack(chunks), box[keep])

    def test_fundamental_domain_keeps_the_size_guard(self):
        with pytest.raises(ValueError, match="coarser grid step"):
            next(_grid_chunks(CUBE1, 0.001, ((0, 1, 2, 3, 4), ((0, 1, 2, 3, 4),))))


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

    @staticmethod
    def entrywise(region, k):
        """The moments matrix written entry by entry from the docstring."""
        s, p = region.size, num_params(k)
        if region.shape is RegionShape.CUBOIDAL:
            m2, m4, m22 = s ** 2 / 3, s ** 4 / 5, s ** 4 / 9
        else:
            m2 = s ** 2 / (k + 2)
            m4 = 3 * s ** 4 / ((k + 2) * (k + 4))
            m22 = s ** 4 / ((k + 2) * (k + 4))
        M = np.zeros((p, p))
        M[0, 0] = 1.0
        for i in range(k):
            M[1 + i, 1 + i] = m2
            M[0, 1 + k + i] = M[1 + k + i, 0] = m2
            for j in range(k):
                M[1 + k + i, 1 + k + j] = m4 if i == j else m22
        for idx in range(1 + 2 * k, p):
            M[idx, idx] = m22
        return M

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    @pytest.mark.parametrize("k", [2, 3, 5, 12])
    def test_memoized_read_only_and_exact(self, shape, k):
        region = Region(shape, 1.3)
        M = region_moments(region, k)
        assert region_moments(Region(shape, 1.3), k) is M
        assert not M.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 2.0
        assert np.array_equal(M, region_moments.__wrapped__(region, k))
        assert M.tobytes() == self.entrywise(region, k).tobytes()


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

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sphere_points_memo_matches_fresh(self, k):
        cached = _unit_sphere_points(k, 200)
        assert np.array_equal(cached, _unit_sphere_points.__wrapped__(k, 200))
        assert np.array_equal(sphere_points(k, 1.7, 200), 1.7 * cached)

    def test_sphere_points_memo_is_read_only(self):
        cached = _unit_sphere_points(3, 200)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
        pts = sphere_points(3, 1.0, 200)
        pts[0, 0] = 99.0
        assert sphere_points(3, 1.0, 200)[0, 0] != 99.0

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
