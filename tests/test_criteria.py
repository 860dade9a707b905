import dataclasses
import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from ccdrobust import criteria, missing
from ccdrobust.cli import DEFAULT_ALPHAS, main
from ccdrobust.criteria import (
    _MAX_SAMPLES,
    Region,
    RegionShape,
    _grid_chunks,
    _grid_half_width,
    _sphere_rows,
    a_trace,
    criteria_report,
    g_max,
    information_inverse,
    monte_carlo_moments,
    probe_spv,
    region_moments,
    rotatability_index,
    sample_region,
    sphere_points,
    spv_many,
    v_avg,
)
from ccdrobust.design import (_MAX_K, _MAX_N0, Design, PointClass, canonical_probe_points,
                              gen_ccd)
from ccdrobust.linalg import SingularMatrixError
from ccdrobust.missing import (delete_rows, relative_g_efficiency, relative_v_efficiency,
                               scenario_sweep)
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

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("n0", [1, 4])
    def test_exactly_symmetric(self, k, n0):
        # X'X and L^{-T} L^{-1} are both symmetric rank-k updates, so the
        # inverse is symmetric to the last bit without being symmetrized
        checked = 0
        for alpha in DEFAULT_ALPHAS[k]:
            full = gen_ccd(k, alpha, n0)
            for d in [full] + [delete_rows(full, [full.rows_of_class(cls)[0]])
                               for cls in PointClass]:
                try:
                    Minv = information_inverse(d)
                except SingularMatrixError:
                    continue
                assert np.array_equal(Minv, Minv.T)
                checked += 1
        # a center run is the only point of a one-center-run design that
        # some alpha (k=4, alpha=2) cannot lose
        assert checked >= 4 * len(DEFAULT_ALPHAS[k]) - 1

    def test_failed_inversion_not_kept(self, invert_calls):
        # 5 runs left of a k=2 design cannot estimate p=6 parameters
        res = delete_rows(gen_ccd(2, 1.0, 4), list(range(7)))
        for attempt in (1, 2):
            with pytest.raises(SingularMatrixError):
                a_trace(res)
            assert invert_calls[0] == attempt
        with pytest.raises(SingularMatrixError):
            g_max(res, CUBE1, grid_step=0.5)
        assert invert_calls[0] == 3
        assert set(res._memoized) == {"model_matrix", "probe_rows"}

    def test_sweep_expands_and_averages_each_design_once(self, monkeypatch, ccd_templates):
        # each alpha's full design expands its model rows and its probe rows,
        # and its three residuals slice theirs from its model rows; V of the
        # four designs is one stacked call
        from ccdrobust import missing, model
        counts = {}

        def counting(real):
            def wrapper(*args):
                counts[real.__name__] = counts.get(real.__name__, 0) + 1
                return real(*args)
            return wrapper

        expand = counting(model.expand_points)
        monkeypatch.setattr(model, "expand_points", expand)
        monkeypatch.setattr(criteria, "expand_points", expand)
        v = counting(criteria._v_from_moments)
        monkeypatch.setattr(criteria, "_v_from_moments", v)
        monkeypatch.setattr(missing, "_v_from_moments", v)
        scenario_sweep(3, 4, [1.5], CUBE1)
        assert counts == {"expand_points": 2, "_v_from_moments": 1}
        scenario_sweep(3, 4, [1.7, 2.0], CUBE1)
        assert counts == {"expand_points": 6, "_v_from_moments": 3}

    def test_sweep_inverts_each_design_once(self, invert_calls):
        # 8 alphas x (full design + 3 single-deletion residuals)
        scenario_sweep(3, 4, DEFAULT_ALPHAS[3], CUBE1)
        assert invert_calls[0] == 32

    def test_criteria_report_inverts_once(self, invert_calls):
        # the G grid is searched in chunks, each through spv_many
        criteria_report(gen_ccd(3, 1.681, 4), grid_step=0.1)
        assert invert_calls[0] == 1

    def test_criteria_report_default_inverts_once(self, invert_calls):
        criteria_report(gen_ccd(3, 1.681, 4))
        assert invert_calls[0] == 1

    def test_designs_memoize_arrays_alone(self, monkeypatch):
        # a design keeps its model rows, probe rows and inverse, each under
        # the key of the one function that computes it; A, G and V are
        # computed on every call
        designs = []
        post_init = Design.__post_init__

        def recording(self):
            designs.append(self)
            post_init(self)

        monkeypatch.setattr(Design, "__post_init__", recording)
        sphere = Region(RegionShape.SPHERICAL, math.sqrt(3))
        for region in (CUBE1, sphere):
            for step in (None, 0.5):
                scenario_sweep(3, 4, [1.0, 1.7], region, grid_step=step)
                criteria_report(gen_ccd(3, 1.7, 1), region, step)
        full = gen_ccd(3, 1.5, 4)
        g_max(full, CUBE1, grid_step=0.25)
        probe_spv(full)
        for cls in PointClass:
            res = delete_rows(full, [full.rows_of_class(cls)[0]])
            relative_g_efficiency(full, res, sphere, 0.5)
            relative_v_efficiency(full, res, CUBE1)
            probe_spv(res)
        keys = {"model_matrix", "probe_rows", "information_inverse"}
        assert len(designs) == 8 + 4 + 1 + 3
        for d in designs:
            assert set(d._memoized) <= keys
            assert all(isinstance(a, np.ndarray) and not a.flags.writeable
                       for a in d._memoized.values())
        assert set(designs[-1]._memoized) == set(full._memoized) == keys


class TestSpv:
    def test_k2_factorial_vertex(self):
        assert spv_many(gen_ccd(2, 1.0, 4), np.array([[1.0, 1.0]]))[0] == pytest.approx(
            9.500, abs=1e-3)

    def test_k2_alpha2_mirror(self):
        assert spv_many(gen_ccd(2, 2.0, 4), np.array([[1.0, 1.0]]))[0] == pytest.approx(
            6.000, abs=1e-3)

    def test_k3_center(self):
        assert spv_many(gen_ccd(3, 1.732, 4), np.zeros((1, 3)))[0] == pytest.approx(
            4.499, abs=1e-3)

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
        assert spv_many(d, np.array([x]))[0] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("shape", [(4, 2), (3,), (2, 3, 3)])
    def test_rejects_points_not_m_by_k(self, shape):
        with pytest.raises(ValueError, match=rf"m x 3 array, got shape \({shape[0]},"):
            spv_many(gen_ccd(3, 1.5, 4), np.zeros(shape))

    def test_accepts_a_list_of_points(self):
        d = gen_ccd(2, 1.0, 4)
        assert np.array_equal(spv_many(d, [(1.0, 1.0), (0.5, -0.2)]),
                              spv_many(d, np.array([(1.0, 1.0), (0.5, -0.2)])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_points_not_finite(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            spv_many(gen_ccd(2, 1.0, 4), [[bad, 0.0]])

    def test_no_points_no_values(self):
        assert spv_many(gen_ccd(3, 1.5, 4), np.empty((0, 3))).shape == (0,)

    def test_sign_flip_and_permutation_invariance(self):
        d = gen_ccd(3, 1.5, 4)
        base, flipped, permuted = spv_many(
            d, np.array([(0.4, -0.9, 1.2), (-0.4, -0.9, 1.2), (1.2, 0.4, -0.9)]))
        assert flipped == pytest.approx(base, rel=1e-12)
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_spv_not_finite_is_refused_naming_the_point(self):
        # was [inf] without a word: the point's model row is finite, its
        # quartic terms overflow in the product
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "SPV at point (1e+100, 0.0) is not finite")):
                spv_many(gen_ccd(2, 1.0, 4), [[1e100, 0.0]])

    def test_spv_of_an_overflowing_row_is_refused_after_its_warning(self):
        # was [nan]: the expansion's own overflow warning stays, as the
        # sphere rows' does
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=re.escape(
                    "SPV at point (1e+200, 0.0) is not finite")):
                spv_many(gen_ccd(2, 1.0, 4), [[1e200, 0.0]])
        assert any("overflow" in str(w.message) for w in caught)

    def test_first_point_not_finite_is_named_in_a_later_block(self):
        d = gen_ccd(3, 1.5, 4)
        pts = np.zeros((3 * criteria._spv_width(10), 3))
        pts[9000] = (0.5, 1e100, 0.0)
        pts[9001] = (1e100, 0.0, 0.0)
        with pytest.raises(ValueError, match=re.escape(
                "SPV at point (0.5, 1e+100, 0.0) is not finite")):
            spv_many(d, pts)


class TestSpvBlocks:
    """criteria._spv and spv_many in _spv_width blocks of columns."""

    def test_width_is_the_power_of_two_above_the_block_bytes(self):
        # k = 2, 3, 5, 8 and 12
        widths = {p: criteria._spv_width(p) for p in (6, 10, 21, 45, 91)}
        assert widths == {6: 8192, 10: 4096, 21: 2048, 45: 1024, 91: 512}
        for p, width in widths.items():
            assert width // 2 < criteria._SPV_BLOCK_BYTES / (8 * p) <= width

    @pytest.mark.parametrize("k", [2, 3, 5, 12])
    def test_kernel_against_one_shot(self, k):
        # up to one block the kernel is the one-shot expression, to the bit;
        # above it each block's last columns may round differently
        d = gen_ccd(k, 1.5, 1)
        Minv = information_inverse(d)
        B = criteria._spv_width(num_params(k))
        rng = np.random.default_rng(k)
        for m in (1, B - 1, B, B + 1, 2 * B + 1):
            F = expand_points(rng.uniform(-1.5, 1.5, (m, k)))
            want = d.n * np.einsum("ij,ij->j", Minv @ F.T, F.T)
            got = criteria._spv(d.n, Minv, F)
            if m <= B:
                assert got.tobytes() == want.tobytes(), m
            else:
                assert (np.abs(got - want) <= 4 * np.spacing(want)).all(), m

    @pytest.mark.parametrize("k", [2, 5])
    def test_spv_many_is_its_per_block_calls(self, k):
        d = gen_ccd(k, 1.682, 4)
        B = criteria._spv_width(num_params(k))
        pts = np.random.default_rng(0).uniform(-1, 1, (3 * B + 7, k))
        want = np.concatenate([spv_many(d, pts[i:i + B]) for i in range(0, len(pts), B)])
        assert spv_many(d, pts).tobytes() == want.tobytes()

    def test_spv_many_memory_grows_with_the_block_not_m(self):
        # 200,000 points at k = 5: 8 MB in, 1.6 MB out; the one-shot kernel
        # peaked at 68.8 MB, for F and M^-1 F' of all the points at once
        d = gen_ccd(5, 2.0, 4)
        pts = np.random.default_rng(0).uniform(-1, 1, (200_000, 5))
        spv_many(d, pts[:1])  # the inverse, kept by the design
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            vals = spv_many(d, pts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < pts.nbytes + vals.nbytes + 2 ** 21


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

    def test_default_searches_no_grid(self):
        # one default everywhere: design rows and probes only
        d = gen_ccd(3, 1.5, 4)
        assert g_max(d, CUBE1) == g_max(d, CUBE1, None)
        assert criteria_report(d) == criteria_report(d, CUBE1, None)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            g_max(gen_ccd(2, 1.0, 4), CUBE1, grid_step=-0.1)

    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
    def test_rejects_step_not_finite(self, step):
        d = gen_ccd(2, 1.0, 4)
        for search in (g_max, criteria_report):
            with pytest.raises(ValueError, match="grid_step must be finite and > 0"):
                search(d, CUBE1, step)
        with pytest.raises(ValueError, match="grid_step must be finite and > 0"):
            scenario_sweep(2, 4, [1.0], CUBE1, grid_step=step)

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

    def test_g_not_finite_is_refused_naming_size_and_step(self, grid_cache):
        # was (inf, (0.0, 1e+100)) without a word
        region = Region(RegionShape.CUBOIDAL, 1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "G over the region of size 1e+100 at grid step 1e+100 is not finite")):
                g_max(gen_ccd(2, 1.0, 4), region, 1e100)

    def test_nan_chunk_is_refused_not_dropped(self, grid_cache):
        # was (9.5, (-1.0, -1.0)): the grid's nan chunk lost to max(best, nan)
        region = Region(RegionShape.CUBOIDAL, 1e200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=re.escape(
                    "G over the region of size 1e+200 at grid step 1e+200 is not finite")):
                g_max(gen_ccd(2, 1.0, 4), region, 1e200)
        assert any("overflow" in str(w.message) for w in caught)


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
    """The grid points of the region's bounding box in the region, in C order:
    the axis reaches one index past size / step, and Region.contains filters."""
    n1 = int(region.size / step) + 1
    axis = np.arange(-n1, n1 + 1, dtype=float) * step
    grid = np.array(list(itertools.product(axis, repeat=k)))
    return grid[region.contains(grid)]


# 5 * step = 1 + 1e-10 is just outside the cube and the ball of size 1
EDGE_STEP = 1 / (5 - 5e-10)


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
        assert spv_many(design, np.array([loc]))[0] == pytest.approx(val, rel=1e-12, abs=0)
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

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    @pytest.mark.parametrize("deleted", [None, *PointClass])
    def test_edge_step_matches_brute_force(self, shape, deleted):
        d = gen_ccd(3, 1.7, 2)
        if deleted is not None:
            d = _deleted(d, deleted)
        self.assert_matches_brute_force(d, Region(shape, 1.0), EDGE_STEP)

    def test_tied_grid_maximum_in_fundamental_domain(self):
        val, loc = g_max(gen_ccd(5, 1.0, 4), CUBE1, grid_step=0.2)
        assert loc == (0.0, 0.0, 1.0, 1.0, 1.0)
        mirror = np.array([[-1.0, -1.0, -1.0, 0.0, 0.0]])
        assert spv_many(gen_ccd(5, 1.0, 4), mirror)[0] == pytest.approx(val, rel=1e-12)
        # the same rows built directly state no symmetry: the whole box is
        # searched, and the tie is reported at its first point in C order
        full = gen_ccd(5, 1.0, 4)
        box_val, box_loc = g_max(Design(full.alpha, full.coords, full.classes), CUBE1,
                                 grid_step=0.2)
        assert box_val == pytest.approx(val, rel=1e-12, abs=0)
        assert box_loc == (-1.0, -1.0, -1.0, 0.0, 0.0)

    def test_domain_sizes(self, monkeypatch):
        # rows handed to the SPV kernel: the design rows, 3 probes, then the
        # grid, whether its domain is expanded now or was cached
        counts = []
        real = criteria._spv

        def counting(n, Minv, F):
            counts[-1] += len(F)
            return real(n, Minv, F)

        monkeypatch.setattr(criteria, "_spv", counting)
        full = gen_ccd(5, 1.5, 4)
        rng = np.random.default_rng(0)
        designs = {"full": (full, 126),
                   "center": (_deleted(full, PointClass.CENTER), 126),
                   "factorial": (_deleted(full, PointClass.FACTORIAL), 1287),
                   "axial": (_deleted(full, PointClass.AXIAL), 630),
                   "no symmetry": (_with_points(rng.uniform(-1, 1, (30, 5))), 9 ** 5),
                   # symmetric rows, but built directly: the whole box
                   "square": (_with_points(list(itertools.product((-1, 0, 1), repeat=2))),
                              9 ** 2)}
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


@pytest.mark.parametrize("design,want", [case[1:] for case in _symmetry_cases()],
                         ids=[case[0] for case in _symmetry_cases()])
def test_symmetry_truth_table(design, want):
    assert design._stated_symmetry == want


def _invariance(X):
    """Whether an n x k array holds X's rows, as a multiset counted with
    Counter.  A row is counted by the bytes of its values plus 0.0, which
    are equal exactly when the values are (adding 0.0 turns -0.0 into 0.0),
    and a quarter as costly as a tuple of floats; the counts compare as
    items, in C."""
    k = X.shape[1]

    def counts(Y):
        Y = np.ascontiguousarray(Y) + 0.0
        return Counter(Y.view(f"V{8 * k}").ravel().tolist()).items()

    rows = counts(X)
    return lambda Y: counts(Y) == rows


def _flipped(X, j):
    return np.where(np.arange(X.shape[1]) == j, -X, X)


def _swapped(X, a, c):
    axes = list(range(X.shape[1]))
    axes[a], axes[c] = c, a
    return X[:, axes]


def _assert_canonical(symmetry, k):
    """flips sorted, the blocks a partition of the axes, each sorted, and
    the blocks ordered by their first axis."""
    flips, blocks = symmetry
    assert list(flips) == sorted(set(flips))
    assert sorted(j for block in blocks for j in block) == list(range(k))
    assert all(list(block) == sorted(block) for block in blocks)
    assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)


def assert_symmetry_by_definition(X, symmetry):
    """A stated symmetry against its definition for the rows X: an axis is
    in flips exactly when its sign flip leaves the rows unchanged, and two
    axes share a block exactly when swapping them does."""
    k = X.shape[1]
    _assert_canonical(symmetry, k)
    flips, blocks = symmetry
    invariant = _invariance(X)
    for j in range(k):
        assert invariant(_flipped(X, j)) == (j in flips), j
    block_of = {j: block for block in blocks for j in block}
    for a, c in itertools.combinations(range(k), 2):
        assert invariant(_swapped(X, a, c)) == (block_of[a] is block_of[c]), (a, c)


def assert_symmetry_is_a_subgroup(X, symmetry):
    """Every flip and every swap within a block of a stated symmetry leaves
    the rows X unchanged; the rows may have more symmetries."""
    _assert_canonical(symmetry, X.shape[1])
    flips, blocks = symmetry
    invariant = _invariance(X)
    for j in flips:
        assert invariant(_flipped(X, j)), j
    for block in blocks:
        for a, c in itertools.combinations(block, 2):
            assert invariant(_swapped(X, a, c)), (a, c)


class TestSymmetryAgainstOracle:
    """The symmetry gen_ccd and delete_rows state, against its definition."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_every_single_deletion(self, k):
        for alpha in (0.5, 1.0, 1.3, math.sqrt(k), 2.0):
            for n0 in (1, 4):
                full = gen_ccd(k, alpha, n0)
                assert_symmetry_by_definition(full.coords, full._stated_symmetry)
                for row in range(full.n):
                    res = delete_rows(full, [row])
                    assert_symmetry_by_definition(res.coords, res._stated_symmetry)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_seeded_triple_deletions(self, k):
        # a residual without three rows states a subgroup of its symmetry:
        # a flip or swap that maps the deleted rows onto each other is lost
        rng = np.random.default_rng(100 + k)
        for alpha in (1.0, math.sqrt(k)):
            full = gen_ccd(k, alpha, 2)
            for _ in range(40):
                residual = delete_rows(full, rng.choice(full.n, 3, replace=False).tolist())
                assert_symmetry_is_a_subgroup(residual.coords, residual._stated_symmetry)

    @pytest.mark.parametrize("k", range(2, _MAX_K + 1))
    def test_sweep_symmetries(self, k, monkeypatch):
        # the full design's and those of the residuals without rows 0, 2^k
        # and 2^k + 2k, which scenario_sweep hands its grid scans
        scanned = []

        def recording(n, Minv, rows, probes, symmetry, region, grid_step):
            scanned.append(symmetry)
            return 1.0, None

        monkeypatch.setattr(missing, "_g_scan", recording)
        scenario_sweep(k, 2, [1.5], CUBE1, grid_step=1.0)
        X = gen_ccd(k, 1.5, 2).coords
        rows = [X] + [np.delete(X, row, axis=0) for row in (0, 2 ** k, 2 ** k + 2 * k)]
        assert len(scanned) == 4
        for Y, symmetry in zip(rows, scanned):
            assert_symmetry_by_definition(Y, symmetry)

    def test_deletions_in_turn_state_what_one_deletion_does(self):
        full = gen_ccd(4, 1.5, 2)
        rows = [3, 17, 20]
        res = full
        for row in sorted(rows, reverse=True):
            res = delete_rows(res, [row])
        assert res._stated_symmetry == delete_rows(full, rows)._stated_symmetry
        assert np.array_equal(res.coords, delete_rows(full, rows).coords)

    def test_hand_built_design_states_no_symmetry(self):
        # the rows of the square and of a CCD are symmetric, but a design
        # built directly is searched over its whole box, as is its residual
        full = gen_ccd(3, 1.5, 2)
        for d in (_with_points([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
                  Design(full.alpha, full.coords, full.classes)):
            assert d._stated_symmetry == _box_symmetry(d.k)
            assert delete_rows(d, [d.n - 1])._stated_symmetry == _box_symmetry(d.k)


class TestGridChunks:
    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    def test_bounded_chunks_in_c_order(self, shape, monkeypatch):
        monkeypatch.setattr(criteria, "_GRID_CHUNK_ROWS", 100)
        region = Region(shape, 1.0)
        chunks = list(_grid_chunks(region, 0.25, _box_symmetry(3)))
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
    def test_fundamental_domain_in_c_order(self, shape, symmetry, chunk_rows,
                                           monkeypatch):
        monkeypatch.setattr(criteria, "_GRID_CHUNK_ROWS", chunk_rows)
        region = Region(shape, 1.0)
        chunks = list(_grid_chunks(region, 0.25, symmetry))
        assert max(len(c) for c in chunks) <= chunk_rows
        flips, blocks = symmetry
        box = _box_grid(region, sum(map(len, blocks)), 0.25)
        keep = np.all(box[:, list(flips)] >= 0, axis=1)
        for block in blocks:
            keep &= np.all(np.diff(box[:, list(block)], axis=1) >= 0, axis=1)
        assert np.array_equal(np.vstack(chunks), box[keep])

    def test_cube_inside_grid_is_not_filtered(self, monkeypatch):
        # Region.contains sees the axis values at n1 = 4 and n1 + 1 only,
        # never a grid point of the cube
        tested = []
        real = Region.contains

        def recording(self, pts):
            tested.append(np.asarray(pts).tolist())
            return real(self, pts)

        monkeypatch.setattr(Region, "contains", recording)
        monkeypatch.setattr(criteria, "_GRID_CHUNK_ROWS", 100)
        chunks = list(_grid_chunks(CUBE1, 0.25, _box_symmetry(3)))
        assert tested == [[[1.0]], [[1.25]]]
        monkeypatch.undo()
        assert np.array_equal(np.vstack(chunks), _box_grid(CUBE1, 3, 0.25))

    def test_cube_edge_past_the_tolerance_is_dropped(self):
        assert _grid_half_width(CUBE1, EDGE_STEP, 3) == 4
        pts = np.vstack(list(_grid_chunks(CUBE1, EDGE_STEP, _box_symmetry(3))))
        assert len(pts) == 9 ** 3
        assert np.array_equal(pts, _box_grid(CUBE1, 3, EDGE_STEP))
        assert np.max(np.abs(pts)) == 4 * EDGE_STEP

    def test_ball_edge_past_the_tolerance_is_dropped(self):
        ball = Region(RegionShape.SPHERICAL, 1.0)
        assert _grid_half_width(ball, EDGE_STEP, 3) == 4
        pts = np.vstack(list(_grid_chunks(ball, EDGE_STEP, _box_symmetry(3))))
        assert np.array_equal(pts, _box_grid(ball, 3, EDGE_STEP))
        assert np.max(np.abs(pts)) == 4 * EDGE_STEP

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    @pytest.mark.parametrize("size,step", [
        *itertools.product([1.0, math.sqrt(3), 0.9], [0.25, 0.1, 1 / 3, 0.3, EDGE_STEP]),
        (1e-6, 1e-7)])
    def test_half_width_is_the_last_axis_value_inside(self, shape, size, step):
        region = Region(shape, size)
        n1 = _grid_half_width(region, step, 2)
        assert region.contains(np.array([[n1 * step]]))[0]
        assert not region.contains(np.array([[(n1 + 1) * step]]))[0]

    @pytest.mark.parametrize("shape,size,step,k,floored,n1", [
        # int(0.3 / 0.1) is 2, yet 3 * 0.1 lies inside: raised
        (RegionShape.CUBOIDAL, 0.3, 0.1, 2, 2, 3),
        (RegionShape.SPHERICAL, 0.3, 0.1, 2, 2, 3),
        # int(size / step) is 4997, yet 4997 * step lies outside: lowered
        (RegionShape.CUBOIDAL, 166566.66666666663, 33.33333333333333, 2, 4997, 4996)])
    def test_half_width_corrects_the_floored_ratio(self, shape, size, step, k,
                                                   floored, n1):
        region = Region(shape, size)
        assert int(size / step) == floored
        assert _grid_half_width(region, step, k) == n1
        assert region.contains(np.array([[n1 * step]]))[0]
        assert not region.contains(np.array([[(n1 + 1) * step]]))[0]

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    def test_tolerance_is_a_distance(self, shape):
        # 1e-12 past the edge on either shape; a tolerance on a ball's squared
        # radius would admit points 40% outside a ball of radius 1e-6
        region = Region(shape, 1e-6)
        on_axis = np.array([[1e-6 + 5e-13, 0.0], [1e-6 + 2e-12, 0.0], [1.4e-6, 0.0]])
        assert region.contains(on_axis).tolist() == [True, False, False]
        assert _grid_half_width(region, 1e-7, 2) == 10

    def test_size_guard_counts_the_searched_grid(self):
        # 9^8 points are searched; the 11^8 box past the cube's edge is not
        assert _grid_half_width(CUBE1, EDGE_STEP, 8) == 4
        with pytest.raises(ValueError, match="coarser grid step"):
            _grid_half_width(CUBE1, 0.2, 8)

    def test_fundamental_domain_keeps_the_size_guard(self):
        with pytest.raises(ValueError, match="coarser grid step"):
            next(_grid_chunks(CUBE1, 0.001, ((0, 1, 2, 3, 4), ((0, 1, 2, 3, 4),))))


class TestGridCache:
    def test_sweep_builds_each_domain_once(self, grid_cache, tmp_path, monkeypatch):
        built = []
        real = criteria._grid_chunks

        def recording(region, step, symmetry, *args, **kwargs):
            built.append((region, step, symmetry))
            return real(region, step, symmetry, *args, **kwargs)

        monkeypatch.setattr(criteria, "_grid_chunks", recording)
        assert main(["sweep", "--k", "3", "--grid-step", "0.5",
                     "--out", str(tmp_path)]) == 0
        # full and center-deleted designs share a symmetry at every alpha
        symmetries = {d._stated_symmetry for alpha in DEFAULT_ALPHAS[3]
                      for full in [gen_ccd(3, alpha, 4)]
                      for d in [full] + [_deleted(full, cls) for cls in PointClass]}
        assert len(symmetries) == 3
        assert sorted(built, key=repr) == sorted(
            ((CUBE1, 0.5, sym) for sym in symmetries), key=repr)
        assert set(grid_cache) == set(built)

    def test_cached_arrays_are_read_only(self, grid_cache):
        g_max(gen_ccd(3, 1.5, 4), CUBE1, grid_step=0.25)
        (chunks,) = grid_cache.values()
        for F in chunks:
            assert not F.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                F[0, 0] = 2.0

    def test_domain_over_budget_streams_and_is_not_kept(self, grid_cache, monkeypatch):
        # the k=3 full domain at step 0.25 is 35 points x 10 columns x 8 bytes
        monkeypatch.setattr(criteria, "_GRID_CACHE_BYTES", 35 * 10 * 8 - 1)
        built = []
        real = criteria._grid_chunks

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(criteria, "_grid_chunks", counting)
        first = g_max(gen_ccd(3, 1.5, 4), CUBE1, grid_step=0.25)
        assert not grid_cache
        assert g_max(gen_ccd(3, 1.5, 4), CUBE1, grid_step=0.25) == first
        assert len(built) == 2 and not grid_cache

    def test_domains_are_kept_while_they_fit(self, grid_cache, monkeypatch):
        # k=3 domains at step 0.5: full 10 points, factorial 35, axial 30, each
        # 80 bytes a point; the full and factorial domains leave 2,200 bytes
        monkeypatch.setattr(criteria, "_GRID_CACHE_BYTES", 5000)
        built = []
        real = criteria._grid_chunks

        def recording(region, step, symmetry):
            built.append(symmetry)
            return real(region, step, symmetry)

        monkeypatch.setattr(criteria, "_grid_chunks", recording)
        full = gen_ccd(3, 1.5, 4)
        designs = [full] + [_deleted(full, cls)
                            for cls in (PointClass.FACTORIAL, PointClass.AXIAL)]
        keys = [(CUBE1, 0.5, d._stated_symmetry) for d in designs]
        for d in designs:
            g_max(d, CUBE1, grid_step=0.5)
        assert list(grid_cache) == keys[:2]
        assert [sum(F.nbytes for F in grid_cache[key]) for key in keys[:2]] == [800, 2800]
        g_max(_deleted(gen_ccd(3, 2.0, 4), PointClass.AXIAL), CUBE1, grid_step=0.5)
        assert built == [key[2] for key in keys] + [keys[2][2]]
        assert list(grid_cache) == keys[:2]
        assert sum(F.nbytes for chunks in grid_cache.values() for F in chunks) <= 5000

    def test_cyclic_sweep_rebuilds_only_the_domain_that_does_not_fit(
            self, grid_cache, monkeypatch):
        # a sweep's order: per alpha the full design, then each class's
        # residual; room for two of the three k=3 domains at step 0.5
        monkeypatch.setattr(criteria, "_GRID_CACHE_BYTES", 5000)
        built = []
        real = criteria._grid_chunks

        def counting(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(criteria, "_grid_chunks", counting)
        for alpha in (1.5, 2.0, 2.5):
            full = gen_ccd(3, alpha, 4)
            for d in [full] + [_deleted(full, cls) for cls in PointClass]:
                g_max(d, CUBE1, grid_step=0.5)
        # full and factorial built once, axial once per alpha
        assert len(built) == 5

    def test_threads_share_the_cache(self, grid_cache, monkeypatch):
        # more threads than cores and a short switch interval; room for two
        # of the three k=3 domains, so lookups race with check-and-inserts
        # and the one left out streams on every search
        monkeypatch.setattr(criteria, "_GRID_CACHE_BYTES", 5000)

        def searches():
            full = gen_ccd(3, 1.5, 4)
            return [g_max(d, CUBE1, grid_step=0.5)
                    for d in [full] + [_deleted(full, cls) for cls in PointClass]]

        want = searches()
        results, errors = [], []

        def worker():
            try:
                for _ in range(25):
                    results.append(searches())
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 8 * 25 and all(r == want for r in results)
        assert sum(F.nbytes for chunks in grid_cache.values() for F in chunks) <= 5000

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cold_and_warm_cache_agree_bit_for_bit(self, grid_cache, monkeypatch,
                                                   shape, k):
        region = Region(shape, 1.0 if shape is RegionShape.CUBOIDAL else math.sqrt(k))

        def searches():
            full = gen_ccd(k, 1.5, 4)
            return [g_max(d, region, grid_step=0.25)
                    for d in [full] + [_deleted(full, cls) for cls in PointClass]]

        cold = searches()
        assert grid_cache
        monkeypatch.setattr(criteria, "_grid_chunks", None)  # every domain is cached
        warm = searches()
        monkeypatch.undo()
        monkeypatch.setattr(criteria, "_GRID_CACHE_BYTES", 0)
        grid_cache.clear()
        streamed = searches()
        assert not grid_cache
        # repr round-trips a float exactly, the sign of a zero included
        assert repr(cold) == repr(warm) == repr(streamed)


class TestGEfficiency:
    def test_k2(self):
        eff = criteria_report(gen_ccd(2, 1.0, 4), CUBE1, grid_step=None).g_eff
        assert eff == pytest.approx(6 / 9.5, abs=1e-3)

    def test_k3(self):
        eff = criteria_report(gen_ccd(3, 1.0, 4), CUBE1, grid_step=None).g_eff
        assert eff == pytest.approx(10 / 14.292, abs=1e-3)

    def test_is_p_over_g_max(self):
        d = gen_ccd(3, 1.5, 4)
        rep = criteria_report(d, CUBE1, grid_step=0.5)
        assert rep.g_eff == num_params(3) / g_max(d, CUBE1, grid_step=0.5)[0]


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

    @pytest.mark.parametrize("shape", list(RegionShape))
    @pytest.mark.parametrize("size", [1e77, 1e100, 1e300], ids=repr)
    def test_overflowing_size_refused_naming_it(self, shape, size):
        # was an OverflowError from size ** 4, or at 1e77 a fourth moment
        # that made V nan; (max / 3) ** (1 / 4) = 8.80e76 is the bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"region size {size!r} is too large: its moments overflow")):
                region_moments(Region(shape, size), 2)
            assert np.isfinite(region_moments(Region(shape, 8.7e76), 12)).all()


class TestMonteCarloMoments:
    @staticmethod
    def untiled(pts, n):
        """mean and se from one F'F and (F*F)'(F*F) over all the points."""
        F = expand_points(pts)
        F2 = F * F
        mean = F.T @ F / n
        var = (F2.T @ F2 - n * mean ** 2) / (n - 1)
        return mean, np.sqrt(np.maximum(var, 0.0) / n)

    @staticmethod
    def assert_close(got, want):
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    def test_tiles_only_reorder_the_sums(self, shape, monkeypatch):
        # crosses a chunk boundary and leaves partial tiles in both chunks
        region, k, seed = Region(shape, 1.7), 4, 9
        n = criteria._MC_CHUNK + criteria._MC_TILE + 1
        rng = np.random.default_rng(seed)
        pts = np.vstack([sample_region(region, k, m, rng)
                         for m in (criteria._MC_CHUNK, n - criteria._MC_CHUNK)])
        rows = []

        def counting_expand(tile):
            rows.append(len(tile))
            return expand_points(tile)

        monkeypatch.setattr(criteria, "expand_points", counting_expand)
        self.assert_close(monte_carlo_moments(region, k, n, seed), self.untiled(pts, n))
        assert max(rows) == criteria._MC_TILE and sum(rows) == n

    @pytest.mark.parametrize("shape", [RegionShape.CUBOIDAL, RegionShape.SPHERICAL])
    def test_one_chunk_samples_are_sample_region_rows(self, shape):
        region, k, seed = Region(shape, 1.7), 3, 4
        n = 3 * criteria._MC_TILE + 5
        self.assert_close(monte_carlo_moments(region, k, n, seed),
                          self.untiled(sample_region(region, k, n, seed), n))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_ball_samples_are_unit_directions_times_radii(self, k):
        n, seed, r = 50_000, 11, 1.7
        pts = sample_region(Region(RegionShape.SPHERICAL, r), k, n, seed)
        rng = np.random.default_rng(seed)
        rng.standard_normal((n, k))             # the directions' draws
        radii = r * rng.random(n) ** (1.0 / k)
        assert np.all(radii <= r)
        assert np.all(np.linalg.norm(pts, axis=1) <= r * (1 + 1e-15))
        norms = np.linalg.norm(pts / radii[:, None], axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-15


class TestVAvg:
    def test_matches_table_value(self):
        assert v_avg(gen_ccd(2, 1.0, 4), CUBE1) == pytest.approx(3.633, abs=2e-3)

    def test_self_measure_gives_p(self):
        # if the region moments equal (1/N) X'X, the average is exactly p
        d = gen_ccd(3, 1.681, 4)
        X = model_matrix(d)
        M = X.T @ X / d.n
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

    @pytest.mark.parametrize("shape", list(RegionShape))
    def test_overflowing_v_refused_naming_the_size(self, shape):
        # the moments are finite, N tr(M^-1 M_R) is not: V was inf or nan,
        # with a RuntimeWarning
        full = gen_ccd(2, 0.01, 4)
        region = Region(shape, 1e76)
        assert np.isfinite(region_moments(region, 2)).all()
        message = re.escape("V over the region of size 1e+76 is not finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                v_avg(full, region)
            with pytest.raises(ValueError, match=message):
                relative_v_efficiency(full, delete_rows(full, [0]), region)
            with pytest.raises(ValueError, match=message):
                scenario_sweep(2, 4, [0.01], region)
            assert math.isfinite(v_avg(full, Region(shape, 1e75)))


class TestRotatability:
    def test_rotatable_k2(self):
        d = gen_ccd(2, 2 ** 0.5, 4)
        assert rotatability_index(d, 1.0) < 1e-6

    def test_near_rotatable_k3(self):
        assert rotatability_index(gen_ccd(3, 1.681, 4), 1.2) < 1e-3

    def test_non_rotatable_k2(self):
        assert rotatability_index(gen_ccd(2, 1.0, 4), 1.0) > 0.1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rotatability_index(gen_ccd(2, 1.0, 4), -1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_radius_not_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            rotatability_index(gen_ccd(2, 1.0, 4), radius)

    @pytest.mark.parametrize("radius", [1e50, 1e77, 1e80, 1e100, 1e154])
    def test_index_not_finite_is_refused_naming_the_radius(self, radius):
        # was nan without a word from 1e80 to 1e154, and inf or nan with a
        # RuntimeWarning below; the sphere's rows themselves are finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"rotatability index at radius {radius!r} is not finite")):
                rotatability_index(gen_ccd(3, 1.0, 4), radius)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_index_is_the_std_of_spv_many_on_the_sphere(self, k):
        d = gen_ccd(k, 1.5, 4)
        for radius in (1.0, 1.2, math.sqrt(k)):
            want = float(np.std(spv_many(d, sphere_points(k, radius, 200))))
            assert repr(rotatability_index(d, radius)) == repr(want)

    @pytest.mark.parametrize("radius", [True, np.True_, math.nan, -1.0], ids=repr)
    def test_refused_radius_is_not_kept(self, radius):
        # (3, 1.0) is kept first, and True == 1.0: the radius is checked
        # and made a float before the cache sees it
        d = gen_ccd(3, 1.5, 4)
        rotatability_index(d, 1.0)
        info = _sphere_rows.cache_info()
        assert info.currsize < info.maxsize
        with pytest.raises((TypeError, ValueError), match="radius must be"):
            rotatability_index(d, radius)
        assert _sphere_rows.cache_info().currsize == info.currsize

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sphere_points_memo_matches_fresh(self, k):
        # each call computes the points, and the radius scales them
        unit = sphere_points(k, 1.0, 200)
        assert np.array_equal(unit, sphere_points(k, 1.0, 200))
        assert np.array_equal(sphere_points(k, 1.7, 200), 1.7 * unit)

    def test_sphere_points_memo_is_read_only(self):
        # a caller's edit does not reach the next call
        pts = sphere_points(3, 1.0, 200)
        pts[0, 0] = 99.0
        assert sphere_points(3, 1.0, 200)[0, 0] != 99.0

    def test_sphere_points_bounds_k(self):
        pts = sphere_points(12, 2.0, 50)
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)
        with pytest.raises(ValueError, match=re.escape("k must be in [2, 12], got 13")):
            sphere_points(13, 1.0, 50)

    @pytest.mark.parametrize("args,message", [
        ((1, 1.0, 3), "k must be in [2, 12], got 1"),
        ((0, 1.0, 3), "k must be in [2, 12], got 0"),
        ((2, 1.0, 0), "n must be >= 1, got 0"),
        ((3, 1.0, 0), "n must be >= 1, got 0"),
        ((3, 1.0, -2), "n must be >= 1, got -2"),
        ((3, -1.0, 5), "radius must be finite and > 0, got -1.0"),
        ((3, 0.0, 5), "radius must be finite and > 0, got 0.0"),
        ((3, math.nan, 2), "radius must be finite and > 0, got nan"),
        ((3, math.inf, 2), "radius must be finite and > 0, got inf"),
    ])
    def test_sphere_points_rejects_bad_args(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sphere_points(*args)


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

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_rotatability_index_is_the_functions(self, k):
        for alpha in (1.0, 2 ** (k / 4), 1.5):
            d = gen_ccd(k, alpha, 4)
            rep = criteria_report(d)
            assert repr(rep.rotatability_index) == repr(rotatability_index(d, 1.0))
            assert repr(rep.rotatability_index) == repr(
                rotatability_index(gen_ccd(k, alpha, 4), 1.0))
            assert (rep.spv_factorial, rep.spv_axial, rep.spv_center) == probe_spv(d)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(RegionShape.CUBOIDAL, 0.0)
    with pytest.raises(ValueError):
        region_moments(CUBE1, 1)


@pytest.mark.parametrize("size", [True, False, np.True_], ids=repr)
def test_region_rejects_bool_size(size):
    # as gen_ccd refuses a bool alpha
    with pytest.raises(TypeError, match=re.escape(
            f"region size must be a real number, got {size!r}")):
        Region(RegionShape.CUBOIDAL, size)


BOOLS = [True, False, np.True_]


@pytest.mark.parametrize("step", BOOLS, ids=repr)
def test_grid_step_rejects_bool(step, grid_cache):
    # each public caller of a grid, after the step-1.0 domains are kept:
    # True == 1.0 as a cache key, so the check comes before the lookup
    full = gen_ccd(2, 1.0, 4)
    res = delete_rows(full, [0])
    g_max(full, CUBE1, 1.0)
    relative_g_efficiency(full, res, CUBE1, 1.0)
    assert grid_cache
    message = re.escape(f"grid_step must be a real number, got {step!r}")
    calls = [lambda: g_max(full, CUBE1, step),
             lambda: criteria_report(full, CUBE1, step),
             lambda: scenario_sweep(2, 4, [1.0], CUBE1, grid_step=step),
             lambda: relative_g_efficiency(full, res, CUBE1, step)]
    for call in calls:
        with pytest.raises(TypeError, match=message):
            call()


@pytest.mark.parametrize("radius", BOOLS, ids=repr)
def test_sphere_radius_rejects_bool(radius):
    message = re.escape(f"radius must be a real number, got {radius!r}")
    with pytest.raises(TypeError, match=message):
        rotatability_index(gen_ccd(2, 1.0, 4), radius)
    with pytest.raises(TypeError, match=message):
        sphere_points(3, radius, 5)


def _full_and_residual():
    full = gen_ccd(2, 1.0, 4)
    return full, delete_rows(full, [0])


# Every public entry that takes a real-valued argument: the name its messages
# give the argument, and a call with the value x.
_REAL_ARGUMENTS = {
    "gen_ccd alpha": ("alpha", lambda x: gen_ccd(2, x, 4)),
    "Region size": ("region size", lambda x: Region(RegionShape.CUBOIDAL, x)),
    "Region ball size": ("region size", lambda x: Region(RegionShape.SPHERICAL, x)),
    "sphere_points radius": ("radius", lambda x: sphere_points(3, x, 5)),
    "rotatability_index radius": ("radius",
                                  lambda x: rotatability_index(gen_ccd(3, 1.5, 4), x)),
    "g_max grid_step": ("grid_step", lambda x: g_max(gen_ccd(2, 1.0, 4), CUBE1, x)),
    "criteria_report grid_step": ("grid_step",
                                  lambda x: criteria_report(gen_ccd(2, 1.0, 4), CUBE1, x)),
    "relative_g_efficiency grid_step": (
        "grid_step", lambda x: relative_g_efficiency(*_full_and_residual(), CUBE1, x)),
    "scenario_sweep grid_step": ("grid_step",
                                 lambda x: scenario_sweep(2, 4, [1.0], CUBE1, grid_step=x)),
    # a Design's alpha, which it keeps
    "Design alpha": ("alpha", lambda x: Design(x, np.zeros((1, 2)), [PointClass.CENTER]).alpha),
}


def _exact(value) -> str:
    """repr, with every float of an array printed in full."""
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        return repr(value)


@pytest.mark.parametrize("entry", list(_REAL_ARGUMENTS))
class TestOneRuleForRealArguments:
    """design._check_positive's rule, shared by every real-valued argument."""

    # a bool, then every other value that is not a real number
    @pytest.mark.parametrize("value", [True, np.True_, np.array(True), "1", [1.0],
                                       np.array([1.0])], ids=repr)
    def test_bool_refused(self, entry, value, grid_cache):
        name, call = _REAL_ARGUMENTS[entry]
        call(1.0)  # True == 1.0: a kept 1.0 must not serve it
        with pytest.raises(TypeError, match=re.escape(
                f"{name} must be a real number, got {value!r}")):
            call(value)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324, -1.7976931348623157e308,
        pytest.param(10 ** 400, id="10**400"), pytest.param(-10 ** 400, id="-10**400"),
    ], ids=repr)
    def test_not_finite_and_positive_refused(self, entry, value, grid_cache):
        name, call = _REAL_ARGUMENTS[entry]
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be finite and > 0, got {value}")):
            call(value)

    @pytest.mark.parametrize("value", [1, np.float64(1.0), np.array(1.0)], ids=repr)
    def test_real_number_taken_as_its_float(self, entry, value, grid_cache):
        # the float is what a Region keeps and what the caches of the radius,
        # the size and the step key on
        _, call = _REAL_ARGUMENTS[entry]
        assert _exact(call(value)) == _exact(call(1.0))


# Every value that is a bool or not an integer, some equal to a valid integer
NOT_INTEGERS = [*BOOLS, 2.5, 3.0, np.float64(3.0), 10 ** 6 + 0.5, "3", None]

# A design of 10 runs, built once, whose rows delete_rows' entry deletes
_TEN_RUNS = gen_ccd(2, 1.0, 2)

# Every public entry that takes an integer argument: the name its messages
# give the argument, its range [low, high] (high None for no upper bound),
# and a call with the value v.  Each range holds 3.
_INTEGER_ARGUMENTS = {
    "gen_ccd k": ("k", 2, _MAX_K, lambda v: gen_ccd(v, 1.5, 4)),
    "gen_ccd n0": ("n0", 1, _MAX_N0, lambda v: gen_ccd(3, 1.5, v)),
    "scenario_sweep k": ("k", 2, _MAX_K, lambda v: scenario_sweep(v, 4, [1.5], CUBE1)),
    "scenario_sweep n0": ("n0", 1, _MAX_N0, lambda v: scenario_sweep(3, v, [1.5], CUBE1)),
    "region_moments k": ("k", 2, _MAX_K, lambda v: region_moments(CUBE1, v)),
    "sphere_points k": ("k", 2, _MAX_K, lambda v: sphere_points(v, 1.0, 5)),
    "sphere_points n": ("n", 1, None, lambda v: sphere_points(3, 1.0, v)),
    "sample_region k": ("k", 1, _MAX_K, lambda v: sample_region(CUBE1, v, 10, 0)),
    "sample_region n": ("n", 0, _MAX_SAMPLES, lambda v: sample_region(CUBE1, 3, v, 0)),
    "monte_carlo_moments k": ("k", 2, _MAX_K,
                              lambda v: monte_carlo_moments(CUBE1, v, 1000)),
    "monte_carlo_moments n": ("n", 2, None, lambda v: monte_carlo_moments(CUBE1, 3, v)),
    # [2, v]: a bool would otherwise be read as row 0 or 1, and [2, True]
    # would silently delete rows 2 and 1
    "delete_rows row index": ("row index", 0, _TEN_RUNS.n - 1,
                              lambda v: delete_rows(_TEN_RUNS, [2, v])),
}

# Each entry with the values just outside its range and far outside it; 10**6
# as a k once made region_moments allocate 3.64 TiB, and is left out where it
# is in range (sample_region n)
_OUT_OF_RANGE = [
    pytest.param(entry, value, id=f"{entry}-{value}")
    for entry, (_, low, high, _) in _INTEGER_ARGUMENTS.items()
    for value in [low - 1, -10 ** 30] + ([] if high is None else
                                         [v for v in (high + 1, 10 ** 6, 10 ** 30) if v > high])
]


@pytest.fixture
def draws(monkeypatch):
    """The arguments of each sample_region call monte_carlo_moments makes."""
    drawn = []
    real = criteria.sample_region

    def recording(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(criteria, "sample_region", recording)
    return drawn


class TestOneRuleForIntegerArguments:
    """design._check_integer's rule, shared by every integer argument.  A
    refused value looks up no alpha = 1 design and draws no sample."""

    @pytest.mark.parametrize("entry", list(_INTEGER_ARGUMENTS))
    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_not_an_integer_refused(self, entry, value, ccd_templates, draws):
        name, _, _, call = _INTEGER_ARGUMENTS[entry]
        call(3)  # a value equal to a kept int is checked, not served
        done = ccd_templates.cache_info(), len(draws)
        with pytest.raises(TypeError, match=re.escape(
                f"{name} must be an integer, got {value!r}")):
            call(value)
        assert (ccd_templates.cache_info(), len(draws)) == done

    @pytest.mark.parametrize("entry, value", _OUT_OF_RANGE)
    def test_out_of_range_refused(self, entry, value, ccd_templates, draws):
        name, low, high, call = _INTEGER_ARGUMENTS[entry]
        if name == "row index":  # a row not in the design
            error, message = IndexError, f"row index {value} out of range for n=10"
        else:
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            error, message = ValueError, f"{name} must be {bound}, got {value}"
        with pytest.raises(error, match=re.escape(message)):
            call(value)
        assert ccd_templates.cache_info().currsize == 0 and draws == []

    @pytest.mark.parametrize("entry", list(_INTEGER_ARGUMENTS))
    @pytest.mark.parametrize("int_type", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_taken_as_its_int(self, entry, int_type):
        _, low, high, call = _INTEGER_ARGUMENTS[entry]
        for value in (low + 1, min(12, high or 12)):  # 2 ** 12 overflows a uint8
            assert _exact(call(int_type(value))) == _exact(call(value))


@pytest.mark.parametrize("shape", ["cuboidal", "spherical", None, 0, ["cuboidal"], RegionShape],
                         ids=repr)
def test_region_rejects_shape_not_a_region_shape(shape):
    # any other shape would act as the ball: contains and region_moments
    # test `shape is RegionShape.CUBOIDAL`
    with pytest.raises(TypeError, match=re.escape(
            f"region shape must be a RegionShape, got {shape!r}")):
        Region(shape, 1.0)
    with pytest.raises(TypeError, match="region shape"):
        Region(shape, math.nan)


@pytest.mark.parametrize("cls", ["center", None, 0, "axial", PointClass], ids=repr)
def test_design_rejects_class_not_a_point_class(cls):
    # a str class once passed here and broke design_to_csv's cls.value
    with pytest.raises(TypeError, match=re.escape(
            f"design class must be a PointClass, got {cls!r}")):
        Design(1.0, np.zeros((2, 2)), [PointClass.CENTER, cls])


class TestRegionHash:
    def test_equal_regions_hash_equal(self):
        for shape in RegionShape:
            a, b = Region(shape, 1.5), Region(shape, 1.5)
            assert a == b and a is not b
            assert hash(a) == hash(b) == hash((shape, 1.5))
        assert Region(RegionShape.CUBOIDAL, 1.0) != Region(RegionShape.CUBOIDAL, 2.0)
        assert Region(RegionShape.CUBOIDAL, 1.0) != Region(RegionShape.SPHERICAL, 1.0)
        assert [f.name for f in dataclasses.fields(Region)] == ["shape", "size"]
        assert repr(CUBE1) == "Region(shape=<RegionShape.CUBOIDAL: 'cuboidal'>, size=1.0)"

    def test_equal_region_hits_the_memos(self):
        moments = region_moments(Region(RegionShape.CUBOIDAL, 0.75), 3)
        hits = region_moments.cache_info().hits
        assert region_moments(Region(RegionShape.CUBOIDAL, 0.75), 3) is moments
        assert region_moments.cache_info().hits == hits + 1
