import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest

from ccdrobust.criteria import _PRIMES
from ccdrobust.design import (
    _MAX_K,
    Design,
    PointClass,
    canonical_probe_points,
    design_to_csv,
    gen_ccd,
)


class TestGenCcd:
    def test_candidate_ccd_sizes(self):
        # the four candidate designs: (k, n)
        for k, n in [(2, 12), (3, 18), (4, 28), (5, 46)]:
            d = gen_ccd(k, 1.0, 4)
            assert d.n == n == 2 ** k + 2 * k + 4

    def test_k2_class_counts(self):
        d = gen_ccd(2, 1.0, 4)
        assert len(d.rows_of_class(PointClass.FACTORIAL)) == 4
        assert len(d.rows_of_class(PointClass.AXIAL)) == 4
        assert len(d.rows_of_class(PointClass.CENTER)) == 4

    def test_k5_table_row(self):
        d = gen_ccd(5, 2.378, 4)
        assert d.n == 46
        assert len(d.rows_of_class(PointClass.FACTORIAL)) == 32
        assert len(d.rows_of_class(PointClass.AXIAL)) == 10

    @pytest.mark.parametrize("k", range(2, 13))
    def test_rows_of_class_canonical(self, k):
        # the layout scenario_sweep reads each class's first row from
        nf, n0 = 2 ** k, 3
        d = gen_ccd(k, 1.5, n0)
        layout = {PointClass.FACTORIAL: range(0, nf),
                  PointClass.AXIAL: range(nf, nf + 2 * k),
                  PointClass.CENTER: range(nf + 2 * k, nf + 2 * k + n0)}
        for cls, rows in layout.items():
            got = d.rows_of_class(cls)
            assert got.tolist() == list(rows)
            assert got.tolist() == [i for i, c in enumerate(d.classes) if c == cls]
            assert got.dtype == np.intp

    def test_rows_of_class_of_any_design(self):
        classes = [PointClass.CENTER, PointClass.AXIAL, PointClass.AXIAL, PointClass.CENTER]
        d = Design(1.0, np.zeros((4, 2)), classes)
        assert d.rows_of_class(PointClass.CENTER).tolist() == [0, 3]
        assert d.rows_of_class(PointClass.AXIAL).tolist() == [1, 2]
        assert d.rows_of_class(PointClass.FACTORIAL).tolist() == []
        assert Design(1.0, np.zeros((0, 2)), []).rows_of_class(PointClass.AXIAL).size == 0

    def test_axial_rows_k2(self):
        d = gen_ccd(2, 1.414, 1)
        assert d.n == 9
        axial = d.coords[d.rows_of_class(PointClass.AXIAL)].tolist()
        assert axial == [[-1.414, 0.0], [1.414, 0.0], [0.0, -1.414], [0.0, 1.414]]

    @pytest.mark.parametrize("k,alpha,n0", [(1, 1.0, 4), (2, 0.0, 4),
                                            (2, -1.0, 4), (2, 1.0, 0), (13, 1.0, 4)])
    def test_rejects_bad_inputs(self, k, alpha, n0):
        with pytest.raises(ValueError):
            gen_ccd(k, alpha, n0)

    @pytest.mark.parametrize("k,alpha,n0,name", [
        (3.0, 1.5, 4, "k"), (3, 1.5, 4.0, "n0"), (True, 1.5, 4, "k"),
        (3, 1.5, True, "n0"), (np.bool_(True), 1.5, 4, "k"), (3, 1.5, np.float64(4), "n0"),
        ("3", 1.5, 4, "k"), (3, True, 4, "alpha"), (3, np.bool_(True), 4, "alpha")])
    def test_rejects_bad_types_before_the_template_cache(self, k, alpha, n0, name,
                                                         ccd_templates):
        # a float or bool k or n0 must not be read as the (int, int) key of
        # an alpha = 1 design; nothing is looked up for a refused argument
        with pytest.raises(TypeError, match=f"^{name} must be"):
            gen_ccd(k, alpha, n0)
        with pytest.raises(ValueError, match="k must be in"):
            gen_ccd(13, 1.5, 4)
        info = ccd_templates.cache_info()
        assert (info.hits, info.misses) == (0, 0)

    @pytest.mark.parametrize("int_type", [np.int8, np.int32, np.int64, np.uint16])
    def test_accepts_numpy_integers(self, int_type, ccd_templates):
        d, want = gen_ccd(int_type(3), 1.5, int_type(4)), gen_ccd(3, 1.5, 4)
        assert (d.k, d.n) == (want.k, want.n)
        assert d.coords.tobytes() == want.coords.tobytes()
        info = ccd_templates.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_k_bound_is_the_criteria_bound(self):
        # criteria_report's rotatability index needs one Halton base per factor
        assert _MAX_K == len(_PRIMES)
        assert gen_ccd(_MAX_K, 1.0, 1).n == 2 ** _MAX_K + 2 * _MAX_K + 1

    def test_point_class_invariants(self):
        d = gen_ccd(3, 1.732, 4)
        for x, cls in zip(d.coords.tolist(), d.classes):
            if cls is PointClass.FACTORIAL:
                assert all(c in (-1.0, 1.0) for c in x)
            elif cls is PointClass.AXIAL:
                nz = [c for c in x if c != 0.0]
                assert len(nz) == 1 and abs(nz[0]) == 1.732
            else:
                assert all(c == 0.0 for c in x)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_no_negative_zero(self, k):
        d = gen_ccd(k, 1.5, 2)
        assert not np.any(np.signbit(d.coords[d.coords == 0.0]))
        assert "-0.0" not in design_to_csv(d)

    def test_immutable(self):
        d = gen_ccd(2, 1.0, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.alpha = 2.0
        with pytest.raises(ValueError, match="read-only"):
            d.coords[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            d.classes[0] = PointClass.CENTER
        X, classes = d.coords.copy(), list(d.classes)
        e = Design(1.0, X, classes)
        X[0, 0] = 5.0  # the design keeps its own copy
        assert np.array_equal(e.coords, d.coords)
        assert np.array_equal(e.classes, d.classes)
        assert (e.k, e.n) == (2, 12)

    def test_a_design_is_its_arrays(self):
        # a gen_ccd design holds what a hand-built one holds, and no link to
        # the alpha = 1 design it was scaled from; only the symmetry each
        # states differs
        d = gen_ccd(3, 1.5, 4)
        e = Design(1.5, d.coords, d.classes)
        assert set(vars(d)) == set(vars(e)) == {"alpha", "coords", "classes", "_memoized",
                                                "_stated_symmetry"}
        assert d._stated_symmetry == ((0, 1, 2), ((0, 1, 2),))
        assert e._stated_symmetry == ((), ((0,), (1,), (2,)))

    def test_rejects_mismatched_arrays(self):
        d = gen_ccd(2, 1.0, 4)
        with pytest.raises(ValueError, match="n x k"):
            Design(1.0, d.coords[0], d.classes[:1])
        with pytest.raises(ValueError, match="n x k"):
            Design(1.0, d.coords, d.classes[1:])
        with pytest.raises(ValueError, match=re.escape("k >= 1 and classes of length n, "
                                                       "got shapes (3, 0) and (3,)")):
            Design(1.0, np.zeros((3, 0)), [PointClass.CENTER] * 3)

    def test_equality_is_identity(self):
        a = gen_ccd(2, 1.0, 4)
        assert a == a
        assert a != gen_ccd(2, 1.0, 4)
        assert len({a, a, gen_ccd(2, 1.0, 4)}) == 2

    def test_deterministic_regeneration(self):
        a = gen_ccd(4, 2.0, 4)
        b = gen_ccd(4, 2.0, 4)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.classes, b.classes)
        assert design_to_csv(a) == design_to_csv(b)


class TestMomentInvariants:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_odd_moments_vanish(self, k):
        X = gen_ccd(k, 1.7, 3).coords
        assert np.allclose(X.sum(axis=0), 0)
        assert np.allclose((X ** 3).sum(axis=0), 0)
        for i in range(k):
            for j in range(i + 1, k):
                assert (X[:, i] * X[:, j]).sum() == pytest.approx(0, abs=1e-12)

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 1.681), (4, 2.0), (5, 2.378)])
    def test_pure_second_moment(self, k, alpha):
        X = gen_ccd(k, alpha, 4).coords
        expected = 2 ** k + 2 * alpha ** 2
        assert np.allclose((X ** 2).sum(axis=0), expected)


class TestCanonicalProbePoints:
    def test_k2(self):
        probes = canonical_probe_points(gen_ccd(2, 2.0, 4))
        assert probes.tolist() == [[1.0, 1.0], [2.0, 0.0], [0.0, 0.0]]

    def test_k3(self):
        probes = canonical_probe_points(gen_ccd(3, 1.732, 4))
        assert probes.tolist() == [[1.0, 1.0, 1.0], [1.732, 0.0, 0.0], [0.0, 0.0, 0.0]]

    def test_k4_factorial_probe(self):
        probes = canonical_probe_points(gen_ccd(4, 2.0, 4))
        assert probes.shape == (3, 4)
        assert probes[0].tolist() == [1.0] * 4


class TestCsv:
    def test_header_and_rows(self):
        d = gen_ccd(2, 1.5, 2)
        lines = design_to_csv(d).splitlines()
        assert lines[0] == "x1,x2,class"
        assert len(lines) == 1 + d.n
        assert lines[1].endswith("factorial")

    def test_parses_back_exactly(self):
        d = gen_ccd(3, 2 ** 0.75, 4)
        header, *rows = csv.reader(io.StringIO(design_to_csv(d)))
        assert header == ["x1", "x2", "x3", "class"]
        coords = np.array([[float(v) for v in row[:-1]] for row in rows])
        assert np.array_equal(coords, d.coords)
        assert [row[-1] for row in rows] == [c.value for c in d.classes]


@pytest.mark.parametrize("alpha", [0.5, 1.0, math.sqrt(2), 1.682, 2 ** 0.75, 3.0])
@pytest.mark.parametrize("n0", range(1, 7))
@pytest.mark.parametrize("k", range(2, 6))
def test_generated_design_is_centered(k, alpha, n0):
    d = gen_ccd(k, alpha, n0)
    assert d.n == 2 ** k + 2 * k + n0
    assert np.allclose(d.coords.sum(axis=0), 0)
