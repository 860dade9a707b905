"""An exact-rational oracle for the loss and SPV tables.

Each row's printed alpha is taken as a Fraction, and X'X of its CCD is
formed and inverted exactly (Gauss-Jordan), once per design the two kinds
of table share.  A one-run-deleted residual follows by Sherman-Morrison,
with g the deleted run's model row, u = M^-1 g and h = g'u:
- its A-trace is trace(M^-1) + u'u / (1 - h);
- its SPV at f is (N - 1)(f'M^-1 f + (f'u)^2 / (1 - h));
- its V over a region of moments matrix M_R is
  (N - 1)(trace(M^-1 M_R) + u'M_R u / (1 - h)).
The library's float traces, losses, probe SPVs, V values and region
moments are judged against it, and so is the singular residual of Box and
Hunter (1957).
"""

import functools
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from ccdrobust.criteria import (Region, RegionShape, a_trace, information_inverse, probe_spv,
                                region_moments, v_avg)
from ccdrobust.design import _MAX_K, PointClass, gen_ccd
from ccdrobust.fixtures import LOSS_TABLES, SPV_TABLES
from ccdrobust.linalg import SingularMatrixError
from ccdrobust.missing import delete_rows, loss_precision
from ccdrobust.model import model_matrix, num_params
from ccdrobust.verify import _truncate, paper_loss

RTOL = 1e-12
_SCALE = 10 ** 4  # the printed A column's 4 decimals
CUBE1 = Region(RegionShape.CUBOIDAL, 1.0)


def _terms(x: list[Fraction]) -> list[Fraction]:
    """The second-order model row of a point: 1, x_i, x_i^2, x_i x_j (i < j)."""
    return [Fraction(1)] + x + [v * v for v in x] + [a * b for a, b in combinations(x, 2)]


def _exponents(k: int) -> list[tuple[int, ...]]:
    """The monomial of each model term, as its exponent on each axis, in
    _terms' order."""
    unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    return ([(0,) * k] + unit + [tuple(2 * e for e in u) for u in unit]
            + [tuple(a + b for a, b in zip(u, w)) for u, w in combinations(unit, 2)])


def _cube_moment(e: tuple[int, ...]) -> Fraction:
    """E[x^e] uniform on [-1, 1]^k: the product of 1 / (e_i + 1), 0 if any
    e_i is odd."""
    if any(v % 2 for v in e):
        return Fraction(0)
    return math.prod(Fraction(1, v + 1) for v in e)


def _ball_moment(e: tuple[int, ...]) -> Fraction:
    """E[x^e] uniform on the ball of radius sqrt(k), r^2 = k rational:
    k^(d/2) prod (e_i - 1)!! / ((k + 2)(k + 4)...(k + d)) for d = sum e_i,
    0 if any e_i is odd."""
    if any(v % 2 for v in e):
        return Fraction(0)
    k, d = len(e), sum(e)
    num = k ** (d // 2) * math.prod(math.prod(range(v - 1, 0, -2)) for v in e)
    return Fraction(num, math.prod(k + 2 * m for m in range(1, d // 2 + 1)))


def _moments(k: int, moment) -> list[list[Fraction]]:
    """The exact p x p moments matrix E[f f'] of a region, from its
    monomial moments."""
    ex = _exponents(k)
    return [[moment(tuple(a + b for a, b in zip(u, w))) for w in ex] for u in ex]


def _ccd_points(k: int, alpha: Fraction, n0: int) -> list[list[Fraction]]:
    zero = [Fraction(0)] * k
    axial = [zero[:j] + [s * alpha] + zero[j + 1:] for j in range(k) for s in (-1, 1)]
    return [list(map(Fraction, f)) for f in product((-1, 1), repeat=k)] + axial + [zero] * n0


def _inverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
    """M^-1 by Gauss-Jordan on [M | I]; M is nonsingular."""
    p = len(M)
    A = [row[:] + [Fraction(int(i == j)) for j in range(p)] for i, row in enumerate(M)]
    for c in range(p):
        pivot = next(r for r in range(c, p) if A[r][c])
        A[c], A[pivot] = A[pivot], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(p):
            if r != c and A[r][c]:
                factor = A[r][c]
                A[r] = [v - factor * w for v, w in zip(A[r], A[c])]
    return [row[p:] for row in A]


def _dot(a: list[Fraction], b: list[Fraction]) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _apply(A: list[list[Fraction]], x: list[Fraction]) -> list[Fraction]:
    return [_dot(row, x) for row in A]


def _first_rows(k: int, alpha: Fraction) -> dict[PointClass, list[Fraction]]:
    """The run each residual loses: the first of its class in gen_ccd's order."""
    zero = [Fraction(0)] * k
    return {PointClass.FACTORIAL: [Fraction(-1)] * k,
            PointClass.AXIAL: [-alpha] + zero[1:],
            PointClass.CENTER: zero}


@functools.lru_cache(maxsize=None)  # one per full design of the tables: 26
def _exact_ccd(k: int, alpha: Fraction, n0: int) -> tuple[int, list[list[Fraction]]]:
    """The CCD's run count and its exact (X'X)^-1."""
    F = [_terms(x) for x in _ccd_points(k, alpha, n0)]
    p = len(F[0])
    return len(F), _inverse([[sum(f[i] * f[j] for f in F) for j in range(p)] for i in range(p)])


def _deletion(k: int, alpha: Fraction, n0: int, missing: str):
    """(u, 1 - h) for the run the `missing` residual loses, or None for the
    full design ("none")."""
    if missing == "none":
        return None
    _, Minv = _exact_ccd(k, alpha, n0)
    g = _terms(_first_rows(k, alpha)[PointClass(missing)])
    u = _apply(Minv, g)
    return u, 1 - _dot(g, u)


def _exact_traces(k: int, alpha: Fraction, n0: int) -> dict[str, Fraction]:
    """trace((X'X)^-1) of the CCD ("none") and of each one-run residual."""
    _, Minv = _exact_ccd(k, alpha, n0)
    tr = sum(Minv[i][i] for i in range(len(Minv)))
    traces = {"none": tr}
    for cls in PointClass:
        u, d = _deletion(k, alpha, n0, cls.value)
        traces[cls.value] = tr + _dot(u, u) / d
    return traces


def _exact_spv_and_v(k: int, alpha: Fraction, n0: int,
                     missing: str) -> tuple[list[Fraction], Fraction]:
    """The SPV at the three probe points (the all-(+1) vertex, (+alpha, 0,
    ..., 0) and the origin) and V over the unit cube, of the CCD ("none")
    or of one of its one-run residuals."""
    n, Minv = _exact_ccd(k, alpha, n0)
    zero = [Fraction(0)] * k
    probes = [_terms(x) for x in ([Fraction(1)] * k, [alpha] + zero[1:], zero)]
    MR = _moments(k, _cube_moment)
    spv = [_dot(f, _apply(Minv, f)) for f in probes]
    v = sum(_dot(row, col) for row, col in zip(Minv, zip(*MR)))
    deletion = _deletion(k, alpha, n0, missing)
    if deletion is not None:
        u, d = deletion
        spv = [s + _dot(f, u) ** 2 / d for s, f in zip(spv, probes)]
        v += _dot(u, _apply(MR, u)) / d
        n -= 1
    return [n * s for s in spv], n * v


@functools.lru_cache(maxsize=None)
def _designs(k: int, alpha_s: str, n0: int) -> dict:
    """The library's CCD ("none") and its residuals, each losing the run
    _first_rows names."""
    alpha = Fraction(alpha_s)
    full = gen_ccd(k, float(alpha_s), n0)
    designs = {"none": full}
    for cls, x in _first_rows(k, alpha).items():
        i = full.rows_of_class(cls)[0]
        assert full.coords[i].tolist() == [float(v) for v in x]
        designs[cls.value] = delete_rows(full, [i])
    return designs


_ROWS = [(tid, spec["k"], spec["n0"], row[0])
         for tid, spec in LOSS_TABLES.items() for row in spec["rows"]]

_SPV_ROWS = [(tid, spec["k"], spec["n0"], row[0], row[1])
             for tid, spec in SPV_TABLES.items() for row in spec["rows"]]


@pytest.fixture(scope="module")
def exact():
    """Per (table, alpha): the exact traces, and the float design and traces."""
    return {(tid, alpha_s): (_exact_traces(k, Fraction(alpha_s), n0), _designs(k, alpha_s, n0))
            for tid, k, n0, alpha_s in _ROWS}


@pytest.fixture(scope="module")
def spv_rows():
    """Per SPV-table row: the exact probe SPVs and V, and the float design."""
    return {(tid, alpha_s, missing): (*_exact_spv_and_v(k, Fraction(alpha_s), n0, missing),
                                      _designs(k, alpha_s, n0)[missing])
            for tid, k, n0, alpha_s, missing in _SPV_ROWS}


def _rel(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / abs(exact))


def _trunc4(exact: Fraction) -> float:
    return math.floor(exact * _SCALE) / _SCALE


def test_a_trace_within_rtol(exact):
    worst = max(_rel(a_trace(designs[m]), traces[m])
                for traces, designs in exact.values() for m in traces)
    assert worst <= RTOL


def test_loss_precision_within_rtol(exact):
    worst = max(_rel(loss_precision(designs["none"], designs[cls.value]),
                     traces[cls.value] / traces["none"] - 1)
                for traces, designs in exact.values() for cls in PointClass)
    assert worst <= RTOL


def test_truncation_of_each_trace_is_exact(exact):
    cut = {(key, m): (_truncate(a_trace(designs[m])), _trunc4(traces[m]))
           for key, (traces, designs) in exact.items() for m in traces}
    assert len(cut) == 104
    assert [key for key, (got, want) in cut.items() if got != want] == []


def test_paper_loss_is_ratio_of_exact_truncations(exact):
    cells = {(key, cls.value): (paper_loss(a_trace(designs["none"]),
                                           a_trace(designs[cls.value])),
                                _trunc4(traces[cls.value]) / _trunc4(traces["none"]) - 1.0)
             for key, (traces, designs) in exact.items() for cls in PointClass}
    assert len(cells) == 78
    assert [key for key, (got, want) in cells.items() if got != want] == []


def test_only_digit_boundary_trace_is_named(exact):
    # _truncate rounds x * 10**4 to 6 places before flooring for this one
    on_boundary = {(key, m): value for key, (traces, _) in exact.items()
                   for m, value in traces.items() if (value * _SCALE).denominator == 1}
    assert on_boundary == {(("3a", "2.000"), "center"): Fraction(17, 16)}


def test_spv_tables_share_the_loss_tables_designs(exact, spv_rows):
    # every SPV-table design is a loss-table CCD or one of its residuals, so
    # the two oracles factorize the same 26 designs
    assert len(spv_rows) == 103
    assert _exact_ccd.cache_info().currsize == 26


def test_probe_spv_within_rtol(spv_rows):
    worst = max(_rel(got, want) for spv, _, design in spv_rows.values()
                for got, want in zip(probe_spv(design), spv, strict=True))
    assert worst <= RTOL


def test_unit_cube_v_within_rtol(spv_rows):
    worst = max(_rel(v_avg(design, CUBE1), v) for _, v, design in spv_rows.values())
    assert worst <= RTOL


@pytest.mark.parametrize("k", range(2, _MAX_K + 1))
def test_unit_cube_moments_are_correctly_rounded(k):
    # each entry is 0, 1, 1/3, 1/5 or 1/9, and is the float nearest it
    exact = _moments(k, _cube_moment)
    assert {v for row in exact for v in row} == {0, 1, Fraction(1, 3), Fraction(1, 5),
                                                 Fraction(1, 9)}
    assert np.array_equal(region_moments(CUBE1, k), np.array(exact, dtype=float))


@pytest.mark.parametrize("k", range(2, _MAX_K + 1))
def test_sqrt_k_ball_moments_within_rtol(k):
    # sqrt(k) is rounded, so each nonzero entry is near its exact value;
    # the zero entries, odd moments, are exactly 0
    got = region_moments(Region(RegionShape.SPHERICAL, math.sqrt(k)), k)
    want = _moments(k, _ball_moment)
    assert [[v == 0 for v in row] for row in got.tolist()] == [
        [v == 0 for v in row] for row in want]
    assert max(_rel(g, w) for grow, wrow in zip(got.tolist(), want)
               for g, w in zip(grow, wrow) if w) <= RTOL


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_center_deleted_residual_has_exact_null_vector(k):
    # Box and Hunter (1957): at alpha = sqrt(k) with one center run, every
    # factorial and axial run has sum x_i^2 = k, so v = (k in the intercept,
    # -1 in each square term, 0 elsewhere) annihilates the residual's model
    # rows.  alpha is irrational, but v weighs only the intercept and the
    # squares, whose entries 1, x_i^2 in {0, 1, k} are rational.
    p = num_params(k)
    v = [Fraction(0)] * p
    v[0] = Fraction(k)
    v[1 + k:1 + 2 * k] = [Fraction(-1)] * k
    squares = ([[Fraction(1)] * k] * 2 ** k
               + [[Fraction(k * (i == j)) for i in range(k)] for j in range(k) for _ in (-1, 1)])
    for sq in squares:
        assert v[0] + _dot(sq, v[1 + k:1 + 2 * k]) == 0
    center = _terms([Fraction(0)] * k)
    assert _dot(center, v) == k
    # the library's residual: the same rows in float, so v is its null
    # vector to rounding, and its X'X is refused
    full = gen_ccd(k, math.sqrt(k), 1)
    residual = delete_rows(full, full.rows_of_class(PointClass.CENTER).tolist())
    X = model_matrix(residual)
    assert residual.n == len(squares)
    assert (X[:, 0] == 1).all()
    np.testing.assert_allclose(X[:, 1 + k:1 + 2 * k], np.array(squares, dtype=float),
                               rtol=RTOL, atol=0)
    assert np.abs(X @ np.array(v, dtype=float)).max() <= RTOL * k
    with pytest.raises(SingularMatrixError):
        information_inverse(residual)
