"""An exact-rational oracle for the loss tables.

Each row's printed alpha is taken as a Fraction, X'X is formed and inverted
exactly (Gauss-Jordan), and each one-run-deleted residual's trace follows by
Sherman-Morrison: trace((M - ff')^-1) = tr + u'u / (1 - h), u = M^-1 f,
h = f'u.  The library's float traces and losses are judged against it.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from ccdrobust.criteria import a_trace
from ccdrobust.design import PointClass, gen_ccd
from ccdrobust.fixtures import LOSS_TABLES
from ccdrobust.missing import delete_rows, loss_precision
from ccdrobust.verify import _truncate, paper_loss

RTOL = 1e-12
_SCALE = 10 ** 4  # the printed A column's 4 decimals


def _terms(x: list[Fraction]) -> list[Fraction]:
    """The second-order model row of a point: 1, x_i, x_i^2, x_i x_j (i < j)."""
    return [Fraction(1)] + x + [v * v for v in x] + [a * b for a, b in combinations(x, 2)]


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


def _first_rows(k: int, alpha: Fraction) -> dict[PointClass, list[Fraction]]:
    """The run each residual loses: the first of its class in gen_ccd's order."""
    zero = [Fraction(0)] * k
    return {PointClass.FACTORIAL: [Fraction(-1)] * k,
            PointClass.AXIAL: [-alpha] + zero[1:],
            PointClass.CENTER: zero}


def _exact_traces(k: int, alpha: Fraction, n0: int) -> dict[str, Fraction]:
    """trace((X'X)^-1) of the CCD ("none") and of each one-run residual."""
    F = [_terms(x) for x in _ccd_points(k, alpha, n0)]
    p = len(F[0])
    Minv = _inverse([[sum(f[i] * f[j] for f in F) for j in range(p)] for i in range(p)])
    tr = sum(Minv[i][i] for i in range(p))
    traces = {"none": tr}
    for cls, x in _first_rows(k, alpha).items():
        f = _terms(x)
        u = [sum(a * b for a, b in zip(row, f)) for row in Minv]
        h = sum(a * b for a, b in zip(f, u))
        traces[cls.value] = tr + sum(v * v for v in u) / (1 - h)
    return traces


_ROWS = [(tid, spec["k"], spec["n0"], row[0])
         for tid, spec in LOSS_TABLES.items() for row in spec["rows"]]


@pytest.fixture(scope="module")
def exact():
    """Per (table, alpha): the exact traces, and the float design and traces."""
    out = {}
    for tid, k, n0, alpha_s in _ROWS:
        alpha = Fraction(alpha_s)
        full = gen_ccd(k, float(alpha_s), n0)
        designs = {"none": full}
        for cls, x in _first_rows(k, alpha).items():
            i = full.rows_of_class(cls)[0]
            assert full.coords[i].tolist() == [float(v) for v in x]
            designs[cls.value] = delete_rows(full, [i])
        out[tid, alpha_s] = (_exact_traces(k, alpha, n0), designs)
    return out


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
