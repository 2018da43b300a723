"""The fraction-free echelon `numkit._echelon` against stdlib Fraction
references, through its three users: `det_bareiss`, `solve_linear_exact`
and the pencil engine's pivot columns.  No user may change its input rows."""

from __future__ import annotations

import copy
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelshift import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    det_bareiss,
    is_pd,
    is_psd,
    moments_of,
    perturbation,
    perturbed_block,
    psd_with_margin,
    solve_linear_exact,
)
from hankelshift.numkit import _echelon

from gen import hadamard_bound

_ints = st.integers(-6, 6)
_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))
_dyadic = st.integers(-12, 12).map(lambda x: x / 4)


@st.composite
def matrices(draw, entries, square: bool):
    # Random, rank-deficient (a product through r < size columns) or with a
    # repeated row: singular and rank-deficient matrices are common.
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "low-rank", "repeated-row"]))
    if kind == "low-rank":
        r = draw(st.integers(0, min(m, n)))
        left = [[draw(_ints) for _ in range(r)] for _ in range(m)]
        right = [[draw(_ints) for _ in range(n)] for _ in range(r)]
        rows = [[sum(a * b for a, b in zip(lr, col)) for col in zip(*right)] for lr in left]
        rows = [row or [0] * n for row in rows]  # r = 0: the zero matrix
        # Mixing in the entry type keeps the rank: scale a row by an entry.
        scale = draw(entries.filter(lambda x: x != 0))
        return [[x * scale for x in row] for row in rows[:-1]] + rows[-1:]
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if kind == "repeated-row" and m > 1:
        rows[draw(st.integers(1, m - 1))] = list(rows[0])
    return rows


def _eliminate(rows):
    # Gaussian elimination over Fractions, first nonzero entry as the pivot:
    # (pivot columns, sign of the row swaps, the eliminated rows).
    m = [[F(x) for x in row] for row in rows]
    pivots, sign = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr], sign = m[pr], m[r], -sign
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, sign, m


def det_reference(rows):
    pivots, sign, m = _eliminate(rows)
    if len(pivots) < len(rows):
        return F(0)
    return sign * math.prod(m[i][i] for i in range(len(rows)))


def rank(rows):
    return len(_eliminate(rows)[0])


def independent_columns(rows):
    # Column c is kept when it raises the rank of the columns before it.
    cols = []
    for c in range(len(rows[0])):
        if rank([[row[j] for j in cols + [c]] for row in rows]) > len(cols):
            cols.append(c)
    return cols


class TestDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(matrices(_ints | _rationals, square=True))
    def test_exact_matches_fraction_elimination(self, rows):
        before = copy.deepcopy(rows)
        got = det_bareiss(rows)
        assert isinstance(got, F) and got == det_reference(rows)
        assert rows == before

    @settings(max_examples=300, deadline=None)
    @given(matrices(_dyadic | _ints, square=True))
    def test_float_takes_true_division(self, rows):
        before = copy.deepcopy(rows)
        got = det_bareiss(rows)
        has_float = any(isinstance(x, float) for row in rows for x in row)
        assert isinstance(got, float if has_float else F)
        band = 1e-9 * hadamard_bound(rows)
        assert math.isclose(got, det_reference(rows), rel_tol=1e-9, abs_tol=band)
        assert rows == before

    def test_singular_values_and_types(self):
        assert det_bareiss([[1, 2], [2, 4]]) == 0 and isinstance(det_bareiss([[1, 2], [2, 4]]), F)
        assert det_bareiss([[1.0, 2], [2, 4]]) == 0.0
        assert isinstance(det_bareiss([[1.0, 2], [2, 4]]), float)
        # a float anywhere divides every entry by /, integer entries too
        assert det_bareiss([[0, 1], [2, 3.0]]) == -2.0
        assert isinstance(det_bareiss([[0, 1], [2, 3.0]]), float)
        assert det_bareiss([]) == 1


class TestSolve:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=matrices(_ints | _rationals | _dyadic, square=False),
        data=st.data(),
    )
    def test_none_exactly_when_inconsistent(self, rows, data):
        ncols = len(rows[0])
        if data.draw(st.booleans(), label="consistent"):
            x0 = data.draw(st.lists(_rationals, min_size=ncols, max_size=ncols))
            rhs = [sum(F(a) * x for a, x in zip(row, x0)) for row in rows]
        else:
            rhs = data.draw(st.lists(_ints, min_size=len(rows), max_size=len(rows)))
        before = copy.deepcopy((rows, rhs))
        got = solve_linear_exact(rows, rhs)
        augmented = [[*row, v] for row, v in zip(rows, rhs)]
        consistent = rank(augmented) == rank(rows)
        assert (got is None) == (not consistent)
        if got is not None:
            assert all(isinstance(x, F) for x in got)
            for row, v in zip(rows, rhs):
                assert sum(F(a) * x for a, x in zip(row, got)) == F(v)
            # free variables (the non-pivot columns) are zero
            free = set(range(ncols)) - set(independent_columns(rows))
            assert all(got[c] == 0 for c in free)
        assert (rows, rhs) == before

    def test_empty_system(self):
        assert solve_linear_exact([], []) == ()


class TestPivotColumns:
    @settings(max_examples=300, deadline=None)
    @given(matrices(_ints | _rationals, square=False))
    def test_echelon_matches_independence_scan(self, rows):
        ints = [[F(x).numerator * (60 // F(x).denominator) for x in row] for row in rows]
        assert _echelon(copy.deepcopy(ints), len(ints[0]))[0] == independent_columns(rows)

    @pytest.mark.parametrize(
        "cut, n, expected",
        [
            (2, 2, ((F(0), F(1)), ("direct", "pencil_root"), [])),
            (
                5,
                0,
                (
                    (F(1), F(4257, 4225)),
                    ("pencil_root", "direct"),
                    ["anchor 0: right endpoint at the order-1 bound"],
                ),
            ),
        ],
    )
    def test_pencil_anchor_with_identically_singular_pencil(self, cut, n, expected):
        # Two atoms at order 3: p(t) = det(H + t*D) vanishes for every t, so
        # the engine restricts the pencil to the pivot columns of [H; D].
        k = 3
        gamma = moments_of(AtomicMeasure((F(1), F(2)), (F(1), F(1))), cut + 2 * k)
        for t in range(k + 2):
            assert det_bareiss(perturbed_block(gamma, n, k, cut, F(t))) == 0
        calls = []

        def recording(rows, ncols):
            calls.append((copy.deepcopy(rows), ncols))
            return _echelon(rows, ncols)

        cap = perturbation._window_cap(gamma, cut, k, EXACT)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perturbation, "_echelon", recording)
            iv, methods, flags = perturbation._pencil_block(gamma, n, k, cut, cap, EXACT)
        assert ((iv.lo, iv.hi), methods, flags) == expected
        # one pivot-column pass, over [H; D] as the sequence's integers
        ((rows, ncols),) = calls
        g = gamma.integer_view[0]
        h = [[g[n + i + j] if n + i + j <= cut else 0 for j in range(k + 1)] for i in range(k + 1)]
        d = [[g[n + i + j] - h[i][j] for j in range(k + 1)] for i in range(k + 1)]
        assert (rows, ncols) == (h + d, k + 1)
        assert _echelon(rows, ncols)[0] == independent_columns(h + d)
        # the endpoints are certified and tight within the window
        step = F(1, 2**40)
        for t, method, outside in zip((iv.lo, iv.hi), methods, (-step, step)):
            assert is_psd(perturbed_block(gamma, n, k, cut, t))
            if method == "pencil_root":
                assert not is_psd(perturbed_block(gamma, n, k, cut, t + outside))


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_deciders_leave_their_rows_alone(ctx):
    rows = [[F(2), F(1), 0.5], [F(1), F(2), F(0)], [0.5, F(0), F(3)]]
    before = copy.deepcopy(rows)
    psd_with_margin(rows, ctx)
    is_psd(rows, ctx)
    is_pd(rows, ctx)
    hadamard_bound(rows)
    assert rows == before
