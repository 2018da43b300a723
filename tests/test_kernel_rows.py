"""numkit's integer kernels against its public entry points and numpy.

The exact eliminations take integer rows: `_int_det` (`_echelon`) for
determinants, `_pivots` for PSD and `_solve_integer` for solves.  The public
`det_bareiss`, `psd_with_margin` and `solve_linear_exact` scale entries that
are not ints to integers once and call the same kernel; rows of ints pass
as they are, with no conversion.  Each kernel is checked here against its
public entry point on random int, Fraction and float matrices (rank-deficient
ones common), and the determinants, PSD verdicts and solvability against
numpy in doubles wherever doubles can tell.  numpy is a test dependency
only.  The last test pins the pencil engine's integer path: an exact
interval makes no Scalar-to-integer conversion at all.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelshift.hankel as hankel
import hankelshift.numkit as numkit
from hankelshift import (
    MomentSequence,
    det_bareiss,
    psd_with_margin,
    solve_linear_exact,
    stability_interval,
)

from gen import bergman_moments, hadamard_bound

_INTS = st.integers(-9, 9)
_RATIONALS = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
_FLOATS = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
_ENTRIES = {"int": _INTS, "fraction": _RATIONALS | _INTS, "float": _FLOATS | _INTS}


@st.composite
def matrices(draw, square: bool = True, symmetric: bool = False):
    """(kind, rows) with entries of one kind: ints; Fractions and ints; or
    floats and ints.  Rows are random (mirrored when symmetric), a product
    through r columns of factors drawn from the same entries (rank <= r;
    A A^T when symmetric), or with a row repeated."""
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    entries = _ENTRIES[kind]
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["random", "low-rank", "repeated-row"]))
    if shape == "low-rank":
        r = draw(st.integers(0, min(m, n)))
        left = [[draw(entries) for _ in range(r)] for _ in range(m)]
        right = left if symmetric else [[draw(entries) for _ in range(r)] for _ in range(n)]
        return kind, [[sum((a * b for a, b in zip(x, y)), 0) for y in right] for x in left]
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if symmetric:
        return kind, [[rows[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
    if shape == "repeated-row" and m > 1:
        rows[draw(st.integers(1, m - 1))] = list(rows[0])
    return kind, rows


def row_view(row) -> tuple[list[int], int]:
    """A row over its own least denominator, from stdlib Fractions."""
    den = math.lcm(*(F(x).denominator for x in row))
    return [int(F(x) * den) for x in row], den


def common_view(rows) -> list[list[int]]:
    """Every entry over one common denominator: symmetric stays symmetric."""
    den = math.lcm(*(F(x).denominator for row in rows for x in row))
    return [[int(F(x) * den) for x in row] for row in rows]


def no_conversion(monkeypatch) -> list:
    """Record every `_integer_view` call, through numkit and hankel."""
    calls = []
    view = numkit._integer_view

    def recording(values):
        calls.append(values)
        return view(values)

    monkeypatch.setattr(numkit, "_integer_view", recording)
    monkeypatch.setattr(hankel, "_integer_view", recording)
    return calls


class TestDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    @example(("int", [[1, 2], [2, 4]]))
    @example(("fraction", [[F(1, 2), F(1, 3)], [F(1, 3), F(1, 4)]]))
    @example(("float", [[0.1, 0.2], [0.3, 0.7]]))
    def test_kernel_is_the_public_determinant(self, case):
        kind, rows = case
        views = [row_view(row) for row in rows]
        num = numkit._int_det([nums for nums, _ in views])
        den = math.prod(d for _, d in views)
        got = det_bareiss(rows)
        if kind == "float" and any(isinstance(x, float) for row in rows for x in row):
            assert isinstance(got, float) and got == num / den
        else:
            assert isinstance(got, F) and got == F(num, den)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_numpy_determinant(self, case):
        _, rows = case
        exact = F(numkit._int_det([row_view(row)[0] for row in rows]),
                  math.prod(row_view(row)[1] for row in rows))
        scale = hadamard_bound(rows)
        want = np.linalg.det(np.array([[float(x) for x in row] for row in rows]))
        assert abs(float(exact) - want) <= 1e-9 * max(scale, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(matrices().filter(lambda case: case[0] == "int"))
    def test_integer_rows_are_not_converted(self, case):
        _, rows = case
        with pytest.MonkeyPatch.context() as mp:
            calls = no_conversion(mp)
            got = det_bareiss(rows)
        assert calls == [] and got == numkit._int_det([list(row) for row in rows])


class TestPSD:
    @settings(max_examples=300, deadline=None)
    @given(matrices(symmetric=True))
    @example(("int", [[0, 0, 0], [0, 2, 1], [0, 1, 3]]))
    @example(("int", [[0, 1], [1, 0]]))
    @example(("fraction", [[F(1, 2), F(1, 3)], [F(1, 3), F(1, 3)]]))
    def test_kernel_is_the_public_verdict(self, case):
        _, rows = case
        psd, pd = numkit._pivots(common_view(rows))
        assert psd_with_margin(rows) == (psd, psd and not pd)

    @settings(max_examples=300, deadline=None)
    @given(matrices(symmetric=True))
    def test_numpy_eigenvalues(self, case):
        # Where the smallest eigenvalue is clearly away from 0, its sign is
        # the verdict; PD also needs it clearly positive.
        _, rows = case
        psd, pd = numkit._pivots(common_view(rows))
        a = np.array([[float(x) for x in row] for row in rows])
        low = float(np.linalg.eigvalsh(a)[0])
        band = 1e-8 * (1.0 + float(np.abs(a).max()))
        if low > band:
            assert psd and pd
        elif low < -band:
            assert not psd and not pd

    @settings(max_examples=100, deadline=None)
    @given(matrices(symmetric=True).filter(lambda case: case[0] == "int"))
    def test_integer_rows_pass_as_they_are(self, case):
        _, rows = case
        before = [list(row) for row in rows]
        with pytest.MonkeyPatch.context() as mp:
            calls = no_conversion(mp)
            got = psd_with_margin(rows)
        assert calls == [] and rows == before
        psd, pd = numkit._pivots(rows)
        assert got == (psd, psd and not pd)


class TestSolve:
    @settings(max_examples=300, deadline=None)
    @given(matrices(square=False), st.data())
    def test_kernel_is_the_public_solve(self, case, data):
        kind, rows = case
        rhs = [data.draw(_ENTRIES[kind]) for _ in rows]
        views = [row_view([*row, v])[0] for row, v in zip(rows, rhs)]
        sol = numkit._solve_integer([v[:-1] for v in views], [v[-1] for v in views])
        got = solve_linear_exact(rows, rhs)
        if sol is None:
            assert got is None
        else:
            y, d = sol
            assert got == tuple(F(yi, d) for yi in y)

    @settings(max_examples=300, deadline=None)
    @given(matrices(square=False).filter(lambda case: case[0] != "float"), st.data())
    def test_numpy_solvability(self, case, data):
        # Exact entries drawn small: numpy's ranks over doubles are exact
        # here, and a returned solution satisfies the system in doubles.
        kind, rows = case
        rhs = [data.draw(_ENTRIES[kind]) for _ in rows]
        a = np.array([[float(x) for x in row] for row in rows])
        b = np.array([float(v) for v in rhs])
        got = solve_linear_exact(rows, rhs)
        consistent = np.linalg.matrix_rank(a) == np.linalg.matrix_rank(np.column_stack([a, b]))
        assert (got is not None) == consistent
        if got is not None:
            assert np.allclose(a @ np.array([float(x) for x in got]), b, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(matrices(square=False).filter(lambda case: case[0] == "int"), st.data())
    def test_integer_rows_are_not_converted(self, case, data):
        _, rows = case
        rhs = [data.draw(_INTS) for _ in rows]
        with pytest.MonkeyPatch.context() as mp:
            calls = no_conversion(mp)
            got = solve_linear_exact(rows, rhs)
        sol = numkit._solve_integer(rows, rhs)
        assert calls == []
        assert got == (None if sol is None else tuple(F(yi, sol[1]) for yi in sol[0]))


@pytest.mark.parametrize("cut, k", [(3, 2), (1, 3), (6, 3)])
def test_exact_interval_makes_no_conversion(monkeypatch, cut, k):
    # The pencil engine holds the integer view G: its determinants, PSD
    # probes, polynomials and root isolations take it as it is.
    gamma = bergman_moments(14)
    fresh = MomentSequence.scaled(*gamma.integer_view)
    calls = no_conversion(monkeypatch)
    report = stability_interval(fresh, cut, k)
    assert calls == []
    monkeypatch.undo()
    assert report == stability_interval(MomentSequence(gamma.values), cut, k)
