"""Differential tests of the exact integer kernel.

Exact mode scales its inputs to integers once and eliminates, condenses and
solves fraction-free.  Each fast path is checked here against the Fraction
computation it replaced: the Fraction bodies of `_pivots` and
`solve_linear_exact` live on below as reference oracles, and moments,
recursion checks and ladder entries are compared with direct Fraction sums
and determinants.
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelshift.numkit as numkit
from hankelshift import (
    EXACT,
    AtomicMeasure,
    MomentSequence,
    Recursion,
    SymMatrix,
    block,
    det_bareiss,
    det_ladder,
    detect_recursion,
    log_convexity,
    moments_of,
    solve_linear_exact,
)


def pivots_reference(matrix: SymMatrix) -> tuple[bool, bool]:
    """(is PSD, is PD) by symmetric elimination over Fractions."""
    a = [[F(x) for x in row] for row in matrix.rows]
    n = len(a)
    singular = False
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0:
            return False, False
        if pivot == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return False, False
            singular = True
            continue
        for i in range(k + 1, n):
            factor = a[k][i] / pivot
            for j in range(i, n):
                a[i][j] -= factor * a[k][j]
    return True, not singular


def solve_reference(rows, rhs) -> tuple[F, ...] | None:
    """Gauss-Jordan over Fractions, free variables zero, re-verified."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [[F(x) for x in row] + [F(v)] for row, v in zip(rows, rhs, strict=True)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    x = [F(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][ncols]
    for row, v in zip(rows, rhs, strict=True):
        if sum(F(a) * xi for a, xi in zip(row, x)) != F(v):
            return None
    return tuple(x)


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_DYADIC_FLOATS = st.integers(-40, 40).map(lambda i: i / 8)
_ENTRIES = _RATIONALS | st.integers(-6, 6) | _DYADIC_FLOATS


@st.composite
def symmetric(draw) -> SymMatrix:
    """A symmetric matrix of rationals, ints and floats, in one of three
    shapes: arbitrary; a Gram matrix A A^T of rank r <= n (PSD, singular
    unless r = n), one diagonal entry sometimes moved; or either with zero
    rows and columns spliced in, so zero pivots with zero rows come up
    between positive ones."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(_ENTRIES)
    else:
        r = draw(st.integers(0, n))
        a = [[draw(_RATIONALS) for _ in range(r)] for _ in range(n)]
        rows = [[sum((x * y for x, y in zip(a[i], a[j])), F(0)) for j in range(n)]
                for i in range(n)]
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            rows[i][i] += draw(_RATIONALS)
    for z in sorted(draw(st.sets(st.integers(0, n), max_size=2)), reverse=True):
        rows = [row[:z] + [0] + row[z:] for row in rows]
        rows.insert(z, [0] * (len(rows) + 1))
    return SymMatrix.from_rows(rows)


@st.composite
def systems(draw):
    """(rows, rhs): m x c systems with rows of rank <= r, and a right-hand
    side that is either A x0 (consistent, free variables when r < c) or
    arbitrary (usually inconsistent when r < m)."""
    m = draw(st.integers(1, 6))
    c = draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, c)))
    left = [[draw(_RATIONALS) for _ in range(r)] for _ in range(m)]
    right = [[draw(_RATIONALS) for _ in range(c)] for _ in range(r)]
    rows = [[sum((left[i][t] * right[t][j] for t in range(r)), F(0)) for j in range(c)]
            for i in range(m)]
    if draw(st.booleans()):
        x0 = [draw(_RATIONALS) for _ in range(c)]
        rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
    else:
        rhs = [draw(_ENTRIES) for _ in range(m)]
    return rows, rhs


class TestPivots:
    @settings(max_examples=200, deadline=None)
    @given(symmetric())
    @example(SymMatrix.from_rows([[0, 0, 0], [0, 2, 1], [0, 1, 3]]))
    @example(SymMatrix.from_rows([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 5)]]))
    @example(SymMatrix.from_rows([[1, F(1, 2), 0], [F(1, 2), F(1, 4), 0], [0, 0, F(1, 3)]]))
    def test_matches_fraction_elimination(self, m):
        assert numkit._pivots(m) == pivots_reference(m)

    def test_zero_row_keeps_the_previous_divisor(self):
        # pivot 2, a zero pivot with a zero row, then 2 * 3 - 1 = 5, whose
        # update of the last row divides by 2 again
        m = SymMatrix.from_rows([[2, 0, 1, 1], [0, 0, 0, 0], [1, 0, 3, 1], [1, 0, 1, 2]])
        assert numkit._pivots(m) == pivots_reference(m) == (True, False)

    def test_rows_with_different_denominators(self):
        # det = 1/6 - 1/9 > 0; per-row scaling would break the symmetry
        m = SymMatrix.from_rows([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 3)]])
        assert numkit._pivots(m) == pivots_reference(m) == (True, True)


class TestSolveLinearExact:
    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_matches_fraction_gauss_jordan(self, system):
        rows, rhs = system
        got = solve_linear_exact(rows, rhs)
        assert got == solve_reference(rows, rhs)
        assert got is None or all(isinstance(x, F) for x in got)

    def test_inconsistent_rank_deficient_system(self):
        rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(0)]]
        assert solve_linear_exact(rows, [F(1), F(2), F(1)]) is None
        assert solve_reference(rows, [F(1), F(2), F(1)]) is None

    def test_free_variables_are_zero(self):
        rows = [[F(0), F(1, 2), F(1, 3)], [F(0), F(1), F(2, 3)]]
        assert solve_linear_exact(rows, [F(1), F(2)]) == (F(0), F(2), F(0))


@st.composite
def measures(draw) -> AtomicMeasure:
    atom = st.fractions(min_value=0, max_value=9, max_denominator=11)
    atoms = sorted(set(draw(st.lists(atom, min_size=1, max_size=4))))
    dens = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=13)
    return AtomicMeasure(tuple(atoms), tuple(draw(dens) for _ in atoms))


class TestMeasureSide:
    @settings(max_examples=150, deadline=None)
    @given(measures(), st.integers(0, 12))
    def test_moments_of_matches_fraction_sums(self, mu, horizon):
        g = moments_of(mu, horizon)
        expected = tuple(
            sum((r * x**n for x, r in zip(mu.atoms, mu.densities)), F(0))
            for n in range(horizon + 1)
        )
        assert g.values == expected
        assert all(isinstance(v, F) for v in g.values)

    @settings(max_examples=150, deadline=None)
    @given(measures(), st.lists(_RATIONALS, min_size=1, max_size=3), st.integers(0, 2))
    def test_holds_on_matches_fraction_check(self, mu, coeffs, start):
        g = moments_of(mu, 8)
        for rec in (
            Recursion(len(coeffs), tuple(coeffs), start),
            detect_recursion(g, 4, EXACT),
        ):
            if rec is None:
                continue
            r = rec.order
            expected = all(
                g[p + r] == sum(rec.coeffs[i] * g[p + i] for i in range(r))
                for p in range(rec.valid_from, len(g) - r)
            )
            assert rec.holds_on(g, EXACT) == expected

    @settings(max_examples=100, deadline=None)
    @given(measures())
    def test_detect_recursion_matches_fraction_solve(self, mu):
        g = moments_of(mu, 10)
        rec = detect_recursion(g, 5, EXACT)
        for r in range(1, 6):
            rows = [[g[p + i] for i in range(r)] for p in range(len(g) - r)]
            sol = solve_reference(rows, [g[p + r] for p in range(len(g) - r)])
            if sol is not None:
                assert rec is not None and (rec.order, rec.coeffs) == (r, sol)
                break
        else:
            assert rec is None


def _direct(gamma, n, k):
    # The block determinant over the exact values, floats at binary values.
    return det_bareiss([[F(x) for x in row] for row in block(gamma, n, k).rows])


class TestExactLadder:
    def _check(self, gamma):
        for table in det_ladder(gamma, EXACT):
            assert all(isinstance(d, F) for d in table.dets)
            for n in table.anchors():
                assert table.dets[n] == _direct(gamma, n, table.k), (table.k, n)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 64).map(lambda i: i / 16), min_size=1, max_size=11))
    def test_float_entries_at_their_binary_values(self, values):
        self._check(MomentSequence.of(values))

    def test_float_entries_with_zero_divisors(self):
        # 0.1 is not 1/10 in binary; gamma_2 = 0 zeroes the order-2 divisor
        g = MomentSequence.of([1.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        tables = list(det_ladder(g, EXACT))
        assert tables[2].methods[0] == "direct"
        assert tables[1].dets[0] == -F(0.1) ** 2
        self._check(g)

    @settings(max_examples=100, deadline=None)
    @given(measures(), st.integers(4, 12))
    def test_atomic_moments_with_zero_divisors(self, mu, horizon):
        # r atoms: d_r vanishes, so orders r + 2 and up fall back to direct
        # determinants on the integer blocks
        g = moments_of(mu, horizon)
        self._check(g)
        assert log_convexity(g, EXACT) == all(
            g[n] * g[n + 2] >= g[n + 1] ** 2 for n in range(horizon - 1)
        )

    def test_integer_view(self):
        g = MomentSequence.of([F(1, 2), F(1, 3), 0.25, 1])
        assert g.integer_view == ((6, 4, 3, 12), 12)
