"""Kernel tests: exact determinants, PSD verdicts, solvers, intervals,
formatting."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelshift import (
    EXACT,
    PreconditionError,
    FLOAT,
    Interval,
    SymMatrix,
    ToleranceContext,
    det_bareiss,
    fmt_scalar,
    is_pd,
    is_psd,
    psd_with_margin,
    real_roots,
    solve_linear_exact,
    solve_vandermonde,
    squarefree,
)

from gen import hadamard_bound


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _symmetric(draw) -> SymMatrix:
    n = draw(st.integers(1, 6))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(_RATIONALS)
    return SymMatrix.from_rows(rows)


def _gram_rows(draw) -> list[list[F]]:
    # A A^T with A of rank < n when r < n: PSD, singular unless r == n.
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    a = [[draw(_RATIONALS) for _ in range(r)] for _ in range(n)]
    return [[sum((x * y for x, y in zip(a[i], a[j])), F(0)) for j in range(n)] for i in range(n)]


@st.composite
def _gram(draw) -> SymMatrix:
    return SymMatrix.from_rows(_gram_rows(draw))


@st.composite
def _shifted_gram(draw) -> SymMatrix:
    # A singular PSD matrix with one diagonal entry moved either way.
    rows = _gram_rows(draw)
    i = draw(st.integers(0, len(rows) - 1))
    rows[i][i] += draw(_RATIONALS)
    return SymMatrix.from_rows(rows)


def _check_against_minors(m: SymMatrix) -> None:
    """Exact verdicts against minors: PSD iff every principal minor is >= 0,
    singular iff det = 0, PD iff every leading minor is > 0."""
    n = m.order

    def minor(idx: tuple[int, ...]) -> F:
        return det_bareiss([[m.entry(i, j) for j in idx] for i in idx])

    psd = all(
        minor(idx) >= 0 for size in range(1, n + 1) for idx in combinations(range(n), size)
    )
    pd = all(minor(tuple(range(size))) > 0 for size in range(1, n + 1))
    singular = det_bareiss(m) == 0
    assert psd_with_margin(m, EXACT) == (psd, psd and singular)
    assert is_psd(m, EXACT) == psd
    assert is_pd(m, EXACT) == pd


def hilbert(n: int) -> SymMatrix:
    return SymMatrix.from_rows(
        [[F(1, i + j + 1) for j in range(n)] for i in range(n)]
    )


class TestDetBareiss:
    def test_hilbert3_exact(self):
        # oracle: 3x3 Hilbert determinant
        assert det_bareiss(hilbert(3)) == F(1, 2160)

    def test_order_zero(self):
        assert det_bareiss(SymMatrix.from_rows([[F(7, 3)]])) == F(7, 3)

    def test_empty_is_one(self):
        assert det_bareiss(SymMatrix.from_rows([])) == 1

    def test_matches_numpy_on_random_rationals(self):
        rng = random.Random(20240801)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rows[j][i]
            m = SymMatrix.from_rows(rows)
            exact = det_bareiss(m)
            approx = np.linalg.det(np.array(rows, dtype=float))
            assert math.isclose(float(exact), approx, rel_tol=1e-9, abs_tol=1e-9)

    def test_singular(self):
        m = SymMatrix.from_rows([[F(1), F(2)], [F(2), F(4)]])
        assert det_bareiss(m) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(_RATIONALS | st.integers(-9, 9), min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ))
    def test_fraction_free_matches_cofactor_expansion(self, rows):
        # Rows are scaled to integers and eliminated with exact //; the value
        # is the same Fraction as the Laplace expansion along the first row.
        def cofactor(m):
            if len(m) == 1:
                return F(m[0][0])
            return sum(
                (-1) ** j * m[0][j] * cofactor([r[:j] + r[j + 1:] for r in m[1:]])
                for j in range(len(m))
            )

        got = det_bareiss(rows)
        assert isinstance(got, F) and got == cofactor(rows)

    def test_float_rows(self):
        m = SymMatrix.from_rows([[2.0, 1.0], [1.0, 2.0]])
        assert det_bareiss(m) == pytest.approx(3.0)


class TestPsd:
    def test_exact_psd_pd_marginal(self):
        pd = SymMatrix.from_rows([[F(2), F(1)], [F(1), F(2)]])
        marginal = SymMatrix.from_rows([[F(1), F(1)], [F(1), F(1)]])
        neg = SymMatrix.from_rows([[F(1), F(2)], [F(2), F(1)]])
        assert is_psd(pd, EXACT) and is_pd(pd, EXACT)
        assert is_psd(marginal, EXACT) and not is_pd(marginal, EXACT)
        assert not is_psd(neg, EXACT)

    def test_exact_marginal_margin(self):
        marginal = SymMatrix.from_rows([[F(1), F(1)], [F(1), F(1)]])
        ok, is_marginal = psd_with_margin(marginal, EXACT)
        assert ok and is_marginal

    @pytest.mark.parametrize(
        "rows, psd, singular",
        [
            ([[0, 1], [1, 0]], False, True),
            ([[1, 1, 0], [1, 1, 0], [0, 0, 2]], True, True),
            ([[0, 0], [0, 1]], True, True),
        ],
    )
    def test_exact_zero_pivots(self, rows, psd, singular):
        m = SymMatrix.from_rows([[F(x) for x in row] for row in rows])
        _check_against_minors(m)
        assert psd_with_margin(m, EXACT) == (psd, psd and singular)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_symmetric(), _gram(), _shifted_gram()))
    def test_exact_verdicts_match_principal_minors(self, m):
        _check_against_minors(m)

    def test_exact_mode_decides_float_entries_by_their_binary_values(self):
        # 0.1 * 0.9 exceeds 0.3^2 in binary, so the block is PD, not singular.
        m = SymMatrix.from_rows([[0.1, 0.3], [0.3, 0.9]])
        assert F(0.1) * F(0.9) - F(0.3) ** 2 > 0
        assert psd_with_margin(m, EXACT) == (True, False)
        assert is_pd(m, EXACT)

    def test_float_agrees_with_exact_away_from_singularity(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            g = a @ a.T  # PSD by construction
            m = SymMatrix.from_rows(g.tolist())
            assert is_psd(m, FLOAT)

    def test_float_negative(self):
        m = SymMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]])
        assert not is_psd(m, FLOAT)

    def test_float_marginal_flagged(self):
        m = SymMatrix.from_rows([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        ok, marginal = psd_with_margin(m, FLOAT)
        assert ok and marginal


def _poly_mul(p: list, q: list) -> list:
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_value(poly: list, x) -> F:
    acc = F(0)
    for c in poly:
        acc = acc * x + F(c)
    return acc


def _correctly_rounded(poly: list, x: float) -> bool:
    # x is the double nearest a root of poly iff poly changes sign (exactly)
    # between the midpoints from x to its neighbouring doubles.
    lo = (F(x) + F(math.nextafter(x, -math.inf))) / 2
    hi = (F(x) + F(math.nextafter(x, math.inf))) / 2
    return _poly_value(poly, lo) * _poly_value(poly, hi) < 0


_ROOTS = st.fractions(min_value=-8, max_value=8, max_denominator=8)
# t^2 + b t + c; irreducible over Q exactly when the discriminant is not a
# rational square (two irrational roots, or a complex pair when negative).
_QUADS = st.tuples(_ROOTS, _ROOTS).filter(
    lambda bc: not _is_rational_square(bc[0] * bc[0] - 4 * bc[1])
)


def _is_rational_square(q: F) -> bool:
    return q >= 0 and all(math.isqrt(v) ** 2 == v for v in (q.numerator, q.denominator))


@st.composite
def _squarefree(draw) -> tuple[list, list[F], int]:
    """(poly, its rational roots, its number of irrational real roots)."""
    rational = draw(st.lists(_ROOTS, max_size=4, unique=True))
    quads = draw(st.lists(_QUADS, max_size=2, unique=True))
    lead = draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    poly = [lead * draw(st.sampled_from([1, -1]))]
    for r in rational:
        poly = _poly_mul(poly, [F(1), -r])
    for b, c in quads:
        poly = _poly_mul(poly, [F(1), b, c])
    irrational = sum(2 for b, c in quads if b * b - 4 * c > 0)
    return poly, sorted(rational), irrational


class TestRealRoots:
    @settings(max_examples=200, deadline=None)
    @given(_squarefree())
    def test_squarefree_roots_exact_or_correctly_rounded(self, case):
        poly, rational, irrational = case
        roots = real_roots(poly)
        assert roots is not None
        assert len(roots) == len(rational) + irrational
        assert all(a < b for a, b in zip(roots, roots[1:]))
        assert [r for r in roots if isinstance(r, F)] == rational
        floats = [r for r in roots if isinstance(r, float)]
        assert len(floats) == irrational
        assert all(_correctly_rounded(poly, x) for x in floats)

    @settings(max_examples=100, deadline=None)
    @given(_squarefree(), st.data())
    def test_repeated_root_is_none(self, case, data):
        # The squarefree part keeps every distinct root.
        poly, rational, _ = case
        factors = [[F(1), -r] for r in rational] + [[F(1), F(0), F(-2)], [F(1), F(0), F(1)]]
        factor = data.draw(st.sampled_from(factors))
        repeated = _poly_mul(_poly_mul(poly, factor), factor)
        assert real_roots(repeated) is None
        distinct = sorted(set(real_roots(poly)) | set(real_roots(factor)))
        assert real_roots(squarefree(repeated)) == distinct

    def test_rational_roots_exact(self):
        assert real_roots([F(2), F(-3), F(1)]) == [F(1, 2), F(1)]
        assert real_roots([1, 1, -2, 0]) == [F(-2), F(0), F(1)]

    def test_irrational_roots_correctly_rounded(self):
        assert real_roots([F(1), F(0), F(-2)]) == [-math.sqrt(2), math.sqrt(2)]

    def test_double_root_is_none(self):
        assert real_roots([F(1), F(-2), F(1)]) is None

    def test_negative_discriminant(self):
        assert real_roots([F(1), F(0), F(1)]) == []

    def test_float_coefficients_small_root(self):
        # the naive formula cancels catastrophically on the small root
        small, large = real_roots([1.0, -1e8, 1.0])
        assert _correctly_rounded([1, -100000000, 1], small)
        assert small == pytest.approx(1e-8, rel=1e-15)
        assert _correctly_rounded([1, -100000000, 1], large)

    def test_rational_root_one_always_exact(self):
        # a quadratic with rational coefficients has either two rational
        # roots or none; any root equal to 1 must come back exact
        rng = random.Random(3)
        for _ in range(200):
            a = F(rng.randint(1, 9), rng.randint(1, 9))
            r = F(rng.randint(-9, 9), rng.randint(1, 9))
            roots = real_roots([a, -a * (r + 1), a * r])  # roots r and 1
            if r == 1:
                assert roots is None
            else:
                assert roots == sorted([r, F(1)])

    def test_leading_zeros_and_constants(self):
        assert real_roots([0, 0, 2, -1]) == [F(1, 2)]
        assert real_roots([F(5)]) == []
        with pytest.raises(PreconditionError):
            real_roots([0, 0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(PreconditionError):
            real_roots([1.0, bad, 1.0])

    def test_irrational_root_beyond_double_range_rejected(self):
        # t^2 - 2^2201: the root 2^1100.5 is irrational and no double holds it
        with pytest.raises(PreconditionError, match="double range"):
            real_roots([1, 0, -(2**2201)])
        assert real_roots([1, 0, -(2**2200)]) == [F(-(2**1100)), F(2**1100)]


class TestLinearSolvers:
    def test_solve_linear_exact(self):
        a = [[F(2), F(1)], [F(1), F(3)]]
        b = [F(5), F(10)]
        x = solve_linear_exact(a, b)
        assert x == (F(1), F(3))

    def test_solve_linear_exact_inconsistent(self):
        a = [[F(1), F(1)], [F(1), F(1)]]
        assert solve_linear_exact(a, [F(1), F(2)]) is None

    def test_solve_linear_exact_underdetermined(self):
        # free variables pinned at zero, solution still verified
        a = [[F(1), F(1)], [F(2), F(2)]]
        x = solve_linear_exact(a, [F(3), F(6)])
        assert x is not None
        assert x[0] + x[1] == F(3)

    def test_vandermonde_two_nodes(self):
        # densities 1/2, 1/2 at nodes 1 and 4 give first moments 1, 5/2
        dens = solve_vandermonde((F(1), F(4)), (F(1), F(5, 2)), EXACT)
        assert dens == (F(1, 2), F(1, 2))

    def test_vandermonde_float(self):
        dens = solve_vandermonde((0.5, 2.5), (1.0, 1.5), FLOAT)
        assert sum(dens) == pytest.approx(1.0)
        assert 0.5 * dens[0] + 2.5 * dens[1] == pytest.approx(1.5)


class TestIntervalAndMisc:
    def test_interval_ops(self):
        c = Interval(F(1), F(2))
        assert c.contains(F(3, 2)) and not c.contains(F(5, 2))
        assert c.contains(F(1)) and c.contains(F(2)) and not c.contains(F(1, 2))

    def test_interval_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(F(2), F(1))

    def test_interval_rejects_nan_endpoints(self):
        # nan compares false with everything, so it would pass the order
        # check and vanish in a max or min over endpoints
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(PreconditionError, match="nan"):
                Interval(lo, hi)
        assert Interval(0.0, math.inf).contains(F(1))

    def test_interval_order_error_beyond_the_int_str_digit_limit(self):
        # str() of a 5001-digit int raises its own ValueError; the order
        # check must print the endpoints in full instead
        with pytest.raises(ValueError) as info:
            Interval(F(10**5000), F(1))
        assert str(info.value) == "interval endpoints out of order: 1" + "0" * 5000 + " > 1"

    def test_fmt_scalar_beyond_the_int_str_digit_limit(self):
        big = 10**5000 + 7
        assert fmt_scalar(big) == "1" + "0" * 4999 + "7"
        assert fmt_scalar(F(big, 3)) == "1" + "0" * 4999 + "7/3"
        assert fmt_scalar(F(-1, big)) == "-1/1" + "0" * 4999 + "7"

    def test_hadamard_bound_dominates(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            rows = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rows[j][i]
            m = SymMatrix.from_rows(rows)
            assert hadamard_bound(m) >= abs(float(det_bareiss(m))) - 1e-9

    def test_hadamard_bound_of_entries_past_the_square_root_of_the_double_range(self):
        # squaring 1e160 overflows; the row norms must not
        assert hadamard_bound([[1e160]]) == 1e160
        assert hadamard_bound([[3e200, 4e200], [0.0, 1.0]]) == pytest.approx(5e200)
        assert hadamard_bound([[1e300, 1e300], [0.0, 0.0]]) == 0.0
        with pytest.raises(PreconditionError, match="Hadamard bound"):
            hadamard_bound([[1e200, 0.0], [0.0, 1e200]])

    def test_fmt_scalar(self):
        assert fmt_scalar(3) == "3"
        assert fmt_scalar(F(1, 3)) == "1/3"
        assert fmt_scalar(F(4, 2)) == "2"
        assert fmt_scalar(0.25) == "0.25"

    def test_tolerance_is_zero(self):
        ctx = ToleranceContext(mode="float", zero_eps=1e-12, rel_eps=1e-10)
        assert ctx.is_zero(5e-13)
        assert ctx.is_zero(5e-7, scale=1e4)
        assert not ctx.is_zero(1e-3)
        assert EXACT.is_zero(0) and not EXACT.is_zero(F(1, 10**30))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("field", ["zero_eps", "rel_eps"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, mode, field, value):
        with pytest.raises(ValueError):
            ToleranceContext(mode=mode, **{field: value})

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            SymMatrix.from_rows([[F(1), F(2)], [F(3), F(4)]])
