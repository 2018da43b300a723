"""Float mode on the integer kernel.

Float determinant tables, Vandermonde densities and recursion
coefficients are exact results over the moments' binary values, each
rounded to a double once.  These tests check that contract against exact
oracles, against exact mode on the source measure, and against the float
routines it replaced, kept here as references: the float condensation
ladder (Hadamard-scaled divisor test, numpy determinant fallback), numpy's
`solve`, and numpy's `lstsq` least-squares fit of a recursion.  numpy is a
test-only oracle here.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hankelshift import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    MomentSequence,
    det_bareiss,
    det_ladder,
    detect_recursion,
    moments_of,
    recover_atoms,
    solve_vandermonde,
)
from hankelshift.hankel import _rows

from gen import bergman_moments, hadamard_bound
from test_integer_kernel import solve_reference


def reference_float_ladder(values: list[float], top: int) -> list[list[float]]:
    """The float ladder that float mode ran before: condensation in
    doubles, and numpy's determinant where the divisor lies inside the
    band scaled by the divisor block's Hadamard bound."""
    horizon = len(values) - 1
    prev2, prev1 = [1.0] * (horizon + 3), list(values)
    tables = [prev1]
    for order in range(1, top + 1):
        table = []
        for n in range(horizon - 2 * order + 1):
            divisor = prev2[n + 2]
            scale = hadamard_bound(_rows(values, n + 2, order - 2)) if order >= 2 else divisor
            if FLOAT.is_zero(divisor, scale):
                table.append(float(np.linalg.det(np.array(_rows(values, n, order)))))
            else:
                table.append((prev1[n] * prev1[n + 2] - prev1[n + 1] ** 2) / divisor)
        tables.append(table)
        prev2, prev1 = prev1, table
    return tables


# Moments over a wide range of binary scales, zeros among them, so table
# scales D^(k+1) and zero divisors both occur.
_MOMENT = st.one_of(
    st.just(0.0),
    st.floats(1e-30, 1e30),
    st.integers(-40, 40).map(lambda e: 2.0**e),
)


@st.composite
def _log_convex(draw) -> list[float]:
    # Strictly growing consecutive ratios keep every block well conditioned.
    ratio = draw(st.floats(0.1, 4.0))
    values = [1.0]
    for _ in range(draw(st.integers(2, 12))):
        values.append(values[-1] * ratio)
        ratio += draw(st.floats(0.1, 1.0))
    return values


class TestFloatDetTable:
    @settings(max_examples=150, deadline=None)
    @given(st.floats(1e-30, 1e30), st.lists(_MOMENT, min_size=0, max_size=9))
    def test_entries_are_the_rounded_exact_determinants(self, first, rest):
        values = [first, *rest]
        exact_walk = det_ladder(MomentSequence.of([F(v) for v in values]), EXACT)
        for table, exact in zip(det_ladder(MomentSequence.of(values), FLOAT), exact_walk):
            assert table.methods == exact.methods
            for n in table.anchors():
                block = [[F(x) for x in row] for row in _rows(values, n, table.k)]
                assert type(table.dets[n]) is float
                assert table.dets[n] == float(det_bareiss(block)), (table.k, n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_MOMENT | st.floats(-1e300, 1e300), min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ))
    def test_det_bareiss_rounds_the_exact_determinant(self, rows):
        exact = det_bareiss([[F(x) for x in row] for row in rows])
        got = det_bareiss(rows)
        try:
            want = float(exact)
        except OverflowError:  # past the double range: the signed inf
            want = math.inf if exact > 0 else -math.inf
        assert type(got) is float and got == want

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.integers(2, 12).map(lambda h: [float(v) for v in bergman_moments(h).values]),
        _log_convex(),
    ))
    def test_agrees_with_the_float_condensation_ladder(self, values):
        reference = reference_float_ladder(values, (len(values) - 1) // 2)
        for table, ref in zip(det_ladder(MomentSequence.of(values), FLOAT), reference):
            assert list(table.dets) == pytest.approx(ref, rel=1e-8, abs=0)


# Well-separated nodes and right-hand sides of moderate size.
_NODES = st.lists(
    st.integers(1, 24).map(lambda i: i / 4 + 0.001 * i), min_size=1, max_size=4, unique=True
)


class TestFloatVandermonde:
    @settings(max_examples=100, deadline=None)
    @given(_NODES, st.data())
    def test_matches_numpy_solve_and_the_rounded_exact_solution(self, nodes, data):
        rhs = data.draw(st.lists(st.floats(0.5, 50.0), min_size=len(nodes), max_size=len(nodes)))
        got = solve_vandermonde(nodes, rhs, FLOAT)
        exact = solve_vandermonde([F(x) for x in nodes], [F(v) for v in rhs], EXACT)
        assert all(type(x) is float for x in got)
        assert got == tuple(float(x) for x in exact)
        matrix = np.array([[x**i for x in nodes] for i in range(len(nodes))])
        want = np.linalg.solve(matrix, np.array(rhs))
        scale = max(abs(want))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * scale)

    def test_exact_context_rounds_when_an_input_is_a_float(self):
        assert solve_vandermonde([F(1), F(2)], [F(2), F(3)]) == (F(1), F(1))
        assert solve_vandermonde([F(1), 2.0], [F(2), F(3)]) == (1.0, 1.0)
        assert solve_vandermonde([F(1), F(3)], [F(1), F(2)], FLOAT) == (0.5, 0.5)


@st.composite
def _gapped_measures(draw) -> AtomicMeasure:
    # At most 4 rational atoms in (0, 10], at least 1/8 apart.  No atom at
    # 0: the rounded recursion puts that root at +-1e-16, and a negative
    # root is not atomic.
    atom = st.fractions(min_value=F(1, 12), max_value=10, max_denominator=12)
    atoms = sorted(set(draw(st.lists(atom, min_size=1, max_size=4))))
    if any(b - a < F(1, 8) for a, b in zip(atoms, atoms[1:])):
        atoms = atoms[:1]
    dens = st.fractions(min_value=F(1, 12), max_value=24, max_denominator=12)
    return AtomicMeasure(tuple(atoms), tuple(draw(dens) for _ in atoms))


def _rounded_block_solution(gamma: MomentSequence, r: int) -> tuple[float, ...]:
    # The r x r system on block(0, r-1) over the binary values, solved by
    # Fraction Gauss-Jordan and rounded once.
    g = gamma.values
    return tuple(map(float, solve_reference(_rows(g, 0, r - 1), g[r:2 * r])))


class TestFloatRecursionFit:
    @settings(max_examples=120, deadline=None)
    @given(_gapped_measures())
    @example(AtomicMeasure((F(14, 17), F(19, 17), F(94, 17)), (F(16, 13), F(25, 13), F(24, 13))))
    @example(AtomicMeasure((F(60, 17), F(77, 17), F(91, 17)), (F(15, 13), F(25, 13), F(19, 13))))
    def test_float_mode_finds_the_exact_order_and_the_source_atoms(self, mu):
        r = len(mu.atoms)
        horizon = 2 * r + 4
        source = moments_of(mu, horizon)
        exact = detect_recursion(source, r + 1, EXACT)
        # Float mode separates orders by the relative pivot against
        # rel_eps = 1e-10: the claim holds where the source's pivots below
        # its order sit well above that band.
        ladder = source.ladder(EXACT)
        assume(all(
            ladder.table(j).dets[0] >= 1e-8 * ladder.table(j - 1).dets[0] * source[2 * j]
            for j in range(1, r)
        ))
        floats = AtomicMeasure(tuple(map(float, mu.atoms)), tuple(map(float, mu.densities)))
        gamma = moments_of(floats, horizon)
        rec = detect_recursion(gamma, r + 1, FLOAT)
        assert (exact.order, rec.order) == (r, r)
        assert rec.coeffs == _rounded_block_solution(gamma, r)
        back = recover_atoms(rec, gamma, FLOAT)
        assert back.atoms == pytest.approx(floats.atoms, rel=1e-4)

    @settings(max_examples=80, deadline=None)
    @given(_NODES, st.data())
    def test_coefficients_match_numpy_lstsq(self, atoms, data):
        densities = data.draw(
            st.lists(st.floats(0.5, 3.0), min_size=len(atoms), max_size=len(atoms))
        )
        atoms = sorted(atoms)
        r = len(atoms)
        gamma = moments_of(AtomicMeasure(tuple(atoms), tuple(densities)), 2 * r + 2)
        rec = detect_recursion(gamma, r, FLOAT)
        assert rec is not None and rec.order == r
        assert all(type(c) is float for c in rec.coeffs)
        assert rec.coeffs == _rounded_block_solution(gamma, r)
        values = np.array(gamma.values)
        rows = np.array([values[p:p + r] for p in range(len(values) - r)])
        want, *_ = np.linalg.lstsq(rows, values[r:], rcond=None)
        assert np.allclose(rec.coeffs, want, rtol=1e-6, atol=1e-6 * max(abs(want)))
