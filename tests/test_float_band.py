"""The float PSD/PD verdict by the relative pivot band.

Float `psd_with_margin` and `is_pd` walk the exact leading principal
minors d_j of a symmetric matrix: a pivot d_j/d_{j-1} is in band when it is
at most rel_eps times the diagonal entry a_jj, which is a pivot of the
Jacobi-scaled matrix B (b_ij = a_ij / sqrt(a_ii a_jj)) at most rel_eps in
size.  Every pivot positive and outside the band is PD, a negative one
outside it first is not PSD, the first in band at the last step is PSD
and marginal, and one earlier leaves the verdict to LDL^T in doubles of
B + rel_eps * I.  These tests check the verdicts against the smallest
eigenvalue of B (numpy's `eigvalsh`, a test-only oracle here) on random
symmetric, Gram and Hankel matrices over scales from 1e-300 to the top of
the double range, at two tolerances.  The ladder walks the same minors off
its tables and reads whole tables of zero flags (`LadderVerdicts.zeros`);
those are checked against a per-anchor scan through the matrix functions
and `vanishes`, and the LDL^T continuations are counted on the float
Bergman moments.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hankelshift import (
    FLOAT,
    BlockIndex,
    MomentSequence,
    PreconditionError,
    interiority_report,
    is_finite_mass,
    is_pd,
    is_psd,
    numkit,
    psd_with_margin,
)
import hankelshift.cli as cli
from hankelshift.hankel import LadderVerdicts, _rows
from hankelshift.numkit import ToleranceContext
from hankelshift.measures import NotStieltjesError, _stieltjes_screen

from gen import bergman_moments, det_is_zero

TOP = sys.float_info.max


def scaled_lambda_min(rows: list[list[float]]) -> float:
    """lambda_min of the Jacobi-scaled B, b_ij = a_ij / sqrt(|a_ii a_jj|)
    (a zero a_ii scales by 1); -inf where a scaled entry overflows, which
    only a matrix far from PSD has."""
    arr = np.array(rows, dtype=float)
    diag = np.abs(np.diag(arr))
    s = np.where(diag > 0, 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0)), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        b = arr * s[:, None] * s[None, :]
    if not np.all(np.isfinite(b)):
        return -math.inf
    return float(np.linalg.eigvalsh(b)[0])


# The tolerances the oracle runs at: the default rel_eps and a wide one.
CONTEXTS = (FLOAT, ToleranceContext(mode="float", rel_eps=1e-6))


def check(rows: list[list[float]]) -> None:
    """The verdicts against scaled lambda_min, with 0.1 % of the band as
    room for eigvalsh's own rounding: clear of the band above is PSD and
    not marginal, clear below is not PSD, and a marginal verdict has
    lambda_min at most the band."""
    lam = scaled_lambda_min(rows)
    for ctx in CONTEXTS:
        eps = 1.001 * ctx.rel_eps
        psd, marginal = psd_with_margin(rows, ctx)
        assert is_psd(rows, ctx) == psd
        assert is_pd(rows, ctx) == (psd and not marginal)
        if lam > eps:
            assert (psd, marginal) == (True, False), (lam, ctx.rel_eps)
        if lam < -eps:
            assert not psd, (lam, ctx.rel_eps)
        if marginal:
            assert lam <= eps, (lam, ctx.rel_eps)


def scaled(rows: list[list[float]], scale: float | str) -> list[list[float]]:
    """rows times scale, or with the largest |entry| moved to just under the
    top of the double range when scale is "top"."""
    if scale == "top":
        big = max(abs(x) for row in rows for x in row)
        assume(big > 0)
        scale = TOP / big * (1 - 2.0**-40)
    out = [[x * scale for x in row] for row in rows]
    assume(all(math.isfinite(x) for row in out for x in row))
    return out


_SCALE = st.one_of(
    st.just(1.0),
    st.floats(1e-300, 1e300),
    st.integers(-300, 300).map(lambda e: 10.0**e),
    st.just("top"),
)


@st.composite
def _symmetric(draw) -> list[list[float]]:
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@st.composite
def _gram(draw) -> list[list[float]]:
    # B B^T with B n x r, r <= n: PSD, singular when r < n.
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    b = [[draw(st.floats(-1.0, 1.0)) for _ in range(r)] for _ in range(n)]
    return [[sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b]


@st.composite
def _atomic(draw) -> list[float]:
    # Moments of 2-4 positive atoms, far enough out that blocks of order k
    # >= the atom count (singular) occur.
    count = draw(st.integers(2, 4))
    atoms = draw(st.lists(st.integers(1, 40), min_size=count, max_size=count, unique=True))
    weights = [draw(st.integers(1, 20)) / draw(st.integers(1, 12)) for _ in atoms]
    return [
        float(sum(F(w) * F(a, 8) ** m for w, a in zip(weights, atoms))) for m in range(15)
    ]


@st.composite
def _log_convex(draw) -> list[float]:
    ratio = draw(st.floats(0.1, 4.0))
    values = [1.0]
    for _ in range(14):
        values.append(values[-1] * ratio)
        ratio += draw(st.floats(0.0, 1.0))
    return values


_MOMENTS = st.one_of(
    st.just([float(v) for v in bergman_moments(14).values]),
    _atomic(),
    _log_convex(),
)


@st.composite
def _hankel_block(draw) -> list[list[float]]:
    values = draw(_MOMENTS)
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, len(values) - 1 - 2 * k))
    return [list(row) for row in _rows(values, n, k)]


class TestAgainstTheEigenvalueBand:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_symmetric(), _gram()), _SCALE)
    @example([[1.0, 1.0], [1.0, 0.5]], "top")
    @example([[1.0, 1.0], [1.0, 1.0]], "top")
    def test_symmetric_matrices(self, rows, scale):
        check(scaled(rows, scale))

    @settings(max_examples=400, deadline=None)
    @given(_hankel_block(), _SCALE)
    def test_hankel_blocks(self, rows, scale):
        check(scaled(rows, scale))


class TestBandEdges:
    def test_singular_psd_block_is_marginal_and_not_pd(self):
        # two atoms: every order-2 block has rank 2
        values = [float(1 + 2**m) for m in range(7)]
        rows = _rows(values, 1, 2)
        assert psd_with_margin(rows, FLOAT) == (True, True)
        assert not is_pd(rows, FLOAT)
        check([list(row) for row in rows])

    def test_entries_at_the_top_of_the_double_range(self):
        # A + f*I's first pivot TOP + f would overflow unscaled, and an inf
        # pivot would hide the coupling that makes the first case indefinite.
        cases = [
            ([[TOP, TOP], [TOP, TOP / 2]], (False, False), False),
            ([[TOP, TOP], [TOP, TOP]], (True, True), False),
            ([[TOP, 0.0], [0.0, TOP]], (True, False), True),
            ([[TOP, TOP / 2], [TOP / 2, TOP]], (True, False), True),
        ]
        for rows, margin, pd in cases:
            assert psd_with_margin(rows, FLOAT) == margin, rows
            assert is_pd(rows, FLOAT) == pd, rows
            check(rows)

    def test_entries_far_below_one(self):
        # The band is relative, so tiny entries are decided as their scaled
        # matrix is: PD where it is, and only the zero matrix is marginal.
        for rows in ([[1e-300, 0.0], [0.0, 1e-300]], [[5e-324]], [[1e-300, 1e-300], [1e-300, 2e-300]]):
            assert psd_with_margin(rows, FLOAT) == (True, False)
            assert is_pd(rows, FLOAT)
        assert psd_with_margin([[1e-300, 2e-300], [2e-300, 1e-300]], FLOAT) == (False, False)
        assert psd_with_margin([[0.0, 0.0], [0.0, 0.0]], FLOAT) == (True, True)
        assert not is_pd([[0.0, 0.0], [0.0, 0.0]], FLOAT)

    def test_zero_order_matrix(self):
        assert psd_with_margin([], FLOAT) == (True, False)
        assert is_pd([], FLOAT)


class TestNonFiniteEntries:
    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, math.nan], [math.nan, 1.0]],
            [[math.nan]],
            [[1.0, 0.0], [0.0, math.nan]],
            [[math.inf, 1.0], [1.0, 1.0]],
            [[1.0, -math.inf], [-math.inf, 1.0]],
        ],
        ids=["nan", "nan-1x1", "nan-diagonal", "inf", "-inf"],
    )
    def test_float_band_refuses_a_non_finite_entry(self, rows):
        for ask in (psd_with_margin, is_psd, is_pd):
            with pytest.raises(PreconditionError):
                ask(rows, FLOAT)

    @pytest.mark.parametrize(
        "rows, verdict",
        [
            ([[F(10) ** 400, F(1)], [F(1), F(1)]], (True, False)),
            ([[1.0, -(10**400)], [-(10**400), 1.0]], (False, False)),
        ],
        ids=["fraction-past-range", "int-past-range"],
    )
    def test_entries_past_the_double_range_get_answers(self, rows, verdict):
        # the pivots are exact integers, so no double has to hold an entry
        assert psd_with_margin(rows, FLOAT) == verdict
        assert is_psd(rows, FLOAT) == verdict[0]
        assert is_pd(rows, FLOAT) == (verdict == (True, False))

    def test_a_continuation_past_the_double_range_is_refused(self):
        # d_0 = 0 is in band before the last pivot, so the verdict needs the
        # doubles of the entries, and 10^400 has none
        rows = [[F(0), F(0)], [F(0), F(10) ** 400]]
        for ask in (psd_with_margin, is_psd, is_pd):
            with pytest.raises(PreconditionError):
                ask(rows, FLOAT)

    def test_finite_entries_whose_sum_overflows(self):
        # the sum screen overflows; each entry is still a finite double
        rows = [[TOP, TOP], [TOP, TOP]]
        assert psd_with_margin(rows, FLOAT) == (True, True)
        rows = [[F(TOP), F(TOP)], [F(TOP), F(TOP)]]
        assert psd_with_margin(rows, FLOAT) == (True, True)

    def test_ladder_answers_a_block_with_a_moment_past_the_double_range(self):
        gamma = MomentSequence.of([F(1), F(2), F(5), F(10) ** 400, F(1)])
        ladder = gamma.ladder(FLOAT)
        assert ladder.psd(0, 1) and ladder.pd(0, 1)
        assert ladder.psd(1, 1) and ladder.pd(1, 1)
        assert not ladder.psd(2, 1) and not ladder.pd(2, 1)


class TestLadderReusesItsFloatRows:
    @settings(max_examples=60, deadline=None)
    @given(_MOMENTS, st.floats(1e-30, 1e30))
    def test_ladder_questions_match_the_block_functions(self, values, scale):
        values = [v * scale for v in values]
        assume(all(math.isfinite(v) for v in values))
        gamma = MomentSequence.of(values)
        ladder = gamma.ladder(FLOAT)
        for k in range(1, gamma.horizon // 2 + 1):
            for n in range(gamma.horizon - 2 * k + 1):
                rows = _rows(values, n, k)
                assert ladder.psd(n, k) == psd_with_margin(rows, FLOAT)[0]
                assert ladder.pd(n, k) == is_pd(rows, FLOAT)
                assert ladder.vanishes(n, k) == det_is_zero(gamma, n, k, FLOAT)


def outcome(ask):
    """ask()'s value, or the type and text of the PreconditionError it
    raises."""
    try:
        return ask()
    except PreconditionError as exc:
        return type(exc), str(exc)


def reference_verdict(gamma: MomentSequence, k: int) -> tuple:
    """(holds, first failure, flags) of the order-k scan, one block at a
    time through `psd_with_margin` on its rows."""
    flags = []
    for n in range(gamma.horizon - 2 * k + 1):
        psd, marginal = psd_with_margin(_rows(gamma.values, n, k), FLOAT)
        if marginal:
            flags.append(f"marginal block at anchor {n}")
        if not psd:
            return False, BlockIndex(n, k), tuple(flags)
    return True, None, tuple(flags)


def reference_propagation(gamma: MomentSequence, k: int) -> tuple:
    """The propagation fields from the reference scan and one `vanishes`
    question per anchor on a fresh walk."""
    holds, failure, _ = reference_verdict(gamma, k)
    if not holds:
        raise PreconditionError(
            f"sequence is not {k}-positive on the horizon; first failure at block {failure}"
        )
    single = LadderVerdicts(gamma, FLOAT)
    zero = [single.vanishes(n, k - 1) for n in single.table(k - 1).anchors()]
    if not any(zero):
        return single.table(k - 1).nums, False, None, None, False
    rest = all(zero[1:])
    return single.table(k - 1).nums, True, zero.index(True), rest, rest and not zero[0]


def reference_witness(gamma: MomentSequence):
    """is_finite_mass's witness by one `vanishes` question per anchor, in
    (order, anchor) order, on a fresh walk after the same screen."""
    _stieltjes_screen(gamma, FLOAT)
    single = LadderVerdicts(gamma, FLOAT)
    for k in range(gamma.horizon // 2 + 1):
        for p in single.table(k).anchors():
            if single.vanishes(p, k):
                return BlockIndex(p, k)
    return None


@st.composite
def _wide(draw) -> list:
    # Moment shapes at scales 1e-300..1e300, or arbitrary wide-exponent
    # doubles; under FLOAT either may meet the band's edges.
    if draw(st.booleans()):
        values = [v * 10.0 ** draw(st.integers(-300, 300)) for v in draw(_MOMENTS)]
    else:
        entry = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
        values = draw(st.lists(entry, min_size=3, max_size=13))
    assume(values[0] > 0 and all(math.isfinite(v) for v in values))
    return values


@st.composite
def _past_the_range(draw) -> list:
    # Fraction moments, one of them pushed past the double range.
    values = [F(v) for v in draw(_MOMENTS)]
    i = draw(st.integers(0, len(values) - 1))
    values[i] *= F(10) ** draw(st.integers(300, 400))
    return values


# block(0, 1) with lambda_min ~ 1e-5: marginal under the floor of its largest
# entry gamma_2 = 1e6 (f ~ 1e-4), not under that of gamma_0, gamma_1 alone.
_CORNER_MARGINAL = [1.0, math.sqrt(1e6 - 10.0), 1e6, 1e9, 1e12]


class TestWindowKernelAgainstThePerAnchorScan:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_wide(), _past_the_range()))
    @example(_CORNER_MARGINAL)
    @example([float(1 + 2**m) for m in range(9)])
    @example([F(1), F(2), F(5), F(10) ** 400, F(1)])
    def test_verdicts_and_propagation(self, values):
        gamma = MomentSequence.of(values)
        ladder = gamma.ladder(FLOAT)
        for k in range(1, gamma.horizon // 2 + 1):
            got = outcome(lambda: (lambda v: (v.holds, v.first_failure, v.flags))(ladder.verdict(k)))
            assert got == outcome(lambda: reference_verdict(gamma, k)), k
            got = outcome(
                lambda: (lambda r: (
                    r.table.nums, r.vanishing_found, r.first_zero_anchor,
                    r.conclusion_verified, r.anchor_zero_allowed_nonzero,
                ))(ladder.propagation(k))
            )
            assert got == outcome(lambda: reference_propagation(gamma, k)), k

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_wide(), _past_the_range()))
    @example([float(1 + 2**m) for m in range(9)])
    @example([1.0, 0.0, 0.0, 0.0, 0.0])
    def test_finite_mass_witness(self, values):
        try:
            got = outcome(lambda: is_finite_mass(MomentSequence.of(values), FLOAT).witness)
        except NotStieltjesError:
            assume(False)
        assert got == outcome(lambda: reference_witness(MomentSequence.of(values)))


@pytest.fixture
def ldlt_calls(monkeypatch) -> list[int]:
    """The order of each matrix `numkit._ldlt_pd` factorises, in call order."""
    calls = []
    real = numkit._ldlt_pd

    def ldlt(rows, shift):
        calls.append(len(rows))
        return real(rows, shift)

    monkeypatch.setattr(numkit, "_ldlt_pd", ldlt)
    return calls


class TestWindowWorkCount:
    def test_float_bergman_analyze_then_interiority(self, ldlt_calls):
        # fbergman: the float Bergman moments 1/(n+1), horizon 24, under
        # `analyze --k 3`, then the interiority scan of `perturb --l 3 --k 3`.
        # Every block is decided by its minors: no LDL^T continuation runs.
        gamma = MomentSequence.of([float(v) for v in bergman_moments(24).values])
        results = cli.cmd_analyze(gamma, None, argparse.Namespace(k=3), FLOAT, [])
        assert [entry["holds"] for entry in results["ladder"]] == [True, True, True]
        assert interiority_report(gamma, 3, 3, FLOAT).pd_all
        assert ldlt_calls == []

    def test_continuations_on_a_near_singular_float_window(self, ldlt_calls):
        # block(0, 2) of 1, 1, 1 + 1e-13, 0, 0 has an in-band pivot d_1 at
        # j = 1 < k: one continuation decides it (not PSD, as its entries
        # are), and a repeated question takes one more.
        ladder = MomentSequence.of([1.0, 1.0, 1.0 + 1e-13, 0.0, 0.0]).ladder(FLOAT)
        assert not ladder.psd(0, 2)
        assert ldlt_calls == [3]
        assert not ladder.verdict(2).holds
        assert ldlt_calls == [3, 3]
