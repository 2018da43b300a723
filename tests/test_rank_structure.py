"""The rank structure behind exact `recursion`: differential tests of
`detect_recursion` and `is_finite_mass` against the per-order overdetermined
search and the pivot-elimination screen with its own ladder walk that it
replaced, and counts of the work it saves."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hankelshift.hankel as hankel
import hankelshift.measures as measures
import hankelshift.numkit as numkit
from hankelshift import (
    EXACT,
    FLOAT,
    BlockIndex,
    FiniteMassReport,
    LadderVerdicts,
    MomentSequence,
    NotStieltjesError,
    Recursion,
    block,
    det_ladder,
    detect_recursion,
    is_finite_mass,
    is_psd,
    psd_with_margin,
    solve_linear_exact,
)
from hankelshift.hankel import _integer_block

from gen import bergman_moments, det_is_zero, logconvex_moments


def _per_order_search(gamma, max_order):
    # The replaced exact search: one overdetermined integer fit per order,
    # from 1 up to the cap.
    if max_order < 1:
        return None
    g = gamma.integer_view[0]
    for r in range(1, min(max_order, gamma.horizon // 2) + 1):
        rows = [[g[p + i] for i in range(r)] for p in range(len(g) - r)]
        sol = solve_linear_exact(rows, [g[p + r] for p in range(len(g) - r)])
        if sol is not None:
            return Recursion(order=r, coeffs=tuple(sol), valid_from=0)
    return None


def _pivot_screen_scan(gamma, ctx=EXACT):
    # The replaced finite-mass test: one PSD elimination on each maximal
    # block (integer blocks in exact mode), then a scan of the anchors of
    # its own det_ladder walk by the reference zero test, which takes its
    # minors by det_bareiss.  The failing block's parity stands for the error.
    n = gamma.horizon
    block_of = _integer_block if ctx.is_exact else block
    if not is_psd(block_of(gamma, 0, n // 2), ctx):
        return "not Stieltjes: even"
    if n >= 1 and not is_psd(block_of(gamma, 1, (n - 1) // 2), ctx):
        return "not Stieltjes: odd"
    for table in det_ladder(gamma, ctx):
        for p in table.anchors():
            if det_is_zero(gamma, p, table.k, ctx):
                return FiniteMassReport(finite=True, witness=BlockIndex(p, table.k))
    return FiniteMassReport(finite=False, witness=None)


def _finite_mass_outcome(gamma, ctx=EXACT):
    try:
        return is_finite_mass(gamma, ctx)
    except NotStieltjesError as exc:
        return "not Stieltjes: " + ("odd" if "odd indices" in str(exc) else "even")


def _moments(atoms, densities, horizon):
    # gamma_0..gamma_horizon of sum_j densities[j] * delta_{atoms[j]}, any
    # signs; None when a moment is negative or gamma_0 is not positive.
    values = [sum(d * x**n for x, d in zip(atoms, densities)) for n in range(horizon + 1)]
    if values[0] <= 0 or min(values) < 0:
        return None
    return MomentSequence.of(values)


def _assert_agrees(gamma):
    # detect_recursion at every cap, then is_finite_mass, on one sequence,
    # so both read the one kept ladder as the CLI does.
    for max_order in range(gamma.horizon // 2 + 3):
        got = detect_recursion(gamma, max_order, EXACT)
        assert got == _per_order_search(gamma, max_order), (gamma.values, max_order)
    assert _finite_mass_outcome(gamma) == _pivot_screen_scan(gamma), gamma.values
    fresh = MomentSequence.of(gamma.values)
    assert _finite_mass_outcome(fresh) == _pivot_screen_scan(fresh), gamma.values


atom = st.fractions(min_value=0, max_value=20, max_denominator=12)
density = st.fractions(min_value=F(1, 12), max_value=20, max_denominator=12)
horizon = st.integers(min_value=0, max_value=12)


@st.composite
def positive_measures(draw, horizons=horizon):
    """1-4 positive densities on distinct nonnegative atoms, sometimes with
    a zero atom and a pair 1e-4 or 1e-10 apart."""
    atoms = set(draw(st.lists(atom, min_size=1, max_size=4)))
    if draw(st.booleans()):
        atoms.add(F(0))
    if draw(st.booleans()):
        x = draw(st.sampled_from(sorted(atoms)))
        atoms.add(x + F(1, 10 ** draw(st.sampled_from([4, 10]))))
    atoms = sorted(atoms)
    return _moments(atoms, [draw(density) for _ in atoms], draw(horizons))


@st.composite
def signed_measures(draw, horizons=horizon):
    """A negative density among positive ones, or a positive density on a
    negative atom, kept when every moment is nonnegative: recursive
    sequences that fail the screen, the latter on the odd block only."""
    atoms = sorted(set(draw(st.lists(atom, min_size=2, max_size=4))))
    assume(len(atoms) >= 2)
    dens = [draw(density) for _ in atoms]
    if draw(st.booleans()):
        dens[draw(st.integers(0, len(atoms) - 2))] *= -1
    else:
        atoms[0] = -draw(st.fractions(min_value=F(1, 12), max_value=atoms[-1], max_denominator=12))
        assume(atoms[0] != -atoms[-1])
        dens[-1] = max(dens[-1], dens[0])
    gamma = _moments(atoms, dens, draw(horizons))
    assume(gamma is not None)
    return gamma


wide_horizon = st.integers(min_value=0, max_value=14)


@st.composite
def geometric_sequences(draw):
    """a * b^n, b >= 0: d_1(0) = 0 and the order-1 recursion holds, so
    r = 1 and every block of order >= 1 is read from gamma_n."""
    a, b = draw(density), draw(atom)
    return MomentSequence.of([a * b**n for n in range(draw(wide_horizon) + 1)])


@st.composite
def mirrored_measures(draw):
    """Atoms -x and x, the positive one at least as heavy, beside up to two
    positive atoms.  With equal weights on the pair and nothing else,
    gamma_n = 0 at odd n, so d_0(n) = 0 in blocks of order k = r - 1:
    only the guard r <= k keeps the rule from asking about them again."""
    x = draw(st.fractions(min_value=F(1, 12), max_value=20, max_denominator=12))
    rho = draw(density)
    atoms = {-x: rho, x: rho + draw(st.sampled_from([0, 0, F(1, 3)]))}
    for y in draw(st.lists(atom, max_size=2)):
        atoms.setdefault(y, draw(density))
    return _moments(list(atoms), list(atoms.values()), draw(wide_horizon))


small_integer_sequences = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=12
).filter(lambda v: v[0] > 0).map(MomentSequence.of)


@st.composite
def failed_candidates(draw):
    """gamma_0..gamma_2 geometric, so d_1(0) = 0, then small integers: the
    order-1 candidate mostly fails on the horizon."""
    a = draw(st.integers(1, 3))
    b = draw(st.fractions(min_value=0, max_value=3, max_denominator=2))
    tail = draw(st.lists(st.integers(0, 3), min_size=1, max_size=9))
    return MomentSequence.of([a, a * b, a * b * b, *tail])


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(gamma=positive_measures())
    def test_positive_measures(self, gamma):
        _assert_agrees(gamma)

    @settings(max_examples=120, deadline=None)
    @given(gamma=signed_measures())
    def test_signed_measures(self, gamma):
        _assert_agrees(gamma)

    @settings(max_examples=250, deadline=None)
    @given(gamma=st.one_of(small_integer_sequences, failed_candidates()))
    def test_small_integer_sequences(self, gamma):
        # vanishing minors of every kind: a failed order-r candidate, the
        # fallback fit above it, and undecided ladder blocks
        _assert_agrees(gamma)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=horizon)
    def test_no_recursion(self, seed, h):
        _assert_agrees(logconvex_moments(random.Random(seed), h))

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.one_of(positive_measures(), small_integer_sequences))
    def test_float_witness_from_the_kept_ladder(self, gamma):
        assert _finite_mass_outcome(gamma, FLOAT) == _pivot_screen_scan(gamma, FLOAT)

    @pytest.mark.parametrize(
        "atoms, densities, h",
        [
            ((F(0), F(1, 3), F(2)), (F(1), F(2), F(1, 5)), 12),
            ((F(1), 1 + F(1, 10**4), F(3)), (F(1), F(2), F(1, 3)), 12),
            ((F(1), 1 + F(1, 10**10), F(3)), (F(1), F(2), F(1, 3)), 12),
            ((F(1), F(2), F(3)), (F(1), F(-1), F(1)), 10),
            ((F(-1), F(2)), (F(1), F(3)), 9),
            ((F(-1), F(2)), (F(1), F(3)), 8),
            ((F(1), F(2), F(3), F(5)), (F(1),) * 4, 5),
            ((F(1), F(2), F(3), F(5)), (F(1),) * 4, 6),
            ((F(7, 3),), (F(2),), 1),
        ],
        ids=[
            "zero-atom",
            "atoms-1e-4-apart",
            "atoms-1e-10-apart",
            "negative-density",
            "negative-atom-odd-horizon",
            "negative-atom-even-horizon",
            "order-above-half-horizon",
            "order-at-half-horizon",
            "horizon-one",
        ],
    )
    def test_named_corpus(self, atoms, densities, h):
        _assert_agrees(_moments(atoms, densities, h))

    def test_negative_atom_fails_on_the_odd_block_only(self):
        gamma = _moments((F(-1), F(2)), (F(1), F(3)), 8)
        assert detect_recursion(gamma, 4, EXACT).order == 2
        with pytest.raises(NotStieltjesError, match="odd indices"):
            is_finite_mass(gamma, EXACT)

    def test_negative_density_is_recursive_but_not_psd(self):
        gamma = _moments((F(1), F(2), F(3)), (F(1), F(-1), F(1)), 10)
        assert detect_recursion(gamma, 4, EXACT).order == 3
        with pytest.raises(NotStieltjesError):
            is_finite_mass(gamma, EXACT)

    def test_failed_candidate_falls_back_to_the_fit(self):
        # d_1(0) = 0, but gamma_3 != gamma_2 / gamma_1 * gamma_2: the order-1
        # candidate fails, and the overdetermined fit finds order 3.
        gamma = MomentSequence.of([1, 1, 1, 0, 0, 0, 0])
        assert detect_recursion(gamma, 1, EXACT) is None
        rec = detect_recursion(gamma, 3, EXACT)
        assert rec == _per_order_search(gamma, 3) and rec.order == 3

    @settings(max_examples=200, deadline=None)
    @given(gamma=failed_candidates())
    def test_the_fit_never_stops_at_the_next_order(self, gamma):
        # When the order-r candidate fails, the per-order search never
        # stops at r + 1: a recursion of order r + 1 extends gamma to a
        # linear recurrent sequence whose minimal order is r + 1 (an order
        # <= r would have been found), and its r+1 x r+1 leading block is
        # then nonsingular (Kronecker), against d_r(0) = 0.
        rank = gamma.ladder(EXACT).rank
        assume(rank.order is not None and rank.coeffs is None)
        found = _per_order_search(gamma, gamma.horizon // 2)
        assert found is None or found.order >= rank.order + 2


def _assert_blocks_agree(gamma):
    # Every block verdict of the exact ladder, asked of a fresh ladder and
    # of one shared by every question, against one pivot elimination on the
    # integer block: the minors, the rank-structure rule and the fallback.
    shared = LadderVerdicts(gamma)
    for k in range(gamma.horizon // 2 + 1):
        for n in range(gamma.horizon - 2 * k + 1):
            expected = psd_with_margin(_integer_block(gamma, n, k))
            assert LadderVerdicts(gamma)._block_psd(n, k) == expected, (gamma.values, n, k)
            assert shared._block_psd(n, k) == expected, (gamma.values, n, k)
            assert shared.psd(n, k) == expected[0]


class TestLadderRule:
    @settings(max_examples=120, deadline=None)
    @given(gamma=st.one_of(positive_measures(wide_horizon), signed_measures(wide_horizon)))
    def test_atomic_sequences(self, gamma):
        # zero atoms, negative atoms and negative densities
        _assert_blocks_agree(gamma)

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.one_of(geometric_sequences(), mirrored_measures()))
    def test_order_one_and_mirrored_atoms(self, gamma):
        _assert_blocks_agree(gamma)

    @settings(max_examples=120, deadline=None)
    @given(gamma=st.one_of(failed_candidates(), small_integer_sequences))
    def test_vanishing_minor_without_recursion(self, gamma):
        _assert_blocks_agree(gamma)

    @pytest.mark.parametrize(
        "values",
        [
            [1, 1, 1, 0, 0, 0, 0],
            [2, 0, 2, 0, 2, 0, 2, 0, 2],
            [3, 0, 0, 0, 0],
            [1, 0, 1, 0, 1, 0, 2],
        ],
        ids=["failed-order-one", "atoms-minus-one-and-one", "atom-at-zero", "failed-order-two"],
    )
    def test_named_corpus(self, values):
        _assert_blocks_agree(MomentSequence.of(values))


class TestWorkSaved:
    def _count(self, monkeypatch):
        # solve_linear_exact runs in the ladder's rank structure (hankel)
        # and in the fallback fit (measures); both count.
        calls = {"solve": 0, "pivots": 0}
        solve, pivots = numkit.solve_linear_exact, numkit._pivots

        def counting_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        def counting_pivots(matrix):
            calls["pivots"] += 1
            return pivots(matrix)

        monkeypatch.setattr(hankel, "solve_linear_exact", counting_solve)
        monkeypatch.setattr(measures, "solve_linear_exact", counting_solve)
        monkeypatch.setattr(numkit, "_pivots", counting_pivots)
        return calls

    def test_positive_measure_takes_one_solve_and_no_elimination(self, monkeypatch):
        calls = self._count(monkeypatch)
        gamma = _moments((F(1), F(5, 2), F(7)), (F(1, 3), F(2), F(1)), 14)
        assert detect_recursion(gamma, 4, EXACT).order == 3
        assert is_finite_mass(gamma, EXACT).witness == (0, 3)
        assert calls == {"solve": 1, "pivots": 0}

    def test_no_vanishing_minor_takes_no_solve(self, monkeypatch):
        calls = self._count(monkeypatch)
        gamma = bergman_moments(12)
        assert detect_recursion(gamma, 5, EXACT) is None
        assert not is_finite_mass(gamma, EXACT).finite
        assert calls == {"solve": 0, "pivots": 0}

    def test_order_above_the_cap_takes_no_solve(self, monkeypatch):
        calls = self._count(monkeypatch)
        gamma = _moments((F(1), F(2), F(3), F(5)), (F(1),) * 4, 12)
        assert detect_recursion(gamma, 3, EXACT) is None
        assert calls["solve"] == 0

    def test_non_stieltjes_logconvex_runs_no_elimination(self, monkeypatch):
        # Log-convex inputs that fail the even block, where the first
        # nonpositive anchor-0 minor on the ladder is negative: it decides
        # the block, so no elimination runs.  (A vanishing one, from a
        # geometric prefix, leaves the block to the elimination.)
        failing = [
            gamma
            for gamma in (logconvex_moments(random.Random(seed), 12) for seed in range(1, 13))
            if _pivot_screen_scan(gamma) == "not Stieltjes: even"
            and next(t.dets[0] for t in det_ladder(gamma) if t.dets[0] <= 0) < 0
        ]
        assert len(failing) >= 3
        calls = self._count(monkeypatch)
        for gamma in failing:
            with pytest.raises(NotStieltjesError, match="even indices"):
                is_finite_mass(gamma, EXACT)
        assert calls["pivots"] == 0
