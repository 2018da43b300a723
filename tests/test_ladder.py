"""The determinant-ladder decider of exact k-positivity: differential tests
against pivot elimination, principal minors and the per-order Fraction
loop that the numerator-sign reads replaced, counts of the work it does
(ladder walks, pivot fallbacks), and the tables' lazy Fractions and doubles."""

from __future__ import annotations

import copy
import json
import pickle
import re
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelshift.cli as cli
import hankelshift.hankel as hankel
import hankelshift.numkit as numkit
from hankelshift import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    BlockIndex,
    DetTable,
    LadderVerdicts,
    MomentSequence,
    PreconditionError,
    WeightSequence,
    block,
    det_bareiss,
    det_ladder,
    detect_recursion,
    is_finite_mass,
    is_k_positive,
    moments_of,
    propagation_for_shift,
)

from gen import bergman_moments


def _scan(gamma, k, decide):
    # (holds, first failure, flags) of the order-k anchor scan, each block
    # decided by decide(matrix) -> (is PSD, is PD).
    flags = []
    for n in range(gamma.horizon - 2 * k + 1):
        psd, pd = decide(block(gamma, n, k))
        if psd and not pd:
            flags.append(f"singular block at anchor {n}")
        if not psd:
            return False, BlockIndex(n, k), tuple(flags)
    return True, None, tuple(flags)


def _by_pivots(matrix):
    # (is PSD, is PD) from the exact pivot elimination (`numkit._pivots`),
    # through its public entry point, which scales a Fraction block to
    # integer rows.
    psd, marginal = numkit.psd_with_margin(matrix)
    return psd, psd and not marginal


def _by_minors(matrix):
    # PSD iff every principal minor is >= 0; a PSD matrix is PD iff its
    # determinant is nonzero.
    size = matrix.order
    psd = all(
        det_bareiss([[matrix.entry(i, j) for j in idx] for i in idx]) >= 0
        for r in range(1, size + 1)
        for idx in combinations(range(size), r)
    )
    return psd, psd and det_bareiss(matrix) != 0


def _outcome(verdict):
    return verdict.holds, verdict.first_failure, verdict.flags


def _per_order_block_psd(ladder, n, k):
    # The per-order Fraction loop that the numerator-sign reads replaced:
    # d_0(n), ..., d_k(n) compared as Fractions through table() for every
    # block.
    for j in range(k + 1):
        d = ladder.table(j).dets[n]
        if d < 0:
            return False, False
        if d == 0:
            if j == k:
                return True, True
            break
    else:
        return True, False
    return numkit.psd_with_margin(hankel._integer_block(ladder.gamma, n, k))


def _per_order_scan(gamma, k):
    ladder = LadderVerdicts(gamma)
    flags = []
    for n in range(gamma.horizon - 2 * k + 1):
        psd, marginal = _per_order_block_psd(ladder, n, k)
        if marginal:
            flags.append(f"singular block at anchor {n}")
        if not psd:
            return False, BlockIndex(n, k), tuple(flags)
    return True, None, tuple(flags)


def _questions(gamma):
    # every verdict, PD and table question the ladder answers on gamma
    top = gamma.horizon // 2
    return (
        [("verdict", k) for k in range(1, top + 1)]
        + [("pd", n, k) for k in range(top + 1) for n in range(gamma.horizon - 2 * k + 1)]
        + [("table", j) for j in range(top + 1)]
    )


def _expected_answers(gamma):
    # every answer from references that share no code with the sign reads:
    # the per-order loop and principal minors by det_bareiss must agree
    answers = {}
    fresh = LadderVerdicts(gamma)
    for question in _questions(gamma):
        if question[0] == "verdict":
            k = question[1]
            answers[question] = _per_order_scan(gamma, k)
            assert answers[question] == _scan(gamma, k, _by_minors), (gamma.values, k)
        elif question[0] == "pd":
            n, k = question[1:]
            answers[question] = all(fresh.table(j).dets[n] > 0 for j in range(k + 1))
            assert answers[question] == _by_minors(block(gamma, n, k))[1], (gamma.values, n, k)
        else:
            answers[question] = fresh.table(question[1])
    return answers


def _ask(ladder, question):
    if question[0] == "verdict":
        return _outcome(ladder.verdict(question[1]))
    if question[0] == "pd":
        return ladder.pd(*question[1:])
    return ladder.table(question[1])


def _check_every_order(gamma):
    ladder = LadderVerdicts(gamma)
    for k in range(1, gamma.horizon // 2 + 1):
        got = _outcome(ladder.verdict(k))
        assert got == _scan(gamma, k, _by_pivots), (gamma.values, k)
        assert got == _scan(gamma, k, _by_minors), (gamma.values, k)
        if got[0]:
            assert ladder.verdict(k).witness is None
        else:
            assert ladder.verdict(k).witness == block(gamma, *got[1])
        for n in range(gamma.horizon - 2 * k + 1):
            assert ladder.pd(n, k) == _by_pivots(block(gamma, n, k))[1]


_atom = st.fractions(min_value=0, max_value=3, max_denominator=4)
_density = st.fractions(min_value=F(1, 5), max_value=3, max_denominator=5)


@st.composite
def atomic_moments(draw):
    # r atoms against orders up to 5: r < k, r = k and r > k all occur, and
    # an atom at 0 makes d_{r-1}(n) vanish for n >= 1 below the top order.
    atoms = sorted(draw(st.sets(_atom, min_size=1, max_size=5)))
    dens = draw(st.lists(_density, min_size=len(atoms), max_size=len(atoms)))
    horizon = draw(st.integers(2, 10))
    return moments_of(AtomicMeasure(tuple(atoms), tuple(dens)), horizon)


@st.composite
def log_convex_moments(draw):
    # Nondecreasing ratios: 1-positive, and most fail at some higher order.
    horizon = draw(st.integers(2, 10))
    ratio = draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4))
    values = [F(1)]
    for _ in range(horizon):
        values.append(values[-1] * ratio)
        ratio += draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
    return MomentSequence.of(values)


@st.composite
def zeroed_moments(draw):
    # Measure moments with some entries zeroed: d_0(n) = 0 below the top
    # order sends those anchors to the pivot fallback, PSD or not.
    gamma = draw(atomic_moments())
    zeros = draw(st.sets(st.integers(1, gamma.horizon), max_size=gamma.horizon))
    return MomentSequence.of(
        v if n not in zeros else F(0) for n, v in enumerate(gamma.values)
    )


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(atomic_moments())
    def test_atomic(self, gamma):
        _check_every_order(gamma)

    @settings(max_examples=150, deadline=None)
    @given(log_convex_moments())
    def test_log_convex(self, gamma):
        _check_every_order(gamma)

    @settings(max_examples=150, deadline=None)
    @given(zeroed_moments())
    def test_zero_moments(self, gamma):
        _check_every_order(gamma)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(atomic_moments(), log_convex_moments(), zeroed_moments()), st.data())
    def test_answers_do_not_depend_on_question_order(self, gamma, data):
        # One walk answers verdicts, PD questions and table pulls in any
        # order: the top order comes first (a verdict, a PD question or a
        # bare table pull, so every table may arrive before any verdict),
        # then every question in a random order.
        expected = _expected_answers(gamma)
        top = gamma.horizon // 2
        rest = data.draw(st.permutations(_questions(gamma)))
        for first in (("verdict", top), ("pd", 0, top), ("table", top)):
            ladder = LadderVerdicts(gamma)
            for question in (first, *rest):
                assert _ask(ladder, question) == expected[question], (gamma.values, first, question)

    def test_float_entries_decided_at_binary_values(self):
        # Exact mode takes floats at their binary values, in the ladder as in
        # the pivot elimination.
        g = MomentSequence.of([1.0, 0.1, 0.1 * 0.1, 0.1 * 0.1 * 0.1, 0.1**4])
        for k in (1, 2):
            assert _outcome(is_k_positive(g, k)) == _scan(g, k, _by_pivots)


def _count_walks(monkeypatch):
    walks = []
    det_ladder = hankel.det_ladder

    def counting(gamma, ctx):
        walks.append(gamma)
        return det_ladder(gamma, ctx)

    monkeypatch.setattr(hankel, "det_ladder", counting)
    return walks


def _count_pivots(monkeypatch):
    calls = []
    pivots = numkit._pivots

    def counting(matrix):
        calls.append(matrix)
        return pivots(matrix)

    monkeypatch.setattr(numkit, "_pivots", counting)
    return calls


def _bergman_file(tmp_path, horizon):
    path = tmp_path / f"bergman{horizon}.json"
    sq = [f"{n + 1}/{n + 2}" for n in range(horizon)]
    path.write_text(json.dumps({"kind": "weights", "values": sq}))
    return str(path)


class TestWorkCounts:
    def test_analyze_walks_the_ladder_once(self, tmp_path, capsys, monkeypatch):
        # five orders, the flatness scan and the propagation report
        walks = _count_walks(monkeypatch)
        argv = ["analyze", _bergman_file(tmp_path, 20), "--k", "5", "--json"]
        assert cli.main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [e["holds"] for e in results["ladder"]] == [True] * 5
        assert "flatness" in results and "propagation" in results
        assert len(walks) == 1

    def test_dets_walks_the_ladder_once(self, tmp_path, capsys, monkeypatch):
        walks = _count_walks(monkeypatch)
        path = _bergman_file(tmp_path, 30)
        assert cli.main(["dets", path, "--k", "5", "--json"]) == 0
        assert "propagation" in json.loads(capsys.readouterr().out)["results"]
        # the fallback table comes from the same walk as the failed check
        assert cli.main(["dets", path, "--k", "15", "--json"]) == 0
        assert "propagation" not in json.loads(capsys.readouterr().out)["results"]
        assert len(walks) == 2

    def test_propagation_for_shift_walks_the_ladder_once(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        alpha = WeightSequence.from_squared(F(n + 1, n + 2) for n in range(12))
        rep = propagation_for_shift(alpha, 3, 1)
        assert rep.orders_checked == (1, 2, 3, 4, 5, 6) and rep.orders_all_hold
        assert len(walks) == 1

    def test_low_order_failure_pulls_no_higher_table(self, monkeypatch):
        # d_1(0) = 1 - 4 < 0: the order-10 verdict and PD question are
        # decided at order 1, so orders 2..10 are never built
        pulled = []
        det_ladder = hankel.det_ladder

        def counting(gamma, ctx):
            for table in det_ladder(gamma, ctx):
                pulled.append(table.k)
                yield table

        monkeypatch.setattr(hankel, "det_ladder", counting)
        gamma = MomentSequence.of([F(1), F(2), F(1)] + [F(n + 1, n + 2) for n in range(37)])
        ladder = LadderVerdicts(gamma)
        assert ladder.verdict(10).first_failure == BlockIndex(0, 10)
        assert not ladder.pd(0, 10)
        assert pulled == [0, 1]

    def test_pd_blocks_run_no_pivot_elimination(self, monkeypatch):
        calls = _count_pivots(monkeypatch)
        verdict = is_k_positive(bergman_moments(30), 6)
        assert verdict.holds and verdict.flags == ()
        assert calls == []

    def test_two_atoms_at_order_three_fall_back(self, monkeypatch):
        # d_2(n) = 0 at every anchor, below the order 3 asked for, so the
        # minors cannot tell PSD-singular from not PSD there.  The order-2
        # recursion holds, so each block is read from its 2 x 2 corner and
        # no pivot elimination runs.
        gamma = moments_of(AtomicMeasure((F(1), F(3)), (F(1, 2), F(2))), 10)
        expected = _scan(gamma, 3, _by_pivots)
        calls = _count_pivots(monkeypatch)
        verdict = is_k_positive(gamma, 3)
        assert len(calls) == 0
        assert _outcome(verdict) == expected
        assert expected == (
            True,
            None,
            tuple(f"singular block at anchor {n}" for n in range(5)),
        )

    def test_vanishing_top_minor_needs_no_pivots(self, monkeypatch):
        # three atoms at order 3: d_0..d_2 > 0 and d_3 = 0 at every anchor,
        # so each block is PSD and singular from the minors alone
        gamma = moments_of(AtomicMeasure((F(1), F(2), F(3)), (F(1),) * 3), 10)
        calls = _count_pivots(monkeypatch)
        verdict = is_k_positive(gamma, 3)
        assert calls == []
        assert _outcome(verdict) == (
            True,
            None,
            tuple(f"singular block at anchor {n}" for n in range(5)),
        )


class TestBlockIndices:
    @pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
    @pytest.mark.parametrize("n, k", [(-1, 1), (0, -1), (-2, 0)])
    def test_negative_indices_are_rejected(self, ctx, n, k):
        # a negative index would read the ladder's tables from the end
        ladder = LadderVerdicts(MomentSequence.of([1, 2, 5, 14, 42, 132, 429]), ctx)
        for ask in (ladder.pd, ladder.psd, ladder.vanishes):
            with pytest.raises(PreconditionError, match="block indices must be nonnegative"):
                ask(n, k)

    def test_float_rank_reads_the_relative_pivot_and_rounds_the_solution(self):
        def rank(values):
            return LadderVerdicts(MomentSequence.of(values), FLOAT).rank

        # gamma_n = 2^n: d_1(0) = 0, and the solution 2 comes back a double
        got = rank([1, 2, 4])
        assert got == (1, (2.0,)) and type(got.coeffs[0]) is float
        # d_1(0) / (d_0(0) gamma_2) is about 1e-11 <= rel_eps: order 1, and
        # the recursion gamma_{n+1} = gamma_n holds within the band
        assert rank([1.0, 1.0, 1.0 + 1e-11]) == (1, (1.0,))
        # ... unless a later moment leaves it: the order stays, coeffs go
        assert rank([1.0, 1.0, 1.0 + 1e-11, 5.0, 25.0]) == (1, None)
        # a relative pivot of about 1e-9 is not within rel_eps = 1e-10
        assert rank([1.0, 1.0, 1.0 + 1e-9]) == (None, None)
        # gamma_n = 2^-1074 * x^n, x = 2^1048: d_1(0) = 0, and the exact
        # solution x has no double
        with pytest.raises(PreconditionError, match="order-1 recursion lies beyond the double"):
            rank([2.0**-1074, 2.0**-26, 2.0**1022])


@st.composite
def float_moments(draw):
    # floats in exact mode: the ladder condenses their binary values
    values = draw(st.lists(st.floats(1 / 64, 64), min_size=1, max_size=10))
    return MomentSequence.of(values)


_any_moments = st.one_of(atomic_moments(), log_convex_moments(), zeroed_moments(), float_moments())


def _eager_table(gamma, k, methods):
    # The table from determinants taken directly: nums[n] = d, the integer
    # block's, over the scale D^(k+1).
    nums = tuple(
        det_bareiss(hankel._integer_block(gamma, n, k)).numerator
        for n in range(gamma.horizon - 2 * k + 1)
    )
    return DetTable(k, gamma.horizon, nums, gamma.integer_view[1] ** (k + 1), methods)


def _unbuilt(ladder):
    return all("dets" not in vars(table) for table in ladder._tables)


class TestLazyTables:
    @settings(max_examples=150, deadline=None)
    @given(_any_moments)
    def test_tables_equal_the_eager_fractions(self, gamma):
        tables = list(det_ladder(gamma))
        assert len(tables) == gamma.horizon // 2 + 1
        for k, table in enumerate(tables):
            eager = _eager_table(gamma, k, table.methods)
            assert table.nums == eager.nums, (gamma.values, k)
            assert table.scale == gamma.integer_view[1] ** (k + 1)
            assert hash(table) == hash(eager)
            assert table == eager and eager == table
            assert repr(table) == repr(eager)
            assert table.dets == tuple(F(d, table.scale) for d in eager.nums)
            assert all(isinstance(d, F) for d in table.dets)

    def test_zero_divisors_take_direct_determinants(self):
        # two atoms: d_2 vanishes everywhere, so order 4 divides by zero
        gamma = moments_of(AtomicMeasure((F(1), F(3)), (F(1, 2), F(2))), 10)
        table = LadderVerdicts(gamma).table(4)
        assert table.methods == ("direct",) * 3
        assert table == _eager_table(gamma, 4, table.methods)

    def test_dets_are_built_once_on_first_read(self):
        table = bergman_moments(8).ladder().table(2)
        assert "dets" not in vars(table)
        dets = table.dets
        assert vars(table)["dets"] is dets is table.dets

    def test_a_table_built_by_hand_holds_its_integers(self):
        table = DetTable(0, 1, (3, 1), 2, ("direct",) * 2)
        assert vars(table) == {
            "k": 0, "horizon": 1, "nums": (3, 1), "scale": 2,
            "methods": ("direct",) * 2, "rounded": False,
        }
        assert table.dets == (F(3, 2), F(1, 2)) and table.texts == ("3/2", "1/2")
        with pytest.raises(AttributeError, match="no attribute 'other'"):
            bergman_moments(4).ladder().table(1).other

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
    )
    def test_copies_and_pickles_round_trip(self, read_first, clone):
        gamma = bergman_moments(10)
        report = LadderVerdicts(gamma).propagation(3)
        table = LadderVerdicts(gamma).table(2)
        floats = LadderVerdicts(MomentSequence.of(map(float, gamma.values)), FLOAT).table(2)
        if read_first:
            table.dets, report.table.dets, floats.dets
        for original in (table, report, floats):
            twin = clone(original)
            assert twin == original and hash(twin) == hash(original)
            assert repr(twin) == repr(original)
        for t in (table, floats):
            assert (clone(t).nums, clone(t).scale, clone(t).rounded) == (t.nums, t.scale, t.rounded)
        assert all(type(d) is float for d in clone(floats).dets)

    @settings(max_examples=100, deadline=None)
    @given(_any_moments)
    def test_verdict_pulls_build_no_fractions(self, gamma):
        ladder = LadderVerdicts(gamma)
        top = gamma.horizon // 2
        for k in range(1, top + 1):
            ladder.verdict(k)
        for k in range(top + 1):
            for n in range(gamma.horizon - 2 * k + 1):
                ladder.pd(n, k), ladder.psd(n, k), ladder.vanishes(n, k)
        ladder.rank
        assert len(ladder._tables) == top + 1 and _unbuilt(ladder)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(atomic_moments(), log_convex_moments()))
    def test_recursion_and_finite_mass_build_no_fractions(self, gamma):
        detect_recursion(gamma, 4)
        try:
            is_finite_mass(gamma)
        except PreconditionError:
            pass
        for k in range(1, gamma.horizon // 2 + 1):
            if gamma.ladder().verdict(k).holds:
                gamma.ladder().propagation(k)
        assert _unbuilt(gamma.ladder())


@st.composite
def wide_float_moments(draw):
    # doubles from 1e-200 to 1e200 and zeros: low orders stay finite while
    # higher ones, and products of the large entries, leave the double range
    value = st.one_of(st.just(0.0), st.floats(1e-200, 1e200))
    values = draw(st.lists(value, min_size=1, max_size=9))
    return MomentSequence.of([draw(st.floats(1e-200, 1e200))] + values)


class TestFloatTables:
    """Float tables are the exact ladder's integer tables, whose dets are
    the correctly rounded doubles of nums[n] / scale, built on first read."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_any_moments, wide_float_moments()))
    def test_float_tables_keep_the_exact_integers(self, gamma):
        exact = list(det_ladder(gamma, EXACT))
        floats = list(det_ladder(gamma, FLOAT))
        assert len(floats) == len(exact)
        for e, f in zip(exact, floats):
            assert (f.k, f.horizon, f.nums, f.scale, f.methods) == (
                e.k, e.horizon, e.nums, e.scale, e.methods
            )
            try:
                want = tuple(float(F(num, f.scale)) for num in f.nums)
            except OverflowError:
                with pytest.raises(PreconditionError, match=f"float order-{f.k} determinant"):
                    f.dets
                continue
            assert f.dets == want and all(type(d) is float for d in f.dets)

    def test_an_overflowing_table_raises_on_every_read_and_keeps_nothing(self):
        # d_1(3) = gamma_3 gamma_5 - gamma_4^2 = -1e600 has no double
        gamma = MomentSequence.of([1.0, 0.0, 0.0, 0.0, 1e300, 0.0, 0.0])
        table = gamma.ladder(FLOAT).table(1)
        message = "the float order-1 determinant at anchor 3 (condensation) overflows to -inf"
        for read in (lambda: table.dets, lambda: table.texts, lambda: table.dets):
            with pytest.raises(PreconditionError, match=re.escape(message)):
                read()
            assert "dets" not in vars(table)
        # equality, hashing and repr read the integers, not dets
        twin = copy.copy(table)
        assert table == twin and hash(table) == hash(twin) and repr(table) == repr(twin)
        assert "dets" not in vars(table)
        # the integers stay, and a table without overflow reads as usual
        assert table.nums[3] == -(int(1e300) ** 2)
        assert gamma.ladder(FLOAT).table(0).dets == gamma.values
