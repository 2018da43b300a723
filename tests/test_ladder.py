"""The determinant-ladder decider of exact k-positivity: differential tests
against pivot elimination and principal minors, and counts of the work it
does (ladder walks, pivot fallbacks)."""

from __future__ import annotations

import json
from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

import hankelshift.cli as cli
import hankelshift.hankel as hankel
import hankelshift.numkit as numkit
from hankelshift import (
    AtomicMeasure,
    BlockIndex,
    LadderVerdicts,
    MomentSequence,
    WeightSequence,
    block,
    det_bareiss,
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


def _check_every_order(gamma):
    ladder = LadderVerdicts(gamma)
    for k in range(1, gamma.horizon // 2 + 1):
        got = _outcome(ladder.verdict(k))
        assert got == _scan(gamma, k, numkit._pivots), (gamma.values, k)
        assert got == _scan(gamma, k, _by_minors), (gamma.values, k)
        if got[0]:
            assert ladder.verdict(k).witness is None
        else:
            assert ladder.verdict(k).witness == block(gamma, *got[1])
        for n in range(gamma.horizon - 2 * k + 1):
            assert ladder.pd(n, k) == numkit._pivots(block(gamma, n, k))[1]


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

    def test_float_entries_decided_at_binary_values(self):
        # Exact mode takes floats at their binary values, in the ladder as in
        # the pivot elimination.
        g = MomentSequence.of([1.0, 0.1, 0.1 * 0.1, 0.1 * 0.1 * 0.1, 0.1**4])
        for k in (1, 2):
            assert _outcome(is_k_positive(g, k)) == _scan(g, k, numkit._pivots)


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

    def test_pd_blocks_run_no_pivot_elimination(self, monkeypatch):
        calls = _count_pivots(monkeypatch)
        verdict = is_k_positive(bergman_moments(30), 6)
        assert verdict.holds and verdict.flags == ()
        assert calls == []

    def test_two_atoms_at_order_three_fall_back(self, monkeypatch):
        # d_2(n) = 0 at every anchor, below the order 3 asked for: only the
        # pivot elimination can tell PSD-singular from not PSD there.
        gamma = moments_of(AtomicMeasure((F(1), F(3)), (F(1, 2), F(2))), 10)
        expected = _scan(gamma, 3, numkit._pivots)
        calls = _count_pivots(monkeypatch)
        verdict = is_k_positive(gamma, 3)
        assert len(calls) == 5
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
