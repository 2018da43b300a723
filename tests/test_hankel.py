"""Moment sequences, block positivity, condensation determinant tables,
vanishing-determinant propagation."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction as F

import pytest

from hankelshift import (
    EXACT,
    FLOAT,
    BlockIndex,
    InsufficientMomentsError,
    MomentSequence,
    PreconditionError,
    block,
    det_bareiss,
    det_ladder,
    det_sequence,
    is_k_positive,
    log_convexity,
    propagation_report,
    zero_moment_collapse,
)
from hankelshift.hankel import LadderVerdicts, det_is_zero

from gen import bergman_moments, flat_tail_weights, measure_moments
from hankelshift import weights_to_moments


class TestMomentSequence:
    def test_validation(self):
        MomentSequence.of([F(1), F(0), F(0)])
        with pytest.raises(ValueError):
            MomentSequence.of([F(0), F(1)])
        with pytest.raises(ValueError):
            MomentSequence.of([F(1), F(-1)])
        with pytest.raises(ValueError):
            MomentSequence.of([])

    def test_horizon_and_indexing(self):
        g = MomentSequence.of([F(1), F(1, 2), F(1, 3)])
        assert g.horizon == 2
        assert g[2] == F(1, 3)
        assert len(g) == 3

    def test_block_entries(self):
        g = bergman_moments(6)
        b = block(g, 1, 2)
        assert b.entry(0, 0) == g[1]
        assert b.entry(2, 2) == g[5]
        assert b.entry(0, 2) == b.entry(1, 1) == g[3]

    def test_block_horizon_guard(self):
        g = bergman_moments(4)
        with pytest.raises(InsufficientMomentsError):
            block(g, 1, 2)


class TestPositivity:
    def test_bergman_is_3_positive(self):
        g = bergman_moments(12)
        assert is_k_positive(g, 3, EXACT).holds

    def test_spike_fails_at_order_one(self):
        v = is_k_positive(MomentSequence.of([F(1), F(2), F(1)]), 1, EXACT)
        assert not v.holds
        assert v.first_failure == BlockIndex(0, 1)

    def test_singular_blocks_flagged(self):
        g = measure_moments(random.Random(5), 10, min_atoms=2, max_atoms=2, positive=True)
        v = is_k_positive(g, 2, EXACT)
        assert v.holds
        assert any("singular" in f for f in v.flags)
        vf = is_k_positive(MomentSequence.of([float(x) for x in g.values]), 2, FLOAT)
        assert vf.holds
        assert any("marginal" in f for f in vf.flags)

    def test_float_mode_agrees_on_bergman(self):
        g = MomentSequence.of([1.0 / (n + 1) for n in range(13)])
        assert is_k_positive(g, 3, FLOAT).holds

    def test_log_convexity(self):
        assert log_convexity(bergman_moments(8), EXACT)
        assert not log_convexity(MomentSequence.of([F(1), F(2), F(1)]), EXACT)

    def test_zero_moment_collapse(self):
        assert zero_moment_collapse(MomentSequence.of([F(1), F(0), F(0), F(0)]), EXACT)
        assert zero_moment_collapse(MomentSequence.of([F(5), F(0), F(0)]), EXACT)
        assert not zero_moment_collapse(MomentSequence.of([F(1), F(0), F(1)]), EXACT)
        # a later zero with a nonzero gamma_1 also violates the rule
        assert not zero_moment_collapse(MomentSequence.of([F(1), F(1, 2), F(0), F(0)]), EXACT)
        # vacuous when nothing vanishes
        assert zero_moment_collapse(bergman_moments(6), EXACT)


class TestDetSequence:
    def test_hilbert_anchor0_order2(self):
        g = bergman_moments(6)
        t = det_sequence(g, 2, EXACT)
        assert t.dets[0] == F(1, 2160)

    def test_matches_direct_determinants(self):
        rng = random.Random(314)
        for _ in range(25):
            g = measure_moments(rng, 12, max_atoms=5)
            for k in range(5):
                t = det_sequence(g, k, EXACT)
                for n in t.anchors():
                    assert t.dets[n] == det_bareiss(block(g, n, k)), (k, n)

    def test_ladder_yields_every_order_in_turn(self):
        g = measure_moments(random.Random(271), 11, max_atoms=5)
        tables = list(det_ladder(g, EXACT))
        assert [t.k for t in tables] == list(range(6))
        for t in tables:
            assert t == det_sequence(g, t.k, EXACT)
            for n in t.anchors():
                assert t.dets[n] == det_bareiss(block(g, n, t.k)), (t.k, n)

    def test_order_zero_table_is_the_sequence(self):
        g = bergman_moments(5)
        t = det_sequence(g, 0, EXACT)
        assert t.dets == g.values

    def test_condensation_recurrence(self):
        # det_k(n) * det_{k-2}(n+2) = det_{k-1}(n) det_{k-1}(n+2) - det_{k-1}(n+1)^2
        rng = random.Random(2718)
        for _ in range(10):
            g = measure_moments(rng, 12, min_atoms=5, max_atoms=5)
            tables = {k: det_sequence(g, k, EXACT) for k in range(5)}
            for k in range(2, 5):
                for n in tables[k].anchors():
                    lhs = tables[k].dets[n] * tables[k - 2].dets[n + 2]
                    rhs = (
                        tables[k - 1].dets[n] * tables[k - 1].dets[n + 2]
                        - tables[k - 1].dets[n + 1] ** 2
                    )
                    assert lhs == rhs, (k, n)

    def test_flat_tail_order_one_oracle(self):
        g = MomentSequence.of([F(1), F(1, 4), F(1, 4), F(1, 4), F(1, 4)])
        t1 = det_sequence(g, 1, EXACT)
        assert t1.dets == (F(3, 16), F(0), F(0))

    def test_fallback_on_zero_order1_divisor(self):
        # constant tail: order-1 determinants vanish, so the order-3
        # condensation divisor det_1(n+2) is zero and the entry must be
        # recomputed directly
        alpha = flat_tail_weights(random.Random(8), 9)
        g = weights_to_moments(alpha)
        t3 = det_sequence(g, 3, EXACT)
        assert "direct" in t3.methods
        for n in t3.anchors():
            assert t3.dets[n] == det_bareiss(block(g, n, 3)) == 0

    def test_fallback_on_zero_moment_divisor(self):
        # gamma_2 = 0 makes the order-2 divisor det_0(2) vanish at anchor 0
        g = MomentSequence.of([F(1), F(1, 4), F(0), F(0), F(0)])
        t2 = det_sequence(g, 2, EXACT)
        assert t2.methods[0] == "direct"
        assert t2.dets[0] == det_bareiss(block(g, 0, 2))

    def test_float_methods_and_values(self):
        g = MomentSequence.of([1.0 / (n + 1) for n in range(10)])
        exact = det_sequence(bergman_moments(9), 3, EXACT)
        flt = det_sequence(g, 3, FLOAT)
        for n in flt.anchors():
            assert flt.dets[n] == pytest.approx(float(exact.dets[n]), rel=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "values, order, message",
        [
            # gamma_3 gamma_5 - gamma_4^2 = -1e600 at anchor 3
            ([1.0, 0.0, 0.0, 0.0, 1e300, 0.0, 0.0], 1, "order-1 determinant at anchor 3 "
             "(condensation) overflows to -inf"),
            # d_1(2) = 0 sends anchor 0 of order 3 to numpy's det, which
            # overflows: the entry holds gamma_1^2 gamma_5^2 = 1e440
            ([1.0, 1e110, 0.0, 0.0, 0.0, 1e110, 0.0], 3, "order-3 determinant at anchor 0 "
             "(direct) overflows to inf"),
        ],
        ids=["condensed", "direct"],
    )
    def test_float_ladder_refuses_non_finite_entries(self, values, order, message):
        walk = det_ladder(MomentSequence.of(values), FLOAT)
        for k in range(order):
            assert all(math.isfinite(d) for d in next(walk).dets), k
        with pytest.raises(PreconditionError, match=re.escape(message)):
            next(walk)
        # exact mode takes the doubles at their binary values and yields them
        assert len(list(det_ladder(MomentSequence.of(values), EXACT))) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ladder_repeats_the_overflow_after_its_walk_stops(self):
        # 1 + t^n with t = 1e50: d_1(3) = inf - inf = nan ends the float
        # walk; asking again, through any method, raises the same error
        ladder = LadderVerdicts(MomentSequence.of([2.0] + [1e50**n for n in range(1, 7)]), FLOAT)
        assert ladder.verdict(3).holds
        message = "order-1 determinant at anchor 3 (condensation) overflows to nan"
        for ask in (lambda: ladder.table(2), lambda: ladder.table(1), lambda: ladder.propagation(3)):
            with pytest.raises(PreconditionError, match=re.escape(message)):
                ask()
        assert ladder.table(0).dets[0] == 2.0

    def test_det_is_zero_scaling(self):
        g = MomentSequence.of([1.0, 0.5, 0.25])
        assert det_is_zero(g, 0, 1, 1e-18, FLOAT)
        assert not det_is_zero(g, 0, 1, 1e-3, FLOAT)


class TestPropagation:
    def test_flat_tail_oracle(self):
        g = MomentSequence.of([F(1), F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(1, 4)])
        rep = propagation_report(g, 2, EXACT)
        assert rep.vanishing_found
        assert rep.first_zero_anchor == 1
        assert rep.conclusion_verified
        assert rep.anchor_zero_allowed_nonzero
        assert rep.table.dets[0] == F(3, 16)

    def test_two_atom_vanishes_everywhere(self):
        g = measure_moments(random.Random(63), 12, min_atoms=2, max_atoms=2, positive=True)
        rep = propagation_report(g, 3, EXACT)
        assert rep.vanishing_found
        assert rep.first_zero_anchor == 0
        assert rep.conclusion_verified
        assert not rep.anchor_zero_allowed_nonzero

    def test_no_vanishing(self):
        rep = propagation_report(bergman_moments(10), 2, EXACT)
        assert not rep.vanishing_found
        assert rep.conclusion_verified is None

    def test_requires_k_positivity(self):
        g = MomentSequence.of([F(1), F(2), F(1), F(2), F(1)])
        with pytest.raises(PreconditionError):
            propagation_report(g, 2, EXACT)


class TestConeNesting:
    def test_k_positive_implies_lower_orders(self):
        rng = random.Random(44)
        for _ in range(15):
            g = measure_moments(rng, 12, max_atoms=5, positive=True)
            assert is_k_positive(g, 3, EXACT).holds
            for j in (1, 2):
                assert is_k_positive(g, j, EXACT).holds

    def test_flat_tail_weights_are_fully_positive(self):
        rng = random.Random(45)
        for _ in range(10):
            alpha = flat_tail_weights(rng, 10)
            g = weights_to_moments(alpha)
            for k in (1, 2, 3):
                assert is_k_positive(g, k, EXACT).holds
