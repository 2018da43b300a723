"""Weight/moment conversions, hyponormality ladder, flatness, shift-level
propagation."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from hankelshift import (
    EXACT,
    FLOAT,
    MomentSequence,
    PreconditionError,
    WeightSequence,
    flat_tail_report,
    flatness_check,
    is_hyponormal,
    is_k_hyponormal,
    moments_to_weights,
    propagation_for_shift,
    weights_to_moments,
)

from gen import bergman_moments, flat_tail_weights


def test_weights_to_moments_oracle():
    alpha = WeightSequence.from_squared((F(1, 2), F(2, 3)))
    g = weights_to_moments(alpha)
    assert g.values == (F(1), F(1, 2), F(1, 3))


def test_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        sq = tuple(F(rng.randint(1, 30), rng.randint(1, 10)) for _ in range(8))
        alpha = WeightSequence.from_squared(sq)
        back = moments_to_weights(weights_to_moments(alpha))
        assert back.sq == sq


def test_moments_to_weights_rejects_zero_moment():
    g = MomentSequence.of([F(1), F(0), F(0)])
    with pytest.raises(PreconditionError):
        moments_to_weights(g)


def test_weight_positivity_enforced():
    with pytest.raises(ValueError):
        WeightSequence.from_squared((F(1), F(0)))


def test_is_hyponormal_monotone_weights():
    assert is_hyponormal(WeightSequence.from_squared((F(1, 2), F(1, 2), F(3, 4))))
    assert not is_hyponormal(WeightSequence.from_squared((F(3, 4), F(1, 2))))


def test_exact_weights_beyond_the_double_range():
    # exact mode takes no float scale, so no weight needs to fit a double
    big = F(10**400)
    assert is_hyponormal(WeightSequence.from_squared((big, big, 2 * big)))
    assert not is_hyponormal(WeightSequence.from_squared((2 * big, big)))
    report = flat_tail_report(WeightSequence.from_squared((big,) * 5), 2)
    assert report.flat_pair_found and report.propagation_verified


def test_float_weights_beyond_the_double_range_are_compared():
    # float mode compares the weights' pairs on integers, so 10^400 needs no
    # double scale (it was refused for want of one)
    big = F(10**400)
    alpha = WeightSequence.from_squared((big,) * 5)
    assert is_hyponormal(alpha, FLOAT)
    report = flat_tail_report(alpha, 2, FLOAT)
    assert report.flat_pair_found and report.pair_index == 0


def test_weight_validation_reads_numerator_signs(monkeypatch):
    compares = []
    richcmp = F._richcmp

    def counting(self, other, op):
        compares.append(op)
        return richcmp(self, other, op)

    monkeypatch.setattr(F, "_richcmp", counting)
    WeightSequence.from_squared((F(1, 2), F(3), F(7, 5)))
    with pytest.raises(ValueError, match="^squared weight at index 1 is not positive$"):
        WeightSequence.from_squared((F(1, 2), F(-1, 3)))
    with pytest.raises(ValueError, match="^squared weight at index 0 is not positive$"):
        WeightSequence.from_squared((F(0), F(1)))
    assert compares == []
    # a nan or inf weight has no (p, q) pair
    for sq in ((1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(PreconditionError, match="is not finite"):
            WeightSequence.from_squared(sq)


def test_k_hyponormal_matches_moment_positivity():
    sq = tuple(F(n + 1, n + 2) for n in range(12))
    alpha = WeightSequence.from_squared(sq)
    assert is_k_hyponormal(alpha, 3, EXACT).holds
    decreasing = WeightSequence.from_squared((F(1), F(1, 2), F(1, 3), F(1, 4)))
    assert not is_k_hyponormal(decreasing, 1, EXACT).holds


class TestFlatness:
    def test_flat_tail_with_distinct_head(self):
        alpha = WeightSequence.from_squared((F(1, 4),) + (F(1),) * 7)
        rep = flatness_check(alpha, 2, EXACT)
        assert rep.flat_pair_found
        assert rep.pair_index == 1
        assert rep.propagation_verified
        assert rep.alpha0_exception

    def test_all_equal_weights(self):
        alpha = WeightSequence.from_squared((F(1),) * 6)
        rep = flatness_check(alpha, 2, EXACT)
        assert rep.flat_pair_found
        assert rep.pair_index == 0
        assert rep.propagation_verified
        assert not rep.alpha0_exception

    def test_no_flat_pair(self):
        sq = tuple(F(n + 1, n + 2) for n in range(10))
        rep = flatness_check(WeightSequence.from_squared(sq), 2, EXACT)
        assert not rep.flat_pair_found

    def test_requires_two_hyponormality(self):
        alpha = WeightSequence.from_squared((F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6)))
        with pytest.raises(PreconditionError):
            flatness_check(alpha, 2, EXACT)

    def test_random_flat_tails(self):
        rng = random.Random(29)
        for _ in range(15):
            rep = flatness_check(flat_tail_weights(rng, 9), 2, EXACT)
            assert rep.flat_pair_found and rep.propagation_verified
            assert rep.alpha0_exception


class TestShiftPropagation:
    def test_requires_p_below_k(self):
        alpha = flat_tail_weights(random.Random(31), 10)
        with pytest.raises(PreconditionError):
            propagation_for_shift(alpha, 2, 2, EXACT)
        with pytest.raises(PreconditionError):
            propagation_for_shift(alpha, 2, 0, EXACT)

    def test_flat_tail_order_one(self):
        alpha = flat_tail_weights(random.Random(37), 10)
        rep = propagation_for_shift(alpha, 2, 1, EXACT)
        assert rep.base.vanishing_found
        assert rep.base.first_zero_anchor == 1
        assert rep.base.conclusion_verified
        assert rep.base.anchor_zero_allowed_nonzero
        assert rep.orders_all_hold

    def test_bergman_no_vanishing(self):
        sq = tuple(F(n + 1, n + 2) for n in range(12))
        rep = propagation_for_shift(WeightSequence.from_squared(sq), 3, 2, EXACT)
        assert not rep.base.vanishing_found
        assert rep.orders_all_hold


def test_alphas_display():
    alpha = WeightSequence.from_squared((F(1, 4), F(1)))
    assert alpha.alphas() == (0.5, 1.0)
    assert alpha.sq_sup == F(1)


def test_bergman_moments_match_reciprocals():
    g = bergman_moments(9)
    assert g.values == tuple(F(1, n + 1) for n in range(10))
