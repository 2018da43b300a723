"""Acceptance gate: eight pinned criteria, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see the lines; each test also
fails normally under plain pytest.  Tolerances and runtime budgets are fixed
here on purpose and must not be loosened to make a run green.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from hankelshift import (
    FLOAT,
    Interval,
    MomentSequence,
    block,
    det_bareiss,
    det_quadratic,
    det_sequence,
    detect_recursion,
    interiority_report,
    is_finite_mass,
    is_k_positive,
    moments_of,
    propagation_report,
    rank_one_det_expansion_holds,
    recover_atoms,
    stability_interval,
    stability_interval_k1,
    stability_interval_k2,
    weights_to_moments,
)

from gen import (
    bergman_moments,
    flat_tail_weights,
    k_positive_moments,
    random_measure,
)

GRID = 1e-5
FINE = 1e-7


@contextmanager
def criterion(number, budget_s, desc):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget"
            )
    except BaseException:
        print(f"\nCRITERION {number}: FAIL - {desc}")
        raise
    print(f"\nCRITERION {number}: PASS - {desc} ({elapsed:.1f}s)")


def floatify(gamma: MomentSequence) -> MomentSequence:
    return MomentSequence.of(tuple(float(v) for v in gamma.values))


# ---------------------------------------------------------------------------
# shared instance pools (seeded once, reused by criteria 4/5/6/8)


@pytest.fixture(scope="module")
def one_positive_pool():
    """100 random 1-positive rational sequences, horizon 10, with order-1
    interval width <= 3 at each cut in {1, 2, 3} so a 1e-5 scan grid stays
    tractable."""
    rng = random.Random(408804)
    pool = []
    while len(pool) < 100:
        gamma = k_positive_moments(rng, 1, 10)
        widths = []
        for cut in (1, 2, 3):
            iv = stability_interval_k1(gamma, cut)
            widths.append(float(iv.hi - iv.lo))
        if max(widths) <= 3.0:
            pool.append(gamma)
    return pool


@pytest.fixture(scope="module")
def two_positive_pool():
    rng = random.Random(505505)
    pool = []
    while len(pool) < 50:
        cut = rng.choice((3, 4))
        pool.append((k_positive_moments(rng, 2, cut + 8), cut))
    return pool


# ---------------------------------------------------------------------------


def test_criterion_1_determinant_engine():
    desc = "condensation determinant tables match direct determinants exactly"
    with criterion(1, 30, desc):
        rng = random.Random(8101)
        for _ in range(200):
            mu = random_measure(rng, max_atoms=5)
            horizon = rng.randint(8, 16)
            gamma = moments_of(mu, horizon)
            for k in range(0, 5):
                if 2 * k > horizon:
                    break
                table = det_sequence(gamma, k)
                for n in table.anchors():
                    assert table.dets[n] == det_bareiss(block(gamma, n, k))


def test_criterion_2_vanishing_propagation():
    desc = "one vanishing determinant propagates to every anchor n >= 1"
    with criterion(2, 10, desc):
        rng = random.Random(8202)
        exception_seen = False
        for _ in range(50):
            alpha = flat_tail_weights(rng, rng.randint(6, 9))
            gamma = weights_to_moments(alpha)
            rep = propagation_report(gamma, 2)
            assert rep.vanishing_found
            assert rep.conclusion_verified
            for n in rep.table.anchors():
                if n >= 1:
                    assert rep.table.dets[n] == 0
            if rep.anchor_zero_allowed_nonzero:
                assert alpha.sq[0] != alpha.sq[1]
                assert rep.table.dets[0] != 0
                exception_seen = True
        for _ in range(50):
            mu = random_measure(rng, max_atoms=2, min_atoms=2, positive=True)
            gamma = moments_of(mu, rng.randint(8, 12))
            rep = propagation_report(gamma, 3)
            assert rep.vanishing_found
            assert rep.conclusion_verified
            for n in rep.table.anchors():
                if n >= 1:
                    assert rep.table.dets[n] == 0
        assert exception_seen


def test_criterion_3_atomic_round_trip():
    desc = "recursion detection and atom recovery invert moment generation"
    with criterion(3, 20, desc):
        rng = random.Random(8303)
        for _ in range(100):
            mu = random_measure(rng, max_atoms=5, positive=True)
            r = len(mu.atoms)
            gamma = moments_of(mu, 2 * r + rng.randint(2, 4))
            rec = detect_recursion(gamma, 5)
            assert rec is not None
            assert rec.order == r
            out = recover_atoms(rec, gamma)
            assert out.atoms == mu.atoms
            assert out.densities == mu.densities
            fm = is_finite_mass(gamma)
            assert fm.finite
            assert fm.witness is not None
            assert fm.witness.k == r
        gb = bergman_moments(12)
        assert detect_recursion(gb, 5) is None
        assert not is_finite_mass(gb).finite
        for k in range(1, 7):
            assert all(d != 0 for d in det_sequence(gb, k).dets)


def _brute_scan_k1(gamma: MomentSequence, cut: int, iv: Interval):
    """Grid + refinement scan of the scales keeping every 2x2 block PSD.

    Each perturbed entry is gamma_m * t^[m > cut], so the 2x2 determinant at
    anchor n is a two-term polynomial in t with exponents in {0, 1, 2}."""
    g = np.array([float(v) for v in gamma.values])
    lo_w = max(0.0, float(iv.lo) - 0.05)
    hi_w = float(iv.hi) + 0.05

    def feasible(ts: np.ndarray) -> np.ndarray:
        feas = np.ones(ts.shape, dtype=bool)
        for n in range(len(g) - 2):
            a = (n > cut) + (n + 2 > cut)
            b = 2 * (n + 1 > cut)
            det = g[n] * g[n + 2] * ts**a - g[n + 1] ** 2 * ts**b
            feas &= det >= -1e-9 * (g[n] * g[n + 2] * max(1.0, hi_w**2))
        return feas

    # union1d injects the exact probe t = 1, so the feasible run is found
    # even when the interval is narrower than the grid step
    ts = np.union1d(np.arange(lo_w, hi_w, GRID), [1.0])
    feas = feasible(ts)
    i1 = int(np.searchsorted(ts, 1.0))
    assert feas[i1], "t = 1 must be feasible for a 1-positive sequence"
    infeas = ~feas
    left_hits = np.nonzero(infeas[:i1])[0]
    left = left_hits[-1] + 1 if left_hits.size else 0
    right_hits = np.nonzero(infeas[i1:])[0]
    right = i1 + right_hits[0] - 1 if right_hits.size else len(ts) - 1

    fine = np.arange(max(0.0, ts[left] - 1.2 * GRID), ts[left] + FINE, FINE)
    mask = feasible(fine)
    t_lo = float(fine[np.argmax(mask)]) if mask.any() else float(ts[left])
    fine = np.arange(ts[right] - FINE, ts[right] + 1.2 * GRID, FINE)
    mask = feasible(fine)
    if mask.any():
        t_hi = float(fine[len(mask) - 1 - np.argmax(mask[::-1])])
    else:
        t_hi = float(ts[right])
    return t_lo, t_hi


def test_criterion_4_order1_closed_form(one_positive_pool):
    desc = "order-1 interval closed form vs ratio formula, scan, bisection"
    with criterion(4, 60, desc):
        for gamma in one_positive_pool:
            for cut in (1, 2, 3):
                iv = stability_interval_k1(gamma, cut)
                a, b, c, d = (
                    F(gamma[cut - 1]),
                    F(gamma[cut]),
                    F(gamma[cut + 1]),
                    F(gamma[cut + 2]),
                )
                assert iv.lo == b * b / (a * c)
                assert iv.hi == b * d / (c * c)
                t_lo, t_hi = _brute_scan_k1(gamma, cut, iv)
                assert abs(t_lo - float(iv.lo)) <= 2e-5
                assert abs(t_hi - float(iv.hi)) <= 2e-5
                rep = stability_interval(gamma, cut, 1)
                assert abs(float(rep.intersection.lo - iv.lo)) <= 1e-9
                assert abs(float(rep.intersection.hi - iv.hi)) <= 1e-9
        spot = stability_interval_k1(bergman_moments(6), 1)
        assert spot == Interval(F(3, 4), F(9, 8))


def _qeval(coeffs, t: F) -> F:
    a, b, c = (F(x) for x in coeffs)
    return a * t * t + b * t + c


def test_criterion_5_order2_quadratic_endpoints(two_positive_pool):
    desc = "order-2 closed forms match bisection; quadratic sign facts hold"
    with criterion(5, 120, desc):
        for gamma, cut in two_positive_pool:
            closed = stability_interval_k2(gamma, cut)
            bis = stability_interval(gamma, cut, 2)
            assert abs(float(closed.intersection.lo) - float(bis.intersection.lo)) <= 1e-9
            assert abs(float(closed.intersection.hi) - float(bis.intersection.hi)) <= 1e-9

            p = det_quadratic(gamma, cut, cut - 2)
            q = det_quadratic(gamma, cut, cut - 1)
            assert _qeval(p, F(0)) < 0
            assert _qeval(q, F(0)) < 0
            assert _qeval(p, F(1)) >= 0
            assert _qeval(q, F(1)) >= 0
            g2, g1, g0 = F(gamma[cut - 2]), F(gamma[cut - 1]), F(gamma[cut])
            p1, p2 = F(gamma[cut + 1]), F(gamma[cut + 2])
            r1 = g0 * g0 / (g2 * p2)
            r2 = g0 * p2 / (p1 * p1)
            assert _qeval(p, r1) <= 0
            assert _qeval(p, r2) <= 0


def _nested(inner: Interval, outer: Interval, tol: float) -> bool:
    lo_ok = float(inner.lo) >= float(outer.lo) - tol * max(1.0, abs(float(outer.lo)))
    hi_ok = float(inner.hi) <= float(outer.hi) + tol * max(1.0, abs(float(outer.hi)))
    return lo_ok and hi_ok


def test_criterion_6_interval_structure(one_positive_pool, two_positive_pool):
    desc = "1-membership, nesting, closedness; recursive inputs collapse"
    with criterion(6, 60, desc):
        tol = 1e-9
        instances = [(g, cut) for g in one_positive_pool for cut in (1, 2, 3)]
        instances += list(two_positive_pool)
        for gamma, cut in instances:
            ladder = [stability_interval(gamma, cut, 1)]
            for k in (2, 3):
                if cut + 2 * k > gamma.horizon or not is_k_positive(gamma, k).holds:
                    break
                ladder.append(stability_interval(gamma, cut, k))
            for rep in ladder:
                assert rep.contains_one
                assert rep.intersection.lo <= rep.intersection.hi
            for inner, outer in zip(ladder[1:], ladder):
                assert _nested(inner.intersection, outer.intersection, tol)

        rng = random.Random(606606)
        for _ in range(10):
            mu = random_measure(rng, max_atoms=2, min_atoms=2, positive=True)
            gamma = moments_of(mu, 10)
            rep = stability_interval(gamma, 3, 2)
            assert float(rep.intersection.hi - rep.intersection.lo) <= 1e-9
        for _ in range(5):
            mu = random_measure(rng, max_atoms=1, min_atoms=1, positive=True)
            gamma = moments_of(mu, 8)
            assert stability_interval_k1(gamma, 2) == Interval(F(1), F(1))
            rep = stability_interval(gamma, 2, 1)
            assert float(rep.intersection.hi - rep.intersection.lo) <= 1e-9


def test_criterion_7_interiority_and_cofactor():
    desc = "interiority criteria never disagree; corner det identity exact"
    with criterion(7, 30, desc):
        rng = random.Random(707707)
        disagreements = 0
        for i in range(100):
            k = rng.choice((1, 2))
            if i % 2 == 0:
                mu = random_measure(rng, max_atoms=5, min_atoms=k + 1, positive=True)
                expect_pd = True
            else:
                mu = random_measure(rng, max_atoms=k, min_atoms=k, positive=True)
                expect_pd = False
            cut = rng.randint(1, 3)
            gamma = moments_of(mu, cut + 2 * k + rng.randint(0, 2))
            rep = interiority_report(gamma, cut, k)
            if rep.pd_all != rep.interior or not rep.agreement:
                disagreements += 1
            assert rep.pd_all is expect_pd
        assert disagreements == 0

        for _ in range(100):
            k = rng.randint(1, 3)
            cut = rng.randint(1, 3)
            gamma = k_positive_moments(rng, 1, cut + 2 * k + rng.randint(0, 2))
            t = F(rng.randint(1, 40), rng.randint(1, 13))
            assert rank_one_det_expansion_holds(gamma, cut, k, t)


def test_criterion_8_numeric_exact_coherence(one_positive_pool, two_positive_pool):
    desc = "float verdicts match exact ones; near-singular gets flagged"
    with criterion(8, 30, desc):
        rng = random.Random(808808)
        silent = 0
        flagged = 0

        for _ in range(30):
            mu = random_measure(rng, max_atoms=5)
            gamma = moments_of(mu, rng.randint(8, 12))
            gf = floatify(gamma)
            for k in (1, 2, 3):
                ve = is_k_positive(gamma, k)
                vf = is_k_positive(gf, k, FLOAT)
                if ve.holds != vf.holds:
                    if vf.flags or ve.flags:
                        flagged += 1
                    else:
                        silent += 1

        for _ in range(20):
            alpha = flat_tail_weights(rng, rng.randint(6, 9))
            gamma = weights_to_moments(alpha)
            pe = propagation_report(gamma, 2)
            pf = propagation_report(floatify(gamma), 2, FLOAT)
            if (pe.vanishing_found, pe.conclusion_verified) != (
                pf.vanishing_found,
                pf.conclusion_verified,
            ):
                silent += 1

        for _ in range(15):
            mu = random_measure(
                rng, max_atoms=3, positive=True, min_gap=F(1, 4)
            )
            gamma = moments_of(mu, 2 * len(mu.atoms) + 4)
            re_ = detect_recursion(gamma, 5)
            rf = detect_recursion(floatify(gamma), 5, FLOAT)
            if (re_ is None) != (rf is None) or (
                re_ is not None and rf is not None and re_.order != rf.order
            ):
                silent += 1

        for gamma in one_positive_pool[:20]:
            ive = stability_interval_k1(gamma, 2)
            ivf = stability_interval_k1(floatify(gamma), 2, FLOAT)
            for a, b in ((ive.lo, ivf.lo), (ive.hi, ivf.hi)):
                if abs(float(a) - float(b)) > 1e-9 * max(1.0, abs(float(b))):
                    silent += 1

        for gamma, cut in two_positive_pool[:10]:
            ke = stability_interval_k2(gamma, cut)
            kf = stability_interval_k2(floatify(gamma), cut, FLOAT)
            if ke.contains_one != kf.contains_one:
                if kf.flags or ke.flags:
                    flagged += 1
                else:
                    silent += 1

        for i in range(10):
            mu = random_measure(rng, max_atoms=2, min_atoms=2, positive=True)
            gamma = moments_of(mu, 8)
            bump = F(1, 10**11) * (1 if i % 2 == 0 else -1)
            vals = list(gamma.values)
            vals[5] = vals[5] * (1 + bump)
            gp = MomentSequence.of(tuple(vals))
            ve = is_k_positive(gp, 2)
            vf = is_k_positive(floatify(gp), 2, FLOAT)
            if ve.holds != vf.holds:
                if vf.flags:
                    flagged += 1
                else:
                    silent += 1

        assert silent == 0
        assert flagged >= 1
