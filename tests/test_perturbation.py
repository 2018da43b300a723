"""Tail-scaling stability intervals: closed forms, the pencil engine,
interiority, determinant expansion identities."""

from __future__ import annotations

import copy
import gc
import json
import math
import pickle
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelshift.hankel as hankel
import hankelshift.perturbation as perturbation
from hankelshift import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    InsufficientMomentsError,
    Interval,
    MomentSequence,
    PreconditionError,
    WeightSequence,
    block,
    corner_det_lower_bound,
    corner_det_upper_bound,
    det_bareiss,
    det_quadratic,
    interiority_report,
    is_k_positive,
    is_psd,
    moments_of,
    perturb_moments,
    perturb_weights,
    perturbed_block,
    propagation_report,
    rank_one_det_expansion_holds,
    stability_interval,
    stability_interval_k1,
    stability_interval_k2,
    truncated_block,
)

from gen import bergman_moments, k_positive_moments, measure_moments, rand_fraction
from test_fuzz_cli import run_main


def all_ones(n: int) -> MomentSequence:
    return MomentSequence.of([F(1)] * (n + 1))


class TestPerturbOps:
    def test_perturb_moments_oracle(self):
        # scaling starts one index past the cut: the cut names a weight
        g = bergman_moments(5)
        out = perturb_moments(g, 1, F(2))
        assert out.values == (F(1), F(1, 2), F(2, 3), F(1, 2), F(2, 5), F(1, 3))

    def test_perturb_moments_identity_at_one(self):
        g = bergman_moments(6)
        assert perturb_moments(g, 3, F(1)).values == g.values

    def test_perturb_moments_zero_scale_truncates(self):
        g = bergman_moments(4)
        out = perturb_moments(g, 2, F(0))
        assert out.values == (F(1), F(1, 2), F(1, 3), F(0), F(0))

    def test_perturb_moments_bounds(self):
        g = bergman_moments(4)
        with pytest.raises(PreconditionError):
            perturb_moments(g, 0, F(1))
        with pytest.raises(InsufficientMomentsError):
            perturb_moments(g, 5, F(1))
        with pytest.raises(PreconditionError):
            perturb_moments(g, 1, F(-1))

    def test_perturb_weights_scales_one_entry(self):
        alpha = WeightSequence.from_squared((F(1, 2), F(2, 3), F(3, 4)))
        out = perturb_weights(alpha, 1, F(1, 3))
        assert out.sq == (F(1, 2), F(2, 9), F(3, 4))

    def test_perturb_weights_needs_positive_scale(self):
        alpha = WeightSequence.from_squared((F(1, 2), F(2, 3)))
        with pytest.raises(PreconditionError):
            perturb_weights(alpha, 1, F(0))

    def test_weight_and_moment_scalings_agree(self):
        rng = random.Random(121)
        for _ in range(10):
            g = measure_moments(rng, 8, min_atoms=2, max_atoms=4, positive=True)
            norm = MomentSequence.of([v / g[0] for v in g.values])
            from hankelshift import moments_to_weights, weights_to_moments

            alpha = moments_to_weights(norm)
            cut = rng.randint(1, len(alpha) - 1)
            t = F(rng.randint(1, 20), rng.randint(1, 10))
            left = weights_to_moments(perturb_weights(alpha, cut, t))
            right = perturb_moments(norm, cut, t)
            assert left.values == right.values

    def test_truncated_block_oracle(self):
        g = bergman_moments(4)
        b = truncated_block(g, 0, 1, 1)
        assert b.rows == ((F(1), F(1, 2)), (F(1, 2), F(0)))

    def test_truncated_block_corner_and_full_cases(self):
        g = bergman_moments(8)
        # anchor at the cut: only the (0,0) entry survives
        corner = truncated_block(g, 3, 1, 3)
        assert corner.rows == ((F(1, 4), F(0)), (F(0), F(0)))
        # cut beyond the deepest index: nothing is zeroed
        full = truncated_block(g, 1, 2, 6)
        assert full.rows == block(g, 1, 2).rows

    def test_truncated_block_anchor_above_cut_rejected(self):
        g = bergman_moments(6)
        with pytest.raises(PreconditionError):
            truncated_block(g, 3, 1, 2)

    def test_scaled_block_identity_above_cut(self):
        # for n > cut every entry index exceeds the cut, so the block is
        # t times the original
        g = bergman_moments(8)
        t = F(3, 7)
        for n in (4, 5, 6):
            pb = perturbed_block(g, n, 1, 3, t)
            orig = block(g, n, 1)
            for i in range(2):
                for j in range(2):
                    assert pb.entry(i, j) == t * orig.entry(i, j)

    def test_convex_decomposition_below_cut(self):
        # perturbed = t * full + (1 - t) * truncated, entrywise, for n <= cut
        rng = random.Random(321)
        for _ in range(10):
            g = measure_moments(rng, 10, positive=True)
            cut = rng.randint(1, 4)
            k = rng.randint(1, 2)
            n = rng.randint(0, cut)
            if n + 2 * k > g.horizon:
                continue
            t = rand_fraction(rng, 0, 2, 9)
            pb = perturbed_block(g, n, k, cut, t)
            full = block(g, n, k)
            trunc = truncated_block(g, n, k, cut)
            for i in range(k + 1):
                for j in range(k + 1):
                    want = t * full.entry(i, j) + (1 - t) * trunc.entry(i, j)
                    assert pb.entry(i, j) == want


class TestClosedFormK1:
    def test_bergman_oracle(self):
        iv = stability_interval_k1(bergman_moments(6), 1)
        assert (iv.lo, iv.hi) == (F(3, 4), F(9, 8))

    def test_ratio_formula(self):
        rng = random.Random(5150)
        for _ in range(20):
            g = k_positive_moments(rng, 1, 10)
            cut = rng.randint(1, 6)
            iv = stability_interval_k1(g, cut)
            assert iv.lo == g[cut] ** 2 / (g[cut - 1] * g[cut + 1])
            assert iv.hi == g[cut] * g[cut + 2] / (g[cut + 1] ** 2)
            assert iv.contains(F(1))

    def test_geometric_collapses_to_one(self):
        geo = MomentSequence.of([F(2) ** n for n in range(8)])
        iv = stability_interval_k1(geo, 2)
        assert (iv.lo, iv.hi) == (F(1), F(1))

    def test_requires_log_convexity(self):
        bad = MomentSequence.of([F(1), F(2), F(1), F(2), F(1)])
        with pytest.raises(PreconditionError):
            stability_interval_k1(bad, 1)

    def test_horizon_guard(self):
        with pytest.raises(InsufficientMomentsError):
            stability_interval_k1(bergman_moments(3), 2)


class TestDetQuadratic:
    def test_bergman_l2_coefficients(self):
        g = bergman_moments(8)
        assert det_quadratic(g, 2, 0) == (F(-1, 16), F(1, 10), F(-1, 27))
        assert det_quadratic(g, 2, 1) == (F(-1, 64), F(41, 1200), F(-1, 54))

    def test_quadratic_matches_block_determinant(self):
        rng = random.Random(606)
        for _ in range(15):
            g = measure_moments(rng, 12, min_atoms=3, positive=True)
            cut = rng.randint(2, 5)
            t = rand_fraction(rng, 0, 3, 7)
            a, b, c = det_quadratic(g, cut, cut - 2)
            got = det_bareiss(perturbed_block(g, cut - 2, 2, cut, t))
            assert got == a * t * t + b * t + c
            a, b, c = det_quadratic(g, cut, cut - 1)
            got = det_bareiss(perturbed_block(g, cut - 1, 2, cut, t))
            assert got == t * (a * t * t + b * t + c)

    def test_sign_facts_on_two_positive_instances(self):
        rng = random.Random(707)
        for _ in range(15):
            g = k_positive_moments(rng, 2, 12)
            cut = rng.randint(2, 4)
            for anchor in (cut - 2, cut - 1):
                a, b, c = det_quadratic(g, cut, anchor)
                assert c < 0  # value at t = 0
                assert a + b + c >= 0  # value at t = 1

    def test_quadratic_values_at_minor_ratio_points(self):
        # exact closed forms for P at the two ratio bounds of its own anchor
        rng = random.Random(708)
        for _ in range(15):
            g = k_positive_moments(rng, 2, 12)
            cut = rng.randint(2, 4)
            a, b, c = det_quadratic(g, cut, cut - 2)
            p = lambda t: a * t * t + b * t + c
            gm2, gm1, g0 = g[cut - 2], g[cut - 1], g[cut]
            gp1, gp2 = g[cut + 1], g[cut + 2]
            r1 = g0**2 / (gm2 * gp2)
            r2 = g0 * gp2 / gp1**2
            assert p(r1) == -((g0**2 * gp1 - gm1 * g0 * gp2) ** 2) / (gp2**2 * gm2)
            assert p(r2) == -g0 * (g0 * gp1 - gm1 * gp2) ** 2 / gp1**2
            assert p(r1) <= 0 and p(r2) <= 0

    def test_unknown_anchor_rejected(self):
        with pytest.raises(PreconditionError):
            det_quadratic(bergman_moments(8), 3, 3)


class TestCornerBounds:
    def test_lower_bound_oracle_and_tangency(self):
        g = bergman_moments(8)
        bound = corner_det_lower_bound(g, 3)
        assert bound == F(35, 36)
        # the bound is exactly where the anchor-0 determinant vanishes
        assert det_bareiss(perturbed_block(g, 0, 2, 3, bound)) == 0
        # the naive single-minor ratio sits below it and is infeasible
        naive = g[3] ** 2 / (g[2] * g[4])
        assert naive == F(15, 16) < bound
        assert det_bareiss(perturbed_block(g, 0, 2, 3, naive)) < 0

    def test_lower_bound_det_sign_random(self):
        rng = random.Random(909)
        checked = 0
        while checked < 12:
            g = measure_moments(rng, 12, min_atoms=3, positive=True)
            cut = rng.randint(3, 5)
            try:
                bound = corner_det_lower_bound(g, cut)
            except PreconditionError:
                continue
            checked += 1
            assert det_bareiss(perturbed_block(g, cut - 3, 2, cut, bound)) == 0
            above = bound + F(1, 1000)
            assert det_bareiss(perturbed_block(g, cut - 3, 2, cut, above)) > 0

    def test_upper_bound_oracle(self):
        assert corner_det_upper_bound(bergman_moments(8), 1) == F(36, 35)

    def test_upper_bound_degenerate(self):
        with pytest.raises(PreconditionError):
            corner_det_upper_bound(all_ones(9), 3)


class TestStabilityK2:
    def test_bergman_l3(self):
        rep = stability_interval_k2(bergman_moments(14), 3)
        assert rep.intersection.hi == F(225, 224)
        assert float(rep.intersection.lo) == pytest.approx(0.9972252350708144, abs=1e-12)
        assert rep.contains_one and rep.one_interior
        assert rep.per_block[0].lo == F(35, 36)

    def test_bergman_l2(self):
        rep = stability_interval_k2(bergman_moments(12), 2)
        assert rep.intersection.hi == F(100, 99)
        assert rep.contains_one and rep.one_interior

    def test_all_ones_collapses(self):
        rep = stability_interval_k2(all_ones(11), 2)
        assert (rep.intersection.lo, rep.intersection.hi) == (F(1), F(1))
        assert not rep.one_interior
        assert any("tangent" in f for f in rep.flags)

    def test_two_atom_width_shrinks(self):
        g = measure_moments(random.Random(33), 12, min_atoms=2, max_atoms=2, positive=True)
        rep = stability_interval_k2(g, 3)
        assert rep.contains_one
        assert float(rep.intersection.hi - rep.intersection.lo) <= 1e-9

    def test_nested_in_k1(self):
        rng = random.Random(767)
        for _ in range(10):
            g = k_positive_moments(rng, 2, 12)
            cut = rng.randint(1, 4)
            r2 = stability_interval_k2(g, cut)
            i1 = stability_interval_k1(g, cut)
            eps = 1e-9
            assert float(r2.intersection.lo) >= float(i1.lo) - eps
            assert float(r2.intersection.hi) <= float(i1.hi) + eps

    @pytest.mark.parametrize("cut, horizon", [(3, 14), (2, 12), (4, 14)])
    def test_quadratic_roots_correctly_rounded(self, cut, horizon):
        # Every float endpoint is a root of its anchor's determinant
        # quadratic, rounded to the nearest double: q changes sign, exactly,
        # between the midpoints from the endpoint to its neighbouring doubles.
        gamma = bergman_moments(horizon)
        rep = stability_interval_k2(gamma, cut)
        floats = 0
        for n, iv in rep.per_block.items():
            for x, method in zip((iv.lo, iv.hi), rep.methods[n]):
                if not isinstance(x, float):
                    continue
                assert method == "quadratic_root"
                a, b, c = det_quadratic(gamma, cut, n)
                mids = [(F(x) + F(math.nextafter(x, d))) / 2 for d in (-math.inf, math.inf)]
                lo, hi = (a * t * t + b * t + c for t in mids)
                assert lo * hi < 0, (n, x)
                floats += 1
        assert floats == 4
        if cut == 3:
            assert rep.intersection.lo == 0.9972252350708143

    def test_moments_near_1e110_get_finite_quadratic_roots(self):
        # float moments near 1e110: the quadratic's cubic coefficients
        # overflowed in doubles (a PreconditionError); over the integer view
        # they are exact, and the interval is Bergman's, which the scaled
        # Hausdorff moments share, to within rounding.
        g = MomentSequence.of([1e110 / (n + 1) for n in range(12)])
        rep = stability_interval_k2(g, 3, FLOAT)
        exact = stability_interval_k2(bergman_moments(11), 3)
        assert rep.contains_one and rep.one_interior and rep.flags == ()
        for n, iv in rep.per_block.items():
            for got, want in ((iv.lo, exact.per_block[n].lo), (iv.hi, exact.per_block[n].hi)):
                assert math.isfinite(got) and got == pytest.approx(float(want), rel=1e-14)

    def test_method_tags_present(self):
        rep = stability_interval_k2(bergman_moments(14), 3)
        for n, iv in rep.per_block.items():
            lo_m, hi_m = rep.methods[n]
            assert lo_m in {"closed_form", "quadratic_root", "bisection", "pencil_root", "direct", "condensation"}
            assert hi_m in {"closed_form", "quadratic_root", "bisection", "pencil_root", "direct", "condensation"}
        assert rep.intersection_methods[0] in {"closed_form", "quadratic_root", "bisection", "pencil_root", "direct"}


class TestStabilityGeneric:
    def test_matches_k1_closed_form(self):
        rng = random.Random(888)
        for _ in range(6):
            g = k_positive_moments(rng, 1, 10)
            cut = rng.randint(1, 4)
            iv = stability_interval_k1(g, cut)
            rep = stability_interval(g, cut, 1)
            assert abs(float(rep.intersection.lo) - float(iv.lo)) <= 1e-9
            assert abs(float(rep.intersection.hi) - float(iv.hi)) <= 1e-9

    def test_matches_k2_closed_form_bergman(self):
        g = bergman_moments(14)
        rep2 = stability_interval_k2(g, 3)
        bis = stability_interval(g, 3, 2)
        assert abs(float(rep2.intersection.lo) - float(bis.intersection.lo)) <= 1e-9
        assert abs(float(rep2.intersection.hi) - float(bis.intersection.hi)) <= 1e-9

    def test_one_always_inside(self):
        rng = random.Random(999)
        for _ in range(5):
            g = measure_moments(rng, 12, min_atoms=4, positive=True)
            rep = stability_interval(g, 2, 3)
            assert rep.contains_one

    def test_k3_nested_in_k2(self):
        g = bergman_moments(14)
        r3 = stability_interval(g, 3, 3)
        r2 = stability_interval(g, 3, 2)
        eps = 1e-9
        assert float(r3.intersection.lo) >= float(r2.intersection.lo) - eps
        assert float(r3.intersection.hi) <= float(r2.intersection.hi) + eps

    def test_requires_k_positive(self):
        bad = MomentSequence.of([F(1), F(2), F(1), F(2), F(1), F(2)])
        with pytest.raises(PreconditionError):
            stability_interval(bad, 1, 1)


_atom = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
_density = st.fractions(min_value=F(1, 5), max_value=3, max_denominator=5)


@st.composite
def engine_cases(draw):
    # Exact atomic measures with 1..k+2 atoms: singular blocks at t = 1 (r
    # atoms, r <= k) and identically singular pencils (one atom, anchor
    # cut-3 at k = 2) both occur.
    k = draw(st.integers(1, 4))
    cut = draw(st.integers(1, 5))
    atoms = sorted(draw(st.sets(_atom, min_size=1, max_size=k + 2)))
    dens = draw(st.lists(_density, min_size=len(atoms), max_size=len(atoms)))
    return moments_of(AtomicMeasure(tuple(atoms), tuple(dens)), cut + 2 * k), cut, k


def _feasible(gamma, n, k, cut, t):
    return is_psd(perturbed_block(gamma, n, k, cut, F(t)))


class TestPencilEngine:
    @settings(max_examples=120, deadline=None)
    @given(engine_cases())
    # One atom: the pencil at anchor 0 is identically singular.
    @example((moments_of(AtomicMeasure((F(2),), (F(1),)), 7), 3, 2))
    def test_endpoints_certified_and_tight(self, case):
        gamma, cut, k = case
        probes, per_anchor = [0], []
        probe, engine = perturbation.psd_with_margin, perturbation._pencil_block

        def counting_probe(*args):
            probes[0] += 1
            return probe(*args)

        def counting_engine(*args):
            before = probes[0]
            out = engine(*args)
            per_anchor.append(probes[0] - before)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perturbation, "psd_with_margin", counting_probe)
            mp.setattr(perturbation, "_pencil_block", counting_engine)
            rep = stability_interval(gamma, cut, k)
        assert per_anchor and max(per_anchor) <= 6
        cap = stability_interval_k1(gamma, cut).hi
        step = F(1, 2**40) * max(1, cap)
        for n, iv in rep.per_block.items():
            for t, method, outside in zip((iv.lo, iv.hi), rep.methods[n], (-step, step)):
                if method == "direct":
                    continue
                assert _feasible(gamma, n, k, cut, t), (n, t)
                assert not _feasible(gamma, n, k, cut, F(t) + outside), (n, t)
        if k == 1:
            iv = stability_interval_k1(gamma, cut)
            assert (rep.intersection.lo, rep.intersection.hi) == (iv.lo, iv.hi)
        if k == 2:
            closed = stability_interval_k2(gamma, cut)
            fell_back = {f.split(":")[0] for f in closed.flags if "pencil engine" in f}
            for n, iv in closed.per_block.items():
                if f"anchor {n}" in fell_back:
                    continue
                # The closed form at anchor cut-1 is not clipped to the window.
                pairs = ((iv.lo, rep.per_block[n].lo), (min(iv.hi, cap), rep.per_block[n].hi))
                for a, b in pairs:
                    assert abs(float(a) - float(b)) <= 1e-12 * max(1, float(cap))
        for j in range(1, k):
            lower = stability_interval(gamma, cut, j).intersection
            assert lower.lo <= rep.intersection.lo <= rep.intersection.hi <= lower.hi


class TestInteriority:
    def test_bergman_interior(self):
        rep = interiority_report(bergman_moments(12), 2, 2)
        assert rep.interior and rep.pd_all and rep.agreement
        assert rep.failing_block is None

    def test_two_atom_boundary(self):
        g = measure_moments(random.Random(51), 12, min_atoms=2, max_atoms=2, positive=True)
        rep = interiority_report(g, 3, 2)
        assert not rep.interior and not rep.pd_all and rep.agreement
        assert rep.failing_block is not None

    def test_all_ones_k1(self):
        rep = interiority_report(all_ones(6), 1, 1)
        assert not rep.interior and not rep.pd_all and rep.agreement

    def test_order_mismatch_flagged(self):
        rep = interiority_report(bergman_moments(12), 3, 1)
        assert any("the cut" in f for f in rep.flags)


_QUERIES = st.sampled_from(
    ["is_k_positive", "propagation_report", "stability_interval", "interiority_report"]
)


def _outcome(query: str, gamma: MomentSequence, cut: int, k: int, ctx):
    # The query's result, or the type and message of what it raised.
    try:
        if query == "is_k_positive":
            return is_k_positive(gamma, k, ctx)
        if query == "propagation_report":
            return propagation_report(gamma, k, ctx)
        if query == "stability_interval":
            return stability_interval(gamma, cut, k, ctx)
        return interiority_report(gamma, cut, k, ctx)
    except Exception as exc:
        return type(exc), str(exc)


class TestSequenceCache:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_perturb_walks_the_ladder_once_and_each_pencil_once(self, tmp_path, k):
        # One exact perturb run: the closed forms, the pencil intervals and
        # the interiority report all read one det_ladder walk, and the
        # interiority report's interval is the one already computed.
        walks, anchors = [], []
        ladder, engine = hankel.det_ladder, perturbation._pencil_block

        def counting_ladder(*args):
            walks.append(args)
            return ladder(*args)

        def counting_engine(gamma, n, *args):
            anchors.append(n)
            return engine(gamma, n, *args)

        path = tmp_path / "bergman.json"
        path.write_text(json.dumps({"kind": "moments", "values": [f"1/{n + 1}" for n in range(15)]}))
        cut = 3
        argv = ["perturb", str(path), "--l", str(cut), "--k", str(k), "--json", "--no-timestamp"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hankel, "det_ladder", counting_ladder)
            mp.setattr(perturbation, "_pencil_block", counting_engine)
            code, out, _ = run_main(argv)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["interiority"]["agreement"]
        if k == 2:
            assert not any("pencil engine" in f for f in results["closed_form"]["flags"])
        assert len(walks) == 1
        assert sorted(anchors) == list(range(max(0, cut - 2 * k + 1), cut + 1))

    def test_shared_per_context_and_read_only(self):
        g = bergman_moments(12)
        assert g.ladder(EXACT) is g.ladder() is not g.ladder(FLOAT)
        rep = stability_interval(g, 2, 2)
        assert stability_interval(g, 2, 2, EXACT) is rep
        assert interiority_report(g, 2, 2).interval is rep
        assert stability_interval(g, 2, 2, FLOAT) is not rep
        for mapping in (rep.per_block, rep.methods):
            with pytest.raises(TypeError):
                mapping[0] = None
            with pytest.raises(TypeError):
                del mapping[0]

    def test_a_used_sequence_is_freed_without_the_cyclic_collector(self):
        # The kept ladder, its walk and the kept reports must not refer back
        # to the sequence, or every sequence would wait for a gc pass.
        g = bergman_moments(12)
        interiority_report(g, 2, 2)
        propagation_report(g, 2, FLOAT)
        ref = weakref.ref(g)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_copies_and_pickles_start_with_an_empty_cache(self):
        g = bergman_moments(12)
        verdict = is_k_positive(g, 3)
        for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert other == g and other.ladder() is not g.ladder()
            assert is_k_positive(other, 3) == verdict

    def test_reports_copy_and_pickle_read_only(self):
        g = MomentSequence.of([1, 2, 5, 14, 42, 132, 429])
        for report in (stability_interval(g, 1, 1), interiority_report(g, 1, 1)):
            copies = (
                copy.copy(report),
                copy.deepcopy(report),
                pickle.loads(pickle.dumps(report)),
            )
            for other in copies:
                assert other == report and repr(other) == repr(report)
                interval = getattr(other, "interval", other)
                for mapping in (interval.per_block, interval.methods):
                    with pytest.raises(TypeError):
                        mapping[1] = None

    def test_a_raising_computation_is_not_kept(self):
        # The first interval computation fails inside the engine; the next
        # one must compute afresh, not return or repeat the failure.
        g = bergman_moments(12)
        engine, calls = perturbation._pencil_block, []

        def failing_once(*args):
            calls.append(args[1])
            if len(calls) == 1:
                raise PreconditionError("injected")
            return engine(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perturbation, "_pencil_block", failing_once)
            with pytest.raises(PreconditionError, match="injected"):
                stability_interval(g, 2, 2)
            rep = stability_interval(g, 2, 2)
        assert rep == stability_interval(MomentSequence(g.values), 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        engine_cases(),
        st.booleans(),
        st.lists(
            st.tuples(_QUERIES, st.integers(0, 5), st.integers(0, 4), st.booleans()),
            min_size=2,
            max_size=10,
        ),
    )
    def test_reused_sequence_answers_as_a_fresh_one(self, case, as_float, queries):
        # Queries in any order, some of them raising, each asked in both
        # modes (in the drawn order) and twice: every answer from the reused
        # sequence equals a fresh sequence's.
        gamma, _, _ = case
        if as_float:
            gamma = MomentSequence.of(float(v) for v in gamma.values)
        asked = [
            (query, cut, k, ctx)
            for query, cut, k, exact_first in queries
            for ctx in ((EXACT, FLOAT) if exact_first else (FLOAT, EXACT))
        ]
        for query, cut, k, ctx in asked + asked[::-1]:
            got = _outcome(query, gamma, cut, k, ctx)
            fresh = _outcome(query, MomentSequence(gamma.values), cut, k, ctx)
            # repr tells a Fraction endpoint from an equal float one
            assert repr(got) == repr(fresh)
            if isinstance(got, (perturbation.IntervalReport, perturbation.InteriorReport)):
                report = getattr(got, "interval", got)
                with pytest.raises(TypeError):
                    report.per_block[cut] = Interval(F(0), F(0))


class TestDetExpansion:
    def test_identity_on_randoms(self):
        rng = random.Random(2024)
        for _ in range(20):
            g = measure_moments(rng, 12, min_atoms=3, positive=True)
            cut = rng.randint(1, 4)
            k = rng.randint(1, 3)
            if cut + 2 * k > g.horizon:
                continue
            t = rand_fraction(rng, 0, 2, 9)
            assert rank_one_det_expansion_holds(g, cut, k, t)

    def test_identity_float(self):
        # exactly, over the binary values of the moments and the scale
        for scale in (1.0, 1e80):
            g = MomentSequence.of([scale / (n + 1) for n in range(12)])
            assert rank_one_det_expansion_holds(g, 2, 2, 0.7)


class TestFloatMode:
    def test_k1_float_matches_exact(self):
        ge = bergman_moments(8)
        gf = MomentSequence.of([float(v) for v in ge.values])
        ive = stability_interval_k1(ge, 2)
        ivf = stability_interval_k1(gf, 2, FLOAT)
        assert float(ivf.lo) == pytest.approx(float(ive.lo), abs=1e-12)
        assert float(ivf.hi) == pytest.approx(float(ive.hi), abs=1e-12)

    def test_k2_float_close_to_exact(self):
        ge = bergman_moments(14)
        gf = MomentSequence.of([float(v) for v in ge.values])
        re_ = stability_interval_k2(ge, 3)
        rf = stability_interval_k2(gf, 3, FLOAT)
        assert float(rf.intersection.lo) == pytest.approx(float(re_.intersection.lo), abs=1e-9)
        assert float(rf.intersection.hi) == pytest.approx(float(re_.intersection.hi), abs=1e-9)
