"""Atomic measures, recursion detection, atom recovery, finite-mass
witnesses."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hankelshift.hankel as hankel
from hankelshift import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    MomentSequence,
    NotAtomicError,
    NotStieltjesError,
    PreconditionError,
    Recursion,
    WeightSequence,
    detect_recursion,
    is_finite_mass,
    measure_represents_weights,
    moments_of,
    recover_atoms,
)

from gen import bergman_moments, random_measure


@st.composite
def close_rational_measures(draw):
    """1-4 distinct rational atoms, sometimes 0, sometimes a pair as close as
    1e-12, with positive rational densities."""
    atom = st.fractions(min_value=0, max_value=20, max_denominator=60)
    atoms = set(draw(st.lists(atom, min_size=1, max_size=4)))
    if len(atoms) < 4 and draw(st.booleans()):
        atoms.add(F(0))
    if len(atoms) < 4 and draw(st.booleans()):
        x = draw(st.sampled_from(sorted(atoms)))
        atoms.add(x + F(1, 10 ** draw(st.integers(1, 12))))
    dens = st.fractions(min_value=F(1, 20), max_value=20, max_denominator=30)
    return tuple(sorted(atoms)), tuple(draw(dens) for _ in atoms)


def _char_value(rec, x):
    # h(x) = x^r - a_{r-1} x^{r-1} - ... - a_0
    return x**rec.order - sum(a * x**i for i, a in enumerate(rec.coeffs))


class TestMomentsOf:
    def test_two_atom_oracle(self):
        mu = AtomicMeasure(atoms=(F(1), F(4)), densities=(F(1, 2), F(1, 2)))
        g = moments_of(mu, 4)
        # gamma_n = (1 + 4^n) / 2
        assert g.values == (F(1), F(5, 2), F(17, 2), F(65, 2), F(257, 2))

    def test_atom_at_zero_contributes_only_to_mass(self):
        mu = AtomicMeasure(atoms=(F(0), F(2)), densities=(F(3, 4), F(1, 4)))
        g = moments_of(mu, 3)
        assert g.values == (F(1), F(1, 2), F(1), F(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=(F(2), F(1)), densities=(F(1), F(1)))
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=(F(-1),), densities=(F(1),))
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=(F(1),), densities=(F(0),))

    def test_mass(self):
        mu = AtomicMeasure(atoms=(F(1), F(3)), densities=(F(1, 3), F(2, 3)))
        assert mu.mass == F(1)


class TestDetectRecursion:
    def test_order_two_oracle(self):
        g = MomentSequence.of([(1 + F(4) ** n) / 2 for n in range(9)])
        rec = detect_recursion(g, 4, EXACT)
        assert rec is not None
        assert rec.order == 2
        assert rec.coeffs == (F(-4), F(5))

    def test_geometric_is_order_one(self):
        g = MomentSequence.of([F(3) ** n for n in range(8)])
        rec = detect_recursion(g, 4, EXACT)
        assert rec.order == 1 and rec.coeffs == (F(3),)

    def test_minimality(self):
        # order-2 sequence must not be reported at order 3
        g = MomentSequence.of([(1 + F(4) ** n) / 2 for n in range(9)])
        assert detect_recursion(g, 4, EXACT).order == 2

    def test_bergman_has_none(self):
        assert detect_recursion(bergman_moments(12), 5, EXACT) is None

    def test_order_capped_at_half_horizon(self):
        g = bergman_moments(6)
        # horizon 6 admits orders up to 3 only; larger requests are capped
        assert detect_recursion(g, 10, EXACT) is None

    def test_holds_on(self):
        g = MomentSequence.of([(1 + F(4) ** n) / 2 for n in range(9)])
        rec = Recursion(order=2, coeffs=(F(-4), F(5)))
        assert rec.holds_on(g, EXACT)
        assert not Recursion(order=1, coeffs=(F(2),)).holds_on(g, EXACT)

    def test_float_mode(self):
        g = MomentSequence.of([(1 + 4.0**n) / 2 for n in range(9)])
        rec = detect_recursion(g, 4, FLOAT)
        assert rec.order == 2
        assert rec.coeffs[0] == pytest.approx(-4.0, abs=1e-6)
        assert rec.coeffs[1] == pytest.approx(5.0, abs=1e-6)


class TestRecoverAtoms:
    def test_two_rational_atoms(self):
        g = MomentSequence.of([(1 + F(4) ** n) / 2 for n in range(9)])
        rec = detect_recursion(g, 4, EXACT)
        mu = recover_atoms(rec, g, EXACT)
        assert mu.atoms == (F(1), F(4))
        assert mu.densities == (F(1, 2), F(1, 2))

    def test_single_atom_unnormalized(self):
        g = MomentSequence.of([2 * F(3) ** n for n in range(6)])
        rec = detect_recursion(g, 3, EXACT)
        mu = recover_atoms(rec, g, EXACT)
        assert mu.atoms == (F(3),) and mu.densities == (F(2),)

    def test_random_round_trip(self):
        rng = random.Random(1009)
        for _ in range(25):
            mu = random_measure(rng, max_atoms=4, positive=True)
            r = len(mu.atoms)
            g = moments_of(mu, 2 * r + 2)
            rec = detect_recursion(g, r, EXACT)
            assert rec is not None and rec.order == r
            back = recover_atoms(rec, g, EXACT)
            assert back.atoms == mu.atoms
            assert back.densities == mu.densities

    def test_irrational_atoms_certified(self):
        # characteristic roots 2 +- sqrt(2), equal densities
        vals = [F(1), F(2)]
        for _ in range(8):
            vals.append(4 * vals[-1] - 2 * vals[-2])
        g = MomentSequence.of(vals)
        rec = detect_recursion(g, 3, EXACT)
        assert rec.order == 2 and rec.coeffs == (F(-2), F(4))
        mu = recover_atoms(rec, g, EXACT)
        assert mu.atoms[0] == pytest.approx(2 - math.sqrt(2), abs=1e-9)
        assert mu.atoms[1] == pytest.approx(2 + math.sqrt(2), abs=1e-9)
        assert mu.densities[0] == pytest.approx(0.5, abs=1e-9)
        assert mu.densities[1] == pytest.approx(0.5, abs=1e-9)

    def test_negative_root_rejected(self):
        vals = [F(1), F(1)]
        for _ in range(7):
            vals.append(vals[-1] + vals[-2])
        g = MomentSequence.of(vals)
        rec = detect_recursion(g, 3, EXACT)
        assert rec.order == 2
        with pytest.raises(NotAtomicError):
            recover_atoms(rec, g, EXACT)

    def test_repeated_root_rejected(self):
        g = MomentSequence.of([F(n + 1) for n in range(8)])
        rec = detect_recursion(g, 3, EXACT)
        assert rec.order == 2 and rec.coeffs == (F(-1), F(2))
        with pytest.raises(NotAtomicError):
            recover_atoms(rec, g, EXACT)

    def test_mismatched_recursion_rejected(self):
        g = bergman_moments(8)
        with pytest.raises(PreconditionError):
            recover_atoms(Recursion(order=1, coeffs=(F(1, 2),)), g, EXACT)

    @settings(max_examples=150, deadline=None)
    @given(measure=close_rational_measures())
    def test_rational_atoms_round_trip_exactly(self, measure):
        atoms, dens = measure
        g = moments_of(AtomicMeasure(atoms=atoms, densities=dens), 2 * len(atoms) + 2)
        rec = detect_recursion(g, len(atoms), EXACT)
        assert rec is not None and rec.order == len(atoms)
        back = recover_atoms(rec, g, EXACT)
        assert back.atoms == atoms and back.densities == dens
        assert all(isinstance(v, F) for v in back.atoms + back.densities)

    def test_near_coincident_atoms_are_exact(self):
        atoms = (F(1), 1 + F(1, 10**10), F(3))
        dens = (F(1), F(2), F(1, 3))
        g = moments_of(AtomicMeasure(atoms=atoms, densities=dens), 12)
        back = recover_atoms(detect_recursion(g, 4, EXACT), g, EXACT)
        assert back.atoms == atoms and back.densities == dens

    @settings(max_examples=100, deadline=None)
    @given(
        b=st.fractions(min_value=1, max_value=40, max_denominator=12),
        c=st.fractions(min_value=F(1, 12), max_value=40, max_denominator=12),
        q=st.none() | st.fractions(min_value=0, max_value=30, max_denominator=12),
    )
    def test_irrational_atoms_are_correctly_rounded(self, b, c, q):
        # Roots of t^2 - b t + c (irrational) and optionally a rational q;
        # gamma_n = (x1^n + x2^n)/2 + q^n, the power sums being rational.
        disc = b * b - 4 * c
        assume(disc > 0)
        assume(any(math.isqrt(v) ** 2 != v for v in (disc.numerator, disc.denominator)))
        sums = [F(2), b]
        while len(sums) < 10:
            sums.append(b * sums[-1] - c * sums[-2])
        if q is None:
            g, order = MomentSequence.of(s / 2 for s in sums), 2
        else:
            g, order = MomentSequence.of(s / 2 + q**n for n, s in enumerate(sums)), 3
        rec = detect_recursion(g, order, EXACT)
        assert rec is not None and rec.order == order
        mu = recover_atoms(rec, g, EXACT)
        if q is not None:
            assert q in mu.atoms and type(mu.atoms[mu.atoms.index(q)]) is F
        assert list(mu.atoms) == sorted(mu.atoms, key=float)
        for x in mu.atoms:
            if isinstance(x, F):
                continue
            # x is the double nearest the root: h changes sign between the
            # midpoints to the neighbouring doubles.
            below = (F(x) + F(math.nextafter(x, -math.inf))) / 2
            above = (F(x) + F(math.nextafter(x, math.inf))) / 2
            assert _char_value(rec, below) * _char_value(rec, above) < 0

    @pytest.mark.parametrize(
        "coeffs, initial",
        [
            # (t - 3)(t^2 - 2t + 2): roots 3, 1 +- i
            ((F(6), F(-8), F(5)), (F(12), F(32), F(90))),
            # (t + 1)(t - 2): densities 1, 2
            ((F(2), F(1)), (F(3), F(3))),
            # t (t + 1)(t - 2): a zero root beside a negative one
            ((F(0), F(2), F(1)), (F(4), F(3), F(9))),
            # t^2: a repeated zero root
            ((F(0), F(0)), (F(1), F(1))),
            # (t - 1)^2 (t - 2): gamma_n = n + 1 + 2^n
            ((F(2), F(-5), F(4)), (F(2), F(4), F(7))),
        ],
        ids=["complex", "negative", "zero-and-negative", "repeated-zero", "repeated"],
    )
    def test_not_atomic_roots_rejected(self, coeffs, initial):
        vals = list(initial)
        while len(vals) < 2 * len(coeffs) + 3:
            vals.append(sum(a * v for a, v in zip(coeffs, vals[-len(coeffs):])))
        rec = Recursion(order=len(coeffs), coeffs=coeffs)
        with pytest.raises(NotAtomicError):
            recover_atoms(rec, MomentSequence.of(vals), EXACT)


class TestFiniteMass:
    def test_witness_order_equals_atom_count(self):
        rng = random.Random(808)
        for _ in range(15):
            mu = random_measure(rng, max_atoms=4, positive=True)
            g = moments_of(mu, 2 * len(mu.atoms) + 2)
            rep = is_finite_mass(g, EXACT)
            assert rep.finite
            assert rep.witness.k == len(mu.atoms)

    def test_bergman_not_finite_on_horizon(self):
        rep = is_finite_mass(bergman_moments(12), EXACT)
        assert not rep.finite and rep.witness is None

    def test_non_stieltjes_rejected(self):
        # moments of a point mass at -1 alternate in sign
        g = MomentSequence.of([F(1), F(0), F(1), F(0), F(1)])
        # gamma_1 = 0 passes entrywise checks; use a genuinely negative block
        bad = MomentSequence.of([F(1), F(2), F(1), F(2), F(1)])
        with pytest.raises(NotStieltjesError):
            is_finite_mass(bad, EXACT)
        del g

    def test_stops_at_witness_order(self):
        mu = AtomicMeasure(atoms=(F(1), F(2), F(3), F(5)), densities=(F(1),) * 4)
        g = moments_of(mu, 16)
        ladder = g.ladder(EXACT)
        built = []
        walk = ladder._walk

        def recording():
            for table in walk:
                built.append(table.k)
                yield table

        ladder._walk = recording()
        rep = is_finite_mass(g, EXACT)
        assert rep.witness.k == 4 and built == [0, 1, 2, 3, 4]

    def test_recursion_and_witness_share_one_walk(self, monkeypatch):
        walks = []
        det_ladder = hankel.det_ladder

        def counting(gamma, ctx):
            walks.append(ctx)
            return det_ladder(gamma, ctx)

        monkeypatch.setattr(hankel, "det_ladder", counting)
        mu = AtomicMeasure(atoms=(F(0), F(1, 3), F(2)), densities=(F(1), F(2), F(1, 5)))
        g = moments_of(mu, 12)
        assert detect_recursion(g, 4, EXACT).order == 3
        assert is_finite_mass(g, EXACT).witness == (1, 2)
        assert walks == [EXACT]

    def _count_recursion_checks(self, monkeypatch):
        # Both the ladder's rank and `Recursion.holds_on` check through
        # `_recursion_holds`, each under its own module's name.
        import hankelshift.measures as measures

        calls = []
        real = hankel._recursion_holds

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(hankel, "_recursion_holds", counting)
        monkeypatch.setattr(measures, "_recursion_holds", counting)
        return calls

    def test_recursion_run_checks_its_recursion_once(self, tmp_path, capsys, monkeypatch):
        # `recover_atoms` takes the recursion that the kept ladder's rank
        # has verified as checked; it checked it a second time before.
        import hankelshift.cli as cli

        calls = self._count_recursion_checks(monkeypatch)
        path = tmp_path / "m.json"
        path.write_text(
            '{"kind": "measure", "atoms": ["1/2", "3/2", "5/2"], '
            '"densities": ["1/3", "1/3", "1/3"], "horizon": 14}'
        )
        assert cli.main(["recursion", str(path), "--json", "--no-timestamp"]) == 0
        assert '"order": 3' in capsys.readouterr().out
        assert len(calls) == 1

    def test_a_foreign_recursion_is_still_checked(self, monkeypatch):
        mu = AtomicMeasure(atoms=(F(1, 2), F(3, 2), F(5, 2)), densities=(F(1, 3),) * 3)
        g = moments_of(mu, 14)
        own = detect_recursion(g, 7, EXACT)
        calls = self._count_recursion_checks(monkeypatch)
        assert recover_atoms(own, g, EXACT) == mu and calls == []
        foreign = Recursion(order=3, coeffs=(own.coeffs[0] + 1, *own.coeffs[1:]))
        with pytest.raises(PreconditionError, match="does not fit"):
            recover_atoms(foreign, g, EXACT)
        assert calls == [foreign.coeffs]
        # the sequence's own recursion, on an equal sequence with no kept
        # ladder, is checked as well
        assert recover_atoms(own, MomentSequence(g.values), EXACT) == mu
        assert calls == [foreign.coeffs, own.coeffs]

    def test_zero_moments_witness_at_order_zero(self):
        g = MomentSequence.of([F(1), F(0), F(0), F(0)])
        rep = is_finite_mass(g, EXACT)
        assert rep.finite
        assert rep.witness.k == 0


class TestRepresentation:
    def test_berger_style_check(self):
        alpha = WeightSequence.from_squared((F(1, 4), F(1), F(1), F(1), F(1)))
        good = AtomicMeasure(atoms=(F(0), F(1)), densities=(F(3, 4), F(1, 4)))
        swapped = AtomicMeasure(atoms=(F(0), F(1)), densities=(F(1, 4), F(3, 4)))
        assert measure_represents_weights(alpha, good, EXACT)
        assert not measure_represents_weights(alpha, swapped, EXACT)

    def test_support_above_weight_sup_rejected(self):
        alpha = WeightSequence.from_squared((F(1, 2), F(1, 2), F(1, 2)))
        big = AtomicMeasure(atoms=(F(7),), densities=(F(1),))
        assert not measure_represents_weights(alpha, big, EXACT)

    def test_point_mass_and_flat_round_trips(self):
        from hankelshift import moments_to_weights

        rng = random.Random(4545)
        for _ in range(10):
            # single positive atom: weights are constant at the atom
            x = F(rng.randint(1, 40), rng.randint(1, 8))
            mu = AtomicMeasure(atoms=(x,), densities=(F(1),))
            alpha = moments_to_weights(moments_of(mu, 8))
            assert measure_represents_weights(alpha, mu, EXACT)
            # atom at zero plus one positive atom: flat weight tail at x
            rho = F(rng.randint(1, 7), 8)
            mu2 = AtomicMeasure(atoms=(F(0), x), densities=(1 - rho, rho))
            alpha2 = moments_to_weights(moments_of(mu2, 8))
            assert measure_represents_weights(alpha2, mu2, EXACT)

    def test_prefix_support_surrogate_is_strict(self):
        # two positive atoms: the squared weights increase toward the top
        # atom without reaching it, so the prefix support bound rejects
        mu = AtomicMeasure(atoms=(F(1), F(4)), densities=(F(1, 2), F(1, 2)))
        from hankelshift import moments_to_weights

        alpha = moments_to_weights(moments_of(mu, 8))
        assert not measure_represents_weights(alpha, mu, EXACT)
