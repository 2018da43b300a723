"""The one float vanishing rule: d_k(n) vanishes when its integer is 0 or
some leading pivot d_j(n)/d_{j-1}(n), j = 1..k, with d_{j-1}(n) != 0, is at
most rel_eps times its corner gamma_{n+2j}.  `vanishes`, `zeros`,
`propagation`, `is_finite_mass`, `rank` and `detect_recursion` all read
it.  These tests check it on float copies of atomic measures against the
exact measure, tie `rank` to `vanishes`, and pin the command-line reports
it changed."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelshift import EXACT, FLOAT, MomentSequence, detect_recursion, recover_atoms
from hankelshift.numkit import det_bareiss
from hankelshift.hankel import _rows

from gen import random_measure
from test_fuzz_cli import run_main
from test_report_bytes import CORPUS


def _moments(atoms, densities, horizon: int) -> list[F]:
    return [sum(r * x**n for x, r in zip(atoms, densities)) for n in range(horizon + 1)]


def _min_relative_pivot(values: list[F], n: int, k: int):
    # min over j = 1..k of d_j(n) / (d_{j-1}(n) gamma_{n+2j}) on exact
    # values; None when some d_{j-1}(n) or corner is 0 (no pivot to read).
    minors = [det_bareiss(_rows(values, n, j)) for j in range(k + 1)]
    pivots = []
    for j in range(1, k + 1):
        if minors[j - 1] == 0 or values[n + 2 * j] == 0:
            return None
        pivots.append(minors[j] / (minors[j - 1] * values[n + 2 * j]))
    return min(pivots)


class TestAtomicMeasures:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(2, 16))
    def test_float_copies_of_well_separated_measures(self, seed, horizon):
        # At and above the atom count every block is singular; below it a
        # block whose exact relative pivots all exceed 1e3 rel_eps is not
        # numerically singular.
        mu = random_measure(random.Random(seed), max_atoms=4, min_gap=F(1, 2))
        exact = _moments(mu.atoms, mu.densities, horizon)
        ladder = MomentSequence.of([float(v) for v in exact]).ladder(FLOAT)
        atoms = len(mu.atoms)
        for k in range(1, horizon // 2 + 1):
            for n in range(horizon - 2 * k + 1):
                if k >= atoms:
                    assert ladder.vanishes(n, k), (n, k)
                    continue
                pivot = _min_relative_pivot(exact, n, k)
                if pivot is not None and pivot > 1e3 * FLOAT.rel_eps:
                    assert not ladder.vanishes(n, k), (n, k, float(pivot))

    def test_a_near_singular_leading_block_makes_the_block_singular(self):
        # delta_1 + 2^-52 (delta_64 + delta_128), whose moments are doubles:
        # d_1(0) is 4.5e-12 of gamma_0 gamma_2, inside rel_eps, while
        # d_2(0)/d_1(0) is 2.9e-9 of gamma_4, outside it.  block(0, 2) holds
        # the numerically singular block(0, 1), so it vanishes too, read at
        # j = 1.
        eps = F(1, 2**52)
        values = _moments((F(1), F(64), F(128)), (F(1), eps, eps), 4)
        assert all(F(float(v)) == v for v in values)
        ladder = MomentSequence.of([float(v) for v in values]).ladder(FLOAT)
        assert _min_relative_pivot(values, 0, 1) < FLOAT.rel_eps
        minors = [det_bareiss(_rows(values, 0, j)) for j in (1, 2)]
        assert minors[1] / (minors[0] * values[4]) > 10 * FLOAT.rel_eps
        assert ladder.vanishes(0, 1) and ladder.vanishes(0, 2)

    def test_a_zero_minor_is_no_divisor(self):
        # block(1, 2) = [[0, 0, 1], [0, 1, 2], [1, 2, 3]]: d_0(1) = d_1(1) = 0,
        # so no pivot is read below the top, and d_2(1) = -1 does not vanish.
        ladder = MomentSequence.of([1.0, 0.0, 0.0, 1.0, 2.0, 3.0]).ladder(FLOAT)
        assert ladder.table(2).nums[1] != 0
        assert not ladder.vanishes(1, 2)
        assert ladder.vanishes(1, 1)


@st.composite
def _sequences(draw):
    # exact atomic moments, their float copies, and float Bergman moments
    mu = random_measure(random.Random(draw(st.integers(0, 2**32 - 1))), max_atoms=4)
    values = _moments(mu.atoms, mu.densities, draw(st.integers(0, 14)))
    kind = draw(st.sampled_from(["exact", "float", "bergman"]))
    if kind == "bergman":
        return MomentSequence.of([1.0 / (n + 1) for n in range(len(values))]), FLOAT
    if kind == "float":
        return MomentSequence.of([float(v) for v in values]), FLOAT
    return MomentSequence.of(values), EXACT


@settings(max_examples=120, deadline=None)
@given(_sequences())
def test_rank_order_is_the_first_vanishing_anchor_zero_minor(case):
    gamma, ctx = case
    ladder = gamma.ladder(ctx)
    top = gamma.horizon // 2
    first = next((j for j in range(top + 1) if ladder.vanishes(0, j)), None)
    assert ladder.rank.order == first


class TestReports:
    def test_float_bergman_moments_have_no_vanishing_determinant(self, tmp_path):
        # Lebesgue measure on [0, 1]: no recursion, no finite mass
        path = tmp_path / "bergman.csv"
        path.write_text("".join(f"{1.0 / (n + 1)!r}\n" for n in range(17)))
        code, out, _ = run_main(["recursion", str(path), "--no-timestamp"])
        assert code == 0
        assert "recursion: none found\n" in out
        assert "finite mass: not on this horizon\n" in out
        code, out, _ = run_main(["dets", str(path), "--k", "4", "--no-timestamp"])
        assert code == 0
        assert out.endswith(
            "propagation (order-4 dets): no vanishing determinant; hypothesis not triggered\n"
        )

    def test_three_atoms_have_nonsingular_order_two_blocks(self, tmp_path):
        path = tmp_path / "atomic2.csv"
        path.write_text(dict(CORPUS)["atomic2.csv"])
        code, out, _ = run_main(["analyze", str(path), "--k", "3", "--no-timestamp"])
        assert code == 0
        assert (
            "propagation (order-2 dets): no vanishing determinant; hypothesis not triggered\n"
            in out
        )

    def test_float_atom_at_zero(self, tmp_path):
        # the rounded constant coefficient, 3.9e-15, puts the root at 0 just
        # below it; exact mode recovers the atom 0 itself
        values = _moments((F(0), F(5)), (F(1, 12), F(1, 12)), 8)
        path = tmp_path / "m.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        code, out, _ = run_main(["recursion", str(path), "--no-timestamp"])
        assert code == 0
        assert (
            "measure: 0.0833333333333333*delta_0.0, 0.08333333333333336*delta_4.999999999999999\n"
            in out
        )
        gamma = MomentSequence.of(values)
        assert recover_atoms(detect_recursion(gamma, 4, EXACT), gamma).atoms == (0, 5)

    @pytest.mark.parametrize("horizon", [8, 12, 16])
    def test_float_recursion_above_a_small_pivot(self, tmp_path, horizon):
        # the exact order-3 relative pivot is 2.9e-11, inside rel_eps, so
        # float rank stops at order 3, whose rounded fit does not hold; the
        # order-4 fit does, as in exact mode
        atoms = (F(25, 3), F(26, 3), F(9), F(19, 2))
        values = _moments(atoms, (F(21, 16), F(1, 84), F(47, 12), F(11, 8)), horizon)
        gamma = MomentSequence.of([float(v) for v in values])
        assert gamma.ladder(FLOAT).rank == (3, None)
        assert detect_recursion(gamma, 4, FLOAT).order == 4
        assert detect_recursion(MomentSequence.of(values), 4, EXACT).order == 4
        path = tmp_path / "m.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        code, out, _ = run_main(["recursion", str(path), "--no-timestamp"])
        assert code == 0
        assert "recursion: order 4, coefficients (-6174.85" in out
        assert "measure: 1.31249" in out

    @pytest.mark.parametrize("horizon", [8, 12, 16])
    def test_float_witness_below_the_recursion_is_named(self, tmp_path, horizon):
        # the same input: the float witness, anchor 0 at order 3, is the
        # rank's small relative pivot, below the order-4 recursion printed
        # beside it; a warning says so, and no verdict moves
        atoms = (F(25, 3), F(26, 3), F(9), F(19, 2))
        values = _moments(atoms, (F(21, 16), F(1, 84), F(47, 12), F(11, 8)), horizon)
        path = tmp_path / "m.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        code, out, _ = run_main(["recursion", str(path), "--no-timestamp"])
        assert code == 0
        assert "recursion: order 4, " in out
        assert "finite mass: yes (vanishing determinant at anchor 0, order 3)\n" in out
        assert out.endswith(
            "warning: float mode: the finite-mass witness (anchor 0, order 3), below the "
            "order-4 recursion, is a relative pivot within rel_eps = 1e-10, not an exactly "
            "vanishing determinant\n"
        )
        # exact mode on the doubles' binary values names no such witness
        _, out, _ = run_main(["recursion", str(path), "--exact", "--no-timestamp"])
        assert "relative pivot" not in out
