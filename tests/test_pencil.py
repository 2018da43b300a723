"""The pencil engine's polynomials and root isolations.

`perturbation._pencil_poly` builds p(t) = det(H + t*D) at its true degree,
reading determinants off the ladder where it can.  The reference below is
the interpolation it replaced: p at t = 0..k+1, one `det_bareiss` each.
The new p must be a positive multiple of the reference's, and the interval
reports built from either must be equal.  Work counts pin the number of
determinants and of root isolations, and the near-1 endpoint cases pin
exact dyadic endpoints where the inside double would be 1.0.
"""

from __future__ import annotations

import json
import random
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
    MomentSequence,
    det_bareiss,
    is_psd,
    moments_of,
    perturbed_block,
    stability_interval,
)

from gen import bergman_moments, logconvex_moments
from test_fuzz_cli import run_main


def reference_poly(gamma: MomentSequence, n: int, k: int, cut: int, ctx=EXACT) -> list[int]:
    # (k+1)! p over the integers G of integer_view, from k+2 determinants.
    g = gamma.integer_view[0]
    size = range(k + 1)
    h = [[g[n + i + j] if n + i + j <= cut else 0 for j in size] for i in size]
    d = [[g[n + i + j] - h[i][j] for j in size] for i in size]
    values = [
        int(det_bareiss([[h[i][j] + t * d[i][j] for j in size] for i in size]))
        for t in range(k + 2)
    ]
    return perturbation._interpolate(values)


def bareiss_poly(gamma: MomentSequence, n: int, k: int, cut: int) -> list[int]:
    # The true-degree polynomial as float mode once built it: q at t =
    # 0..deg q, every point a `det_bareiss` (none read off the ladder).
    s = cut - n + 1
    z = max(0, k + 1 - s)
    deg = min(k + 1, 2 * k + 1 - s) - z
    g = gamma.integer_view[0]

    def rows(t: int) -> list[list[int]]:
        return [
            [v * t if i < s <= i + j else v for j, v in enumerate(g[n + i:n + i + k + 1])]
            for i in range(k + 1)
        ]

    return perturbation._interpolate([int(det_bareiss(rows(t))) for t in range(deg + 1)]) + [0] * z


def _stripped(poly: list[int]) -> list[int]:
    return poly[next((i for i, c in enumerate(poly) if c), len(poly)):]


def positive_multiples(a: list[int], b: list[int]) -> bool:
    # a = c * b for some rational c > 0 (both zero counts).
    a, b = _stripped(a), _stripped(b)
    if not a or not b:
        return not a and not b
    return (
        len(a) == len(b)
        and a[0] * b[0] > 0
        and all(x * b[0] == y * a[0] for x, y in zip(a, b))
    )


_atom = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
_density = st.fractions(min_value=F(1, 5), max_value=3, max_denominator=5)
# exact mode on exact values, exact mode on doubles, float mode on doubles
_MODES = st.sampled_from([(EXACT, False), (EXACT, True), (FLOAT, True)])


@st.composite
def pencil_cases(draw):
    # Bergman, log-convex and atomic inputs at k = 1..4.  Atomic measures
    # have 1..k+2 atoms: with r <= k atoms the blocks are singular and, at
    # low anchors, the pencil vanishes identically.
    k = draw(st.integers(1, 4))
    cut = draw(st.integers(1, 2 * k + 1))
    horizon = cut + 2 * k
    kind = draw(st.sampled_from(["bergman", "logconvex", "atomic"]))
    if kind == "bergman":
        gamma = bergman_moments(horizon)
    elif kind == "logconvex":
        gamma = logconvex_moments(random.Random(draw(st.integers(0, 10**6))), horizon)
    else:
        atoms = sorted(draw(st.sets(_atom, min_size=1, max_size=k + 2)))
        dens = draw(st.lists(_density, min_size=len(atoms), max_size=len(atoms)))
        gamma = moments_of(AtomicMeasure(tuple(atoms), tuple(dens)), horizon)
    ctx, as_float = draw(_MODES)
    if as_float:
        gamma = MomentSequence.of(float(v) for v in gamma.values)
    return gamma, cut, k, ctx


def _outcome(gamma: MomentSequence, cut: int, k: int, ctx):
    try:
        return repr(stability_interval(gamma, cut, k, ctx))
    except Exception as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(pencil_cases())
    # One atom at k = 2: p is identically 0 at the lowest anchors.
    @example((moments_of(AtomicMeasure((F(2),), (F(1),)), 7), 3, 2, EXACT))
    # Two atoms at k = 3: singular blocks at t = 1 and vanishing pencils.
    @example((moments_of(AtomicMeasure((F(1), F(2)), (F(1), F(1))), 11), 5, 3, EXACT))
    def test_polynomial_and_report_match_the_reference(self, case):
        gamma, cut, k, ctx = case
        for n in range(max(0, cut - 2 * k + 1), cut + 1):
            got = perturbation._pencil_poly(MomentSequence(gamma.values), n, k, cut, ctx)
            want = reference_poly(gamma, n, k, cut)
            assert positive_multiples(got, want), (n, got, want)
        fresh = MomentSequence(gamma.values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perturbation, "_pencil_poly", reference_poly)
            reference = _outcome(fresh, cut, k, ctx)
        assert _outcome(MomentSequence(gamma.values), cut, k, ctx) == reference

    @settings(max_examples=100, deadline=None)
    @given(pencil_cases().filter(lambda case: case[2] <= 3))
    def test_float_mode_reads_the_ladder_as_exact_mode_does(self, case):
        # Both modes read q(1), and at the cut and lowest anchors all of q,
        # off the ladder's integers: the same coefficients as taking every
        # point with det_bareiss.
        gamma, cut, k, _ = case
        for n in range(max(0, cut - 2 * k + 1), cut + 1):
            want = bareiss_poly(gamma, n, k, cut)
            for ctx in (FLOAT, EXACT):
                got = perturbation._pencil_poly(MomentSequence(gamma.values), n, k, cut, ctx)
                assert got == want, (n, ctx.mode, got, want)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_true_degree_and_zero_order_at_every_anchor(self, k):
        # deg p = min(k+1, 2k+1-s) and p = t^z q with q(0) != 0, z =
        # max(0, k+1-s), on a PD sequence where no coefficient cancels.
        cut = 2 * k + 1
        gamma = bergman_moments(cut + 2 * k)
        for n in range(1, cut + 1):
            s = cut - n + 1
            p = perturbation._pencil_poly(gamma, n, k, cut, EXACT)
            z = max(0, k + 1 - s)
            assert p[0] != 0 and len(p) - 1 == min(k + 1, 2 * k + 1 - s)
            assert p[len(p) - z:] == [0] * z and p[len(p) - z - 1] != 0


def _counting_dets(mp: pytest.MonkeyPatch) -> list:
    # Every determinant the pencil engine and the ladder take runs in the
    # integer kernel `numkit._int_det`; each call is recorded.
    calls = []
    int_det = perturbation._int_det

    def counting(rows):
        calls.append(rows)
        return int_det(rows)

    mp.setattr(perturbation, "_int_det", counting)
    mp.setattr(hankel, "_int_det", counting)
    return calls


def _count_dets(gamma, cut, k):
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_dets(mp)
        stability_interval(gamma, cut, k)
    return len(calls)


class TestWorkCount:
    @pytest.mark.parametrize(
        "gamma, cut",
        [
            (bergman_moments(14), 3),
            (bergman_moments(14), 1),
            (moments_of(AtomicMeasure((F(1), F(2), F(3)), (F(1), F(2), F(1))), 10), 4),
        ],
        ids=["bergman-cut3", "bergman-cut1", "three-atoms"],
    )
    def test_order_one_takes_no_determinant(self, gamma, cut):
        # Both anchors are read off the ladder: the cut one by the rank-one
        # expansion, the lowest one by its corner.
        assert _count_dets(gamma, cut, 1) == 0

    def test_order_two_takes_four_determinants(self):
        # Anchors cut-1 and cut-2 take q at t = 0 and 2 (q(1) is the
        # ladder's); anchors cut and cut-3 take none.  k+2 points at each
        # of the 4 anchors took 16.
        assert _count_dets(bergman_moments(14), 3, 2) == 4

    @pytest.mark.parametrize("k, exact, floats", [(1, 0, 0), (2, 4, 4), (3, 8, 8)])
    def test_float_perturb_takes_the_determinants_exact_mode_takes(
        self, tmp_path, k, exact, floats
    ):
        # Float mode reads the ladder as exact mode does (it took 4, 11 and
        # 13 determinants when it read none), and its order-2 closed form
        # takes the bordered corner determinant on the integer view too (a
        # fifth determinant at k = 2 when it computed in doubles).
        csv = tmp_path / "bergman.csv"
        csv.write_text("".join(f"{1 / (n + 1)!r}\n" for n in range(15)))
        counts = []
        for mode in ("--exact", "--float"):
            with pytest.MonkeyPatch.context() as mp:
                calls = _counting_dets(mp)
                argv = ["perturb", str(csv), "--l", "3", "--k", str(k), mode, "--json"]
                assert run_main(argv)[0] == 0
            counts.append(len(calls))
        assert counts == [exact, floats]

    @pytest.mark.parametrize("k", [2, 3])
    def test_perturb_isolates_each_polynomial_once(self, tmp_path, k):
        # The closed form's quadratics at anchors cut-2 and cut-1 are the
        # pencil polynomials there once t is divided out: one isolation
        # serves both, and no polynomial is isolated twice.
        seen = []
        isolate = perturbation._isolate

        def recording(poly):
            seen.append(perturbation._primitive(poly))
            return isolate(poly)

        path = tmp_path / "bergman.json"
        path.write_text(
            json.dumps({"kind": "moments", "values": [f"1/{n + 1}" for n in range(15)]})
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perturbation, "_isolate", recording)
            code, _, _ = run_main(["perturb", str(path), "--l", "3", "--k", str(k), "--json"])
        assert code == 0
        assert len(seen) == len(set(seen))
        # one polynomial per t-dependent anchor, the closed form adding none
        assert len(seen) == len(range(max(0, 3 - 2 * k + 1), 4))
        if k == 2:
            gamma = bergman_moments(14)
            for n in (1, 2):
                quadratic = perturbation._primitive(perturbation.det_quadratic(gamma, 3, n))
                assert quadratic in seen

    def test_sign_of_the_polynomial_does_not_split_the_cache(self):
        gamma = bergman_moments(6)
        poly = [F(3), F(-7), F(2)]
        first = perturbation._roots(gamma, poly)
        assert perturbation._roots(gamma, [-2 * c for c in poly]) is first
        assert perturbation._primitive([-6, 14, -4]) == (3, -7, 2)


def _cli_report(tmp_path, doc: dict, cut: int, k: int) -> tuple[int, dict]:
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_main(["perturb", str(path), "--l", str(cut), "--k", str(k), "--json"])
    return code, json.loads(out)


def _measure(atoms, dens, horizon):
    return {
        "kind": "measure",
        "atoms": [f"{a}/1" for a in atoms],
        "densities": [f"{d}/1" for d in dens],
        "horizon": horizon,
    }


class TestEndpointsNextToOne:
    # Pencil roots within half an ulp of 1, on either side: the double next
    # to them inside is 1.0, which would put 1 on the boundary although
    # every block is PD.  The endpoint is the first dyadic 1 -+ 2^-m inside.
    @pytest.mark.parametrize(
        "atoms, dens, horizon, cut, k, anchors",
        [
            ((3, 9, 2000), (3, 3, 1), 13, 9, 2, None),
            ((5, 8, 9, 17, 32, 37), (4, 4, 4, 2, 1, 4), 80, 40, 3, range(36, 40)),
        ],
        ids=["three-atoms-horizon-13", "six-atoms-horizon-80"],
    )
    def test_interior_one_stays_interior(self, tmp_path, atoms, dens, horizon, cut, k, anchors):
        code, doc = _cli_report(tmp_path, _measure(atoms, dens, horizon), cut, k)
        assert code == 0
        results = doc["results"]
        assert results["interiority"]["interior"] and results["interiority"]["agreement"]
        assert results["interiority"]["pd_all"]
        gamma = moments_of(AtomicMeasure(tuple(map(F, atoms)), tuple(map(F, dens))), horizon)
        report = stability_interval(gamma, cut, k)
        dyadic = []
        for n, iv in report.per_block.items():
            for t, method, side in zip((iv.lo, iv.hi), report.methods[n], (-1, 1)):
                if isinstance(t, F) and t != 1 and abs(t - 1).numerator == 1:
                    m = abs(t - 1).denominator.bit_length() - 1
                    if abs(t - 1).denominator == 1 << m and m >= 53:
                        assert method == "pencil_root" and (t - 1) * side > 0
                        # certified, and the dyadic one step nearer the root is not
                        assert is_psd(perturbed_block(gamma, n, k, cut, t))
                        if m > 53:
                            assert not is_psd(perturbed_block(gamma, n, k, cut, 1 + 2 * (t - 1)))
                        dyadic.append(n)
                assert t != 1
        assert dyadic
        if anchors is not None:
            assert set(anchors) <= set(dyadic)

    def test_order_two_closed_form_hands_near_one_roots_to_the_engine(self, tmp_path):
        # An irrational root of a determinant quadratic within half an ulp
        # of 1 would be the closed-form endpoint 1.0 and close the interval
        # on 1; the anchor goes to the pencil engine, flagged.
        code, doc = _cli_report(tmp_path, _measure((3, 9, 2000), (3, 3, 1), 13), 9, 2)
        assert code == 0
        closed = doc["results"]["closed_form"]
        lo, hi = (F(closed["intersection"][end]) for end in ("lo", "hi"))
        assert lo < 1 < hi and closed["one_interior"]
        assert "anchor 8: a determinant-quadratic root rounds to 1.0; pencil engine used" in (
            closed["flags"]
        )
        assert closed["per_block"]["8"]["lo_method"] == "pencil_root"

    def test_exact_mode_warns_about_double_engine_endpoints(self, tmp_path):
        code, doc = _cli_report(tmp_path, _measure((1, 2, 3, 5), (1, 1, 1, 1), 14), 6, 3)
        assert code == 0
        doubles = [
            x
            for iv in doc["results"]["bisection"]["per_block"].values()
            for x in (iv["lo"], iv["hi"])
            if "." in x
        ]
        assert "0.9999978680431791" in doubles and "1.0000025330026008" in doubles
        assert doc["warnings"] == [
            f"exact mode: {len(doubles)} pencil-engine endpoint(s) are doubles (next to "
            "irrational roots, inside the admissible set), not exact values"
        ]
