"""Differential tests of the integer real-root kernel.

`real_roots` reads linear and quadratic roots off directly; from degree 3
on it builds its Sturm chain from content-free integer pseudo-remainders
and refines each isolated root by quadratic interval refinement.  The
Fraction computation it replaced lives on below as the reference oracle:
the Sturm chain by long division over Fractions, the refinement by
halving, and the screen that skipped the rational-root test when the
polynomial has no root modulo some small prime.  Both must return
the same roots (a Fraction for a rational root, else the correctly rounded
double), the same None for a repeated root and the same PreconditionError.
"""

from __future__ import annotations

import fractions
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelshift.numkit as numkit
from hankelshift import (
    PreconditionError,
    real_roots,
    squarefree,
    stability_interval_k1,
    stability_interval_k2,
)

from gen import bergman_moments

# ------------------------------------------------------------ the reference


def _deriv(poly: list[F]) -> list[F]:
    d = len(poly) - 1
    return [c * (d - i) for i, c in enumerate(poly[:-1])]


def _divmod(a: list[F], b: list[F]) -> tuple[list[F], list[F]]:
    rem, quot = list(a), []
    while len(rem) >= len(b):
        factor = rem[0] / b[0]
        quot.append(factor)
        for i in range(len(b)):
            rem[i] -= factor * b[i]
        rem.pop(0)
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem


def sturm_chain_reference(poly) -> list[list[F]]:
    """poly, poly', then the negated Euclidean remainders over Fractions."""
    if any(isinstance(c, float) and not math.isfinite(c) for c in poly):
        raise PreconditionError("polynomial coefficients must be finite")
    poly = [F(c) for c in poly]
    while poly and poly[0] == 0:
        poly.pop(0)
    if not poly:
        raise PreconditionError("the zero polynomial has no isolated roots")
    chain = [poly, _deriv(poly)]
    while chain[-1]:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    return chain


def squarefree_reference(poly) -> list[F]:
    chain = sturm_chain_reference(poly)
    return _divmod(chain[0], chain[-1])[0]


def _primitive(poly: list[F]) -> list[int]:
    den = math.lcm(*[c.denominator for c in poly])
    ints = [int(c * den) for c in poly]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _value(poly: list[int], num: int, den: int) -> int:
    acc, power = 0, 1
    for c in poly:
        acc = acc * num + c * power
        power *= den
    return acc


def _changes(values: list[int]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_roots_reference(poly):
    """Isolation by halving on the Fraction chain, refinement by halving."""
    chain = sturm_chain_reference(poly)
    if len(chain[0]) == 1:
        return []
    if len(chain[-1]) > 1:
        return None
    chain = [_primitive(p) for p in chain]
    h = chain[0]
    lead = abs(h[0])

    def changes_at(num: int, e: int) -> int:
        return _changes([_value(p, num, 1 << e) for p in chain])

    top = 1 << (-(-max(abs(c) for c in h[1:]) // lead)).bit_length()
    roots = []
    irrational = any(
        lead % p and all(_value([c % p for c in h], x, 1) % p for x in range(p))
        for p in (13, 17, 19, 23, 29)
    )
    todo = [(-top, top, 0, changes_at(-top, 0), changes_at(top, 0))]
    while todo:
        a, b, e, va, vb = todo.pop()
        if va - vb == 1:
            roots.append(refine_reference(h, lead, a, b, e, irrational))
        elif va - vb > 1:
            vm = changes_at(a + b, e + 1)
            todo.append((a + b, 2 * b, e + 1, vm, vb))
            todo.append((2 * a, a + b, e + 1, va, vm))
    return roots


def _double(num: int, e: int) -> float | None:
    try:
        return num / (1 << e)
    except OverflowError:
        return None


def refine_reference(h, lead, a, b, e, irr):
    value = _value(h, b, 1 << e)
    if value == 0:
        return F(b, 1 << e)
    sign_b = value > 0
    lattice_tested = irr
    while True:
        if not lattice_tested and (b - a) * lead < 1 << e:
            m = (b * lead) >> e
            if m << e > a * lead and _value(h, m, lead) == 0:
                return F(m, lead)
            lattice_tested = True
        if lattice_tested:
            ends = [_double(x, e) for x in (a, b)]
            if None not in ends and ends[0] == ends[1]:
                return ends[0]
            # No double holds the root once both ends lie past the double
            # range on one side; one end past it says nothing yet.
            if ends == [None, None] and (a > 0) == (b > 0):
                raise PreconditionError(
                    "an irrational root lies beyond the double range; no double "
                    "can hold it"
                )
        a, b, e, mid = 2 * a, 2 * b, e + 1, a + b
        value = _value(h, mid, 1 << e)
        if value == 0:
            return F(mid, 1 << e)
        if (value > 0) == sign_b:
            b = mid
        else:
            a = mid


# ---------------------------------------------------------------- helpers


def _outcome(fn, poly):
    try:
        return "ok", fn(poly)
    except PreconditionError as exc:
        return "error", str(exc)


def _same_outcome(poly) -> None:
    got, want = _outcome(real_roots, poly), _outcome(real_roots_reference, poly)
    assert got == want
    if got[0] == "ok" and got[1] is not None:
        # a Fraction exactly when the reference has one
        assert [type(r) for r in got[1]] == [type(r) for r in want[1]]


def _positive_multiple(ints: list[int], ref: list[F]) -> bool:
    return (
        len(ints) == len(ref)
        and all(type(c) is int for c in ints)
        and ints[0] * ref[0] > 0
        and all(x * ref[0] == r * ints[0] for x, r in zip(ints, ref))
    )


def _mul(p: list[F], q: list[F]) -> list[F]:
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _as_kind(poly: list[F], kind: str) -> list:
    # Fraction coefficients as given, or scaled to ints, or (when exact) as floats
    if kind == "int":
        den = math.lcm(*[c.denominator for c in poly])
        return [int(c * den) for c in poly]
    if kind == "float" and all(F(float(c)) == c for c in poly):
        return [float(c) for c in poly]
    return poly


# The smallest value that rounds past the largest double: (2 - 2^-53) 2^1023.
_PAST_DOUBLES = 2**1024 - 2**970

_COEFF = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
    st.floats(min_value=-60, max_value=60, allow_nan=False, allow_infinity=False),
)

# Rational roots m/q with q past 2^60: the lattice test runs far below the
# double precision of the root.
_BIG_LEAD_ROOT = st.builds(
    lambda m, q: F(m, q), st.integers(-(2**66), 2**66), st.integers(2**60, 2**64)
)
_DYADIC_ROOT = st.builds(lambda k, j: F(k, 1 << j), st.integers(-64, 64), st.integers(0, 70))
_SMALL_ROOT = st.fractions(min_value=-8, max_value=8, max_denominator=12)
# c x^2 - d with d/c not a rational square: two irrational roots
_IRRATIONAL_PAIR = st.tuples(st.integers(1, 2**70), st.integers(1, 2**70)).filter(
    lambda cd: math.isqrt(cd[0] * cd[1]) ** 2 != cd[0] * cd[1]
)


@st.composite
def _factored(draw) -> list[F]:
    roots = draw(
        st.lists(st.one_of(_BIG_LEAD_ROOT, _DYADIC_ROOT, _SMALL_ROOT), max_size=4, unique=True)
    )
    pairs = draw(st.lists(_IRRATIONAL_PAIR, max_size=2))
    poly = [draw(st.sampled_from([F(1), F(-3), F(7, 2)]))]
    for r in roots:
        poly = _mul(poly, [F(r.denominator), F(-r.numerator)])
    for c, d in pairs:
        shift = draw(_SMALL_ROOT)
        # c (x - shift)^2 - d
        poly = _mul(poly, [F(c), -2 * c * shift, c * shift * shift - d])
    return poly


# ------------------------------------------------------------------- tests


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_COEFF, min_size=1, max_size=7))
    @example([0, 0])
    @example([5])
    @example([0.5, 0, -2])
    @example([2.225073858507e-311, 0, 0, 1])  # root -3.6e103, isolated from +-2^1033
    # (x - 1)(x^2 - (E^2 - 1)), E = _PAST_DOUBLES: the irrational roots lie
    # just inside the double range and round to -+ the largest double
    @example([1, -1, 1 - _PAST_DOUBLES**2, _PAST_DOUBLES**2 - 1])
    def test_mixed_coefficients(self, poly):
        _same_outcome(poly)

    @settings(max_examples=200, deadline=None)
    @given(_factored(), st.sampled_from(["fraction", "int", "float"]))
    def test_factored_polynomials(self, poly, kind):
        _same_outcome(_as_kind(poly, kind))

    @settings(max_examples=100, deadline=None)
    @given(_factored(), st.data())
    def test_repeated_roots(self, poly, data):
        factor = data.draw(
            st.sampled_from([[F(1), F(0), F(-2)], [F(3), F(-1)], [F(1), F(0)], [F(1), F(0), F(1)]])
        )
        repeated = _mul(_mul(poly, factor), factor)
        assert real_roots(repeated) is None
        assert real_roots_reference(repeated) is None
        _same_outcome(squarefree(repeated))
        assert real_roots(squarefree(repeated)) == real_roots_reference(
            squarefree_reference(repeated)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(_COEFF, min_size=1, max_size=7),
            _factored(),
            _factored().map(lambda p: _mul(p, p)),
        )
    )
    def test_chain_and_squarefree_are_positive_multiples(self, poly):
        try:
            want = sturm_chain_reference(poly)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                numkit._sturm_chain(poly)
            return
        got = numkit._sturm_chain(poly)
        assert len(got) == len(want)
        assert all(_positive_multiple(g, w) for g, w in zip(got, want))
        assert all(math.gcd(*member) == 1 for member in got)
        sq = squarefree(poly)
        assert _positive_multiple(sq, squarefree_reference(poly))
        assert math.gcd(*sq) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-300, max_value=1e300),
        st.integers(3, 60),
        st.sampled_from([3, 2, 5, 7]),
        st.sampled_from([1, -1]),
    )
    @example(1.0, 3, 3, 1)
    @example(0.1, 3, 3, -1)
    @example(1.0, 5, 7, 1)  # sqrt(7)/16 ulp from the midpoint, inside ulp/4
    @example(5e-324, 5, 3, -1)  # subnormal roots
    def test_roots_next_to_a_rounding_midpoint(self, d, extra, c, sign):
        # (x - M)^2 - c * 4^-k: the roots M -+ sqrt(c) 2^-k straddle the
        # midpoint M between the doubles d and next(d) = d + ulp, within
        # sqrt(c) 2^(1-extra) ulp of it (2^-k <= ulp/4; inside ulp/4 from
        # extra = 5 on); they round to d and next(d).
        ulp = math.ulp(d)
        mid = F(d) + F(ulp) / 2
        k = -math.frexp(ulp)[1] + extra
        delta2 = c / F(4) ** k
        poly = [F(1), -2 * mid, mid * mid - delta2]
        if sign < 0:
            poly = [poly[0], -poly[1], poly[2]]
        want = [d, d + ulp] if sign > 0 else [-(d + ulp), -d]
        assert real_roots(poly) == want
        assert real_roots_reference(poly) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1000, 1040), st.sampled_from([2, 3, 4]), st.sampled_from(["int", "fraction"]))
    @example(1023, 3, "int")
    @example(1024, 2, "fraction")
    @example(1100, 2, "int")
    def test_roots_beyond_the_double_range(self, e, c, kind):
        # x^2 - c 4^e: the roots -+sqrt(c) 2^e, rational for c = 4
        poly = _as_kind([F(1), F(0), F(-c * 4**e)], kind)
        _same_outcome(poly)
        if c == 4:
            return
        if e >= 1024:
            # past the largest double: the same error as the reference
            with pytest.raises(PreconditionError, match="beyond the double range"):
                real_roots(poly)
        else:
            x = math.sqrt(c) * 2.0**e
            assert real_roots(poly) == [-x, x]


@st.composite
def _quadratic(draw) -> list[int]:
    # a x^2 + b x + c over wide ints, times a content and a sign
    a = draw(st.integers(-(2**80), 2**80).filter(bool))
    b, c = draw(st.integers(-(2**80), 2**80)), draw(st.integers(-(2**80), 2**80))
    f = draw(st.sampled_from([1, -1, 6, -35, 2**64 + 13]))
    return [f * a, f * b, f * c]


class TestQuadraticReadOff:
    """Quadratics leave the Sturm chain: their roots are read off the
    discriminant, by `math.isqrt` brackets when irrational.  Each must give
    the reference's outcome and types.  Roots next to a rounding midpoint
    and past the double range are quadratics in `TestAgainstReference`."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_quadratic(), st.lists(_COEFF, min_size=3, max_size=3)))
    @example([-1, 0, 2])  # negative leading coefficient
    @example([6, 0, -12])  # content 6
    @example([12, 12, 3])  # disc 0: None
    @example([-4, 4, -1])  # disc 0, negative lead
    @example([1, 1, 1])  # disc < 0
    @example([0, 0, 7])  # a constant: no roots
    @example([0, 3, -1])  # linear
    @example([1.0, 1.0, 5e-324])  # a subnormal root next to -1
    @example([1, 0, -(_PAST_DOUBLES**2 - 1)])  # just below the rounding edge
    @example([1, 0, -(_PAST_DOUBLES**2 + 1)])  # just past it
    def test_quadratics(self, poly):
        _same_outcome(poly)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(_BIG_LEAD_ROOT, _DYADIC_ROOT, _SMALL_ROOT), min_size=2, max_size=2),
        st.sampled_from([F(1), F(-3), F(7, 2)]),
    )
    def test_rational_roots(self, roots, lead):
        # (q1 x - m1)(q2 x - m2): two Fractions, or None for a double root
        poly = [lead]
        for r in roots:
            poly = _mul(poly, [F(r.denominator), F(-r.numerator)])
        _same_outcome(poly)
        if roots[0] != roots[1]:
            assert real_roots(poly) == sorted(roots)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2**40), st.integers(1070, 1140))
    @example(2, 1074)
    @example(4, 1075)
    @example(3, 1100)
    def test_subnormal_roots(self, c, e):
        # 4^e x^2 - c: the roots -+sqrt(c) 2^-e, subnormal or below them
        _same_outcome([4**e, 0, -c])


class TestWorkCount:
    """Evaluations of the integer polynomial (`_scaled_value` calls),
    Sturm-chain isolation included.  Refinement by halving spends about
    one evaluation per bit of each root (the reference counts are in the
    comments); quadratic refinement about two per doubling of the bits.
    Linear and quadratic roots are read off and evaluate nothing."""

    # the float pencil det(H + tD) of an order-2 block, as float mode passes it
    PENCIL = [
        16564191232297356767832712147598427400045755538579419134069527117824,
        -53406370540641276152284656159673838714048441838981256084480274743296,
        57062163762173263981268725017798662668819886044340831614509628882944,
        -20219960000362979846000261315264723005227858316905429360827707686912,
    ]

    @staticmethod
    def _count(monkeypatch, poly) -> int:
        calls = []
        value = numkit._scaled_value

        def counted(*args):
            calls.append(args)
            return value(*args)

        monkeypatch.setattr(numkit, "_scaled_value", counted)
        real_roots(poly)
        return len(calls)

    def test_x_squared_minus_two(self, monkeypatch):
        # halving: 140 evaluations; read off the discriminant by isqrt
        assert self._count(monkeypatch, [1, 0, -2]) == 0

    def test_x_cubed_minus_two(self, monkeypatch):
        # the smallest cubic: Sturm isolation and quadratic refinement
        assert self._count(monkeypatch, [1, 0, 0, -2]) == 23
        assert real_roots([1, 0, 0, -2]) == real_roots_reference([1, 0, 0, -2])

    def test_degree_3_pencil(self, monkeypatch):
        # halving: 694 evaluations
        assert self._count(monkeypatch, self.PENCIL) == 94
        assert real_roots(self.PENCIL) == real_roots_reference(self.PENCIL)

    def test_linear_root_costs_no_evaluation(self, monkeypatch):
        assert self._count(monkeypatch, [3, -1]) == 0


_COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}


def _record_fraction_ops(monkeypatch) -> list[tuple[str, str, str]]:
    # (op, module, function) of every Fraction operation from here on; the
    # function is the first caller outside fractions, comprehensions and
    # these counters.
    ops = []
    names = (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__", "_richcmp",
    )
    for name in names:
        method = getattr(F, name)

        def counting(*args, _method=method, _name=name):
            frame = sys._getframe(1)
            while (
                frame.f_code.co_filename == fractions.__file__
                or frame.f_code.co_name in _COMPREHENSIONS
                or frame.f_code is counting.__code__  # an op inside an op
            ):
                frame = frame.f_back
            module = Path(frame.f_code.co_filename).stem
            ops.append((_name, module, frame.f_code.co_name))
            return _method(*args)

        monkeypatch.setattr(F, name, counting)
    return ops


# Where the closed forms' endpoints are built and compared: the order check
# of an Interval, the order-1 rounding check, the order-2 choice among
# candidate bounds, and the intersection.
_ENDPOINT_COMPARES = {
    ("numkit", "__post_init__"),
    ("perturbation", "stability_interval_k1"),
    ("perturbation", "closed"),
    ("perturbation", "stability_interval_k2"),
    ("perturbation", "_assemble_report"),
}


def test_kernel_does_no_fraction_arithmetic(monkeypatch):
    # Fraction coefficients are read once as integer ratios; a Fraction is
    # only built for a returned rational root.  The exact closed forms of
    # the perturbation module compute on the integer view, so Fractions are
    # only built and compared as endpoints.
    bergman_8, bergman_14 = bergman_moments(8), bergman_moments(14)
    ops = _record_fraction_ops(monkeypatch)
    poly = [F(3, 2), F(-7, 4), F(-1), F(1)]  # (3x - 2)(2x^2 - x - 2) / 4
    roots = real_roots(poly)
    squarefree(poly)
    rational = real_roots([F(1, 3), F(-1, 3), F(-2)])  # (x + 2)(x - 3) / 3
    irrational = real_roots([F(1, 2), 0, F(-1)])  # (x^2 - 2) / 2
    positive = [bergman_8.strictly_positive, bergman_14.strictly_positive]
    kernel_ops = list(ops)
    k1 = stability_interval_k1(bergman_8, 1)
    reports = [stability_interval_k2(bergman_14, cut) for cut in range(1, 11)]
    closed_ops = ops[len(kernel_ops):]
    monkeypatch.undo()

    assert kernel_ops == []
    assert roots[1] == F(2, 3)
    assert [type(r) for r in roots] == [float, F, float]
    assert rational == [F(-2), F(3)] and all(type(r) is F for r in rational)
    assert irrational == [-math.sqrt(2), math.sqrt(2)]
    assert positive == [True, True]
    assert closed_ops  # the endpoints were compared
    assert {tuple(caller) for _, *caller in closed_ops} <= _ENDPOINT_COMPARES
    assert (k1.lo, k1.hi) == (F(3, 4), F(9, 8))
    assert all(r.one_interior and not r.flags for r in reports)
