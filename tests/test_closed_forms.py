"""Differential tests of the order-1 and order-2 closed forms.

The closed forms compute over the integers of `MomentSequence.integer_view`
(floats at their binary values) and build one Fraction per bound, or on a
sequence with a float its correctly rounded double; their quadratics are
D^3 times `det_quadratic`, whose roots `real_roots` reads off the
discriminant.  The reference below computes every bound and coefficient in
Fraction arithmetic over the binary values and rounds a float sequence's
values once with `float(Fraction)`; the quadratics' roots come from the
test oracle `real_roots_reference` (Sturm chain over Fractions, halving).
The pencil engine fallback and the report assembly are the package's own.
Both must give the same report, repr for repr, or the same error.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelshift import (
    EXACT,
    FLOAT,
    Interval,
    MomentSequence,
    PreconditionError,
    WeightSequence,
    det_quadratic,
    is_k_positive,
    log_convexity,
    stability_interval_k1,
    stability_interval_k2,
    weights_to_moments,
)
from hankelshift.numkit import HankelshiftError
from hankelshift.perturbation import _assemble_report, _pencil_block

from gen import bergman_moments, k_positive_moments, logconvex_moments, measure_moments
from test_real_roots import real_roots_reference

# ------------------------------------------------------------ the reference


def _floaty(gamma):
    return any(isinstance(v, float) for v in gamma.values)


def _exactify(*values):
    # Every value at its exact (binary) value.
    return tuple(Fraction(v) for v in values)


_PAST_THE_RANGE = "a closed-form value of the float moments lies beyond the double range"


def _round(gamma, x):
    # A Fraction as a closed form returns it: itself on an exact sequence,
    # rounded once on a sequence with a float, which must stay finite.
    if not _floaty(gamma):
        return x
    try:
        return float(x)
    except OverflowError:
        raise PreconditionError(_PAST_THE_RANGE) from None


def k1_reference(gamma, cut, ctx=EXACT):
    if cut < 1:
        raise PreconditionError("cut index must be >= 1")
    if not all(v > 0 for v in gamma.values):
        raise PreconditionError("all moments must be strictly positive")
    if not log_convexity(gamma, ctx):
        raise PreconditionError(
            "sequence is not 1-positive; admissible scales need not form an "
            "interval around 1"
        )
    a, b, c, d = _exactify(gamma[cut - 1], gamma[cut], gamma[cut + 1], gamma[cut + 2])
    lo, hi = _round(gamma, b * b / (a * c)), _round(gamma, b * d / (c * c))
    one = 1.0 if _floaty(gamma) else Fraction(1)
    return Interval(min(lo, one), max(hi, one))


def det_quadratic_reference(gamma, cut, anchor):
    l = cut
    if anchor == cut - 2:
        g2, g1, g0, p1, p2 = _exactify(*(gamma[i] for i in range(l - 2, l + 3)))
        return (-g2 * p1 * p1, g2 * g0 * p2 + 2 * g1 * g0 * p1 - g1 * g1 * p2, -g0 * g0 * g0)
    g1, g0, p1, p2, p3 = _exactify(*(gamma[i] for i in range(l - 1, l + 4)))
    return (-p1 * p1 * p1, g1 * p1 * p3 + 2 * g0 * p1 * p2 - g1 * p2 * p2, -g0 * g0 * p3)


def corner_lower_reference(gamma, cut):
    l = cut
    g3, g2, g1, g0, p1 = _exactify(*(gamma[i] for i in range(l - 3, l + 2)))
    d = g3 * g1 - g2 * g2
    if d == 0:
        return None
    big_d = g2 * g0 - g1 * g1
    return _round(gamma, (g0 * g0 * d + big_d * big_d) / (g1 * p1 * d))


def corner_upper_reference(gamma, cut):
    l = cut
    g0, p1, p2, p3, p4 = _exactify(*(gamma[i] for i in range(l, l + 5)))
    minor = p2 * p4 - p3 * p3
    # det [[0, p1, p2], [p1, p2, p3], [p2, p3, p4]] by the first row
    bordered = -p1 * (p1 * p4 - p3 * p2) + p2 * (p1 * p3 - p2 * p2)
    if bordered == 0:
        return None
    return _round(gamma, -g0 * minor / bordered)


class DiscriminantDiagnostic(NamedTuple):
    """min(gamma_{l-1}^2 gamma_{l+1} gamma_{l+3}, gamma_{l-2} gamma_l
    gamma_{l+2}^2) against (2 gamma_l gamma_{l+1} - gamma_{l-1}
    gamma_{l+2})^2, the two ingredients of the order-2 quadratic's
    discriminant, for inspection: no closed form relies on either order."""

    lhs: object
    rhs: object
    holds: bool


def discriminant_reference(gamma, cut):
    l = cut
    g2, g1, g0, p1, p2, p3 = _exactify(*(gamma[i] for i in range(l - 2, l + 4)))
    lhs = min(g1 * g1 * p1 * p3, g2 * g0 * p2 * p2)
    rhs = (2 * g0 * p1 - g1 * p2) ** 2
    return DiscriminantDiagnostic(_round(gamma, lhs), _round(gamma, rhs), lhs >= rhs)


def k2_reference(gamma, cut, ctx=EXACT):
    if not all(v > 0 for v in gamma.values):
        raise PreconditionError("all moments must be strictly positive")
    verdict = is_k_positive(gamma, 2, ctx)
    if not verdict.holds:
        raise PreconditionError(
            f"sequence is not 2-positive on the horizon (first failure at "
            f"block {verdict.first_failure}); 1 need not be admissible"
        )
    cap = k1_reference(gamma, cut, ctx).hi
    l = cut
    per_block, methods, flags = {}, {}, []

    def ratio(i, j, a, b):
        gi, gj, ga, gb = _exactify(gamma[i], gamma[j], gamma[a], gamma[b])
        return _round(gamma, gi * gj / (ga * gb))

    def closed(n):
        cf = "closed_form"
        if n == l - 3:
            bound = corner_lower_reference(gamma, cut)
            if bound is None:
                return "degenerate corner determinant slope"
            bounds = [bound, ratio(l - 1, l - 1, l - 3, l + 1), ratio(l, l, l - 1, l + 1)]
            return max(bounds), cap, (cf, "direct")
        if n == l:
            bound = corner_upper_reference(gamma, cut)
            if bound is None:
                return "degenerate bordered determinant"
            return 0, min(bound, ratio(l, l + 4, l + 2, l + 2), cap), (cf, cf)
        roots = real_roots_reference(det_quadratic_reference(gamma, cut, n))
        if roots is None or len(roots) != 2:
            return "tangent determinant quadratic"
        if _floaty(gamma):
            roots = [_round(gamma, Fraction(r)) for r in roots]
        hi_bound = cap if n == l - 2 else ratio(l - 1, l + 3, l + 1, l + 1)
        lo, lo_m = max(
            [(roots[0], "quadratic_root"), (ratio(l, l, n, 2 * l - n), cf)], key=itemgetter(0)
        )
        hi, hi_m = min([(roots[1], "quadratic_root"), (hi_bound, cf)], key=itemgetter(0))
        exact = ctx.is_exact and not _floaty(gamma)
        if exact and 1.0 in [x for x in (lo, hi) if isinstance(x, float)]:
            return "a determinant-quadratic root rounds to 1.0"
        return lo, hi, (lo_m, hi_m)

    for n in range(max(0, cut - 3), cut + 1):
        got = closed(n)
        if isinstance(got, tuple) and not (got[0] > 1 or got[1] < 1):
            per_block[n], methods[n] = Interval(got[0], got[1]), got[2]
            continue
        reason = got if isinstance(got, str) else "rounding put 1 outside the closed form"
        per_block[n], methods[n], more = _pencil_block(gamma, n, 2, cut, cap, ctx)
        flags += [f"anchor {n}: {reason}; pencil engine used", *more]
    return _assemble_report(2, cut, cap, per_block, methods, flags)


# ---------------------------------------------------------------- helpers


def _outcome(fn, values, *args):
    # Each side gets its own sequence, so no cached roots or caps are shared.
    try:
        return "ok", repr(fn(MomentSequence.of(values), *args))
    except HankelshiftError as exc:
        return type(exc).__name__, str(exc)


def _sequence(kind: str, seed: int) -> tuple:
    rng = random.Random(seed)
    horizon = rng.randint(6, 14)
    if kind == "bergman":
        return bergman_moments(horizon).values
    if kind == "atomic":
        return measure_moments(rng, horizon, min_atoms=3, positive=True).values
    if kind == "few_atoms":  # singular order-2 blocks: the degenerate paths
        return measure_moments(rng, horizon, min_atoms=1, max_atoms=3, positive=True).values
    if kind == "logconvex":
        return logconvex_moments(rng, horizon).values
    return k_positive_moments(rng, 2, horizon).values


# ------------------------------------------------------------------- tests


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["bergman", "atomic", "few_atoms", "logconvex", "kpositive"]),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_closed_forms_match_the_fraction_reference(kind, seed, floats):
    values = _sequence(kind, seed)
    if floats:
        values = tuple(float(v) for v in values)
    horizon = len(values) - 1
    for ctx in (EXACT, FLOAT):
        for cut in range(1, horizon - 1):
            want = _outcome(k1_reference, values, cut, ctx)
            assert _outcome(stability_interval_k1, values, cut, ctx) == want
        for cut in range(1, horizon - 3):
            want = _outcome(k2_reference, values, cut, ctx)
            assert _outcome(stability_interval_k2, values, cut, ctx) == want


def test_the_comparison_reaches_closed_forms_and_fallbacks():
    # Reports, not only errors, on both kinds of sequence: closed-form
    # quadratic roots on Bergman and 3-atom moments, pencil fallbacks on a
    # one-atom measure, whose order-1 and order-2 blocks are singular.
    one_atom = measure_moments(random.Random(19), 12, min_atoms=1, max_atoms=1, positive=True)
    cases = [
        (bergman_moments(12), "quadratic_root"),
        (measure_moments(random.Random(19), 12, min_atoms=3, positive=True), "quadratic_root"),
        (one_atom, "pencil engine used"),
    ]
    for gamma, shows in cases:
        for values in (gamma.values, tuple(float(v) for v in gamma.values)):
            ctx = FLOAT if isinstance(values[0], float) else EXACT
            got = _outcome(stability_interval_k2, values, 4, ctx)
            assert got[0] == "ok" and shows in got[1]
            assert got == _outcome(k2_reference, values, 4, ctx)


def test_det_quadratic_returns_the_fraction_coefficients():
    rng = random.Random(1900)
    for _ in range(20):
        gamma = measure_moments(rng, 10, min_atoms=3, positive=True)
        floats = MomentSequence.of([float(v) for v in gamma.values])
        for cut in range(2, 7):
            for anchor in (cut - 2, cut - 1):
                got = det_quadratic(gamma, cut, anchor)
                want = det_quadratic_reference(gamma, cut, anchor)
                assert got == want and all(type(c) is Fraction for c in got)
                # a float sequence's coefficients are the exact ones over
                # its binary values, each rounded once
                want = _rounded_quadratic(floats, cut, anchor)
                assert repr(det_quadratic(floats, cut, anchor)) == repr(want)


def test_discriminant_reference_on_bergman():
    diag = discriminant_reference(bergman_moments(8), 3)
    assert diag == (Fraction(1, 315), Fraction(4, 2025), True)


# Float moments spread over 1e-200 ... 1e200: a k-positive sequence times
# c * rho^n (c, rho powers of 10), which keeps every block's PSD verdict,
# rounded to doubles.
@st.composite
def _wide_floats(draw) -> tuple:
    kind = draw(st.sampled_from(["bergman", "atomic", "few_atoms", "logconvex", "kpositive"]))
    base = _sequence(kind, draw(st.integers(0, 2**32)))
    first, last = draw(st.integers(-200, 180)), draw(st.integers(-200, 180))
    step = (last - first) // (len(base) - 1)
    return tuple(float(v * Fraction(10) ** (first + step * n)) for n, v in enumerate(base))


_BIG = tuple(1e80 / (n + 1) for n in range(14))  # big.csv of the CLI tests
_TINY = weights_to_moments(WeightSequence.from_squared((2.74e-201, 1.0, 1.0, 1.0, 1.0))).values


def _rounded_quadratic(gamma, cut, anchor):
    return tuple(_round(gamma, c) for c in det_quadratic_reference(gamma, cut, anchor))


@settings(max_examples=60, deadline=None)
@given(_wide_floats())
@example(_BIG)
@example(_TINY)
def test_wide_exponent_floats_round_once_or_leave_the_double_range(values):
    horizon = len(values) - 1
    outcomes = []
    for ctx in (EXACT, FLOAT):
        for cut in range(1, horizon - 1):
            outcomes.append((_outcome(stability_interval_k1, values, cut, ctx),
                             _outcome(k1_reference, values, cut, ctx)))
        for cut in range(1, horizon - 3):
            outcomes.append((_outcome(stability_interval_k2, values, cut, ctx),
                             _outcome(k2_reference, values, cut, ctx)))
    for cut in range(2, horizon - 2):
        for anchor in (cut - 2, cut - 1):
            outcomes.append((_outcome(det_quadratic, values, cut, anchor),
                             _outcome(_rounded_quadratic, values, cut, anchor)))
    for got, want in outcomes:
        assert got == want
        # the one documented error past the double range, never a traceback
        assert got[0] in ("ok", "PreconditionError")
