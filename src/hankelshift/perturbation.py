"""Rank-one tail scaling of a moment sequence: gamma stays put through the
cut index and is multiplied by a scale t beyond it.

For anchors n <= cut the perturbed Hankel block decomposes as
t*B + (1-t)*H where B is the original block and H its truncation to
indices <= cut; the set of t >= 0 keeping every such block PSD is a closed
interval containing 1.  This module computes those intervals in closed
form at orders 1 and 2, at any order from the roots of the pencil
determinant det(H + t(B-H)), and decides whether 1 sits in the interior
(equivalent to all unperturbed blocks being positive definite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .hankel import (
    MomentSequence,
    _check_block,
    _rows,
    is_k_positive,
    log_convexity,
)
from .numkit import (
    EXACT,
    InsufficientMomentsError,
    InternalConsistencyError,
    Interval,
    PreconditionError,
    Scalar,
    SymMatrix,
    ToleranceContext,
    _changes_at,
    _echelon,
    _isolate,
    _primitive_ints,
    _rounded,
    _sturm_chain,
    det_bareiss,
    fmt_scalar,
    psd_with_margin,
    squarefree,
)

if TYPE_CHECKING:
    from .shifts import WeightSequence

__all__ = [
    "IntervalReport",
    "InteriorReport",
    "perturb_moments",
    "perturb_weights",
    "truncated_block",
    "perturbed_block",
    "stability_interval_k1",
    "det_quadratic",
    "corner_det_lower_bound",
    "corner_det_upper_bound",
    "stability_interval_k2",
    "stability_interval",
    "interiority_report",
    "rank_one_det_expansion_holds",
]

@dataclass(frozen=True)
class IntervalReport:
    """Per-anchor admissible scale sets (within the search window [0, cap],
    cap being the order-1 right endpoint) and their intersection.

    methods[n] tags how each endpoint of per_block[n] was produced:
    closed_form, quadratic_root, pencil_root (a pencil-determinant root, or
    1 where the pencil pins it), or direct (t-free block or window bound).
    Both mappings are read-only: `stability_interval` hands the same report
    to every caller that asks again.
    """

    k: int
    cut: int
    per_block: Mapping[int, Interval]
    methods: Mapping[int, tuple[str, str]]
    intersection: Interval
    intersection_methods: tuple[str, str]
    contains_one: bool
    one_interior: bool
    flags: tuple[str, ...] = ()

    def __reduce__(self):
        # A mappingproxy neither copies nor pickles, so copies and pickles
        # carry both mappings as dicts and rebuild the read-only views.
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["per_block"] = dict(self.per_block)
        state["methods"] = dict(self.methods)
        return _read_only_report, (state,)


def _read_only_report(state: dict) -> IntervalReport:
    views = {name: MappingProxyType(state[name]) for name in ("per_block", "methods")}
    return IntervalReport(**{**state, **views})


@dataclass(frozen=True)
class InteriorReport:
    """Interiority of 1 in the admissible-scale interval versus positive
    definiteness of the unperturbed blocks; the two must agree, and a
    disagreement is flagged as a tolerance incident, never smoothed over."""

    k: int
    cut: int
    interior: bool
    pd_all: bool
    failing_block: Optional[int]
    agreement: bool
    interval: IntervalReport
    flags: tuple[str, ...] = ()


def _closed_terms(gamma: MomentSequence, *indices: int) -> list[int]:
    # The moments at indices, as the closed forms compute on them in both
    # modes: the ints G = D * gamma of `MomentSequence.integer_view`, floats
    # at their binary values.  A form of degree m in G is D^m times its value
    # in gamma, so a ratio of forms of equal degree is unchanged.
    g = gamma.integer_view[0]
    return [g[i] for i in indices]


def _closed_value(gamma: MomentSequence, num: int, den: int) -> Scalar:
    # num / den (den != 0) of two `_closed_terms` forms as a closed form
    # returns it: one Fraction, or on a sequence with a float its correctly
    # rounded double (`numkit._rounded`), which must be finite.
    if not gamma.has_float:
        return Fraction(num, den)
    value = _rounded(-num, -den) if den < 0 else _rounded(num, den)
    if math.isinf(value):
        raise PreconditionError(
            "a closed-form value of the float moments lies beyond the double range"
        )
    return value


def perturb_moments(gamma: MomentSequence, cut: int, scale: Scalar) -> MomentSequence:
    """gamma'_n = gamma_n for n <= cut, scale*gamma_n beyond."""
    if cut < 1:
        raise PreconditionError("cut index must be >= 1")
    if cut > gamma.horizon:
        raise InsufficientMomentsError(cut, gamma.horizon)
    if scale < 0:
        raise PreconditionError("scale must be >= 0")
    values = list(gamma.values[: cut + 1]) + [
        scale * v for v in gamma.values[cut + 1 :]
    ]
    return MomentSequence(tuple(values))


def perturb_weights(alpha: WeightSequence, cut: int, scale: Scalar) -> WeightSequence:
    """Scale the squared weight at the cut index; moments of the result are
    the perturbed moments of the original shift."""
    if not 1 <= cut < len(alpha):
        raise PreconditionError(
            f"cut must be a weight index in [1, {len(alpha) - 1}], got {cut}"
        )
    if not scale > 0:
        raise PreconditionError(
            "weight-side scale must be > 0 (a zero weight breaks injectivity); "
            "use perturb_moments for the boundary case"
        )
    from .shifts import WeightSequence

    sq = list(alpha.sq)
    sq[cut] = scale * sq[cut]
    return WeightSequence(tuple(sq))


def truncated_block(gamma: MomentSequence, n: int, k: int, cut: int) -> SymMatrix:
    """The block with every entry of moment index beyond the cut zeroed."""
    if n > cut:
        raise PreconditionError(
            f"anchor {n} is beyond the cut {cut}; the perturbed block there "
            "is plain scaling, no truncation applies"
        )
    if n + 2 * k > gamma.horizon:
        raise InsufficientMomentsError(n + 2 * k, gamma.horizon)
    rows = tuple(
        tuple(gamma[n + i + j] if n + i + j <= cut else 0 for j in range(k + 1))
        for i in range(k + 1)
    )
    return SymMatrix(rows)


def perturbed_block(
    gamma: MomentSequence, n: int, k: int, cut: int, scale: Scalar
) -> SymMatrix:
    """Block of the perturbed sequence, built without materializing it."""
    if n + 2 * k > gamma.horizon:
        raise InsufficientMomentsError(n + 2 * k, gamma.horizon)
    rows = tuple(
        tuple(
            gamma[n + i + j] if n + i + j <= cut else scale * gamma[n + i + j]
            for j in range(k + 1)
        )
        for i in range(k + 1)
    )
    return SymMatrix(rows)


def _require_strictly_positive(gamma: MomentSequence) -> None:
    if not gamma.strictly_positive:
        raise PreconditionError("all moments must be strictly positive")


def stability_interval_k1(
    gamma: MomentSequence, cut: int, ctx: ToleranceContext = EXACT
) -> Interval:
    """Order-1 admissible scales, in closed form.

    Only the two anchors straddling the cut constrain t: the one below gives
    t >= gamma_l^2/(gamma_{l-1} gamma_{l+1}), the one at the cut gives
    t <= gamma_l gamma_{l+2}/gamma_{l+1}^2.  Requires 1-positivity.  Each
    bound is a ratio of integer products of `MomentSequence.integer_view`
    (floats at their binary values): one Fraction, or on a sequence with a
    float its correctly rounded double.  The interval returned is [min(lo,
    1), max(hi, 1)].  On an exact sequence 1-positivity already puts 1
    inside, so the clamp changes nothing; on a float sequence it acts only
    when the sequence is log-convex within the band but not over its binary
    values, and its 1 is the double 1.0.
    """
    if cut < 1:
        raise PreconditionError("cut index must be >= 1")
    if cut + 2 > gamma.horizon:
        raise InsufficientMomentsError(cut + 2, gamma.horizon)
    _require_strictly_positive(gamma)
    if not log_convexity(gamma, ctx):
        raise PreconditionError(
            "sequence is not 1-positive; admissible scales need not form an "
            "interval around 1"
        )
    a, b, c, d = _closed_terms(gamma, cut - 1, cut, cut + 1, cut + 2)
    lo, hi = _closed_value(gamma, b * b, a * c), _closed_value(gamma, b * d, c * c)
    one = 1.0 if gamma.has_float else Fraction(1)
    return Interval(min(lo, one), max(hi, one))


def det_quadratic(
    gamma: MomentSequence, cut: int, anchor: int
) -> tuple[Scalar, Scalar, Scalar]:
    """Coefficients (a, b, c) of the quadratic q(t) = a t^2 + b t + c whose
    sign equals that of the order-2 perturbed-block determinant at the given
    anchor (the determinant equals q(t) at anchor cut-2 and t*q(t) at anchor
    cut-1).  Each coefficient is a form of degree 3 in the moments, computed
    over the integers G = D * gamma of `MomentSequence.integer_view` (floats
    at their binary values) and divided by D^3 once: a Fraction, or on a
    sequence with a float its correctly rounded double."""
    cube = gamma.integer_view[1] ** 3
    return tuple(_closed_value(gamma, c, cube) for c in _det_quadratic_terms(gamma, cut, anchor))


def _det_quadratic_terms(gamma: MomentSequence, cut: int, anchor: int) -> tuple:
    # `det_quadratic` over `_closed_terms`: D^3 times it, a positive
    # multiple with the same roots.
    l = cut
    if anchor == cut - 2:
        if cut < 2:
            raise PreconditionError("anchor cut-2 needs cut >= 2")
        if cut + 2 > gamma.horizon:
            raise InsufficientMomentsError(cut + 2, gamma.horizon)
        g2, g1, g0, p1, p2 = _closed_terms(gamma, l - 2, l - 1, l, l + 1, l + 2)
        return (
            -g2 * p1 * p1,
            g2 * g0 * p2 + 2 * g1 * g0 * p1 - g1 * g1 * p2,
            -g0 * g0 * g0,
        )
    if anchor == cut - 1:
        if cut < 1:
            raise PreconditionError("anchor cut-1 needs cut >= 1")
        if cut + 3 > gamma.horizon:
            raise InsufficientMomentsError(cut + 3, gamma.horizon)
        g1, g0, p1, p2, p3 = _closed_terms(gamma, l - 1, l, l + 1, l + 2, l + 3)
        return (
            -p1 * p1 * p1,
            g1 * p1 * p3 + 2 * g0 * p1 * p2 - g1 * p2 * p2,
            -g0 * g0 * p3,
        )
    raise PreconditionError(
        f"closed-form quadratics exist at anchors {cut - 2} and {cut - 1}, got {anchor}"
    )


def corner_det_lower_bound(gamma: MomentSequence, cut: int) -> Scalar:
    """Least scale keeping the anchor cut-3 determinant nonnegative.

    That block has a single scaled entry (the far corner), so its
    determinant is linear in t with slope gamma_{l+1} * d where
    d = gamma_{l-3} gamma_{l-1} - gamma_{l-2}^2.  Degenerate slope (d == 0)
    is rejected; callers fall back to the pencil engine.  The bound is a
    ratio of forms of degree 4 over `_closed_terms`, rounded once on a
    sequence with a float (`_closed_value`).
    """
    l = cut
    if cut < 3:
        raise PreconditionError("anchor cut-3 needs cut >= 3")
    if cut + 1 > gamma.horizon:
        raise InsufficientMomentsError(cut + 1, gamma.horizon)
    g3, g2, g1, g0, p1 = _closed_terms(gamma, l - 3, l - 2, l - 1, l, l + 1)
    d = g3 * g1 - g2 * g2
    if d == 0:
        raise PreconditionError(
            "degenerate: the t-free principal minor at anchor cut-3 vanishes"
        )
    big_d = g2 * g0 - g1 * g1
    return _closed_value(gamma, g0 * g0 * d + big_d * big_d, g1 * p1 * d)


def corner_det_upper_bound(gamma: MomentSequence, cut: int) -> Scalar:
    """Largest scale keeping the anchor-cut order-2 determinant nonnegative:
    -gamma_l * det[[g_{l+2}, g_{l+3}], [g_{l+3}, g_{l+4}]] over the bordered
    determinant det[[0, g_{l+1}, g_{l+2}], [g_{l+1}, g_{l+2}, g_{l+3}],
    [g_{l+2}, g_{l+3}, g_{l+4}]].  A vanishing denominator makes the
    determinant constraint vacuous and is rejected; callers fall back to
    the pencil engine.  The bound is a ratio of forms of degree 3 over
    `_closed_terms`, rounded once on a sequence with a float
    (`_closed_value`); the bordered determinant is 2 g_{l+1} g_{l+2} g_{l+3}
    - g_{l+1}^2 g_{l+4} - g_{l+2}^3.
    """
    l = cut
    if cut + 4 > gamma.horizon:
        raise InsufficientMomentsError(cut + 4, gamma.horizon)
    g0, p1, p2, p3, p4 = _closed_terms(gamma, l, l + 1, l + 2, l + 3, l + 4)
    minor = p2 * p4 - p3 * p3
    bordered = 2 * p1 * p2 * p3 - p1 * p1 * p4 - p2 * p2 * p2
    if bordered == 0:
        raise PreconditionError(
            "degenerate: bordered determinant at the cut anchor vanishes"
        )
    return _closed_value(gamma, -g0 * minor, bordered)


def _interpolate(values: list[int]) -> list[int]:
    # m! > 0 times the polynomial of degree <= m taking values[i] at i, in
    # descending coefficients: Newton differences, Horner in falling factorials.
    m = len(values) - 1
    diffs, row = [], values
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    poly = [diffs[m]]
    for j in range(m - 1, -1, -1):
        poly = [a - j * b for a, b in zip(poly + [0], [0] + poly)]
        poly[-1] += diffs[j] * (math.factorial(m) // math.factorial(j))
    return poly


def _pencil_poly(
    gamma: MomentSequence, n: int, k: int, cut: int, ctx: ToleranceContext
) -> list[int]:
    """A positive multiple of p(t) = det(H + t*D) at anchor n, over the
    integers G of `MomentSequence.integer_view`, coefficients descending.

    With s = cut - n + 1, rows i >= s of H are zero and rows i < s - k of
    D are zero.  So p = t^z q with z = max(0, k+1-s): q's matrix has the
    rows H_i + t*D_i for i < s and D_i (the rows of the block) for i >= s,
    and deg q <= min(k+1, 2k+1-s) - z.  q is interpolated at t = 0..deg q.
    q(1) = p(1), the block's determinant, is read off the determinant
    ladder, whose integer tables serve both modes, and two anchors need no
    determinant at all: at the cut (s = 1) the rank-one expansion
    (`rank_one_det_expansion_holds`) gives q(0) = G_cut * det(block(cut+2,
    k-1)), and at the lowest anchor (s = 2k) D is the corner G_{cut+1}, so
    p is linear with slope G_{cut+1} * det(block(n, k-1)).  The other
    points take `det_bareiss`.
    """
    s = cut - n + 1
    z = max(0, k + 1 - s)
    deg = min(k + 1, 2 * k + 1 - s) - z
    g = gamma.integer_view[0]
    ladder = gamma.ladder(ctx)
    p1 = ladder.table(k).nums[n]
    if s == 1:
        q0 = g[cut] * ladder.table(k - 1).nums[cut + 2]
        return [p1 - q0, q0] + [0] * z
    if s == 2 * k:
        slope = g[cut + 1] * ladder.table(k - 1).nums[n]
        return [slope, p1 - slope]

    def rows(t: int) -> list[list[int]]:
        # Entry (i, j) is scaled by t when it lies in D on a row i < s.
        return [
            [v * t if i < s <= i + j else v for j, v in enumerate(g[n + i:n + i + k + 1])]
            for i in range(k + 1)
        ]

    values = [p1 if t == 1 else int(det_bareiss(rows(t))) for t in range(deg + 1)]
    return _interpolate(values) + [0] * z


def _primitive(poly: Sequence[Scalar]) -> tuple[int, ...]:
    # The primitive integer polynomial with a positive leading coefficient
    # that poly is a nonzero multiple of (`numkit._primitive_ints`): it has
    # the roots of poly, and real_roots answers the same on both.  A
    # nonfinite or all-zero poly raises as real_roots does.
    ints = _primitive_ints(poly)
    return tuple([-c for c in ints] if ints[0] < 0 else ints)


def _isolated(gamma: MomentSequence, poly: Sequence[Scalar]) -> tuple:
    # `numkit._isolate(poly)`: the roots and the Sturm chain they were
    # isolated with, kept on gamma per primitive polynomial.
    key = _primitive(poly)
    return gamma._memo(("real_roots", key), lambda: _isolate(key))


def _roots(gamma: MomentSequence, poly: Sequence[Scalar]) -> Sequence[Scalar] | None:
    """`real_roots(poly)`, kept on gamma per primitive polynomial, so the
    order-2 closed form and the pencil engine isolate a shared polynomial
    once.  A nonfinite coefficient raises as `real_roots` does."""
    return _isolated(gamma, poly)[0]


def _sturm(gamma: MomentSequence, poly: Sequence[Scalar]) -> tuple[list[list[int]], int, int]:
    # poly's Sturm chain with V(1) and V(+inf), kept on gamma per primitive
    # polynomial: the chain its isolation built, or below degree 3 one
    # built here.
    key = _primitive(poly)

    def counts() -> tuple[list[list[int]], int, int]:
        chain = _isolated(gamma, key)[1] or _sturm_chain(key)
        return chain, _changes_at(chain, 1, 1), _changes_at(chain, 1, 0)

    return gamma._memo(("sturm", key), counts)


def _first_dyadic(chain: Sequence[Sequence[int]], clear: int, step: int) -> Fraction:
    """1 + step * 2^-m for the least m >= 53 with V(1 + step * 2^-m) =
    clear, V the sign changes of chain (`numkit._changes_at`).

    The count of roots between 1 and 1 + step * 2^-m only falls as m
    grows, so m - 52 doubles until the count is clear and the last
    doubling is then halved: about 2 log2(m - 52) counts, not m - 52."""

    def is_clear(m: int) -> bool:
        return _changes_at(chain, (1 << m) + step, 1 << m) == clear

    lo, hi = 52, 53  # no m <= lo qualifies; hi is the next to try
    while not is_clear(hi):
        lo, hi = hi, 2 * hi - 52
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if is_clear(mid) else (mid, hi)
    return 1 + Fraction(step, 1 << hi)


def _pencil_block(
    gamma: MomentSequence, n: int, k: int, cut: int, cap: Scalar, ctx: ToleranceContext
) -> tuple[Interval, tuple[str, str], list[str]]:
    """Admissible scales in the window [0, cap] at one t-dependent anchor,
    with the endpoint methods and flags; see `stability_interval`.  Kept on
    gamma per (n, k, cut, ctx), which fix cap (`_window_cap`), so the order-2
    fallback and the pencil report share a pass; each call gets its own list
    of the kept flags.
    """
    key = ("pencil_block", n, k, cut, ctx)
    iv, methods, flags = gamma._memo(key, lambda: _pencil_pass(gamma, n, k, cut, cap, ctx))
    return iv, methods, list(flags)


def _pencil_pass(
    gamma: MomentSequence, n: int, k: int, cut: int, cap: Scalar, ctx: ToleranceContext
) -> tuple[Interval, tuple[str, str], tuple[str, ...]]:
    """`_pencil_block`, computed.

    p comes from `_pencil_poly`, at its true degree, and its roots,
    Sturm chain, V(1) and V(+inf) from `_roots` and `_sturm`, once per
    distinct polynomial on gamma.  The PSD probes run on the pencil over
    the integers G = gamma * D of `MomentSequence.integer_view`: D times
    the block, so the same verdicts.  Pencils go to numkit as rows; the
    pivot-column pass, which eliminates in place, gets a copy of [H; D].
    """
    floaty = not ctx.is_exact or gamma.has_float
    size = range(k + 1)
    g = gamma.integer_view[0]
    h = [[g[n + i + j] if n + i + j <= cut else 0 for j in size] for i in size]
    d = [[g[n + i + j] - h[i][j] for j in size] for i in size]

    def pencil(t: Fraction | int, idx=size) -> list[list[int]]:
        # den(t) * (H + t*D) over the integers: same PSD verdict and det sign.
        a, c = t.numerator, t.denominator
        return [[c * h[i][j] + a * d[i][j] for j in idx] for i in idx]

    def feasible(t: Fraction | int) -> bool:
        return psd_with_margin(pencil(t))[0]

    one = 1.0 if floaty else Fraction(1)
    if floaty and not feasible(1):
        flag = f"anchor {n}: marginal: block not PSD over the binary values; interval [1, 1]"
        return Interval(one, one), ("pencil_root", "pencil_root"), (flag,)
    p = _pencil_poly(gamma, n, k, cut, ctx)
    if not any(p):
        # the pivot columns of [H; D]: a maximal independent set
        idx = _echelon([list(row) for row in h + d], k + 1)[0]
        p = _interpolate([int(det_bareiss(pencil(t, idx))) for t in range(k + 2)])
    if not any(p):
        return Interval(one, one), ("pencil_root", "pencil_root"), ()
    while p[-1] == 0:
        p.pop()  # roots at t = 0 lie on the window bound
    roots = _roots(gamma, p)
    if roots is None:
        p = squarefree(p)
        roots = _roots(gamma, p)

    def dyadic(step: int) -> Fraction:
        # The first 1 + step * 2^-m, m >= 53, with no root of p strictly
        # between it and 1: (x, 1] holds V(x) - V(1) roots, a root at 1
        # included, and (1, x] V(1) - V(x).
        chain, v_one, _ = _sturm(gamma, p)
        return _first_dyadic(chain, v_one + (len(ones) if step < 0 else 0), step)

    # Exact mode: a root is 1 only as the Fraction 1.  An irrational root
    # whose double is 1.0 lies above 1 iff it is among the last V(1) -
    # V(+inf) of the ascending roots; it is kept as None.  Other side roots
    # are kept as (far, irrational): far is the exact root or its double.
    ones, below, above = [], [], []
    for i, r in enumerate(roots):
        if not floaty and isinstance(r, float) and r == 1:
            _, v_one, v_inf = _sturm(gamma, p)
            (below if i < len(roots) - (v_one - v_inf) else above).append((None, False))
        elif r == 1:
            # Roots at 1, exact or (float mode) irrational within half an
            # ulp: probes place them.
            ones.append(float(r) if floaty else r)
        elif 0 < r < 1 or 1 < r < cap:
            (below if r < 1 else above).append((Fraction(r), isinstance(r, float)))
    ends, methods = [], []
    for step, bound, near in ((-1, 0, below[-1:]), (1, cap, above[:1])):
        far, irrational = near[0] if near else (Fraction(bound), False)
        if far is None:
            far = dyadic(step)
        if ones and (far == 1 or not feasible((1 + far) / 2)):
            ends.append(ones[0])
            methods.append("direct" if far == 1 else "pencil_root")
            continue
        if not near:
            ends.append(float(bound) if floaty else Fraction(bound))
            methods.append("direct")
            continue
        # The double next to the root inside: the rounded one or the next.
        x = float(far)
        tries = [x, math.nextafter(x, 1.0)] if floaty or irrational else [far]
        if irrational and not floaty:
            tries = [y for y in tries if y != 1]
        end = next((y for y in tries if feasible(Fraction(y))), None)
        if end is None and irrational and not floaty:
            # That double is 1.0, and the root is not 1: the dyadic inside.
            end = e if feasible(e := dyadic(step)) else None
        if end is None:
            raise InternalConsistencyError(f"no feasible endpoint at anchor {n}")
        ends.append(end)
        methods.append("pencil_root")
    at_cap = methods[1] == "direct"
    flags = (f"anchor {n}: right endpoint at the order-1 bound",) if at_cap else ()
    return Interval(ends[0], ends[1]), (methods[0], methods[1]), flags


def _window_cap(gamma: MomentSequence, cut: int, k: int, ctx: ToleranceContext) -> Scalar:
    # The order-1 right endpoint, once k-positivity puts 1 in every set;
    # kept on gamma per (cut, k, ctx).
    return gamma._memo(("window_cap", cut, k, ctx), lambda: _order_one_cap(gamma, cut, k, ctx))


def _order_one_cap(gamma: MomentSequence, cut: int, k: int, ctx: ToleranceContext) -> Scalar:
    if cut < 1:
        raise PreconditionError("cut index must be >= 1")
    if k < 1:
        raise PreconditionError("order k must be >= 1")
    if cut + 2 * k > gamma.horizon:
        raise InsufficientMomentsError(cut + 2 * k, gamma.horizon)
    _require_strictly_positive(gamma)
    verdict = is_k_positive(gamma, k, ctx)
    if not verdict.holds:
        raise PreconditionError(
            f"sequence is not {k}-positive on the horizon (first failure at "
            f"block {verdict.first_failure}); 1 need not be admissible"
        )
    return stability_interval_k1(gamma, cut, ctx).hi


def _assemble_report(
    k: int,
    cut: int,
    cap: Scalar,
    per_block: dict[int, Interval],
    methods: dict[int, tuple[str, str]],
    flags: list[str],
) -> IntervalReport:
    # Anchors missing from per_block are t-free: one whole-window interval
    # serves them all.
    whole = Interval(0, cap)
    per_block = {n: per_block.get(n, whole) for n in range(cut + 1)}
    methods = {n: methods.get(n, ("direct", "direct")) for n in range(cut + 1)}
    # The anchors of the largest lower end and the smallest upper end, ties
    # keeping the first, both picked in one pass from anchor 0; an anchor
    # sharing anchor 0's interval (t-free ones) cannot beat it.  0 and inf
    # then clip the ends.
    first = per_block[0]
    lo_n, lo, hi_n, hi = 0, first.lo, 0, first.hi
    for n in range(1, cut + 1):
        iv = per_block[n]
        if iv is first:
            continue
        if iv.lo > lo:
            lo_n, lo = n, iv.lo
        if iv.hi < hi:
            hi_n, hi = n, iv.hi
    lo, hi = max(0, lo), min(float("inf"), hi)
    contains_one = lo <= 1 <= hi
    if not contains_one:
        sets = ", ".join(
            f"{n}: [{fmt_scalar(iv.lo)}, {fmt_scalar(iv.hi)}]" for n, iv in per_block.items()
        )
        raise InternalConsistencyError(
            f"admissible-scale intersection lost the point 1; per-block sets were {sets}"
        )
    intersection = Interval(lo, hi)
    one_interior = intersection.lo < 1 < intersection.hi
    return IntervalReport(
        k=k,
        cut=cut,
        per_block=MappingProxyType(per_block),
        methods=MappingProxyType(methods),
        intersection=intersection,
        intersection_methods=(methods[lo_n][0], methods[hi_n][1]),
        contains_one=contains_one,
        one_interior=one_interior,
        flags=tuple(flags),
    )


def stability_interval_k2(
    gamma: MomentSequence,
    cut: int,
    ctx: ToleranceContext = EXACT,
) -> IntervalReport:
    """Order-2 admissible scales from closed forms.

    Anchors cut-3 and cut contribute one linear determinant bound each plus
    principal-minor ratio bounds; anchors cut-2 and cut-1 contribute the
    root intervals of their determinant quadratics (each root exact when
    rational, else the correctly rounded double) plus ratio bounds;
    anchors at distance >= 4 below the cut are t-free.  Degenerate cases
    (vanishing slope or denominator, tangent quadratics, an interval that
    rounding moved off 1) fall back to the pencil engine for that anchor
    and are flagged.  Every bound, ratio and quadratic is computed over the
    integers of `MomentSequence.integer_view`, floats at their binary
    values: each bound is one Fraction, or on a sequence with a float its
    correctly rounded double (`_closed_value`), and each quadratic is D^3
    times `det_quadratic`, with the same roots, read off its discriminant
    (`numkit.real_roots`) and isolated once with the pencil engine's
    (`_roots`).
    """
    cap = _window_cap(gamma, cut, 2, ctx)
    l = cut
    per_block: dict[int, Interval] = {}
    methods: dict[int, tuple[str, str]] = {}
    flags: list[str] = []
    g = gamma.integer_view[0]

    def ratio(i: int, j: int, a: int, b: int) -> Scalar:
        return _closed_value(gamma, g[i] * g[j], g[a] * g[b])

    def closed(n: int) -> tuple[Scalar, Scalar, tuple[str, str]] | str:
        # The anchor's closed-form interval and methods, or why it has none.
        cf = "closed_form"
        if n == l - 3:
            try:
                bound = corner_det_lower_bound(gamma, cut)
            except PreconditionError:
                return "degenerate corner determinant slope"
            bounds = [bound, ratio(l - 1, l - 1, l - 3, l + 1), ratio(l, l, l - 1, l + 1)]
            return max(bounds), cap, (cf, "direct")
        if n == l:
            try:
                bound = corner_det_upper_bound(gamma, cut)
            except PreconditionError:
                return "degenerate bordered determinant"
            return 0, min(bound, ratio(l, l + 4, l + 2, l + 2), cap), (cf, cf)
        roots = _roots(gamma, _det_quadratic_terms(gamma, cut, n))
        if roots is None or len(roots) != 2:
            return "tangent determinant quadratic"
        if gamma.has_float:
            roots = [_closed_value(gamma, *r.as_integer_ratio()) for r in roots]
        hi_bound = cap if n == l - 2 else ratio(l - 1, l + 3, l + 1, l + 1)
        lo, lo_m = max(
            [(roots[0], "quadratic_root"), (ratio(l, l, n, 2 * l - n), cf)],
            key=itemgetter(0),
        )
        hi, hi_m = min([(roots[1], "quadratic_root"), (hi_bound, cf)], key=itemgetter(0))
        # An exact sequence's float root is irrational: as the double 1.0 it
        # would hide on which side of 1 it lies.
        exact = ctx.is_exact and not gamma.has_float
        if exact and 1.0 in [x for x in (lo, hi) if isinstance(x, float)]:
            return "a determinant-quadratic root rounds to 1.0"
        return lo, hi, (lo_m, hi_m)

    for n in range(max(0, cut - 3), cut + 1):
        got = closed(n)
        # Rounding (float mode, or a root within half an ulp of 1) can leave
        # 1 outside.
        if isinstance(got, tuple) and not (got[0] > 1 or got[1] < 1):
            per_block[n], methods[n] = Interval(got[0], got[1]), got[2]
            continue
        reason = got if isinstance(got, str) else "rounding put 1 outside the closed form"
        per_block[n], methods[n], more = _pencil_block(gamma, n, 2, cut, cap, ctx)
        flags += [f"anchor {n}: {reason}; pencil engine used", *more]

    return _assemble_report(2, cut, cap, per_block, methods, flags)


def stability_interval(
    gamma: MomentSequence,
    cut: int,
    k: int,
    ctx: ToleranceContext = EXACT,
) -> IntervalReport:
    """Admissible scales at any order from one exact engine.

    An anchor's perturbed block is the pencil H + t*D (H the block truncated
    at the cut, D the rest).  lambda_min is concave in t, so the admissible
    set is an interval through 1 ending at the roots of p(t) = det(H + t*D)
    nearest to 1, clipped to the window [0, cap] of the order-1 bound.  p
    is t^z times a polynomial q of lower degree, interpolated exactly at
    deg q + 1 points; the determinant ladder's integers, the same in both
    modes, give p(1), and at the cut and lowest anchors all of p
    (`_pencil_poly`).  Each distinct polynomial's roots are isolated once
    per sequence (`_roots`), the order-2 closed form's quadratics included.
    p(1) = 0 is decided by one PSD probe per side, p = 0 by restricting the
    pencil to the pivot columns of [H; D].  Arithmetic is exact, over the
    binary values of float moments.  A root endpoint is the exact rational
    root, else the double next to it on the inside, certified by an exact
    PSD probe; in exact mode, where that double is 1.0 but the root is not
    1, the first dyadic 1 -+ 2^-m (m >= 53) with no root of p between it
    and 1, found, like the side of 1 such a root is on, by Sturm counts on
    p.  t-free blocks give the whole window.  The report is kept on gamma
    per (cut, k, ctx), so asking again returns the same report; a call that
    raises keeps nothing.
    """
    return gamma._memo(
        ("stability_interval", cut, k, ctx), lambda: _pencil_report(gamma, cut, k, ctx)
    )


def _pencil_report(
    gamma: MomentSequence, cut: int, k: int, ctx: ToleranceContext
) -> IntervalReport:
    cap = _window_cap(gamma, cut, k, ctx)
    per_block: dict[int, Interval] = {}
    methods: dict[int, tuple[str, str]] = {}
    flags: list[str] = []
    for n in range(max(0, cut - 2 * k + 1), cut + 1):
        per_block[n], methods[n], more = _pencil_block(gamma, n, k, cut, cap, ctx)
        flags.extend(more)
    return _assemble_report(k, cut, cap, per_block, methods, flags)


def interiority_report(
    gamma: MomentSequence,
    cut: int,
    k: int,
    ctx: ToleranceContext = EXACT,
) -> InteriorReport:
    """Decide interiority of 1 two independent ways and compare.

    interior: 1 strictly inside the `stability_interval` intersection (its
    endpoints are certified feasible, so strict inequalities certify
    interior points).
    pd_all: every unperturbed block at anchors n <= cut is positive
    definite, read off the sequence's ladder (`LadderVerdicts.pd`): in
    exact mode all leading principal minors d_0(n), ..., d_k(n) are
    positive, in float mode the band verdict on the block's 2k+1 moments
    (`numkit.hankel_psd_with_margin`) is PSD and not marginal.  The two are
    equivalent; a mismatch is reported as a tolerance incident for the
    caller to escalate.
    """
    report = stability_interval(gamma, cut, k, ctx)
    ladder = gamma.ladder(ctx)
    failing = next((n for n in range(cut + 1) if not ladder.pd(n, k)), None)
    pd_all = failing is None
    agreement = pd_all == report.one_interior
    flags = list(report.flags)
    if k != cut:
        flags.append(f"anchors scanned: n <= {cut} (the cut), block order {k}")
    if not agreement:
        flags.append(
            "tolerance incident: interval interiority and block definiteness "
            "disagree"
        )
    return InteriorReport(
        k=k,
        cut=cut,
        interior=report.one_interior,
        pd_all=pd_all,
        failing_block=failing,
        agreement=agreement,
        interval=report,
        flags=tuple(flags),
    )


def rank_one_det_expansion_holds(
    gamma: MomentSequence,
    cut: int,
    k: int,
    scale: Scalar,
) -> bool:
    """Determinant identity at the cut anchor, where the truncated block is
    a single corner: det(t*B + (1-t)*H) == t^(k+1) det(B) + (1-t) t^k
    gamma_cut Cof, Cof being the (1,1) cofactor of B.

    The pencil engine reads its cut-anchor polynomial off this identity
    (`_pencil_poly`, from the ladder's d_k(cut) and d_{k-1}(cut+2)); this
    function checks the identity itself at one scale and is the tests'
    oracle for it.  The check is exact, over the integers G = D * gamma of
    `MomentSequence.integer_view` (floats and a float scale at their binary
    values): both sides are forms of degree k+1 in the moments, so each is
    D^(k+1) times its value in gamma."""
    if cut + 2 * k > gamma.horizon:
        raise InsufficientMomentsError(cut + 2 * k, gamma.horizon)
    _check_block(gamma, cut, k)
    t = Fraction(scale)
    g = gamma.integer_view[0]
    rows = _rows(g, cut, k)
    # The perturbed block: only the corner G_cut lies at or below the cut.
    scaled = [[v if i + j == 0 else t * v for j, v in enumerate(r)] for i, r in enumerate(rows)]
    cof = det_bareiss(_rows(g, cut + 2, k - 1)) if k >= 1 else 1
    rhs = t ** (k + 1) * det_bareiss(rows) + (1 - t) * t**k * g[cut] * cof
    return det_bareiss(scaled) == rhs
