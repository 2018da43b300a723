"""Rank-one tail scaling of a moment sequence: gamma stays put through the
cut index and is multiplied by a scale t beyond it.

For anchors n <= cut the perturbed Hankel block decomposes as
t*B + (1-t)*H where B is the original block and H its truncation to
indices <= cut; the set of t >= 0 keeping every such block PSD is a closed
interval containing 1.  This module computes those intervals in closed
form at orders 1 and 2, by certified bisection at any order, and decides
whether 1 sits in the interior (equivalent to all unperturbed blocks being
positive definite).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Optional

from .hankel import (
    LadderVerdicts,
    MomentSequence,
    block,
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
    det_bareiss,
    hadamard_bound,
    is_psd,
    real_roots,
)
from .shifts import WeightSequence

__all__ = [
    "IntervalReport",
    "InteriorReport",
    "DiscriminantDiagnostic",
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
    "discriminant_diagnostic",
]

BISECT_EPS = 1e-12


@dataclass(frozen=True)
class IntervalReport:
    """Per-anchor admissible scale sets (within the search window [0, cap],
    cap being the order-1 right endpoint) and their intersection.

    methods[n] tags how each endpoint of per_block[n] was produced:
    closed_form, quadratic_root, bisection, or direct (t-free block or an
    endpoint taken at a window bound without search).
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


@dataclass(frozen=True)
class DiscriminantDiagnostic:
    """min(gamma_{l-1}^2 gamma_{l+1} gamma_{l+3}, gamma_{l-2} gamma_l
    gamma_{l+2}^2) against (2 gamma_l gamma_{l+1} - gamma_{l-1}
    gamma_{l+2})^2: reported for inspection only, never asserted."""

    lhs: Scalar
    rhs: Scalar
    holds: bool


def _floaty(gamma: MomentSequence) -> bool:
    return any(isinstance(v, float) for v in gamma.values)


def _exactify(gamma: MomentSequence, *values: Scalar) -> tuple[Scalar, ...]:
    if _floaty(gamma) or any(isinstance(v, float) for v in values):
        return tuple(float(v) for v in values)
    return tuple(Fraction(v) for v in values)


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


def _require_bisect_eps(eps: float) -> None:
    # Outside (0, 1) bisection stops at once (nan, inf, >= 1), halves until
    # the float width underflows (0) or never stops (negative).
    if not 0 < eps < 1:
        raise PreconditionError(f"bisect_eps must satisfy 0 < eps < 1, got {eps!r}")


def stability_interval_k1(
    gamma: MomentSequence, cut: int, ctx: ToleranceContext = EXACT
) -> Interval:
    """Order-1 admissible scales, in closed form.

    Only the two anchors straddling the cut constrain t: the one below gives
    t >= gamma_l^2/(gamma_{l-1} gamma_{l+1}), the one at the cut gives
    t <= gamma_l gamma_{l+2}/gamma_{l+1}^2.  Requires 1-positivity, which
    makes the interval well ordered and puts 1 inside it.
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
    a, b, c, d = _exactify(gamma, gamma[cut - 1], gamma[cut], gamma[cut + 1], gamma[cut + 2])
    return Interval(b * b / (a * c), b * d / (c * c))


def det_quadratic(
    gamma: MomentSequence, cut: int, anchor: int
) -> tuple[Scalar, Scalar, Scalar]:
    """Coefficients (a, b, c) of the quadratic q(t) = a t^2 + b t + c whose
    sign equals that of the order-2 perturbed-block determinant at the given
    anchor (the determinant equals q(t) at anchor cut-2 and t*q(t) at anchor
    cut-1)."""
    l = cut
    if anchor == cut - 2:
        if cut < 2:
            raise PreconditionError("anchor cut-2 needs cut >= 2")
        if cut + 2 > gamma.horizon:
            raise InsufficientMomentsError(cut + 2, gamma.horizon)
        g2, g1, g0, p1, p2 = _exactify(
            gamma, gamma[l - 2], gamma[l - 1], gamma[l], gamma[l + 1], gamma[l + 2]
        )
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
        g1, g0, p1, p2, p3 = _exactify(
            gamma, gamma[l - 1], gamma[l], gamma[l + 1], gamma[l + 2], gamma[l + 3]
        )
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
    is rejected; callers fall back to bisection.
    """
    l = cut
    if cut < 3:
        raise PreconditionError("anchor cut-3 needs cut >= 3")
    if cut + 1 > gamma.horizon:
        raise InsufficientMomentsError(cut + 1, gamma.horizon)
    g3, g2, g1, g0, p1 = _exactify(
        gamma, gamma[l - 3], gamma[l - 2], gamma[l - 1], gamma[l], gamma[l + 1]
    )
    d = g3 * g1 - g2 * g2
    if d == 0:
        raise PreconditionError(
            "degenerate: the t-free principal minor at anchor cut-3 vanishes"
        )
    big_d = g2 * g0 - g1 * g1
    return (g0 * g0 * d + big_d * big_d) / (g1 * p1 * d)


def corner_det_upper_bound(gamma: MomentSequence, cut: int) -> Scalar:
    """Largest scale keeping the anchor-cut order-2 determinant nonnegative:
    -gamma_l * det[[g_{l+2}, g_{l+3}], [g_{l+3}, g_{l+4}]] over the bordered
    determinant det[[0, g_{l+1}, g_{l+2}], [g_{l+1}, g_{l+2}, g_{l+3}],
    [g_{l+2}, g_{l+3}, g_{l+4}]].  A vanishing denominator makes the
    determinant constraint vacuous and is rejected; callers fall back to
    bisection.
    """
    l = cut
    if cut + 4 > gamma.horizon:
        raise InsufficientMomentsError(cut + 4, gamma.horizon)
    g0, p1, p2, p3, p4 = _exactify(
        gamma, gamma[l], gamma[l + 1], gamma[l + 2], gamma[l + 3], gamma[l + 4]
    )
    minor = p2 * p4 - p3 * p3
    bordered = det_bareiss([[0 * g0, p1, p2], [p1, p2, p3], [p2, p3, p4]])
    if bordered == 0:
        raise PreconditionError(
            "degenerate: bordered determinant at the cut anchor vanishes"
        )
    return -g0 * minor / bordered


def _feasible(
    gamma: MomentSequence,
    n: int,
    k: int,
    cut: int,
    t: Scalar,
    ctx: ToleranceContext,
) -> bool:
    return is_psd(perturbed_block(gamma, n, k, cut, t), ctx)


def _bisect_block(
    gamma: MomentSequence,
    n: int,
    k: int,
    cut: int,
    cap: Scalar,
    ctx: ToleranceContext,
    eps: float,
) -> tuple[Interval, tuple[str, str], list[str]]:
    """Certified per-anchor interval: both returned endpoints are feasible
    probes, so the interval is a subset of the true admissible set, within
    eps*max(1, cap) of it at each end."""

    def ok(t: Scalar) -> bool:
        return _feasible(gamma, n, k, cut, t, ctx)

    if not ok(1):
        raise InternalConsistencyError(
            f"scale 1 infeasible at anchor {n}: positivity precondition broken"
        )
    exact_probes = ctx.is_exact and not _floaty(gamma)
    one: Scalar = Fraction(1) if exact_probes else 1.0
    zero: Scalar = Fraction(0) if exact_probes else 0.0
    cap_t: Scalar = Fraction(cap) if exact_probes else float(cap)
    tol = eps * max(1.0, float(cap))
    flags: list[str] = []

    if ok(zero):
        lo: Scalar = zero
        lo_method = "direct"
    else:
        bad, good = zero, one
        while float(good - bad) > tol:
            mid = (bad + good) / 2
            if ok(mid):
                good = mid
            else:
                bad = mid
        lo = good
        lo_method = "bisection"

    if ok(cap_t):
        hi: Scalar = cap_t
        hi_method = "direct"
        flags.append(f"anchor {n}: right endpoint at the order-1 bound")
    else:
        good, bad = one, cap_t
        while float(bad - good) > tol:
            mid = (bad + good) / 2
            if ok(mid):
                good = mid
            else:
                bad = mid
        hi = good
        hi_method = "bisection"

    return Interval(lo, hi), (lo_method, hi_method), flags


def _assemble_report(
    k: int,
    cut: int,
    per_block: dict[int, Interval],
    methods: dict[int, tuple[str, str]],
    flags: list[str],
) -> IntervalReport:
    intersection = Interval(0, float("inf"))
    for iv in per_block.values():
        intersection = intersection.intersect(iv)
    contains_one = intersection.contains(1)
    if not contains_one:
        raise InternalConsistencyError(
            "admissible-scale intersection lost the point 1; per-block sets "
            f"were {per_block}"
        )
    lo_method = next(
        m[0] for n, m in methods.items() if per_block[n].lo == intersection.lo
    )
    hi_method = next(
        m[1] for n, m in methods.items() if per_block[n].hi == intersection.hi
    )
    one_interior = intersection.lo < 1 < intersection.hi
    return IntervalReport(
        k=k,
        cut=cut,
        per_block=per_block,
        methods=methods,
        intersection=intersection,
        intersection_methods=(lo_method, hi_method),
        contains_one=contains_one,
        one_interior=one_interior,
        flags=tuple(flags),
    )


def stability_interval_k2(
    gamma: MomentSequence,
    cut: int,
    ctx: ToleranceContext = EXACT,
    bisect_eps: float = BISECT_EPS,
) -> IntervalReport:
    """Order-2 admissible scales from closed forms.

    Anchors cut-3 and cut contribute one linear determinant bound each plus
    principal-minor ratio bounds; anchors cut-2 and cut-1 contribute the
    root intervals of their determinant quadratics (each root exact when
    rational, else the correctly rounded double) plus ratio bounds;
    anchors at distance >= 4 below the cut are t-free.  Degenerate cases
    (vanishing slope or denominator, tangent quadratics, rounding-collapsed
    intervals) fall back to bisection for that anchor and are flagged.
    """
    _require_bisect_eps(bisect_eps)
    if cut < 1:
        raise PreconditionError("cut index must be >= 1")
    if cut + 4 > gamma.horizon:
        raise InsufficientMomentsError(cut + 4, gamma.horizon)
    _require_strictly_positive(gamma)
    if not is_k_positive(gamma, 2, ctx).holds:
        raise PreconditionError(
            "sequence is not 2-positive on the horizon; the order-2 "
            "admissible set need not be an interval around 1"
        )
    cap = stability_interval_k1(gamma, cut, ctx).hi
    l = cut
    per_block: dict[int, Interval] = {}
    methods: dict[int, tuple[str, str]] = {}
    flags: list[str] = []

    def ratio(i: int, j: int, a: int, b: int) -> Scalar:
        num, den = _exactify(gamma, gamma[i] * gamma[j], gamma[a] * gamma[b])
        return num / den

    def fallback(n: int, reason: str) -> None:
        iv, meth, f = _bisect_block(gamma, n, 2, cut, cap, ctx, bisect_eps)
        per_block[n] = iv
        methods[n] = meth
        flags.append(f"anchor {n}: {reason}; bisection used")
        flags.extend(f)

    for n in range(cut + 1):
        if n + 4 <= cut:
            per_block[n] = Interval(0, cap)
            methods[n] = ("direct", "direct")
            continue
        if n == l - 3:
            try:
                bound = corner_det_lower_bound(gamma, cut)
            except PreconditionError:
                fallback(n, "degenerate corner determinant slope")
                continue
            lo, lo_m = max(
                [
                    (bound, "closed_form"),
                    (ratio(l - 1, l - 1, l - 3, l + 1), "closed_form"),
                    (ratio(l, l, l - 1, l + 1), "closed_form"),
                ],
                key=itemgetter(0),
            )
            if lo > cap:
                fallback(n, "rounding collapsed the corner-bound interval")
                continue
            per_block[n] = Interval(lo, cap)
            methods[n] = (lo_m, "direct")
        elif n in (l - 2, l - 1):
            roots = real_roots(det_quadratic(gamma, cut, n))
            if roots is None or len(roots) != 2:
                fallback(n, "tangent determinant quadratic")
                continue
            if _floaty(gamma):
                roots = [float(r) for r in roots]
            hi_bound = cap if n == l - 2 else ratio(l - 1, l + 3, l + 1, l + 1)
            lo, lo_m = max(
                [(roots[0], "quadratic_root"), (ratio(l, l, n, 2 * l - n), "closed_form")],
                key=itemgetter(0),
            )
            hi, hi_m = min(
                [(roots[1], "quadratic_root"), (hi_bound, "closed_form")],
                key=itemgetter(0),
            )
            if lo > hi:
                fallback(n, "rounding collapsed the quadratic interval")
                continue
            per_block[n] = Interval(lo, hi)
            methods[n] = (lo_m, hi_m)
        else:
            try:
                bound = corner_det_upper_bound(gamma, cut)
            except PreconditionError:
                fallback(n, "degenerate bordered determinant")
                continue
            hi, hi_m = min(
                [
                    (bound, "closed_form"),
                    (ratio(l, l + 4, l + 2, l + 2), "closed_form"),
                    (cap, "closed_form"),
                ],
                key=itemgetter(0),
            )
            per_block[n] = Interval(0, hi)
            methods[n] = ("closed_form", hi_m)

    return _assemble_report(2, cut, per_block, methods, flags)


def stability_interval(
    gamma: MomentSequence,
    cut: int,
    k: int,
    ctx: ToleranceContext = EXACT,
    bisect_eps: float = BISECT_EPS,
) -> IntervalReport:
    """Admissible scales at any order by per-anchor bisection.

    Endpoints are certified feasible probes (the reported interval is a
    subset of the true one, within bisect_eps relative at each end); blocks
    entirely below the cut are t-free and contribute the whole window.  The
    right-endpoint search is capped at the order-1 bound, which contains
    every higher-order interval.
    """
    _require_bisect_eps(bisect_eps)
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
    cap = stability_interval_k1(gamma, cut, ctx).hi
    per_block: dict[int, Interval] = {}
    methods: dict[int, tuple[str, str]] = {}
    flags: list[str] = []
    for n in range(cut + 1):
        if n + 2 * k <= cut:
            per_block[n] = Interval(0, cap)
            methods[n] = ("direct", "direct")
            continue
        iv, meth, f = _bisect_block(gamma, n, k, cut, cap, ctx, bisect_eps)
        per_block[n] = iv
        methods[n] = meth
        flags.extend(f)
    return _assemble_report(k, cut, per_block, methods, flags)


def interiority_report(
    gamma: MomentSequence,
    cut: int,
    k: int,
    ctx: ToleranceContext = EXACT,
    bisect_eps: float = BISECT_EPS,
) -> InteriorReport:
    """Decide interiority of 1 two independent ways and compare.

    interior: 1 strictly inside the bisection interval (both endpoints are
    feasible probes, so strict inequalities certify interior points).
    pd_all: every unperturbed block at anchors n <= cut is positive
    definite, read in exact mode from the determinant ladder (all leading
    principal minors d_0(n), ..., d_k(n) positive) and in float mode from
    the smallest eigenvalue.  The two are equivalent; a mismatch is
    reported as a tolerance incident for the caller to escalate.
    """
    report = stability_interval(gamma, cut, k, ctx, bisect_eps)
    ladder = LadderVerdicts(gamma, ctx)
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
    ctx: ToleranceContext = EXACT,
) -> bool:
    """Determinant identity at the cut anchor, where the truncated block is
    a single corner: det(t*B + (1-t)*H) == t^(k+1) det(B) + (1-t) t^k
    gamma_cut Cof, Cof being the (1,1) cofactor of B."""
    if cut + 2 * k > gamma.horizon:
        raise InsufficientMomentsError(cut + 2 * k, gamma.horizon)
    t = _exactify(gamma, scale)[0] if not isinstance(scale, float) else scale
    lhs = det_bareiss(perturbed_block(gamma, cut, k, cut, t))
    full = det_bareiss(block(gamma, cut, k))
    cof = det_bareiss(block(gamma, cut + 2, k - 1)) if k >= 1 else 1
    rhs = t ** (k + 1) * full + (1 - t) * t**k * gamma[cut] * cof
    if ctx.is_exact and not _floaty(gamma) and not isinstance(t, float):
        return lhs == rhs
    return ctx.is_zero(
        float(lhs) - float(rhs),
        hadamard_bound(perturbed_block(gamma, cut, k, cut, t)),
    )


def discriminant_diagnostic(gamma: MomentSequence, cut: int) -> DiscriminantDiagnostic:
    """Compare the two quadratic discriminant ingredients; exposed for
    inspection because the inequality's hypotheses are unclear."""
    l = cut
    if cut < 2:
        raise PreconditionError("diagnostic needs cut >= 2")
    if cut + 3 > gamma.horizon:
        raise InsufficientMomentsError(cut + 3, gamma.horizon)
    g2, g1, g0, p1, p2, p3 = _exactify(
        gamma,
        gamma[l - 2],
        gamma[l - 1],
        gamma[l],
        gamma[l + 1],
        gamma[l + 2],
        gamma[l + 3],
    )
    lhs = min(g1 * g1 * p1 * p3, g2 * g0 * p2 * p2)
    rhs = (2 * g0 * p1 - g1 * p2) ** 2
    return DiscriminantDiagnostic(lhs=lhs, rhs=rhs, holds=lhs >= rhs)
