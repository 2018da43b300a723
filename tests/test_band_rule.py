"""The one float band rule outside the PSD band, decided on integers.

`ToleranceContext._in_band` decides |x| <= zero_eps + rel_eps * s (or x >=
-(zero_eps + rel_eps * s)) for x and s over one denominator.  The
recursion check (`hankel._recursion_holds`), the measure re-check of
`recover_atoms` and `measure_represents_weights`, and the weight
comparisons of `is_hyponormal` and `flat_tail_report` all read it.  Each
property test below keeps the double-arithmetic path it replaced as the
reference: the verdicts agree wherever that path's rounding cannot carry
the residual across the band edge, and the densities are the same doubles
bit for bit (the same Fractions for rational atoms in exact mode).  Every
verdict is also checked against the band rule evaluated on Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hankelshift.measures as measures
from hankelshift import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    HankelshiftError,
    InternalConsistencyError,
    MomentSequence,
    NotAtomicError,
    PreconditionError,
    Recursion,
    ToleranceContext,
    WeightSequence,
    detect_recursion,
    flat_tail_report,
    is_hyponormal,
    measure_represents_weights,
    moments_of,
    moments_to_weights,
    recover_atoms,
    solve_vandermonde,
    weights_to_moments,
)
from hankelshift.hankel import _recursion_holds

U = 2.0**-53  # the unit roundoff of a double

TOLERANCES = st.builds(
    ToleranceContext,
    st.just("float"),
    st.sampled_from([1e-300, 1e-12, 2.0**-20]),
    st.sampled_from([1e-14, 1e-10, 1e-8, 1e-6, 2.0**-30]),
)


def band(ctx: ToleranceContext, scale) -> F:
    """The band zero_eps + rel_eps * scale on Fractions."""
    return F(ctx.zero_eps) + F(ctx.rel_eps) * F(scale)


def double_band(ctx: ToleranceContext, scale: float) -> float:
    """The retired `ToleranceContext.band`, in doubles."""
    return ctx.zero_eps + ctx.rel_eps * abs(scale)


def near_edge(x: F, edge: F, err: F) -> bool:
    """x lies within err of the band edge: a rounding error of err can
    carry it across."""
    return abs(x - edge) <= err


# -- the predicate itself --------------------------------------------------


@given(
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    st.fractions(min_value=0, max_value=10**6, max_denominator=1000),
    TOLERANCES,
)
@settings(max_examples=300, deadline=None)
def test_is_zero_and_nonneg_are_the_band_on_fractions(x, scale, ctx):
    b = band(ctx, scale)
    assert ctx.is_zero(x, scale) == (abs(x) <= b)
    assert ctx.nonneg(x, scale) == (x >= -b)
    assert EXACT.is_zero(x, scale) == (x == 0)
    assert EXACT.nonneg(x, scale) == (x >= 0)


def test_is_zero_on_the_edge_and_past_the_double_range():
    ctx = ToleranceContext("float", 2.0**-10, 2.0**-10)
    # the band of scale 4 is 5/1024, exactly
    assert ctx.is_zero(F(5, 1024), 4) and ctx.nonneg(F(-5, 1024), 4.0)
    assert not ctx.is_zero(F(5, 1024) + F(1, 10**30), 4)
    assert not ctx.nonneg(F(-5, 1024) - F(1, 10**30), 4)
    # scales and values with no double are compared all the same
    assert FLOAT.is_zero(F(10**400), F(10**411)) and not FLOAT.is_zero(F(10**400), F(10**409))
    for bad in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="not finite"):
            FLOAT.is_zero(bad)


# -- the recursion check ---------------------------------------------------


def double_recursion_holds(gamma: MomentSequence, coeffs, ctx: ToleranceContext) -> bool:
    """The retired float loop of `_recursion_holds`: each residual in
    doubles within the band of the largest moment."""
    r = len(coeffs)
    scale = max(gamma._doubles)
    return all(
        abs(gamma[p + r] - sum(coeffs[i] * gamma[p + i] for i in range(r)))
        <= double_band(ctx, scale)
        for p in range(len(gamma) - r)
    )


def char_coeffs(atoms) -> list[F]:
    """a_0..a_{r-1} with prod_j (t - x_j) = t^r - a_{r-1} t^{r-1} - ... - a_0."""
    poly = [F(1)]  # ascending
    for x in atoms:
        poly = [F(0), *poly]
        for i in range(len(poly) - 1):
            poly[i] -= x * poly[i + 1]
    return [-c for c in poly[:-1]]


ATOMS = st.lists(
    st.fractions(min_value=0, max_value=12, max_denominator=8), min_size=1, max_size=3, unique=True
)
DENSITIES = st.fractions(min_value=F(1, 16), max_value=16, max_denominator=16)


@st.composite
def recursion_cases(draw):
    """Moments of a rational measure, exact or rounded to doubles, with its
    recursion's coefficients, off by a drawn relative amount."""
    atoms = sorted(draw(ATOMS))
    dens = [draw(DENSITIES) for _ in atoms]
    horizon = draw(st.integers(len(atoms), 2 * len(atoms) + 5))
    values = [sum(d * x**n for x, d in zip(atoms, dens)) for n in range(horizon + 1)]
    noise = draw(st.sampled_from([0, F(1, 10**15), F(1, 10**12), F(1, 10**9), F(1, 10**6)]))
    coeffs = [c * (1 + noise * draw(st.integers(-3, 3))) for c in char_coeffs(atoms)]
    if draw(st.booleans()):
        return tuple(values), tuple(coeffs), EXACT
    return tuple(map(float, values)), tuple(map(float, coeffs)), draw(TOLERANCES)


@given(recursion_cases())
@example(((4.0, 4.0, 4.0 - 5 / 1024), (1.0,), ToleranceContext("float", 2.0**-10, 2.0**-10)))
@settings(max_examples=300, deadline=None)
def test_recursion_check_matches_the_double_loop(case):
    values, coeffs, ctx = case
    gamma = MomentSequence(values)
    got = _recursion_holds(gamma, coeffs, 0, ctx)
    r = len(coeffs)
    g, c = [F(v) for v in values], [F(v) for v in coeffs]
    residuals = [g[p + r] - sum(c[i] * g[p + i] for i in range(r)) for p in range(len(g) - r)]
    if ctx.is_exact:
        assert got == (not any(residuals))
        return
    b = band(ctx, max(g))
    assert got == all(abs(x) <= b for x in residuals)
    # The double loop rounds each residual within (r + 2) u of the sum of
    # its terms' magnitudes, and its band within 3u.
    err = [
        (r + 2) * F(U) * (abs(g[p + r]) + sum(abs(c[i] * g[p + i]) for i in range(r)))
        + 3 * F(U) * b
        for p in range(len(residuals))
    ]
    exact_ref = all(
        F(values[p + r] - sum(coeffs[i] * values[p + i] for i in range(r))) == x
        for p, x in enumerate(residuals)
    ) and F(double_band(ctx, max(values))) == b
    if exact_ref or not any(near_edge(abs(x), b, e) for x, e in zip(residuals, err)):
        assert got == double_recursion_holds(gamma, coeffs, ctx)


def test_the_band_example_sits_on_the_edge():
    ctx = ToleranceContext("float", 2.0**-10, 2.0**-10)
    gamma = MomentSequence((4.0, 4.0, 4.0 - 5 / 1024))
    assert _recursion_holds(gamma, (1.0,), 0, ctx)
    assert not _recursion_holds(MomentSequence((4.0, 4.0, 4.0 - 6 / 1024)), (1.0,), 0, ctx)


# -- density solve and measure re-check ------------------------------------


def double_recover(rec, gamma: MomentSequence, ctx: ToleranceContext):
    """The retired float block of `recover_atoms`: `solve_vandermonde` in
    float mode, then the measure's moments in doubles (`moments_of`)
    against gamma within the default band of the largest moment."""
    atoms = measures._nonneg_roots(rec, ctx)
    densities = solve_vandermonde(atoms, [gamma[i] for i in range(rec.order)], FLOAT)
    for rho in densities:
        if not rho > 0:
            raise NotAtomicError("density")
    mu = AtomicMeasure(atoms=tuple(atoms), densities=tuple(densities))
    check = moments_of(mu, gamma.horizon)
    scale = max(gamma._doubles)
    for c, v in zip(check, gamma._doubles):
        if not abs(c - v) <= double_band(FLOAT, scale):
            raise InternalConsistencyError("mismatch")
    return mu


def moment_edges(mu: AtomicMeasure, gamma: MomentSequence, ctx: ToleranceContext) -> bool:
    """Some residual of mu's moments against gamma, on Fractions, lies
    within the rounding error of `moments_of` in doubles of the band edge."""
    g = [F(v) for v in gamma.values]
    b = band(ctx, max(g))
    atoms, dens = [F(x) for x in mu.atoms], [F(d) for d in mu.densities]
    for n, gn in enumerate(g):
        terms = [d * x**n for x, d in zip(atoms, dens)]
        err = (n + len(terms) + 2) * F(U) * (sum(terms) + gn) + 3 * F(U) * b
        if near_edge(abs(sum(terms) - gn), b, err):
            return True
    return False


def outcome(call):
    try:
        return call()
    except HankelshiftError as exc:
        return type(exc)


@st.composite
def quadratic_moments(draw):
    """gamma_{n+2} = s gamma_{n+1} - p gamma_n: two positive irrational atoms
    (s -+ sqrt(s^2 - 4p)) / 2, whose densities come out positive."""
    s = F(draw(st.integers(6, 72)), 6)
    p = F(draw(st.integers(1, math.floor(6 * s * s / 4))), 6)
    disc = s * s - 4 * p
    roots = [math.isqrt(v) for v in (disc.numerator, disc.denominator)]
    assume(disc > 0 and [v * v for v in roots] != [disc.numerator, disc.denominator])
    g0 = draw(DENSITIES)
    # gamma_1 / gamma_0 strictly between the atoms, which lie at s/2 -+ sqrt(disc)/2
    w = F(math.isqrt(disc.numerator * 10**6 // disc.denominator), 2 * 10**3)
    lam = draw(st.fractions(min_value=-F(9, 10), max_value=F(9, 10), max_denominator=10))
    g1 = g0 * (s / 2 + w * lam)
    values = [g0, g1]
    for _ in range(draw(st.integers(3, 8))):
        values.append(s * values[-1] - p * values[-2])
    return values


@st.composite
def atomic_moments(draw):
    """(values, ctx): moments of a rational or a quadratic-irrational
    measure, exact or rounded to doubles, in exact or float mode."""
    if draw(st.booleans()):
        atoms = sorted(draw(ATOMS))
        dens = [draw(DENSITIES) for _ in atoms]
        horizon = draw(st.integers(2 * len(atoms), 2 * len(atoms) + 4))
        values = [sum(d * x**n for x, d in zip(atoms, dens)) for n in range(horizon + 1)]
    else:
        values = draw(quadratic_moments())
    if draw(st.booleans()):
        values = [float(v) for v in values]
    return tuple(values), draw(st.sampled_from([EXACT, FLOAT]))


@given(atomic_moments())
# float moments with rational atoms in exact mode: Fractions of their binary values
@example(((0.4, 2.0, 10.0, 50.0, 250.0), EXACT))
@settings(max_examples=200, deadline=None)
def test_recovered_densities_match_the_float_vandermonde_solve(case):
    values, ctx = case
    gamma = MomentSequence(values)
    rec = outcome(lambda: detect_recursion(gamma, 4, ctx))
    assume(rec not in (None, PreconditionError))
    got = outcome(lambda: recover_atoms(rec, gamma, ctx))
    atoms = outcome(lambda: measures._nonneg_roots(rec, ctx))
    if not isinstance(atoms, list):
        assert got is atoms
        return
    if ctx.is_exact and not any(isinstance(x, float) for x in atoms):
        want = solve_vandermonde(atoms, [F(gamma[i]) for i in range(rec.order)], EXACT)
        if all(d > 0 for d in want):
            assert got.densities == want
            assert all(type(d) is F for d in got.densities)
        return
    ref = outcome(lambda: double_recover(rec, gamma, ctx))
    if isinstance(got, AtomicMeasure) and isinstance(ref, AtomicMeasure):
        assert got == ref
        assert [d.hex() for d in got.densities] == [d.hex() for d in ref.densities]
        return
    dens = solve_vandermonde(atoms, [gamma[i] for i in range(rec.order)], FLOAT)
    mu = AtomicMeasure(tuple(atoms), tuple(dens)) if all(d > 0 for d in dens) else None
    if mu is not None and moment_edges(mu, gamma, FLOAT):
        return
    assert got == ref


def test_irrational_atoms_with_moments_past_the_double_range():
    # densities 10^305 of the atoms 2 -+ sqrt(2): gamma_7 has no double,
    # which the double re-check needed
    values = [2, 4]
    while len(values) < 9:
        values.append(4 * values[-1] - 2 * values[-2])
    gamma = MomentSequence(v * 10**305 for v in values)
    rec = detect_recursion(gamma, 4)
    mu = recover_atoms(rec, gamma)
    assert mu.atoms == (0.585786437626905, 3.414213562373095)
    assert mu.densities == (1e305, 1.0000000000000001e305)
    with pytest.raises(PreconditionError, match="beyond the double range"):
        double_recover(rec, gamma, EXACT)


def test_a_root_snapped_to_zero_beside_the_root_zero_repeats_a_node():
    # h(t) = t^3 - (1 - e) t^2 - e t with e = 2^-60: 1 - e rounds to 1.0,
    # leaving the roots 0, about -e (snapped to the atom 0.0) and about 1
    rec = Recursion(3, (0.0, 2.0**-60, 1 - 2.0**-60))
    gamma = MomentSequence([3.0] + [1.0] * 6)
    with pytest.raises(PreconditionError, match="repeated node"):
        recover_atoms(rec, gamma, FLOAT)


def double_represents(alpha: WeightSequence, mu: AtomicMeasure, ctx: ToleranceContext) -> bool:
    """The retired float body of `measure_represents_weights`."""
    gamma = weights_to_moments(alpha)
    mg = moments_of(mu, gamma.horizon)
    scale = max(gamma._doubles)
    for n in range(len(gamma)):
        if not abs(mg[n] - gamma[n]) <= double_band(ctx, scale):
            return False
    sup = alpha.sq_sup
    return sup - max(mu.atoms) >= -double_band(ctx, float(sup))


@given(
    ATOMS,
    st.data(),
    st.sampled_from([0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3]),
    TOLERANCES,
)
@settings(max_examples=200, deadline=None)
def test_measure_re_check_matches_the_double_moments(atoms, data, noise, ctx):
    assume(any(atoms))  # gamma_1 = 0 has no weights
    atoms = sorted(atoms)
    dens = [data.draw(DENSITIES) for _ in atoms]
    mass = sum(dens)
    mu_exact = AtomicMeasure(tuple(atoms), tuple(d / mass for d in dens))
    gamma = moments_of(mu_exact, 2 * len(atoms) + 2)
    alpha = WeightSequence([float(v) for v in moments_to_weights(gamma).sq])
    shift = [1 + noise * data.draw(st.integers(-2, 2)) for _ in atoms]
    mu = AtomicMeasure(
        tuple(float(x) for x in atoms),
        tuple(float(d / mass) * s for d, s in zip(dens, shift)),
    )
    got = measure_represents_weights(alpha, mu, ctx)
    weights_gamma = weights_to_moments(alpha)
    sup, top = F(alpha.sq_sup), F(max(mu.atoms))
    support = sup - top >= -band(ctx, sup)
    binary = AtomicMeasure(tuple(map(F, mu.atoms)), tuple(map(F, mu.densities)))
    moments = zip(moments_of(binary, weights_gamma.horizon).values, weights_gamma.values)
    b = band(ctx, max(map(F, weights_gamma.values)))
    assert got == (support and all(abs(m - F(g)) <= b for m, g in moments))
    edge = moment_edges(mu, weights_gamma, ctx)
    edge = edge or near_edge(sup - top, -band(ctx, sup), 4 * F(U) * (sup + top))
    if not edge:
        assert got == double_represents(alpha, mu, ctx)


# -- weight comparisons ----------------------------------------------------


def double_is_hyponormal(alpha: WeightSequence, ctx: ToleranceContext) -> bool:
    """The retired float `is_hyponormal`: differences of the squared
    weights against the band of the largest, rounded to a double."""
    sq, scale = alpha.sq, max(float(v) for v in alpha.sq)
    return all(sq[n + 1] - sq[n] >= -double_band(ctx, scale) for n in range(len(sq) - 1))


def double_flat_tail(alpha: WeightSequence, ctx: ToleranceContext) -> tuple:
    """The retired float pair scan of `flat_tail_report`."""
    sq, scale = alpha.sq, max(float(v) for v in alpha.sq)

    def equal(a, b) -> bool:
        return abs(a - b) <= double_band(ctx, scale)

    pair = next((n for n in range(len(sq) - 1) if equal(sq[n], sq[n + 1])), None)
    if pair is None:
        return None, None, False
    verified = all(equal(sq[n], sq[pair]) for n in range(1, len(sq)))
    return pair, verified, len(sq) > 1 and not equal(sq[0], sq[pair])


@given(
    st.lists(
        st.fractions(min_value=F(1, 8), max_value=8, max_denominator=12), min_size=1, max_size=4
    ),
    st.lists(st.sampled_from([0, 1e-16, 1e-13, 1e-10, 1e-8, 1e-3]), min_size=8, max_size=8),
    st.lists(st.integers(-1, 1), min_size=8, max_size=8),
    st.booleans(),
    TOLERANCES,
)
# 4 - (2^-8 + 2^-20) sits on the edge of the band of 4, 2^-20 + 2^-10 * 4
@example([F(4)], [0, 2.0**-10 + 2.0**-22] + [0] * 6, [0, -1] + [0] * 6, True,
         ToleranceContext("float", 2.0**-20, 2.0**-10))
@settings(max_examples=300, deadline=None)
def test_weight_comparisons_match_the_double_ones(base, noise, signs, floats, ctx):
    # each base weight twice, nudged, so pairs sit inside, on and outside
    # the band
    sq = [base[n // 2] * (1 + F(noise[n]) * signs[n]) for n in range(2 * len(base))]
    alpha = WeightSequence([float(v) for v in sq] if floats else sq)
    exact = [F(v) for v in alpha.sq]
    b = band(ctx, max(exact))
    got_hypo = is_hyponormal(alpha, ctx)
    got_flat = flat_tail_report(alpha, 2, ctx)
    assert got_hypo == all(y - x >= -b for x, y in zip(exact, exact[1:]))
    assert is_hyponormal(alpha, EXACT) == all(y >= x for x, y in zip(exact, exact[1:]))
    # A double difference is within u of the exact one (exact when the
    # weights are Fractions), the double band within 4u.
    pairs = [(x, y) for x in exact for y in exact]
    edge = any(near_edge(abs(x - y), b, F(U) * abs(x - y) + 4 * F(U) * b) for x, y in pairs)
    exact_ref = all(F(float(x) - float(y)) == x - y for x, y in pairs) and F(
        double_band(ctx, float(max(exact)))
    ) == b
    if exact_ref or not edge:
        assert got_hypo == double_is_hyponormal(alpha, ctx)
        want = double_flat_tail(alpha, ctx)
        got = (got_flat.pair_index, got_flat.propagation_verified, got_flat.alpha0_exception)
        assert got == want
