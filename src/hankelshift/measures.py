"""Moment-side layer: moments of finite atomic measures, detection of
linear moment recursions, the finite-mass (vanishing-determinant) test,
and recovery of atoms and densities from a detected recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .hankel import BlockIndex, MomentSequence, _corner_fit, _kept_recursion, _recursion_holds
from .numkit import (
    EXACT,
    FLOAT,
    HankelshiftError,
    InternalConsistencyError,
    PreconditionError,
    Scalar,
    ToleranceContext,
    _integer_view,
    _over_lcm,
    _rounded,
    _solve_integer,
    real_roots,
    solve_linear_exact,
)

if TYPE_CHECKING:
    from .shifts import WeightSequence

__all__ = [
    "AtomicMeasure",
    "Recursion",
    "FiniteMassReport",
    "NotAtomicError",
    "NotStieltjesError",
    "moments_of",
    "exact_moments",
    "detect_recursion",
    "is_finite_mass",
    "recover_atoms",
    "measure_represents_weights",
]


class NotAtomicError(HankelshiftError):
    """The given recursion does not describe a finite positive atomic measure
    on the half line (complex, negative or repeated characteristic roots, or
    nonpositive densities).  A verdict about the input, not a usage error."""


class NotStieltjesError(PreconditionError):
    """Input failed the double Hankel positivity screen, so it is not the
    moment sequence of a positive measure on the half line."""


@dataclass(frozen=True)
class AtomicMeasure:
    """mu = sum_j densities[j] * delta_{atoms[j]}, atoms strictly increasing
    and nonnegative, densities strictly positive."""

    atoms: tuple[Scalar, ...]
    densities: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        _check_measure(self.atoms, self.densities)

    @property
    def mass(self) -> Scalar:
        return sum(self.densities)


def _check_measure(atoms: Sequence[Scalar], densities: Sequence[Scalar]) -> None:
    # The conditions of `AtomicMeasure`, on its values or on the integer
    # views of atoms and densities (a common denominator keeps every order).
    if not atoms:
        raise ValueError("an atomic measure needs at least one atom")
    if len(atoms) != len(densities):
        raise ValueError("atoms and densities must have equal length")
    if atoms[0] < 0:
        raise ValueError("atoms must be nonnegative")
    for i in range(len(atoms) - 1):
        if not atoms[i] < atoms[i + 1]:
            raise ValueError("atoms must be strictly increasing")
    for rho in densities:
        if not rho > 0:
            raise ValueError("densities must be strictly positive")


@dataclass(frozen=True)
class Recursion:
    """gamma_{p+order} = coeffs[order-1]*gamma_{p+order-1} + ... +
    coeffs[0]*gamma_p for every p >= valid_from on the horizon."""

    order: int
    coeffs: tuple[Scalar, ...]
    valid_from: int = 0

    def __post_init__(self) -> None:
        if self.order < 1 or len(self.coeffs) != self.order:
            raise ValueError("recursion needs exactly `order` coefficients")

    def holds_on(self, gamma: MomentSequence, ctx: ToleranceContext = EXACT) -> bool:
        """The recursion fits every index from valid_from on the horizon,
        decided on one integer residual per index (over
        `MomentSequence.integer_view` and the coefficients scaled by their
        common denominator): 0 in exact mode, within the float band of the
        largest moment otherwise."""
        return _recursion_holds(gamma, self.coeffs, self.valid_from, ctx)


@dataclass(frozen=True)
class FiniteMassReport:
    finite: bool
    witness: Optional[BlockIndex] = None


def moments_of(mu: AtomicMeasure, horizon: int) -> MomentSequence:
    """gamma_n = sum_j rho_j * x_j^n for n = 0..horizon.

    Exact measures (no float atom or density) are summed over the integers
    (`exact_moments`) into a `MomentSequence.scaled`.
    """
    if horizon < 0:
        raise PreconditionError("horizon must be >= 0")
    if not any(isinstance(v, float) for v in list(mu.atoms) + list(mu.densities)):
        return exact_moments(_integer_view(mu.atoms), _integer_view(mu.densities), horizon)
    floats = [float(x) for x in mu.atoms]
    values: list[Scalar] = []
    powers = [float(r) for r in mu.densities]
    for n in range(horizon + 1):
        values.append(sum(powers))
        if not math.isfinite(values[-1]):
            raise PreconditionError(
                f"a moment lies beyond the double range: gamma_{n} of the float measure"
            )
        powers = [p * x for p, x in zip(powers, floats)]
    return MomentSequence(tuple(values))


def exact_moments(
    atoms: tuple[Sequence[int], int], densities: tuple[Sequence[int], int], horizon: int
) -> MomentSequence:
    """`moments_of` the exact measure given by the integer views (nums,
    den) of its atoms and of its densities, which must satisfy the
    conditions of `AtomicMeasure` (a ValueError names the first that
    fails), without building it or any Fraction.

    With x_j = a_j / A and rho_j = r_j / R, gamma_n = S_n / (R A^n), S_n =
    sum_j r_j a_j^n; each is put in lowest terms, one gcd, and all over the
    lcm of the reduced denominators, the integer view of the values.
    """
    _check_measure(atoms[0], densities[0])
    if horizon < 0:
        raise PreconditionError("horizon must be >= 0")
    a, a_den = atoms
    powers, den = densities
    moments = []
    for _ in range(horizon + 1):
        total = sum(powers)
        g = math.gcd(total, den)
        moments.append((total // g, den // g))
        powers = [p * x for p, x in zip(powers, a)]
        den *= a_den
    return MomentSequence.scaled(*_over_lcm(moments))


def detect_recursion(
    gamma: MomentSequence, max_order: int, ctx: ToleranceContext = EXACT
) -> Optional[Recursion]:
    """Minimal-order linear recursion fitting every feasible index, or None.

    Orders are capped at horizon//2 so the fitted system always has more
    equations than unknowns.  A recursion of order s makes d_s(0) = 0, so
    both modes read `gamma.ladder(ctx).rank`: its order r is the first with
    `vanishes(0, r)`, in float mode the first whose relative anchor-0 pivot
    d_r(0) / (d_{r-1}(0) gamma_{2r}) is at most rel_eps.  Nothing is tried
    when r is above the cap, and nothing is solved when block(0, cap) is
    PD.  The rank's order-r recursion, solved exactly on block(0, r-1) over
    the moments' binary values and in float mode rounded once, is returned
    when it holds (`Recursion.holds_on`).  Otherwise exact mode runs the
    overdetermined exact fit from order r+2 up, as an order-(r+1) recursion
    would make the leading r+1 x r+1 block of the extended sequence
    nonsingular (Kronecker).  Float mode, whose r may be a small nonzero
    pivot, returns the first such rounded fit on block(0, s-1), s = r+1 up
    to the cap, that holds.
    """
    if max_order < 1:
        return None
    cap = min(max_order, gamma.horizon // 2)
    ladder = gamma.ladder(ctx)
    if ladder.pd(0, cap):
        return None
    rank = ladder.rank
    if rank.order is None or rank.order > cap:
        return None
    if rank.coeffs is not None:
        return Recursion(order=rank.order, coeffs=rank.coeffs, valid_from=0)
    if not ctx.is_exact:
        for r in range(rank.order + 1, cap + 1):
            coeffs = _corner_fit(gamma, r, ctx)
            if coeffs is not None and _recursion_holds(gamma, coeffs, 0, ctx):
                return Recursion(order=r, coeffs=coeffs, valid_from=0)
        return None
    # The integers of integer_view: scaling every moment by one denominator
    # leaves the recursion's coefficients unchanged.
    g = gamma.integer_view[0]
    for r in range(rank.order + 2, cap + 1):
        sol = solve_linear_exact([g[p:p + r] for p in range(len(g) - r)], g[r:])
        if sol is not None:
            return Recursion(order=r, coeffs=sol, valid_from=0)
    return None


def _stieltjes_screen(gamma: MomentSequence, ctx: ToleranceContext) -> None:
    # Every feasible block of (gamma_{i+j}) is a principal submatrix of the
    # maximal even-anchor block, and every (gamma_{i+j+1}) block of the
    # maximal odd-anchor one, so two PSD questions to the ladder cover the
    # whole family.
    ladder = gamma.ladder(ctx)
    if not ladder.psd(0, gamma.horizon // 2):
        raise NotStieltjesError(
            "moment blocks anchored at even indices are not all PSD; "
            "not a moment sequence of a positive measure"
        )
    if gamma.horizon >= 1 and not ladder.psd(1, (gamma.horizon - 1) // 2):
        raise NotStieltjesError(
            "shifted moment blocks (anchored at odd indices) are not all "
            "PSD; no representing positive measure lives on the half line"
        )


def is_finite_mass(
    gamma: MomentSequence, ctx: ToleranceContext = EXACT
) -> FiniteMassReport:
    """Finite atomic character: some feasible block determinant vanishes.

    Requires the double Hankel positivity screen to pass first: the maximal
    even- and odd-anchored blocks must be PSD, as `gamma.ladder(ctx).psd`
    decides them (in exact mode from the minors and the rank structure,
    with a pivot elimination only where neither decides).  Then scans
    (order, anchor) lexicographically over the same ladder's tables and
    reports the first that vanishes (`LadderVerdicts.zeros`, by relative
    leading pivots in float mode) as the witness.
    """
    _stieltjes_screen(gamma, ctx)
    ladder = gamma.ladder(ctx)
    for k in range(gamma.horizon // 2 + 1):
        p = next((p for p, zero in enumerate(ladder.zeros(k)) if zero), None)
        if p is not None:
            return FiniteMassReport(finite=True, witness=BlockIndex(p, k))
    return FiniteMassReport(finite=False, witness=None)


def _nonneg_roots(rec: Recursion, ctx: ToleranceContext) -> list[Scalar]:
    # The roots of h(t) = t^r - a_{r-1} t^{r-1} - ... - a_0, ascending; a
    # NotAtomicError unless all are real, simple and nonnegative, up to the
    # float rounding of a root at 0 (`recover_atoms`).
    degree = rec.order
    roots = real_roots([1] + [-a for a in reversed(rec.coeffs)])
    if roots is None:
        raise NotAtomicError(
            "repeated characteristic root (nontrivial gcd with derivative)"
        )
    if len(roots) < degree:
        raise NotAtomicError(
            f"{degree - len(roots)} of {degree} characteristic roots are not real"
        )
    if not ctx.is_exact:
        small = ctx.rel_eps * max(abs(x) for x in roots)
        roots = [0.0 if -small <= x < 0 else x for x in roots]
    negative = sum(x < 0 for x in roots)
    if negative:
        raise NotAtomicError(
            f"{negative} of {degree} characteristic roots are negative"
        )
    return roots


def recover_atoms(
    rec: Recursion, gamma: MomentSequence, ctx: ToleranceContext = EXACT
) -> AtomicMeasure:
    """Atoms are the roots of the recursion's characteristic polynomial,
    densities solve the Vandermonde system against gamma_0..gamma_{r-1}.

    All roots must be real, distinct and nonnegative (in float mode a
    negative root within rel_eps * max|root| is the atom 0.0) and all
    densities strictly positive, else the input is not a finite positive
    atomic measure on the half line.  Roots are isolated exactly (Sturm sequences
    over the exact coefficients, binary rationals in float mode): a
    rational root comes back as an exact Fraction, an irrational one as the
    correctly rounded double of the certified root (the CLI warns when
    exact mode returns such atoms).  The densities are solved once, on the
    integers of the moments and atoms (floats at their binary values): as
    Fractions when the atoms are rational in exact mode, else each rounded
    once to a double (past the double range, a PreconditionError).  The
    measure is re-checked against every moment on the horizon on integers
    (`_mismatch`): exactly when it is exact, else within the default
    `FLOAT` band of the largest moment, whatever ctx's tolerances.  The
    recursion is first checked against gamma, unless it is the one that
    the rank of gamma's kept ladder under ctx has verified
    (`LadderVerdicts.rank`).
    """
    if rec.valid_from != 0:
        raise PreconditionError("recursion must be valid from index 0")
    if rec.coeffs != _kept_recursion(gamma, ctx) and not rec.holds_on(gamma, ctx):
        raise PreconditionError("recursion does not fit the sequence it came with")
    r = rec.order
    if gamma.horizon < r - 1:
        raise PreconditionError("horizon too short to solve for densities")
    atoms = _nonneg_roots(rec, ctx)
    a, a_den = _integer_view(atoms)
    if any(x == y for x, y in zip(a, a[1:])):  # merged by rounding, or by the snap to 0.0
        raise PreconditionError("repeated node: two roots give one atom")
    exact = ctx.is_exact and not any(isinstance(x, float) for x in atoms)
    # Sum_j c_j a_j^i = C G_i A^i, i < r, for x_j = a_j / A and the integers
    # G = D * gamma, is solved as integers (c_j, C), so rho_j = c_j / (C D).
    g, den = gamma.integer_view
    sol = _solve_integer(
        [[x**i for x in a] for i in range(r)], [g[i] * a_den**i for i in range(r)]
    )
    if sol is None:
        raise InternalConsistencyError("distinct-node Vandermonde system unsolvable")
    c, lead = sol
    densities = tuple((Fraction if exact else _rounded)(cj, lead * den) for cj in c)
    if not exact and any(map(math.isinf, densities)):
        raise PreconditionError(
            "a solution of the float Vandermonde system lies beyond the double range"
        )
    for x, rho in zip(atoms, densities):
        if not rho > 0:
            raise NotAtomicError(f"density {rho} at atom {x} is not positive")
    n = _mismatch(atoms, densities, gamma, EXACT if exact else FLOAT)
    if n is not None:
        m = sum(Fraction(d) * Fraction(x) ** n for x, d in zip(atoms, densities))
        moment = m if exact else _rounded(m.numerator, m.denominator)
        raise InternalConsistencyError(
            f"recovered measure mismatches gamma_{n}: {moment} != {gamma[n]}"
        )
    return AtomicMeasure(atoms=tuple(atoms), densities=densities)


def _mismatch(
    atoms: Sequence[Scalar], densities: Sequence[Scalar], gamma: MomentSequence,
    ctx: ToleranceContext,
) -> Optional[int]:
    # The first n at which the measure's moment sum_j rho_j x_j^n is not
    # gamma_n within ctx's band of max gamma, else None.  With x_j = a_j / A,
    # rho_j = r_j / R and gamma_n = G_n / D, the residual over the one
    # denominator R A^N D (N the horizon) is sum_j r_j a_j^n A^(N-n) D - G_n R A^N.
    (a, a_den), (r, r_den) = _integer_view(atoms), _integer_view(densities)
    g, den = gamma.integer_view
    lift = a_den ** (len(g) - 1)
    full = r_den * lift
    top = max(g) * full

    def residuals(terms: list[int], lift: int) -> Iterator[tuple[int, int]]:
        for gn in g:
            yield sum(terms) * lift * den - gn * full, top
            terms = [t * x for t, x in zip(terms, a)]
            lift //= a_den

    verdicts = ctx._in_band(residuals(r, lift), full * den)
    return next((n for n, ok in enumerate(verdicts) if not ok), None)


def measure_represents_weights(
    alpha: WeightSequence, mu: AtomicMeasure, ctx: ToleranceContext = EXACT
) -> bool:
    """True iff the measure's moments reproduce the shift's moments on the
    whole prefix and the largest atom respects the squared-weight norm
    surrogate (support bound), both compared on integers (`_mismatch`),
    exactly in exact mode and within ctx's band otherwise."""
    from .shifts import weights_to_moments

    gamma = weights_to_moments(alpha)
    if _mismatch(mu.atoms, mu.densities, gamma, ctx) is not None:
        return False
    (sup, top), den = _integer_view([alpha.sq_sup, max(mu.atoms)])
    return next(ctx._in_band([(sup - top, sup)], den, signed=True))
