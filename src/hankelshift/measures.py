"""Moment-side layer: moments of finite atomic measures, detection of
linear moment recursions, the finite-mass (vanishing-determinant) test,
and recovery of atoms and densities from a detected recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .hankel import (
    BlockIndex,
    MomentSequence,
    block,
    det_is_zero,
    det_ladder,
)
from .numkit import (
    EXACT,
    FLOAT,
    HankelshiftError,
    InternalConsistencyError,
    PreconditionError,
    Scalar,
    ToleranceContext,
    is_psd,
    solve_linear_exact,
    solve_vandermonde,
)
from .shifts import WeightSequence, weights_to_moments

__all__ = [
    "AtomicMeasure",
    "Recursion",
    "FiniteMassReport",
    "NotAtomicError",
    "NotStieltjesError",
    "moments_of",
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
        if not self.atoms:
            raise ValueError("an atomic measure needs at least one atom")
        if len(self.atoms) != len(self.densities):
            raise ValueError("atoms and densities must have equal length")
        if self.atoms[0] < 0:
            raise ValueError("atoms must be nonnegative")
        for i in range(len(self.atoms) - 1):
            if not self.atoms[i] < self.atoms[i + 1]:
                raise ValueError("atoms must be strictly increasing")
        for rho in self.densities:
            if not rho > 0:
                raise ValueError("densities must be strictly positive")

    @property
    def mass(self) -> Scalar:
        return sum(self.densities)


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
        r = self.order
        scale = 0.0 if ctx.is_exact else gamma.max_abs()
        for p in range(self.valid_from, len(gamma) - r):
            predicted = sum(self.coeffs[i] * gamma[p + i] for i in range(r))
            if not ctx.is_zero(gamma[p + r] - predicted, scale):
                return False
        return True


@dataclass(frozen=True)
class FiniteMassReport:
    finite: bool
    witness: Optional[BlockIndex] = None


def moments_of(mu: AtomicMeasure, horizon: int) -> MomentSequence:
    """gamma_n = sum_j rho_j * x_j^n for n = 0..horizon."""
    if horizon < 0:
        raise PreconditionError("horizon must be >= 0")
    exact = not any(
        isinstance(v, float) for v in list(mu.atoms) + list(mu.densities)
    )
    if exact:
        atoms = [Fraction(x) for x in mu.atoms]
        dens = [Fraction(r) for r in mu.densities]
    else:
        atoms = [float(x) for x in mu.atoms]
        dens = [float(r) for r in mu.densities]
    values: list[Scalar] = []
    powers = list(dens)
    for n in range(horizon + 1):
        values.append(sum(powers))
        powers = [p * x for p, x in zip(powers, atoms)]
    return MomentSequence(tuple(values))


def detect_recursion(
    gamma: MomentSequence, max_order: int, ctx: ToleranceContext = EXACT
) -> Optional[Recursion]:
    """Minimal-order linear recursion fitting every feasible index, or None.

    Orders are capped at horizon//2 so the fitted system always has more
    equations than unknowns.  Exact mode demands an exact fit; float mode
    accepts a least-squares fit whose residual is within rel_eps of the
    sequence scale.
    """
    if max_order < 1:
        return None
    cap = min(max_order, gamma.horizon // 2)
    n = len(gamma)
    for r in range(1, cap + 1):
        rows = [[gamma[p + i] for i in range(r)] for p in range(n - r)]
        rhs = [gamma[p + r] for p in range(n - r)]
        if ctx.is_exact:
            sol = solve_linear_exact(rows, rhs)
            if sol is not None:
                return Recursion(order=r, coeffs=tuple(sol), valid_from=0)
        else:
            a = np.array([[float(x) for x in row] for row in rows], dtype=float)
            b = np.array([float(v) for v in rhs], dtype=float)
            x, *_ = np.linalg.lstsq(a, b, rcond=None)
            residual = float(np.max(np.abs(a @ x - b)))
            if residual <= ctx.rel_eps * gamma.max_abs():
                return Recursion(
                    order=r, coeffs=tuple(float(v) for v in x), valid_from=0
                )
    return None


def _stieltjes_screen(gamma: MomentSequence, ctx: ToleranceContext) -> None:
    # Every feasible block of (gamma_{i+j}) is a principal submatrix of the
    # maximal even-anchor block, and every (gamma_{i+j+1}) block of the
    # maximal odd-anchor one, so two PSD checks cover the whole family.
    n = gamma.horizon
    even = block(gamma, 0, n // 2)
    if not is_psd(even, ctx):
        raise NotStieltjesError(
            "moment blocks anchored at even indices are not all PSD; "
            "not a moment sequence of a positive measure"
        )
    if n >= 1:
        odd = block(gamma, 1, (n - 1) // 2)
        if not is_psd(odd, ctx):
            raise NotStieltjesError(
                "shifted moment blocks (anchored at odd indices) are not all "
                "PSD; no representing positive measure lives on the half line"
            )


def is_finite_mass(
    gamma: MomentSequence, ctx: ToleranceContext = EXACT
) -> FiniteMassReport:
    """Finite atomic character: some feasible block determinant vanishes.

    Requires the double Hankel positivity screen to pass first; scans
    (order, anchor) lexicographically and reports the first vanishing
    determinant as the witness.
    """
    _stieltjes_screen(gamma, ctx)
    for table in det_ladder(gamma, ctx):
        for p in table.anchors():
            if det_is_zero(gamma, p, table.k, table.dets[p], ctx):
                return FiniteMassReport(finite=True, witness=BlockIndex(p, table.k))
    return FiniteMassReport(finite=False, witness=None)


# Polynomials below are coefficient lists in descending degree, exact.


def _poly_deriv(poly: Sequence[Fraction]) -> list[Fraction]:
    d = len(poly) - 1
    return [c * (d - i) for i, c in enumerate(poly[:-1])]


def _poly_mod(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    # Leading-aligned long division remainder; b must have a nonzero lead.
    rem = list(a)
    db = len(b) - 1
    while len(rem) - 1 >= db:
        if rem[0] == 0:
            rem.pop(0)
            continue
        factor = rem[0] / b[0]
        for i in range(len(b)):
            rem[i] -= factor * b[i]
        rem.pop(0)
    while rem and rem[0] == 0:
        rem.pop(0)
    return rem


def _characteristic(rec: Recursion) -> list[Fraction]:
    # h(t) = t^r - a_{r-1} t^{r-1} - ... - a_0
    return [Fraction(1)] + [-Fraction(a) for a in reversed(rec.coeffs)]


def _primitive(poly: Sequence[Fraction]) -> list[int]:
    # A positive multiple with coprime integer coefficients: same roots and
    # the same sign everywhere.
    den = math.lcm(*(c.denominator for c in poly))
    ints = [c.numerator * (den // c.denominator) for c in poly]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _scaled_value(poly: Sequence[int], num: int, den: int) -> int:
    # den^deg * poly(num/den), whose sign is that of poly at num/den.
    acc, power = 0, 1
    for c in poly:
        acc = acc * num + c * power
        power *= den
    return acc


def _sign_changes(values: Sequence[int]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _nonneg_roots(poly: Sequence[Fraction]) -> list[Scalar]:
    """Every root of poly in ascending order: a Fraction when the root is
    rational, else the correctly rounded double of the certified root.

    Raises NotAtomicError unless every root is real, simple and nonnegative.
    With V(x) the sign changes of the Sturm chain at x, a squarefree poly has
    exactly V(a) - V(b) roots in (a, b].  Roots are isolated by bisection of
    (0, 2^E] at dyadic points and refined until the interval is narrower
    than 1/lead: a rational root of the primitive integer poly has the form
    m/lead, so the one such point inside is the only candidate.
    """
    chain = [list(poly), _poly_deriv(poly)]
    while chain[-1]:
        chain.append([-c for c in _poly_mod(chain[-2], chain[-1])])
    chain.pop()
    if len(chain[-1]) > 1:
        raise NotAtomicError(
            "repeated characteristic root (nontrivial gcd with derivative)"
        )
    chain = [_primitive(p) for p in chain]
    h = chain[0]
    degree, lead = len(h) - 1, abs(h[0])

    def changes_at(num: int, e: int) -> int:
        return _sign_changes([_scaled_value(p, num, 1 << e) for p in chain])

    at_minus_inf = _sign_changes([p[0] if len(p) % 2 else -p[0] for p in chain])
    at_zero = _sign_changes([p[-1] for p in chain])
    at_plus_inf = _sign_changes([p[0] for p in chain])
    zero_root = h[-1] == 0
    if at_minus_inf - at_plus_inf < degree:
        raise NotAtomicError(
            f"{degree - at_minus_inf + at_plus_inf} of {degree} characteristic "
            "roots are not real"
        )
    if at_minus_inf - at_zero > zero_root:
        raise NotAtomicError(
            f"{at_minus_inf - at_zero - zero_root} of {degree} characteristic "
            "roots are negative"
        )

    # 2^top is at least the Cauchy bound 1 + max|h_i| / lead on every root.
    top = (-(-max(abs(c) for c in h[1:]) // lead)).bit_length()
    roots: list[Scalar] = [Fraction(0)] if zero_root else []
    # (a, b, e, V(a/2^e), V(b/2^e)); the left half is popped first, so the
    # roots come out in ascending order.
    todo = [(0, 1 << top, 0, at_zero, changes_at(1 << top, 0))]
    while todo:
        a, b, e, va, vb = todo.pop()
        if va - vb == 1:
            roots.append(_refine_root(h, lead, a, b, e))
        elif va - vb > 1:
            vm = changes_at(a + b, e + 1)
            todo.append((a + b, 2 * b, e + 1, vm, vb))
            todo.append((2 * a, a + b, e + 1, va, vm))
    return roots


def _refine_root(h: Sequence[int], lead: int, a: int, b: int, e: int) -> Scalar:
    # The only root of h in (a/2^e, b/2^e], by bisection on the sign of h,
    # which is nonzero at the upper end unless the root sits there.  Once
    # the interval is narrower than 1/lead, the one lattice point m/lead in
    # it is the only possible rational root; past that test the root is
    # irrational, hence never halfway between two doubles, and both ends
    # rounding to the same double makes that double the rounded root.
    value = _scaled_value(h, b, 1 << e)
    if value == 0:
        return Fraction(b, 1 << e)
    sign_b = value > 0
    lattice_tested = False
    while True:
        if not lattice_tested and (b - a) * lead < 1 << e:
            m = (b * lead) >> e
            if m << e > a * lead and _scaled_value(h, m, lead) == 0:
                return Fraction(m, lead)
            lattice_tested = True
        if lattice_tested and a / (1 << e) == b / (1 << e):
            return b / (1 << e)
        a, b, e, mid = 2 * a, 2 * b, e + 1, a + b
        value = _scaled_value(h, mid, 1 << e)
        if value == 0:
            return Fraction(mid, 1 << e)
        if (value > 0) == sign_b:
            b = mid
        else:
            a = mid


def recover_atoms(
    rec: Recursion, gamma: MomentSequence, ctx: ToleranceContext = EXACT
) -> AtomicMeasure:
    """Atoms are the roots of the recursion's characteristic polynomial,
    densities solve the Vandermonde system against gamma_0..gamma_{r-1}.

    All roots must be real, distinct and nonnegative and all densities
    strictly positive, else the input is not a finite positive atomic
    measure on the half line.  Roots are isolated exactly (Sturm sequences
    over the exact coefficients, binary rationals in float mode): a
    rational root comes back as an exact Fraction, an irrational one as the
    correctly rounded double of the certified root, with float densities
    solved from it (the CLI warns when exact mode returns such atoms).  The
    recovered measure is re-verified against every moment on the horizon
    before it is returned (exactly when the atoms are rational in exact
    mode, within the float band otherwise).
    """
    if rec.valid_from != 0:
        raise PreconditionError("recursion must be valid from index 0")
    if not rec.holds_on(gamma, ctx):
        raise PreconditionError("recursion does not fit the sequence it came with")
    r = rec.order
    if gamma.horizon < r - 1:
        raise PreconditionError("horizon too short to solve for densities")
    atoms = _nonneg_roots(_characteristic(rec))
    exact_atoms = not any(isinstance(x, float) for x in atoms)

    vctx = ctx if (ctx.is_exact and exact_atoms) else FLOAT
    densities = solve_vandermonde(atoms, [gamma[i] for i in range(r)], vctx)
    for x, rho in zip(atoms, densities):
        if not rho > 0:
            raise NotAtomicError(f"density {rho} at atom {x} is not positive")
    mu = AtomicMeasure(atoms=tuple(atoms), densities=tuple(densities))

    check = moments_of(mu, gamma.horizon)
    scale = 0.0 if vctx.is_exact else gamma.max_abs()
    for n in range(len(gamma)):
        if not vctx.is_zero(check[n] - gamma[n], scale):
            raise InternalConsistencyError(
                f"recovered measure mismatches gamma_{n}: {check[n]} != {gamma[n]}"
            )
    return mu


def measure_represents_weights(
    alpha: WeightSequence, mu: AtomicMeasure, ctx: ToleranceContext = EXACT
) -> bool:
    """True iff the measure's moments reproduce the shift's moments on the
    whole prefix and the largest atom respects the squared-weight norm
    surrogate (support bound)."""
    gamma = weights_to_moments(alpha)
    mg = moments_of(mu, gamma.horizon)
    scale = 0.0 if ctx.is_exact else gamma.max_abs()
    for n in range(len(gamma)):
        if not ctx.is_zero(mg[n] - gamma[n], scale):
            return False
    sup = alpha.sq_sup
    return bool(ctx.nonneg(sup - max(mu.atoms), 0.0 if ctx.is_exact else float(sup)))
