"""Moment-side layer: moments of finite atomic measures, detection of
linear moment recursions, the finite-mass (vanishing-determinant) test,
and recovery of atoms and densities from a detected recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .hankel import (
    BlockIndex,
    MomentSequence,
    _integer_block,
    block,
    det_is_zero,
)
from .numkit import (
    EXACT,
    FLOAT,
    HankelshiftError,
    InternalConsistencyError,
    PreconditionError,
    Scalar,
    ToleranceContext,
    _integer_view,
    is_psd,
    real_roots,
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
        """The recursion fits every index from valid_from on the horizon:
        exactly in exact mode (over the integers of
        `MomentSequence.integer_view` and the coefficients scaled by their
        common denominator), within the float band otherwise."""
        r = self.order
        if ctx.is_exact:
            g = gamma.integer_view[0]
            c, den = _integer_view(self.coeffs)
            return all(
                g[p + r] * den == sum(c[i] * g[p + i] for i in range(r))
                for p in range(self.valid_from, len(g) - r)
            )
        scale = gamma.max_abs()
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
    """gamma_n = sum_j rho_j * x_j^n for n = 0..horizon.

    Exact measures (no float atom or density) are summed over the integers:
    with x_j = a_j / A and rho_j = r_j / R over common denominators,
    gamma_n = (sum_j r_j a_j^n) / (R A^n), one Fraction per moment.
    """
    if horizon < 0:
        raise PreconditionError("horizon must be >= 0")
    if not any(isinstance(v, float) for v in list(mu.atoms) + list(mu.densities)):
        atoms, a_den = _integer_view(mu.atoms)
        powers, den = _integer_view(mu.densities)
        exact: list[Scalar] = []
        for _ in range(horizon + 1):
            exact.append(Fraction(sum(powers), den))
            powers = [p * a for p, a in zip(powers, atoms)]
            den *= a_den
        return MomentSequence(tuple(exact))
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


def detect_recursion(
    gamma: MomentSequence, max_order: int, ctx: ToleranceContext = EXACT
) -> Optional[Recursion]:
    """Minimal-order linear recursion fitting every feasible index, or None.

    Orders are capped at horizon//2 so the fitted system always has more
    equations than unknowns.  A recursion of order s makes the last column
    of block(0, s) a combination of the others, so d_s(0) = 0; exact mode
    therefore reads the sequence's rank structure from `gamma.ladder(EXACT)`:
    no order below the first r with d_r(0) = 0 carries a recursion, and
    none is tried when no anchor-0 minor vanishes up to the cap.  As
    d_{r-1}(0) != 0, the order-r candidate is the one solution of the
    square system on block(0, r-1), kept when `Recursion.holds_on` confirms
    it on the whole horizon.  Only when it fails does the overdetermined
    exact fit run, from order r+1 up.  Float mode tries every order with a
    least-squares fit whose residual is within rel_eps of the sequence
    scale.
    """
    if max_order < 1:
        return None
    cap = min(max_order, gamma.horizon // 2)
    start = 1
    if ctx.is_exact:
        if _flat_order(gamma, cap) is None:
            return None
        rank = _rank_structure(gamma)
        if rank.recursion is not None:
            return rank.recursion
        start = rank.order + 1
    n = len(gamma)
    # Exact mode fits the integers of integer_view: scaling every moment by
    # one denominator leaves the recursion's coefficients unchanged.
    g = gamma.integer_view[0] if ctx.is_exact else gamma.values
    for r in range(start, cap + 1):
        rows = [[g[p + i] for i in range(r)] for p in range(n - r)]
        rhs = [g[p + r] for p in range(n - r)]
        if ctx.is_exact:
            sol = solve_linear_exact(rows, rhs)
            if sol is not None:
                return Recursion(order=r, coeffs=tuple(sol), valid_from=0)
        else:
            import numpy as np

            a = np.array([[float(x) for x in row] for row in rows], dtype=float)
            b = np.array([float(v) for v in rhs], dtype=float)
            x, *_ = np.linalg.lstsq(a, b, rcond=None)
            residual = float(np.max(np.abs(a @ x - b)))
            if residual <= ctx.rel_eps * gamma.max_abs():
                return Recursion(
                    order=r, coeffs=tuple(float(v) for v in x), valid_from=0
                )
    return None


@dataclass(frozen=True)
class _RankStructure:
    # order: the first r with d_r(0) = 0 on the horizon, None when no
    # anchor-0 minor vanishes; recursion: the order-r recursion solved on
    # block(0, r-1), when it holds on the whole horizon; leading_pd:
    # d_0(0), ..., d_{r-1}(0) are all positive.
    order: Optional[int] = None
    recursion: Optional[Recursion] = None
    leading_pd: bool = False


def _flat_order(gamma: MomentSequence, limit: int) -> Optional[int]:
    # The first r <= limit with d_r(0) = 0 on the exact ladder, else None.
    ladder = gamma.ladder(EXACT)
    return next(
        (r for r in range(1, limit + 1) if ladder.table(r).dets[0].numerator == 0), None
    )


def _rank_structure(gamma: MomentSequence) -> _RankStructure:
    # The sequence's exact rank structure, kept on gamma and read from the
    # tables of its one exact ladder walk.
    def build() -> _RankStructure:
        r = _flat_order(gamma, gamma.horizon // 2)
        if r is None:
            return _RankStructure()
        g = gamma.integer_view[0]
        sol = solve_linear_exact(
            [[g[p + i] for i in range(r)] for p in range(r)],
            [g[p + r] for p in range(r)],
        )
        if sol is None:
            raise InternalConsistencyError(
                f"block(0, {r - 1}) has a nonzero determinant but its system is inconsistent"
            )
        rec = Recursion(order=r, coeffs=sol, valid_from=0)
        return _RankStructure(
            order=r,
            recursion=rec if rec.holds_on(gamma, EXACT) else None,
            leading_pd=gamma.ladder(EXACT).pd(0, r - 1),
        )

    return gamma._memo(("rank_structure",), build)


def _maximal_block_psd(gamma: MomentSequence, anchor: int, ctx: ToleranceContext) -> bool:
    # The largest feasible block anchored at 0 (even) or 1 (odd) is PSD.
    # When the order-r recursion of the rank structure holds, column j of
    # that block is the combination of its first r columns that t^j mod h
    # gives (h the characteristic polynomial), so the block is W^T C W with
    # C = block(anchor, r-1) and W of rank r: PSD exactly when C is.  With
    # block(0, r-1) PD the even block is PSD outright and the odd one takes
    # the ladder's verdict on block(1, r-1); otherwise one pivot elimination
    # decides (on the integer block in exact mode).
    if ctx.is_exact:
        rank = _rank_structure(gamma)
        if rank.recursion is not None and rank.leading_pd:
            return anchor == 0 or gamma.ladder(EXACT)._block_psd(1, rank.order - 1)[0]
    block_of = _integer_block if ctx.is_exact else block
    return is_psd(block_of(gamma, anchor, (gamma.horizon - anchor) // 2), ctx)


def _stieltjes_screen(gamma: MomentSequence, ctx: ToleranceContext) -> None:
    # Every feasible block of (gamma_{i+j}) is a principal submatrix of the
    # maximal even-anchor block, and every (gamma_{i+j+1}) block of the
    # maximal odd-anchor one, so two PSD checks cover the whole family.
    if not _maximal_block_psd(gamma, 0, ctx):
        raise NotStieltjesError(
            "moment blocks anchored at even indices are not all PSD; "
            "not a moment sequence of a positive measure"
        )
    if gamma.horizon >= 1 and not _maximal_block_psd(gamma, 1, ctx):
        raise NotStieltjesError(
            "shifted moment blocks (anchored at odd indices) are not all "
            "PSD; no representing positive measure lives on the half line"
        )


def is_finite_mass(
    gamma: MomentSequence, ctx: ToleranceContext = EXACT
) -> FiniteMassReport:
    """Finite atomic character: some feasible block determinant vanishes.

    Requires the double Hankel positivity screen to pass first: the maximal
    even- and odd-anchored blocks must be PSD.  In exact mode, when the
    recursion of `detect_recursion`'s rank structure (order r, the first
    vanishing anchor-0 minor) holds and d_0(0), ..., d_{r-1}(0) > 0, each
    maximal block is congruent to its r x r corner: the even one is PSD and
    the odd one is decided by the ladder's verdict on block(1, r-1).  Every
    other input runs one pivot elimination per block, as float mode does.
    Then scans (order, anchor) lexicographically over the tables of
    `gamma.ladder(ctx)` and reports the first vanishing determinant as the
    witness.
    """
    _stieltjes_screen(gamma, ctx)
    ladder = gamma.ladder(ctx)
    for k in range(gamma.horizon // 2 + 1):
        table = ladder.table(k)
        for p in table.anchors():
            if det_is_zero(gamma, p, k, table.dets[p], ctx):
                return FiniteMassReport(finite=True, witness=BlockIndex(p, k))
    return FiniteMassReport(finite=False, witness=None)


def _nonneg_roots(rec: Recursion) -> list[Scalar]:
    # The roots of h(t) = t^r - a_{r-1} t^{r-1} - ... - a_0, ascending; a
    # NotAtomicError unless all are real, simple and nonnegative.
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
    atoms = _nonneg_roots(rec)
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
