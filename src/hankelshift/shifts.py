"""Weighted-shift layer: weight/moment conversion, the k-hyponormality
ladder, and the flatness and determinant-propagation consequences.

Weights are stored and exchanged as squared weights, each held as its
(p, q) pair in lowest terms: every formula below consumes moment ratios,
which are squares, so the exact pipeline stays closed over the rationals.
Weights are compared on the same pairs, as integers over one denominator:
exactly in exact mode, within the tolerance band of the largest squared
weight in float mode (`ToleranceContext._in_band`), so no weight needs to
fit a double.  Plain weights appear only in float display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .hankel import (
    BlockIndex,
    LadderVerdicts,
    MomentSequence,
    PropagationReport,
)
from .numkit import (
    EXACT,
    InsufficientMomentsError,
    PreconditionError,
    Scalar,
    ToleranceContext,
    _over_lcm,
    _ratios,
    _rounded,
)

__all__ = [
    "WeightSequence",
    "HyponormalityVerdict",
    "FlatnessReport",
    "ShiftPropagationReport",
    "weights_to_moments",
    "moments_to_weights",
    "is_hyponormal",
    "is_k_hyponormal",
    "flatness_check",
    "flat_tail_report",
    "propagation_for_shift",
]


@dataclass(frozen=True, init=False)
class WeightSequence:
    """Squared weights sq[n] = alpha_n^2 > 0 for n = 0..N-1.

    The sequence holds one form, the pairs (p, q) of its squared weights in
    lowest terms with q > 0 (floats at their binary values), and has_float,
    which records that some weight was given as a float.  sq is derived
    from the pairs on first read: Fractions, or with a float weight their
    correctly rounded doubles, which give back the given doubles exactly.
    Equality and hashing read the pairs alone.
    """

    pairs: tuple[tuple[int, int], ...]
    has_float: bool = field(compare=False)

    def __init__(self, sq: Iterable[Scalar]) -> None:
        # A float inf or nan has no pair: a PreconditionError here.
        sq = tuple(sq)
        self._init(_ratios(sq), any(isinstance(v, float) for v in sq))

    @classmethod
    def from_squared(cls, values: Iterable[Scalar]) -> "WeightSequence":
        return cls(values)

    @classmethod
    def scaled(cls, pairs: Sequence[tuple[int, int]]) -> "WeightSequence":
        """The exact squared weights sq[n] = p / q, (p, q) = pairs[n] in
        lowest terms with q > 0."""
        seq = object.__new__(cls)
        seq._init(pairs, False)
        return seq

    def _init(self, pairs: Sequence[tuple[int, int]], has_float: bool) -> None:
        # Every constructor ends here; the signs are read on the numerators.
        _check_positive([p for p, _ in pairs])
        self.__dict__.update(pairs=tuple(pairs), has_float=has_float)

    @cached_property
    def sq(self) -> tuple[Scalar, ...]:
        if self.has_float:
            return tuple(_rounded(p, q) for p, q in self.pairs)
        return tuple(Fraction(p, q) for p, q in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def alphas(self) -> tuple[float, ...]:
        """Float display form; exact computations never take square roots."""
        return tuple(math.sqrt(float(v)) for v in self.sq)

    @property
    def sq_sup(self) -> Scalar:
        """Max squared weight over the prefix: the norm surrogate for the
        shift the prefix determines."""
        return max(self.sq)


@dataclass(frozen=True)
class HyponormalityVerdict:
    k: int
    holds: bool
    horizon: int
    first_failure: Optional[BlockIndex] = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FlatnessReport:
    """Consequence of an equal adjacent weight pair under 2-hyponormality:
    the weights are constant from index 1 on; alpha_0 may differ."""

    k: int
    flat_pair_found: bool
    pair_index: Optional[int]
    propagation_verified: Optional[bool]
    alpha0_exception: bool


@dataclass(frozen=True)
class ShiftPropagationReport:
    """Shift-side wrapper of the moment-side propagation check, plus the
    finite shadow of the subnormality consequence: PSD blocks at every
    order the horizon supports."""

    k: int
    p: int
    base: PropagationReport
    orders_checked: tuple[int, ...]
    orders_all_hold: bool
    flags: tuple[str, ...] = ()


def weights_to_moments(alpha: WeightSequence) -> MomentSequence:
    """gamma_0 = 1, gamma_{n+1} = alpha_n^2 * gamma_n.

    Exact weights give a `MomentSequence.scaled`: the running product of
    their (p, q) pairs, kept in lowest terms (gamma_n and alpha_n^2 are,
    so the two cross gcds reduce it), is put over the lcm of its
    denominators; no Fraction is built.  Float weights multiply as
    doubles."""
    if alpha.has_float:
        values = [1.0]
        acc = 1.0
        for n, v in enumerate(alpha.sq):
            if (acc := acc * v) == math.inf:
                raise PreconditionError(
                    f"a moment lies beyond the double range: gamma_{n + 1} of the float weights"
                )
            values.append(acc)
        return MomentSequence(tuple(values))
    num, den = 1, 1
    products = [(1, 1)]
    for p, q in alpha.pairs:
        g, h = math.gcd(num, q), math.gcd(p, den)
        num, den = (num // g) * (p // h), (den // h) * (q // g)
        products.append((num, den))
    return MomentSequence.scaled(*_over_lcm(products))


def moments_to_weights(gamma: MomentSequence) -> WeightSequence:
    """Squared weights alpha_n^2 = gamma_{n+1}/gamma_n; requires strictly
    positive moments."""
    if len(gamma) < 2:
        raise PreconditionError("need at least gamma_0 and gamma_1 to form a weight")
    g = gamma.integer_view[0]
    if 0 in g:
        raise PreconditionError(
            f"gamma_{g.index(0)} = 0: a vanishing moment collapses every later moment "
            "to zero, so no positive weight sequence generates this prefix"
        )
    if gamma.has_float:
        v = gamma.values
        return WeightSequence(v[n + 1] / v[n] for n in range(len(v) - 1))
    return WeightSequence(Fraction(g[n + 1], g[n]) for n in range(len(g) - 1))


def _check_positive(signs: Sequence[int]) -> None:
    # The weights' condition, on the numerators of their pairs.
    if not signs:
        raise ValueError("a weight sequence needs at least one weight")
    for n, v in enumerate(signs):
        if not v > 0:
            raise ValueError(f"squared weight at index {n} is not positive")


def is_hyponormal(alpha: WeightSequence, ctx: ToleranceContext = EXACT) -> bool:
    """Nondecreasing weights; squared weights order the same way, and are
    compared as the integers of their pairs over one denominator, exactly
    or within ctx's band of the largest."""
    sq, den = _over_lcm(alpha.pairs)
    top = max(sq)
    return all(ctx._in_band(((b - a, top) for a, b in zip(sq, sq[1:])), den, signed=True))


def is_k_hyponormal(
    alpha: WeightSequence, k: int, ctx: ToleranceContext = EXACT
) -> HyponormalityVerdict:
    """k-hyponormality of the shift equals k-positivity of its moments."""
    return _hyponormality(weights_to_moments(alpha).ladder(ctx), k)


def _hyponormality(ladder: LadderVerdicts, k: int) -> HyponormalityVerdict:
    horizon = ladder.gamma.horizon
    if horizon < 2 * k:
        raise InsufficientMomentsError(2 * k, horizon)
    verdict = ladder.verdict(k)
    return HyponormalityVerdict(
        k=k,
        holds=verdict.holds,
        horizon=verdict.horizon,
        first_failure=verdict.first_failure,
        flags=verdict.flags,
    )


def flatness_check(
    alpha: WeightSequence, k: int, ctx: ToleranceContext = EXACT
) -> FlatnessReport:
    """Under k-hyponormality (k >= 2), one equal adjacent pair forces the
    weights to be constant from index 1 on.  Reports the first pair found,
    whether the constancy holds on the data, and whether alpha_0 sits
    outside the constant tail."""
    if k < 2:
        raise PreconditionError("flatness needs k >= 2")
    verdict = is_k_hyponormal(alpha, k, ctx)
    if not verdict.holds:
        raise PreconditionError(
            f"shift is not {k}-hyponormal on the horizon; "
            f"first failure at block {verdict.first_failure}"
        )
    return flat_tail_report(alpha, k, ctx)


def flat_tail_report(
    alpha: WeightSequence, k: int, ctx: ToleranceContext = EXACT
) -> FlatnessReport:
    """The flat-pair scan of `flatness_check` without its k-hyponormality
    check, for a caller that has certified k-hyponormality itself.  Weights
    are compared as `is_hyponormal` compares them: equal exactly when their
    pairs are, or within ctx's band of the largest in float mode."""
    sq, den = _over_lcm(alpha.pairs)
    top = max(sq)
    steps = ctx._in_band(((b - a, top) for a, b in zip(sq, sq[1:])), den)
    pair = next((n for n, flat in enumerate(steps) if flat), None)
    if pair is None:
        return FlatnessReport(
            k=k,
            flat_pair_found=False,
            pair_index=None,
            propagation_verified=None,
            alpha0_exception=False,
        )
    level = sq[pair]
    same = list(ctx._in_band(((x - level, top) for x in sq), den))
    return FlatnessReport(
        k=k,
        flat_pair_found=True,
        pair_index=pair,
        propagation_verified=all(same[1:]),
        alpha0_exception=not same[0],
    )


def propagation_for_shift(
    alpha: WeightSequence, k: int, p: int, ctx: ToleranceContext = EXACT
) -> ShiftPropagationReport:
    """Vanishing order-p determinant propagation for a k-hyponormal shift.

    Requires p < k: the certified positivity order must exceed the order of
    the determinants whose zeros propagate.  Delegates to the moment-side
    check at order p (k-hyponormality implies (p+1)-positivity on the full
    horizon, every small block being a principal submatrix of a feasible
    large one).  Also certifies PSD blocks at every order the horizon
    supports, the finite shadow of the subnormality consequence.  Every
    verdict and table comes from one determinant-ladder walk.
    """
    if p < 1:
        raise PreconditionError("propagation order p must be >= 1")
    if p >= k:
        raise PreconditionError(
            f"propagation order p={p} must be strictly below the certified "
            f"hyponormality order k={k}"
        )
    gamma = weights_to_moments(alpha)
    ladder = gamma.ladder(ctx)
    verdict = _hyponormality(ladder, k)
    if not verdict.holds:
        raise PreconditionError(
            f"shift is not {k}-hyponormal on the horizon; "
            f"first failure at block {verdict.first_failure}"
        )
    base = ladder.propagation(p + 1)
    orders = tuple(range(p, gamma.horizon // 2 + 1))
    all_hold = True
    flags: list[str] = []
    for order in orders:
        if not ladder.verdict(order).holds:
            all_hold = False
            flags.append(f"order {order} blocks not all PSD on horizon")
            break
    return ShiftPropagationReport(
        k=k,
        p=p,
        base=base,
        orders_checked=orders,
        orders_all_hold=all_hold,
        flags=tuple(flags),
    )
