"""Seeded instance generators, the reference zero test of block
determinants, and the Hadamard bound, shared across test modules."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hankelshift import (
    AtomicMeasure,
    MomentSequence,
    ToleranceContext,
    WeightSequence,
    is_k_positive,
    moments_of,
    weights_to_moments,
)
from hankelshift.hankel import _check_block, _rows
from hankelshift.numkit import PreconditionError, SymMatrix, det_bareiss


def rand_fraction(
    rng: random.Random,
    lo: int = 0,
    hi: int = 10,
    den_max: int = 12,
) -> Fraction:
    den = rng.randint(1, den_max)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_measure(
    rng: random.Random,
    max_atoms: int = 5,
    min_atoms: int = 1,
    positive: bool = False,
    min_gap: Fraction | None = None,
) -> AtomicMeasure:
    count = rng.randint(min_atoms, max_atoms)
    atoms: set[Fraction] = set()
    guard = 0
    while len(atoms) < count:
        guard += 1
        if guard > 10_000:
            raise RuntimeError("atom sampling stalled")
        x = rand_fraction(rng)
        if positive and x <= 0:
            continue
        if min_gap is not None and any(abs(x - y) < min_gap for y in atoms):
            continue
        atoms.add(x)
    ordered = tuple(sorted(atoms))
    densities = tuple(
        Fraction(rng.randint(1, 24), rng.randint(1, 12)) for _ in ordered
    )
    return AtomicMeasure(atoms=ordered, densities=densities)


def measure_moments(
    rng: random.Random,
    horizon: int,
    **kwargs,
) -> MomentSequence:
    return moments_of(random_measure(rng, **kwargs), horizon)


def flat_tail_weights(rng: random.Random, length: int) -> WeightSequence:
    """Squared weights (a, b, b, ...) with 0 < a < b."""
    b = Fraction(rng.randint(2, 24), rng.randint(1, 12))
    a = b * Fraction(rng.randint(1, 11), 12)
    assert 0 < a < b
    return WeightSequence.from_squared((a,) + (b,) * (length - 1))


def logconvex_moments(rng: random.Random, horizon: int) -> MomentSequence:
    """Strictly positive sequence with nondecreasing consecutive ratios;
    exactly the 1-positive positive sequences."""
    ratio = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    values = [Fraction(1)]
    for _ in range(horizon):
        values.append(values[-1] * ratio)
        ratio += Fraction(rng.randint(0, 6), 12)
    return MomentSequence.of(values)


def k_positive_moments(
    rng: random.Random, k: int, horizon: int, max_tries: int = 200
) -> MomentSequence:
    """Random k-positive instance: measures pass outright, log-convex
    candidates are kept only when the order-k ladder check passes."""
    for _ in range(max_tries):
        if rng.random() < 0.6:
            gamma = measure_moments(
                rng, horizon, min_atoms=k + 1, max_atoms=5, positive=True
            )
            return gamma
        gamma = logconvex_moments(rng, horizon)
        if is_k_positive(gamma, k).holds:
            return gamma
    raise RuntimeError("no k-positive instance found")


def bergman_moments(horizon: int) -> MomentSequence:
    sq = tuple(Fraction(n + 1, n + 2) for n in range(horizon))
    return weights_to_moments(WeightSequence.from_squared(sq))


def hadamard_bound(matrix) -> float:
    """Product of row 2-norms (rows, or a `SymMatrix`): a cheap a-priori
    bound on |det|, the scale of the reference float zero test.

    `math.hypot` scales each row by its largest absolute entry, so entries
    past the square root of the double range do not overflow the norm.  A
    product of norms beyond the double range is a PreconditionError: an inf
    scale would band every determinant as zero.
    """
    rows = matrix.rows if isinstance(matrix, SymMatrix) else matrix
    norms = [math.hypot(*(float(x) for x in row)) for row in rows]
    if 0.0 in norms:
        return 0.0
    bound = float(math.prod(norms))
    if math.isinf(bound):
        raise PreconditionError(
            "the Hadamard bound of a float block lies beyond the double range, "
            "so no zero test can be scaled by it"
        )
    return bound


def det_is_zero(gamma: MomentSequence, n: int, k: int, ctx: ToleranceContext) -> bool:
    """d_k(n) = 0 by the rule of `LadderVerdicts.vanishes`, computed
    without the ladder: the leading minors d_0(n), ..., d_k(n) of
    block(gamma, n, k) by `det_bareiss` on Fraction blocks of the moments'
    binary values.  Exact mode asks d_k(n) = 0; float mode also answers yes
    when some pivot d_j(n)/d_{j-1}(n), j = 1..k, d_{j-1}(n) != 0, is at most
    Fraction(rel_eps) times the corner gamma_{n+2j}."""
    _check_block(gamma, n, k)
    values = [Fraction(v) for v in gamma.values]
    top = det_bareiss(_rows(values, n, k))
    if ctx.is_exact or top == 0:
        return top == 0
    minors = [det_bareiss(_rows(values, n, j)) for j in range(k)] + [top]
    eps = Fraction(ctx.rel_eps)
    return any(
        low != 0 and abs(d) <= eps * abs(low) * values[n + 2 * j]
        for j, low, d in zip(range(1, k + 1), minors, minors[1:])
    )
