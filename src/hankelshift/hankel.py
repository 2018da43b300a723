"""Hankel moment blocks: positivity scans, determinant tables by
condensation, and the vanishing-determinant propagation check.

A moment sequence gamma_0..gamma_N indexes the symmetric blocks
block(gamma, n, k) with entry (i, j) = gamma_{n+i+j}; a sequence is
k-positive (up to the horizon) when every feasible block of order k is PSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .numkit import (
    EXACT,
    InsufficientMomentsError,
    PreconditionError,
    Scalar,
    SymMatrix,
    ToleranceContext,
    _integer_view,
    det_bareiss,
    hadamard_bound,
    is_pd,
    psd_with_margin,
)

__all__ = [
    "MomentSequence",
    "BlockIndex",
    "DetTable",
    "PositivityVerdict",
    "PropagationReport",
    "LadderVerdicts",
    "block",
    "is_k_positive",
    "log_convexity",
    "zero_moment_collapse",
    "det_ladder",
    "det_sequence",
    "propagation_report",
]


@dataclass(frozen=True)
class MomentSequence:
    """Finite prefix gamma_0..gamma_N of a moment sequence.

    gamma_0 must be positive and every entry nonnegative; operations that
    divide by moments additionally require strict positivity and say so.
    """

    values: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a moment sequence needs at least gamma_0")
        if not self.values[0] > 0:
            raise ValueError("gamma_0 must be positive")
        for n, v in enumerate(self.values):
            if v < 0:
                raise ValueError(f"gamma_{n} is negative")

    @classmethod
    def of(cls, values: Iterable[Scalar]) -> "MomentSequence":
        return cls(tuple(values))

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Scalar:
        return self.values[n]

    @property
    def strictly_positive(self) -> bool:
        return all(v > 0 for v in self.values)

    @cached_property
    def integer_view(self) -> tuple[tuple[int, ...], int]:
        """(G, D): D > 0 is the lcm of the denominators of the exact values
        (floats at their binary values) and G[n] = gamma_n * D, an int.
        Exact mode computes on G; a block of G is D times the block of
        gamma, so every sign and every vanishing carries over."""
        nums, den = _integer_view(self.values)
        return tuple(nums), den

    def max_abs(self) -> float:
        try:
            return max(abs(float(v)) for v in self.values)
        except OverflowError:
            raise PreconditionError(
                "a moment lies beyond the double range, so no float scale exists"
            ) from None


class BlockIndex(NamedTuple):
    n: int
    k: int


@dataclass(frozen=True)
class PositivityVerdict:
    k: int
    holds: bool
    horizon: int
    first_failure: Optional[BlockIndex] = None
    witness: Optional[SymMatrix] = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class DetTable:
    """Determinants of all feasible order-k blocks, anchors n = 0..N-2k.

    methods[n] records how dets[n] was produced: "condensation" when the
    two-order recurrence applied, "direct" when the entry fell back to a
    standalone determinant (zero or near-zero divisor, or base order).
    """

    k: int
    horizon: int
    dets: tuple[Scalar, ...]
    methods: tuple[str, ...]

    def anchors(self) -> range:
        return range(self.horizon - 2 * self.k + 1)


@dataclass(frozen=True)
class PropagationReport:
    """Outcome of the vanishing-determinant propagation check at order k-1
    for a k-positive sequence: one vanishing anchor forces vanishing at every
    anchor n >= 1, while the n = 0 determinant may legitimately stay nonzero."""

    k: int
    table: DetTable
    vanishing_found: bool
    first_zero_anchor: Optional[int]
    conclusion_verified: Optional[bool]
    anchor_zero_allowed_nonzero: bool


def block(gamma: MomentSequence, n: int, k: int) -> SymMatrix:
    """The (k+1)x(k+1) block with entry (i, j) = gamma_{n+i+j}."""
    if n < 0 or k < 0:
        raise PreconditionError(f"block indices must be nonnegative, got n={n}, k={k}")
    if n + 2 * k > gamma.horizon:
        raise InsufficientMomentsError(n + 2 * k, gamma.horizon)
    rows = tuple(
        tuple(gamma[n + i + j] for j in range(k + 1)) for i in range(k + 1)
    )
    return SymMatrix(rows)


def is_k_positive(
    gamma: MomentSequence, k: int, ctx: ToleranceContext = EXACT
) -> PositivityVerdict:
    """Scan all feasible anchors n <= N - 2k for PSD order-k blocks: the
    order-k verdict of a fresh `LadderVerdicts`.

    The verdict certifies positivity only up to the recorded horizon.  Exact
    mode reads each block from the leading principal minors d_0(n), ...,
    d_k(n) of the determinant ladder and runs pivot elimination only where
    a lower-order minor vanishes; it flags exactly singular blocks.  Float
    mode flags anchors whose smallest eigenvalue sits inside the tolerance
    band (the verdict there is tolerance-limited).
    """
    return LadderVerdicts(gamma, ctx).verdict(k)


def log_convexity(gamma: MomentSequence, ctx: ToleranceContext = EXACT) -> bool:
    """True iff gamma_n * gamma_{n+2} >= gamma_{n+1}^2 for every n <= N-2.

    For nonnegative sequences this coincides with 1-positivity.  Exact mode
    compares the integer products of `MomentSequence.integer_view`.
    """
    if ctx.is_exact:
        g = gamma.integer_view[0]
        return all(g[n] * g[n + 2] >= g[n + 1] * g[n + 1] for n in range(len(g) - 2))
    for n in range(len(gamma) - 2):
        lhs = gamma[n] * gamma[n + 2]
        rhs = gamma[n + 1] * gamma[n + 1]
        if not ctx.nonneg(lhs - rhs, max(abs(float(lhs)), abs(float(rhs)))):
            return False
    return True


def zero_moment_collapse(gamma: MomentSequence, ctx: ToleranceContext = EXACT) -> bool:
    """Zero-tail sanity rule for 1-positive sequences: if any moment
    vanishes, every moment with index >= 1 must vanish.  Returns True when
    the rule holds on the data (vacuously when no moment vanishes)."""
    scale = 0.0 if ctx.is_exact else gamma.max_abs()
    if not any(ctx.is_zero(v, scale) for v in gamma.values):
        return True
    return all(ctx.is_zero(gamma[n], scale) for n in range(1, len(gamma)))


def _direct_det(gamma: MomentSequence, n: int, k: int) -> float:
    # Float mode's standalone block determinant.
    import numpy as np

    mat = block(gamma, n, k)
    return float(np.linalg.det(mat.to_numpy())) if k > 0 else float(mat.entry(0, 0))


def det_ladder(gamma: MomentSequence, ctx: ToleranceContext = EXACT) -> Iterator[DetTable]:
    """Determinant tables of orders 0, 1, ..., N//2, yielded one at a time.

    Built bottom-up through the two-order condensation identity

        d_k(n) * d_{k-2}(n+2) = d_{k-1}(n) * d_{k-1}(n+2) - d_{k-1}(n+1)^2,

    with the order-(-1) table identically 1 and the order-0 table equal to
    gamma itself.  Entries whose divisor d_{k-2}(n+2) is zero (exact) or
    inside the tolerance band (float) fall back to a direct determinant.
    Exact mode condenses the integers G = gamma * D of
    `MomentSequence.integer_view` (floats at their binary values): the
    identity is homogeneous, so the order-k entry is det(block of G) /
    D^(k+1), every division is an exact `//`, a zero divisor takes
    `det_bareiss` on the integer block, and each entry becomes a Fraction
    only when its table is yielded.  An order is built only when the caller
    asks for it.
    """
    if ctx.is_exact:
        yield from _exact_ladder(gamma)
        return
    horizon = gamma.horizon
    prev2: list[Scalar] = [1] * (horizon + 3)
    prev1: list[Scalar] = list(gamma.values)
    yield _finite_table(0, horizon, prev1, ["direct"] * len(prev1))
    for order in range(1, horizon // 2 + 1):
        table: list[Scalar] = []
        methods: list[str] = []
        for n in range(horizon - 2 * order + 1):
            divisor = prev2[n + 2]
            scale = (
                hadamard_bound(block(gamma, n + 2, order - 2))
                if order >= 2
                else abs(float(divisor))
            )
            # A zero divisor is degenerate whatever its scale (a nan
            # Hadamard bound, from moments near the double range, bands
            # nothing).
            if divisor == 0 or ctx.is_zero(divisor, scale):
                table.append(_direct_det(gamma, n, order))
                methods.append("direct")
            else:
                num = prev1[n] * prev1[n + 2] - prev1[n + 1] * prev1[n + 1]
                table.append(num / divisor)
                methods.append("condensation")
        yield _finite_table(order, horizon, table, methods)
        prev2, prev1 = prev1, table


def _finite_table(
    k: int, horizon: int, dets: Sequence[Scalar], methods: Sequence[str]
) -> DetTable:
    # A float table whose entries are all finite: an overflow to inf or nan,
    # direct or condensed, is a precondition error, never a reported value.
    # (Library callers may pass ints or Fractions, which are finite.)
    for n, (d, method) in enumerate(zip(dets, methods)):
        if isinstance(d, float) and not math.isfinite(d):
            raise PreconditionError(
                f"the float order-{k} determinant at anchor {n} ({method}) "
                f"overflows to {d!r}"
            )
    return DetTable(k=k, horizon=horizon, dets=tuple(dets), methods=tuple(methods))


def _integer_block(gamma: MomentSequence, n: int, k: int) -> SymMatrix:
    # block(gamma, n, k) times D over the integers G of integer_view: the
    # same PSD verdict, the same singularity, the determinant D^(k+1) times.
    g = gamma.integer_view[0]
    return SymMatrix.from_rows([[g[n + i + j] for j in range(k + 1)] for i in range(k + 1)])


def _exact_ladder(gamma: MomentSequence) -> Iterator[DetTable]:
    # det_ladder in exact mode: condenses the integers G of integer_view,
    # whose order-k entries det(block of G at n) are D^(k+1) d_k(n).
    g, den = gamma.integer_view
    horizon = gamma.horizon
    yield DetTable(
        k=0,
        horizon=horizon,
        dets=tuple(v if isinstance(v, Fraction) else Fraction(v) for v in gamma.values),
        methods=tuple("direct" for _ in g),
    )
    prev2: Sequence[int] = [1] * (horizon + 3)
    prev1: Sequence[int] = g
    scale = den
    for order in range(1, horizon // 2 + 1):
        scale *= den
        table: list[int] = []
        methods: list[str] = []
        for n in range(horizon - 2 * order + 1):
            divisor = prev2[n + 2]
            if divisor == 0:
                table.append(det_bareiss(_integer_block(gamma, n, order)).numerator)
                methods.append("direct")
            else:
                table.append((prev1[n] * prev1[n + 2] - prev1[n + 1] * prev1[n + 1]) // divisor)
                methods.append("condensation")
        yield DetTable(
            k=order,
            horizon=horizon,
            dets=tuple(Fraction(d, scale) for d in table),
            methods=tuple(methods),
        )
        prev2, prev1 = prev1, table


def det_sequence(
    gamma: MomentSequence, k: int, ctx: ToleranceContext = EXACT
) -> DetTable:
    """Determinants of every feasible order-k block: the order-k table of
    `det_ladder`."""
    return LadderVerdicts(gamma, ctx).table(k)


def det_is_zero(
    gamma: MomentSequence, n: int, k: int, value: Scalar, ctx: ToleranceContext
) -> bool:
    """Zero test for a block determinant, scaled by the Hadamard bound of the
    block in float mode."""
    if ctx.is_exact:
        return value == 0
    return ctx.is_zero(value, hadamard_bound(block(gamma, n, k)))


def propagation_report(
    gamma: MomentSequence, k: int, ctx: ToleranceContext = EXACT
) -> PropagationReport:
    """The order-k propagation report of a fresh `LadderVerdicts`."""
    return LadderVerdicts(gamma, ctx).propagation(k)


class LadderVerdicts:
    """Block verdicts at every order from one `det_ladder` walk.

    Tables are pulled from the walk only as far as a question needs them and
    are kept, so every order a caller asks about shares the one walk.  The
    leading principal minors of block(n, k) are d_0(n), ..., d_k(n), the
    ladder's entries at anchor n.  Exact mode decides block(n, k) from the
    first j <= k with d_j(n) <= 0:

    - none: the block is PD (Sylvester);
    - d_j(n) < 0: not PSD, a principal minor is negative;
    - d_k(n) = 0: PSD and singular, the leading k x k block being PD and
      the last pivot d_k(n)/d_{k-1}(n) zero;
    - d_j(n) = 0 with j < k: undecided by the minors, so `psd_with_margin`
      runs its pivot elimination on the block.

    A block reads at most k + 1 signs, each from a minor's integer
    numerator (an int comparison, no `Fraction` arithmetic), and orders are
    pulled only up to the first j that decides it, so a scan that fails at
    a low order builds no higher table.

    The fallback elimination runs on the integer block of
    `MomentSequence.integer_view`.  Float mode decides every block with
    `psd_with_margin`.
    """

    def __init__(self, gamma: MomentSequence, ctx: ToleranceContext = EXACT):
        self.gamma = gamma
        self.ctx = ctx
        self._walk = det_ladder(gamma, ctx)
        self._tables: list[DetTable] = []
        self._verdicts: dict[int, PositivityVerdict] = {}
        self._stopped: Optional[PreconditionError] = None

    def _pull(self, k: int) -> DetTable:
        # Every table comes through here, pulled in order from the one walk.
        # A float overflow ends the walk, so every later pull past it raises
        # the same error rather than a bare StopIteration.
        while len(self._tables) <= k:
            if self._stopped is not None:
                raise self._stopped
            try:
                self._tables.append(next(self._walk))
            except PreconditionError as exc:
                self._stopped = exc
                raise
        return self._tables[k]

    def table(self, k: int) -> DetTable:
        """The order-k determinant table."""
        if k < 0:
            raise PreconditionError("determinant table order must be >= 0")
        if self.gamma.horizon < 2 * k:
            raise InsufficientMomentsError(2 * k, self.gamma.horizon)
        return self._pull(k)

    def verdict(self, k: int) -> PositivityVerdict:
        """k-positivity on the horizon: the first failing anchor, if any,
        and a flag per singular (exact) or marginal (float) block before
        it."""
        if k < 1:
            raise PreconditionError("k-positivity needs k >= 1")
        n_max = self.gamma.horizon - 2 * k
        if n_max < 0:
            raise InsufficientMomentsError(2 * k, self.gamma.horizon)
        if k not in self._verdicts:
            self._verdicts[k] = self._scan(k, n_max)
        return self._verdicts[k]

    def _scan(self, k: int, n_max: int) -> PositivityVerdict:
        gamma = self.gamma
        flags: list[str] = []
        for n in range(n_max + 1):
            holds, marginal = self._block_psd(n, k)
            if marginal:
                kind = "singular" if self.ctx.is_exact else "marginal"
                flags.append(f"{kind} block at anchor {n}")
            if not holds:
                return PositivityVerdict(
                    k=k,
                    holds=False,
                    horizon=gamma.horizon,
                    first_failure=BlockIndex(n, k),
                    witness=block(gamma, n, k),
                    flags=tuple(flags),
                )
        return PositivityVerdict(k=k, holds=True, horizon=gamma.horizon, flags=tuple(flags))

    def _block_psd(self, n: int, k: int) -> tuple[bool, bool]:
        # (is PSD, verdict is marginal) of block(n, k), as psd_with_margin.
        if self.ctx.is_exact:
            for j in range(k + 1):
                num = self._pull(j).dets[n].numerator
                if num < 0:
                    return False, False
                if num == 0:
                    if j == k:
                        return True, True
                    return psd_with_margin(_integer_block(self.gamma, n, k))
            return True, False
        return psd_with_margin(block(self.gamma, n, k), self.ctx)

    def pd(self, n: int, k: int) -> bool:
        """block(n, k) is positive definite: in exact mode exactly when
        d_0(n), ..., d_k(n) are all positive, so no elimination runs."""
        if n + 2 * k > self.gamma.horizon:
            raise InsufficientMomentsError(n + 2 * k, self.gamma.horizon)
        if self.ctx.is_exact:
            return all(self._pull(j).dets[n].numerator > 0 for j in range(k + 1))
        return is_pd(block(self.gamma, n, k), self.ctx)

    def propagation(self, k: int) -> PropagationReport:
        """For a k-positive sequence, scan the order-(k-1) determinants.

        One vanishing determinant at any anchor forces vanishing at every
        anchor n >= 1; the anchor-0 determinant is exempt and its nonzero
        value is reported, not flagged (flat shifts with a free leading
        weight realize it).  conclusion_verified is None when no
        determinant vanishes.
        """
        if k < 1:
            raise PreconditionError("propagation check needs k >= 1")
        verdict = self.verdict(k)
        if not verdict.holds:
            raise PreconditionError(
                f"sequence is not {k}-positive on the horizon; "
                f"first failure at block {verdict.first_failure}"
            )
        table = self.table(k - 1)
        zero = [
            det_is_zero(self.gamma, n, k - 1, table.dets[n], self.ctx)
            for n in table.anchors()
        ]
        vanishing_found = any(zero)
        first_zero = zero.index(True) if vanishing_found else None
        conclusion: Optional[bool] = None
        exception = False
        if vanishing_found:
            conclusion = all(zero[1:])
            exception = bool(conclusion) and not zero[0]
        return PropagationReport(
            k=k,
            table=table,
            vanishing_found=vanishing_found,
            first_zero_anchor=first_zero,
            conclusion_verified=conclusion,
            anchor_zero_allowed_nonzero=exception,
        )
