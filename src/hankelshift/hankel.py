"""Hankel moment blocks: positivity scans, determinant tables by
condensation, and the vanishing-determinant propagation check.

A moment sequence gamma_0..gamma_N indexes the symmetric blocks
block(gamma, n, k) with entry (i, j) = gamma_{n+i+j}; a sequence is
k-positive (up to the horizon) when every feasible block of order k is PSD.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .numkit import (
    EXACT,
    InsufficientMomentsError,
    InternalConsistencyError,
    PreconditionError,
    Scalar,
    SymMatrix,
    ToleranceContext,
    _integer_view,
    _ratio_str,
    _rounded,
    _rows,
    det_bareiss,
    fmt_scalar,
    hankel_psd_with_margin,
    psd_with_margin,
    solve_linear_exact,
)

__all__ = [
    "MomentSequence",
    "BlockIndex",
    "DetTable",
    "PositivityVerdict",
    "PropagationReport",
    "RankStructure",
    "LadderVerdicts",
    "block",
    "is_k_positive",
    "log_convexity",
    "zero_moment_collapse",
    "det_ladder",
    "det_sequence",
    "propagation_report",
]


@dataclass(frozen=True, init=False)
class MomentSequence:
    """Finite prefix gamma_0..gamma_N of a moment sequence.

    gamma_0 must be positive and every entry nonnegative; operations that
    divide by moments additionally require strict positivity and say so.

    The sequence holds one form, its integer view (G, D): D > 0 is the lcm
    of the denominators of the exact values (floats at their binary values)
    and G[n] = gamma_n * D, an int.  Exact mode computes on G; a block of G
    is D times the block of gamma, so every sign and every vanishing carries
    over.  has_float records that some moment was given as a float; values
    are derived from the view on first read.  Equality and hashing read the
    view alone.
    """

    integer_view: tuple[tuple[int, ...], int]
    has_float: bool = field(compare=False)

    def __init__(self, values: Iterable[Scalar]) -> None:
        # A float inf or nan has no integer view: a PreconditionError here.
        values = tuple(values)
        self._init(*_integer_view(values), any(isinstance(v, float) for v in values))

    @classmethod
    def of(cls, values: Iterable[Scalar]) -> "MomentSequence":
        return cls(values)

    @classmethod
    def scaled(cls, nums: Sequence[int], den: int) -> "MomentSequence":
        """The exact sequence gamma_n = nums[n] / den whose integer view is
        (nums, den): den > 0 must be the lcm of the denominators of the
        gamma_n in lowest terms."""
        seq = object.__new__(cls)
        seq._init(nums, den, False)
        return seq

    def _init(self, nums: Sequence[int], den: int, has_float: bool) -> None:
        # Every constructor ends here; the signs are read on the integers.
        _check_signs(nums)
        self.__dict__.update(integer_view=(tuple(nums), den), has_float=has_float)

    @cached_property
    def values(self) -> tuple[Scalar, ...]:
        """The moments G[n] / D: Fractions, or when some moment is a float
        their correctly rounded doubles, which give back the given doubles
        exactly."""
        if self.has_float:
            return self._doubles
        nums, den = self.integer_view
        return tuple(Fraction(num, den) for num in nums)

    @cached_property
    def _doubles(self) -> tuple[float, ...]:
        # The moments G[n] / D correctly rounded, inf past the double range.
        nums, den = self.integer_view
        return tuple(_rounded(num, den) for num in nums)

    @cached_property
    def horizon(self) -> int:
        return len(self.integer_view[0]) - 1

    def __len__(self) -> int:
        return self.horizon + 1

    def __getitem__(self, n: int) -> Scalar:
        return self.values[n]

    @cached_property
    def strictly_positive(self) -> bool:
        """Every moment is > 0, read off the integer view, so no `Fraction`
        is compared."""
        return all(g > 0 for g in self.integer_view[0])

    def __getstate__(self) -> dict:
        # Copies and pickles start with an empty cache: it holds live ladder
        # walks, generators, which do not pickle.
        return {name: v for name, v in self.__dict__.items() if name != "_cache"}

    def _memo(self, key: tuple, compute: Callable[[], Any]) -> Any:
        # The result stored under key (never None), else compute() stored; a
        # compute() that raises stores nothing, so a retry raises the same
        # way.  The cache holds results derived from the values alone, keyed
        # by what else they depend on (the ToleranceContext among it); it is
        # not a field, so equality and hashing ignore it.
        cache = self.__dict__.setdefault("_cache", {})
        value = cache.get(key)
        if value is None:
            value = cache[key] = compute()
        return value

    def ladder(self, ctx: ToleranceContext = EXACT) -> "LadderVerdicts":
        """The sequence's one `LadderVerdicts` under ctx: every verdict,
        table and PD question asked through it shares one `det_ladder`
        walk.  Its `gamma` is an equal copy of this sequence."""

        def build() -> LadderVerdicts:
            # The kept ladder reads a copy without the cache: reading this
            # sequence would close a cycle (sequence, cache, ladder and its
            # walk) that refcounting cannot free, leaving every sequence to
            # the cyclic collector.  The copy shares what this sequence
            # holds.
            twin = object.__new__(MomentSequence)
            twin.__dict__.update(self.__getstate__())
            return LadderVerdicts(twin, ctx)

        return self._memo(("ladder", ctx), build)


def _check_signs(signs: Sequence[int]) -> None:
    # The moments' conditions, on the integers G of the view.
    if not signs:
        raise ValueError("a moment sequence needs at least gamma_0")
    if not signs[0] > 0:
        raise ValueError("gamma_0 must be positive")
    for n, v in enumerate(signs):
        if v < 0:
            raise ValueError(f"gamma_{n} is negative")


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

    methods[n] records how the entry at n was produced: "condensation" when
    the two-order recurrence applied, "direct" when the entry was taken as a
    standalone determinant (base order, or a divisor that is exactly zero,
    in float mode too: the ladder runs on the moments' binary values).

    The table holds its integers: nums[n] is the determinant of block(n, k)
    of G = gamma * D (`MomentSequence.integer_view`), and scale = D^(k+1).
    Deciders read nums.  dets, built on first read, are the Fractions
    nums[n] / scale, or when rounded (a float-mode table) their correctly
    rounded doubles; a double past the range is a PreconditionError at that
    read, which keeps nothing, so every read of dets raises it again.
    texts, the `fmt_scalar` text of each entry, is built once on first
    read; an exact table writes it from nums and scale, building no
    Fraction.
    """

    k: int
    horizon: int
    nums: tuple[int, ...]
    scale: int
    methods: tuple[str, ...]
    rounded: bool = False

    @cached_property
    def dets(self) -> tuple[Scalar, ...]:
        if not self.rounded:
            return tuple(Fraction(num, self.scale) for num in self.nums)
        dets = tuple(_rounded(num, self.scale) for num in self.nums)
        for n, d in enumerate(dets):
            if math.isinf(d):
                raise PreconditionError(
                    f"the float order-{self.k} determinant at anchor {n} "
                    f"({self.methods[n]}) overflows to {d!r}"
                )
        return dets

    @cached_property
    def texts(self) -> tuple[str, ...]:
        if self.rounded:
            return tuple(map(fmt_scalar, self.dets))
        return tuple(_ratio_str(num, self.scale) for num in self.nums)

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


class RankStructure(NamedTuple):
    """order: the first r whose anchor-0 pivot vanishes (`LadderVerdicts.
    rank`), None when none does; coeffs: the order-r recursion (as
    `measures.Recursion.coeffs`) solved on block(0, r-1), Fractions in exact
    mode and their rounded doubles in float mode, None unless it holds on
    the whole horizon (as `Recursion.holds_on` decides in that mode)."""

    order: Optional[int] = None
    coeffs: Optional[tuple[Scalar, ...]] = None


def _check_block(gamma: MomentSequence, n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise PreconditionError(f"block indices must be nonnegative, got n={n}, k={k}")
    if n + 2 * k > gamma.horizon:
        raise InsufficientMomentsError(n + 2 * k, gamma.horizon)


def block(gamma: MomentSequence, n: int, k: int) -> SymMatrix:
    """The (k+1)x(k+1) block with entry (i, j) = gamma_{n+i+j}."""
    _check_block(gamma, n, k)
    return SymMatrix.from_rows(_rows(gamma.values, n, k))


def is_k_positive(
    gamma: MomentSequence, k: int, ctx: ToleranceContext = EXACT
) -> PositivityVerdict:
    """Scan all feasible anchors n <= N - 2k for PSD order-k blocks: the
    order-k verdict of `gamma.ladder(ctx)`.

    The verdict certifies positivity only up to the recorded horizon.  Exact
    mode reads each block from the leading principal minors d_0(n), ...,
    d_k(n) of the determinant ladder, or where a lower-order minor vanishes
    from the ladder's `rank`, and runs pivot elimination only on the blocks
    neither decides; it flags exactly singular blocks.  Float mode flags
    anchors whose smallest eigenvalue sits inside the tolerance band (the
    verdict there is tolerance-limited), deciding each block by LDL^T of
    A - f*I and A + f*I from its window of 2k+1 moments
    (`numkit.hankel_psd_with_margin`).
    """
    return gamma.ladder(ctx).verdict(k)


def log_convexity(gamma: MomentSequence, ctx: ToleranceContext = EXACT) -> bool:
    """True iff gamma_n * gamma_{n+2} >= gamma_{n+1}^2 for every n <= N-2.

    For nonnegative sequences this coincides with 1-positivity.  Both modes
    compare the integer products L = G_n G_{n+2}, R = G_{n+1}^2 of
    `MomentSequence.integer_view` (D^2 times gamma's); float mode within the
    band, L - R >= -(zero_eps D^2 + rel_eps max(L, R)) (`ToleranceContext.
    _in_band`), so no product overflows.  The scale is R: where L > R, the
    test holds whatever the scale.
    """
    g, den = gamma.integer_view
    products = ((g[n] * g[n + 2] - (r := g[n + 1] * g[n + 1]), r) for n in range(len(g) - 2))
    return all(ctx._in_band(products, den * den, signed=True))


def zero_moment_collapse(gamma: MomentSequence) -> bool:
    """Zero-tail sanity rule for 1-positive sequences: if any moment
    vanishes, every moment with index >= 1 must vanish.  Returns True when
    the rule holds on the data (vacuously when no moment vanishes).  A
    moment vanishes only when it is exactly 0, in either mode: moments are
    input data, not computed values, so they take no tolerance band.  It
    reads the integer view, where a moment is 0 exactly when its value is."""
    tail = gamma.integer_view[0][1:]
    return all(tail) or not any(tail)


def det_ladder(gamma: MomentSequence, ctx: ToleranceContext = EXACT) -> Iterator[DetTable]:
    """Determinant tables of orders 0, 1, ..., N//2, yielded one at a time.

    Built bottom-up through the two-order condensation identity

        d_k(n) * d_{k-2}(n+2) = d_{k-1}(n) * d_{k-1}(n+2) - d_{k-1}(n+1)^2,

    with the order-(-1) table identically 1 and the order-0 table equal to
    gamma itself.  Both modes condense the integers G = gamma * D of
    `MomentSequence.integer_view` (floats at their binary values): the
    identity is homogeneous, so the order-k entry is det(block of G) /
    D^(k+1), and every division is an exact `//`.  A zero divisor takes
    `det_bareiss` on the rows of the integer block (`_integer_block`).
    Every table keeps its integers (`DetTable`), so the walk is the same in
    both modes and never raises.  A table builds its dets when they are
    first read: Fractions in exact mode, correctly rounded doubles in float
    mode, where an entry past the double range is a PreconditionError at
    that read.  An order is built only when asked for.
    """
    rounded = not ctx.is_exact
    g, den = gamma.integer_view
    horizon = gamma.horizon
    yield DetTable(0, horizon, g, den, ("direct",) * len(g), rounded)
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
        yield DetTable(order, horizon, tuple(table), scale, tuple(methods), rounded)
        prev2, prev1 = prev1, table


def _integer_block(gamma: MomentSequence, n: int, k: int) -> list[Sequence[int]]:
    # The rows of block(gamma, n, k) times D, from the integers G of
    # integer_view: the same PSD verdict, the determinant D^(k+1) times.
    return _rows(gamma.integer_view[0], n, k)


def _recursion_holds(
    gamma: MomentSequence, coeffs: Sequence[Scalar], start: int, ctx: ToleranceContext
) -> bool:
    # gamma_{p+r} = sum_i coeffs[i] * gamma_{p+i} for every p >= start on the
    # horizon, r = len(coeffs), on one integer residual in both modes: the
    # integers G of integer_view and the coefficients c / C at their binary
    # values give G[p+r] C - sum_i c_i G[p+i], C D times gamma's residual.
    # Exact mode needs it 0, float mode within the band of max gamma.
    g, den = gamma.integer_view
    c, c_den = _integer_view(coeffs)
    r = len(c)
    top, den = max(g) * c_den, den * c_den
    residuals = (
        (g[p + r] * c_den - sum(map(operator.mul, c, g[p:p + r])), top)
        for p in range(start, len(g) - r)
    )
    return all(ctx._in_band(residuals, den))


def _kept_recursion(gamma: MomentSequence, ctx: ToleranceContext) -> Optional[tuple]:
    # The coefficients of the recursion that the rank of gamma's kept ladder
    # under ctx has verified on the whole horizon; None when no such ladder
    # is kept, its rank is unread, or no recursion holds.
    ladder = gamma.__dict__.get("_cache", {}).get(("ladder", ctx))
    rank = None if ladder is None else ladder.__dict__.get("rank")
    return None if rank is None else rank.coeffs


def _corner_fit(gamma: MomentSequence, r: int, ctx: ToleranceContext) -> Optional[tuple]:
    # The order-r recursion's coefficients: one solution of the r x r
    # system on block(0, r-1) over the moments' binary values (None when it
    # is inconsistent), rounded once to doubles in float mode, where a
    # coefficient past the double range is a PreconditionError.
    g = gamma.integer_view[0]
    sol = solve_linear_exact(_rows(g, 0, r - 1), g[r:2 * r])
    if sol is None or ctx.is_exact:
        return sol
    try:
        return tuple(float(c) for c in sol)
    except OverflowError:
        raise PreconditionError(
            f"a coefficient of the order-{r} recursion lies beyond the double range"
        ) from None


def det_sequence(
    gamma: MomentSequence, k: int, ctx: ToleranceContext = EXACT
) -> DetTable:
    """Determinants of every feasible order-k block: the order-k table of
    `gamma.ladder(ctx)`."""
    return gamma.ladder(ctx).table(k)


def propagation_report(
    gamma: MomentSequence, k: int, ctx: ToleranceContext = EXACT
) -> PropagationReport:
    """The order-k propagation report of `gamma.ladder(ctx)`."""
    return gamma.ladder(ctx).propagation(k)


class LadderVerdicts:
    """Block verdicts at every order from one `det_ladder` walk.

    Tables are pulled from the walk only as far as a question needs them and
    are kept, so every order a caller asks about shares the one walk.  Both
    modes pull the same integer tables; a float table rounds its dets only
    when a question reads them, so a question is refused for an entry past
    the double range only when it reads that entry's table.  The
    leading principal minors of block(n, k) are d_0(n), ..., d_k(n), the
    ladder's entries at anchor n.  Exact mode decides block(n, k) from the
    first j <= k with d_j(n) <= 0:

    - none: the block is PD (Sylvester);
    - d_j(n) < 0: not PSD, a principal minor is negative;
    - d_k(n) = 0: PSD and singular, the leading k x k block being PD and
      the last pivot d_k(n)/d_{k-1}(n) zero;
    - d_j(n) = 0 with j < k, the recursion of `rank` holding with order
      r <= k: block(n, k) = W^T block(n, r-1) W with W of rank r (column i
      is the combination t^i mod h of the first r, h the characteristic
      polynomial), so it is PSD, and then singular, when block(n, r-1) is;
    - any other d_j(n) = 0 with j < k: `psd_with_margin` runs its pivot
      elimination on the block.

    A block reads at most k + 1 signs, each from a minor's condensed
    integer in `DetTable.nums` (an int comparison, no `Fraction` is built),
    and an order is pulled only when a block first reads it, so a scan
    that fails at a low order builds no higher table.

    The fallback elimination runs on the integer block of
    `MomentSequence.integer_view`.  Float mode decides block(n, k) by
    `numkit.hankel_psd_with_margin` on its window gamma_n..gamma_{n+2k} of
    the moments rounded to doubles once (inf past the range, which the band
    refuses): one band and one scaling per window, then LDL^T of A - f*I
    and A + f*I.  It keeps each
    (is PSD, marginal) verdict per (n, k), which `psd` and `pd` read.  Its
    zero tests (`vanishes`; `zeros` for a table; `rank`) read the leading
    pivots of the ladder's integers against rel_eps, with no absolute band.
    `MomentSequence.ladder(ctx)` keeps one instance per sequence and context;
    constructing one starts a fresh walk.
    """

    def __init__(self, gamma: MomentSequence, ctx: ToleranceContext = EXACT):
        self.gamma = gamma
        self.ctx = ctx
        self._walk = det_ladder(gamma, ctx)
        self._tables: list[DetTable] = []
        self._verdicts: dict[int, PositivityVerdict] = {}
        self._float_psd: dict[tuple[int, int], tuple[bool, bool]] = {}

    def _pull(self, k: int) -> DetTable:
        # Every table comes through here, pulled in order from the one walk.
        while len(self._tables) <= k:
            self._tables.append(next(self._walk))
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

    @cached_property
    def rank(self) -> RankStructure:
        """The rank structure, read once from the anchor-0 column of the
        kept tables: the first r with `vanishes(0, r)`, so in float mode the
        first whose last pivot of block(0, r), d_r(0)/d_{r-1}(0), is at most
        rel_eps times that block's corner gamma_{2r}.  As d_{r-1}(0) is
        nonzero, the r x r system on block(0, r-1) has one exact solution
        over the moments' binary values, rounded once to doubles in float
        mode (a coefficient past the double range is a PreconditionError),
        and kept when it holds on the whole horizon."""
        top = self.gamma.horizon // 2
        r = next((j for j in range(1, top + 1) if self._zero(self._pull(j), 0)), None)
        if r is None:
            return RankStructure()
        sol = _corner_fit(self.gamma, r, self.ctx)
        if sol is None:
            raise InternalConsistencyError(f"block(0, {r - 1}) is nonsingular, its system not")
        return RankStructure(r, sol if _recursion_holds(self.gamma, sol, 0, self.ctx) else None)

    def _block_psd(self, n: int, k: int) -> tuple[bool, bool]:
        # (is PSD, verdict is marginal) of block(n, k), as psd_with_margin.
        if self.ctx.is_exact:
            tables = self._tables
            for j in range(k + 1):
                if j == len(tables):
                    self._pull(j)
                num = tables[j].nums[n]
                if num < 0:
                    return False, False
                if num == 0:
                    if j == k:
                        return True, True
                    rank = self.rank
                    # r <= k: the corner block(n, r-1) is smaller, so this
                    # never asks about block(n, k) again.
                    if rank.coeffs is not None and rank.order <= k:
                        psd = self._block_psd(n, rank.order - 1)[0]
                        return psd, psd
                    return psd_with_margin(_integer_block(self.gamma, n, k))
            return True, False
        verdict = self._float_psd.get((n, k))
        if verdict is None:
            window = self.gamma._doubles[n:n + 2 * k + 1]
            verdict = self._float_psd[n, k] = hankel_psd_with_margin(window, self.ctx)
        return verdict

    def psd(self, n: int, k: int) -> bool:
        """block(n, k) is positive semidefinite, decided as the blocks of a
        k-positivity scan are."""
        _check_block(self.gamma, n, k)
        return self._block_psd(n, k)[0]

    def pd(self, n: int, k: int) -> bool:
        """block(n, k) is positive definite: (PSD, not singular or marginal),
        in exact mode exactly when d_0(n), ..., d_k(n) are all positive."""
        _check_block(self.gamma, n, k)
        return self._block_psd(n, k) == (True, False)

    def vanishes(self, n: int, k: int) -> bool:
        """d_k(n) = 0 on the ladder's integers; in float mode also when some
        leading pivot d_j(n)/d_{j-1}(n) of block(n, k), j = 1..k, d_{j-1}(n)
        != 0, is at most rel_eps times its corner gamma_{n+2j}: the test of
        `rank`, unchanged by gamma_n -> c * gamma_n or c^n * gamma_n."""
        _check_block(self.gamma, n, k)
        return self._zero(self._pull(k), n)

    def zeros(self, k: int) -> Iterator[bool]:
        """`vanishes(n, k)` of each order-k anchor in order, each when drawn."""
        table = self.table(k)
        return (self._zero(table, n) for n in table.anchors())

    def _zero(self, table: DetTable, n: int) -> bool:
        # `vanishes` on the kept tables (d_0(n) = G[n]); d_j, d_{j-1}, G[n+2j] carry D^(j+1), D^j, D
        if self.ctx.is_exact or table.nums[n] == 0:
            return table.nums[n] == 0
        num, den = self.ctx.rel_eps.as_integer_ratio()
        g = self.gamma.integer_view[0]
        low = g[n]
        for j in range(1, table.k + 1):
            d = self._tables[j].nums[n]
            if low and den * abs(d) <= num * abs(low) * g[n + 2 * j]:
                return True
            low = d
        return False

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
        zero = list(self.zeros(k - 1))
        found = any(zero)
        conclusion = all(zero[1:]) if found else None
        return PropagationReport(
            k=k,
            table=self.table(k - 1),
            vanishing_found=found,
            first_zero_anchor=zero.index(True) if found else None,
            conclusion_verified=conclusion,
            anchor_zero_allowed_nonzero=bool(conclusion) and not zero[0],
        )
