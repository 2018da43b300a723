"""Exact and float numeric kernel shared by the rest of the package.

Every routine here runs in one of two modes.  Exact mode keeps scalars as
`fractions.Fraction` and decides signs and singularity without rounding.
Float mode works in double precision and replaces each sign decision with a
tolerance test controlled by a :class:`ToleranceContext` (for a Hankel
determinant's zero test, the relative pivot test of `hankel`).

The mode is carried by the context, not by a scalar wrapper type: routines
coerce their input entries to the representation the context asks for
(floats are converted to exact binary rationals in exact mode).  A matrix
is a sequence of rows, or a `SymMatrix`; the package passes row slices.
Linear algebra runs over Python ints in both modes: the entries (floats at
their binary values) are scaled to integers once (`_integer_view`) and
eliminated fraction-free, every step an exact `//`, by `_echelon`
(determinants and linear solves) or `_pivots` (the symmetric PSD decider);
a Fraction, or in float mode its correctly rounded double, is built only
for a value that leaves the routine.  `real_roots` works over ints too:
linear and quadratic roots are read off (a quadratic's irrational roots
bracketed by `math.isqrt` of its discriminant); from degree 3 on, a
content-free integer Sturm chain isolates the roots and quadratic interval
refinement at dyadic points narrows them.  The one float-only kernel is
the PSD/PD band, an LDL^T factorisation in doubles (`_ldlt_pd`) on rows
scaled once by `_band`: a matrix's rows, or for a Hankel block the 2k+1
entries of its window (`hankel_psd_with_margin`); the package imports no
numpy.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

Scalar = Fraction | int | float

__all__ = [
    "Scalar",
    "HankelshiftError",
    "InputError",
    "InsufficientMomentsError",
    "PreconditionError",
    "InternalConsistencyError",
    "ToleranceContext",
    "EXACT",
    "FLOAT",
    "PSD_FLOOR",
    "SymMatrix",
    "Interval",
    "det_bareiss",
    "is_psd",
    "is_pd",
    "psd_with_margin",
    "hankel_psd_with_margin",
    "real_roots",
    "squarefree",
    "solve_vandermonde",
    "solve_linear_exact",
    "fmt_scalar",
]


class HankelshiftError(Exception):
    """Base class for all library errors."""


class InputError(HankelshiftError):
    """Malformed user input: bad file, bad literal, mixed representations."""


class InsufficientMomentsError(HankelshiftError):
    """The requested block or scan needs moments beyond the horizon."""

    def __init__(self, required_index: int, horizon: int):
        self.required_index = required_index
        self.horizon = horizon
        super().__init__(
            f"needs moment index {required_index} but the horizon is {horizon}"
        )


class PreconditionError(HankelshiftError):
    """An operation's precondition does not hold for the given data."""


class InternalConsistencyError(HankelshiftError):
    """Two independent computations of the same quantity disagreed."""


@dataclass(frozen=True)
class ToleranceContext:
    """Computation mode plus the float-mode tolerance policy.

    A float quantity x is treated as zero iff |x| <= zero_eps + rel_eps*scale
    (nonnegative iff x >= -(zero_eps + rel_eps*scale)), scale a magnitude
    representative of the matrix or sequence under test, decided exactly on
    integers (`_in_band`); a Hankel determinant takes rel_eps alone, as a
    bound on relative pivots (`hankel.LadderVerdicts.vanishes`).  Both are
    ignored in exact mode, but must be finite and positive in every mode.
    The float PSD/PD tests scale their eigenvalue threshold by `PSD_FLOOR`.
    """

    mode: str = "exact"
    zero_eps: float = 1e-12
    rel_eps: float = 1e-10

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("zero_eps", "rel_eps"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def _in_band(
        self, pairs: Iterable[tuple[int, int]], den: int, signed: bool = False
    ) -> Iterator[bool]:
        # The package's one tolerance test outside the PSD band, lazily per
        # (x, s) of pairs, for x / den and the scale s / den >= 0: |x| <=
        # zero_eps + rel_eps * s, or signed, x >= -(zero_eps + rel_eps * s),
        # on ints over the tolerances' binary values; exact mode's band is 0.
        zero, rel, unit = 0, 0, 1
        if not self.is_exact:
            (a, b), (c, d) = self.zero_eps.as_integer_ratio(), self.rel_eps.as_integer_ratio()
            zero, rel, unit = a * d * den, c * b, b * d  # the band over b d
        if signed:
            return (x * unit >= -(zero + rel * s) for x, s in pairs)
        return (abs(x) * unit <= zero + rel * s for x, s in pairs)

    def is_zero(self, x: Scalar, scale: Scalar = 0.0) -> bool:
        """`_in_band` of x and |scale|; a nonfinite float is a PreconditionError."""
        (x, s), den = _integer_view([x, abs(scale)])
        return next(self._in_band([(x, s)], den))

    def nonneg(self, x: Scalar, scale: Scalar = 0.0) -> bool:
        """The signed `_in_band` of x and |scale|, as `is_zero`."""
        (x, s), den = _integer_view([x, abs(scale)])
        return next(self._in_band([(x, s)], den, signed=True))


PSD_FLOOR = 1e-10  # the float PSD/PD tests' eigenvalue floor, per 1 + max|entry|

EXACT = ToleranceContext(mode="exact")
FLOAT = ToleranceContext(mode="float")


def _rows_of(matrix: _Matrix) -> Sequence[Sequence[Scalar]]:
    return matrix.rows if isinstance(matrix, SymMatrix) else matrix


def _integer_view(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """(nums, den): den is the lcm of the denominators of the exact values
    (floats at their binary values) and nums[i] = values[i] * den, an int.
    A float inf or nan has no exact value: a PreconditionError."""
    return _over_lcm(_ratios(values))


def _ratios(values: Iterable[Scalar]) -> list[tuple[int, int]]:
    """Each value as (p, q) in lowest terms with q > 0, floats at their
    binary values; a float inf or nan is a PreconditionError."""
    try:
        return [x.as_integer_ratio() for x in values]
    except (OverflowError, ValueError):
        raise PreconditionError("a value is not finite, so it has no exact binary value") from None


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The integer view of the values p/q, (p, q) in pairs with q > 0."""
    den = math.lcm(*[d for _, d in pairs])
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // d) for n, d in pairs], den


@dataclass(frozen=True)
class SymMatrix:
    """A square symmetric matrix with scalar entries, immutable.

    Symmetry is validated on construction; all builders in this package fill
    mirrored entries from the same expression, so the check is exact even in
    float mode.
    """

    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i}, {j})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "SymMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]


# Every matrix routine below takes the rows, or a SymMatrix.
_Matrix = SymMatrix | Sequence[Sequence[Scalar]]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; empty marks the empty interval.

    A nan endpoint, the trace of a float computation that overflowed, is a
    PreconditionError: it compares false with everything, so it would
    otherwise slip through the order check and out of any max or min over
    endpoints.
    """

    lo: Scalar
    hi: Scalar
    empty: bool = False

    def __post_init__(self) -> None:
        if any(isinstance(x, float) and math.isnan(x) for x in (self.lo, self.hi)):
            raise PreconditionError(
                f"interval endpoint is nan, not a finite number ([{fmt_scalar(self.lo)}, "
                f"{fmt_scalar(self.hi)}]): a float computation left the double range"
            )
        if not self.empty and self.lo > self.hi:
            raise ValueError(
                f"interval endpoints out of order: {fmt_scalar(self.lo)} > {fmt_scalar(self.hi)}"
            )

    def contains(self, x: Scalar) -> bool:
        return (not self.empty) and self.lo <= x <= self.hi


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    # Fraction-free (Bareiss) row echelon form of integer rows, in place,
    # pivoting on the first ncols columns only; later columns (a right-hand
    # side) are carried along.  Returns (pivot columns, the sign of the row
    # swaps, the last pivot).  By Sylvester's identity each update is a
    # minor of the input over the pivot rows and columns, so the previous
    # pivot divides it exactly.  A column with no nonzero entry left is
    # skipped; its rows below stay zero.
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        row_r = rows[r]
        pivot = row_r[c]
        for row_i in rows[r + 1:]:
            f = row_i[c]
            for j in range(c + 1, len(row_i)):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        pivots.append(c)
        prev = pivot
    return pivots, sign, prev


def _rounded(num: int, den: int) -> float:
    # num / den (den > 0) correctly rounded, as int true division rounds;
    # past the double range, the inf that IEEE rounding gives.
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def det_bareiss(matrix: _Matrix) -> Scalar:
    """Determinant by fraction-free Bareiss elimination (`_echelon`).

    The entries (floats at their binary values) are scaled row by row to
    integers (`_integer_view`), so the exact determinant is det / (product
    of the row scales).  It is returned as a Fraction, or, when any entry
    is a float, as its correctly rounded double (`_rounded`).  A singular
    matrix gives 0; the order-0 determinant is 1.
    """
    rows = _rows_of(matrix)
    n = len(rows)
    if n == 0:
        return 1
    views = [_integer_view(row) for row in rows]
    pivots, sign, last = _echelon([nums for nums, _ in views], n)
    num = sign * last if len(pivots) == n else 0
    den = math.prod(d for _, d in views)
    if any(isinstance(x, float) for row in rows for x in row):
        return _rounded(num, den)
    return Fraction(num, den)


def _pivots(matrix: _Matrix) -> tuple[bool, bool]:
    """(is PSD, is PD), exactly, by fraction-free symmetric elimination.

    The entries (floats at their binary values) are scaled to integers by one
    common denominator, which keeps the matrix symmetric and its verdicts.
    Step k takes the diagonal entry as the pivot; by Sylvester's identity it
    is the Schur-complement pivot times the previous positive pivot, which
    divides every update exactly.  A negative pivot means not PSD.  A zero
    pivot leaves a PSD matrix only when the rest of its row is zero too (a
    2x2 principal minor [[0, b], [b, c]] has determinant -b^2); the row is
    then dropped, the previous divisor stays, and the matrix is singular.
    All pivots positive means PD.
    """
    rows = _rows_of(matrix)
    n = len(rows)
    flat, _ = _integer_view(x for row in rows for x in row)
    a = [flat[i * n:(i + 1) * n] for i in range(n)]
    singular = False
    prev = 1
    # Only the upper triangle (j >= i) is kept current; by symmetry it holds
    # every entry the elimination reads.
    for k in range(n):
        row_k = a[k]
        pivot = row_k[k]
        if pivot < 0:
            return False, False
        if pivot == 0:
            if any(row_k[k + 1:]):
                return False, False
            singular = True
            continue
        for i in range(k + 1, n):
            row_i, f = a[i], row_k[i]
            for j in range(i, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
        prev = pivot
    return True, not singular


def _band(entries: Sequence[Scalar]) -> tuple[float, float]:
    """(2^-e, f * 2^-e) for the float PSD/PD band of a matrix, given its
    entries flat: f = PSD_FLOOR * (1 + max|entry|) is the floor on the
    smallest eigenvalue, and 2^e the power of two just above max(max|entry|,
    f), so the scaled entries lie below 1 and no factorisation step near
    the double range overflows.  The scaling changes no verdict: it is exact
    except where a value falls below the normal range, far under the floor.
    An entry that is nan or inf, or an int or Fraction past the double
    range, has no float verdict: a PreconditionError."""
    try:
        top = float(max(max(entries), -min(entries)))
    except OverflowError:  # an int or Fraction past the double range
        top = math.inf
    finite = math.isfinite(top)
    if finite:
        # total - total is 0 unless an entry is nan or inf, or the sum of
        # finite doubles overflows.
        total = sum(entries)
        finite = total - total == 0 or all(map(math.isfinite, entries))
    if not finite:
        raise PreconditionError(
            "a float block entry is nan, inf or beyond the double range, "
            "so the block has no float verdict"
        )
    floor = PSD_FLOOR * (1.0 + top)
    # e >= -1020 keeps 2^-e a double; values that small stay below 1 anyway.
    scale = math.ldexp(1.0, -max(math.frexp(max(top, floor))[1], -1020))
    return scale, floor * scale


def _ldlt_pd(a: list[list[float]], shift: float) -> bool:
    """a + shift * I is PD, a the rows of a symmetric matrix scaled by its
    `_band`: the package's one float factorisation, LDL^T in doubles, in
    place and without pivoting (the elimination of `_pivots` with float
    division).  A pivot, shifted as it is taken, that is not positive (nan
    included) means not PD.  Its backward error is of order n * u * |A|
    (Demmel 1989; Higham 2002, ch. 10), far inside the band's floor."""
    n = len(a)
    # Only the upper triangle (j >= i) is kept current, as in `_pivots`.
    for k in range(n):
        row_k = a[k]
        pivot = row_k[k] + shift
        if not pivot > 0.0:
            return False
        for i in range(k + 1, n):
            row_i, f = a[i], row_k[i] / pivot
            for j in range(i, n):
                row_i[j] -= f * row_k[j]
    return True


def _margin(fresh: Callable[[], list[list[float]]], floor: float) -> tuple[bool, bool]:
    # (is PSD, marginal) by LDL^T of A - f*I, then A + f*I, on fresh rows.
    if _ldlt_pd(fresh(), -floor):
        return True, False
    psd = _ldlt_pd(fresh(), floor)
    return psd, psd


def psd_with_margin(matrix: _Matrix, ctx: ToleranceContext = EXACT) -> tuple[bool, bool]:
    """(is PSD, verdict is marginal) of a symmetric matrix, given by its
    rows or as a `SymMatrix`.

    Exact mode decides by `_pivots` over the entries scaled to integers
    (floats at their binary values) and flags exactly singular PSD blocks.
    Exact Hankel-block questions read most blocks off their leading
    principal minors and the rank structure instead (`hankel.LadderVerdicts`)
    and come here only for a block that neither decides.  Float mode is the
    smallest-eigenvalue test: with the floor f = PSD_FLOOR * (1 + max|entry|),
    the matrix is PSD when lambda_min >= -f, and marginal when |lambda_min|
    <= f, i.e. the verdict would flip under a band-sized perturbation.  It is
    decided without eigenvalues, by LDL^T (`_ldlt_pd`) of A - f*I and A +
    f*I, each on its own copy scaled by `_band`: A - f*I PD gives (True,
    False), else A + f*I PD gives (True, True), else (False, False).  A
    float entry that is not finite is a PreconditionError.  The order-0
    matrix is PSD, not marginal.
    """
    rows = _rows_of(matrix)
    if not rows:
        return True, False
    if ctx.is_exact:
        psd, pd = _pivots(rows)
        return psd, psd and not pd
    scale, floor = _band([x for row in rows for x in row])
    return _margin(lambda: [[x * scale for x in row] for row in rows], floor)


def hankel_psd_with_margin(
    window: Sequence[Scalar], ctx: ToleranceContext = EXACT
) -> tuple[bool, bool]:
    """`psd_with_margin` of the Hankel block _rows(window, 0, k) of a window
    of odd length 2k+1, as block(n, k) has gamma_n..gamma_{n+2k}.  The
    window holds every entry of the block, so float mode takes the same
    band from it and scales its 2k+1 entries once, not the (k+1)^2 of the
    rows, each factorisation slicing fresh rows: the same verdict, bit for
    bit."""
    k = len(window) // 2
    if ctx.is_exact:
        return psd_with_margin(_rows(window, 0, k), ctx)
    scale, floor = _band(window)
    scaled = [x * scale for x in window]
    return _margin(lambda: _rows(scaled, 0, k), floor)


def is_psd(matrix: _Matrix, ctx: ToleranceContext = EXACT) -> bool:
    """The PSD verdict of `psd_with_margin` (rows or a `SymMatrix`)."""
    return psd_with_margin(matrix, ctx)[0]


def is_pd(matrix: _Matrix, ctx: ToleranceContext = EXACT) -> bool:
    """PD test (rows or a `SymMatrix`): `psd_with_margin` answers PSD and
    not marginal, in exact mode every `_pivots` pivot positive, in float
    mode the strict version of the PSD floor, lambda_min > f, decided as
    A - f*I is PD (`_ldlt_pd`).  The order-0 matrix is PD."""
    return psd_with_margin(matrix, ctx) == (True, False)


def _rows(values: Sequence[Scalar], n: int, k: int) -> list[Sequence[Scalar]]:
    # The rows of the order-k Hankel block at anchor n of values, as slices:
    # the one form in which the package hands a Hankel block to numkit.
    return [values[n + i:n + i + k + 1] for i in range(k + 1)]


# Polynomials below are coefficient lists in descending degree.


def _content_free(poly: list[int]) -> list[int]:
    # poly divided by its positive content: same roots, same signs.
    g = math.gcd(*poly)
    return poly if g == 1 else [c // g for c in poly]


def _neg_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # -|lead(b)|^j * (a mod b) for some j >= 0, content-free, leading zeros
    # stripped: a positive multiple of the negated Euclidean remainder.
    # Each step scales by |lead(b)| rather than lead(b), so no sign flips.
    lb, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    rem = list(a)
    for _ in range(len(a) - len(b) + 1):
        f = sign * rem[0]
        if f:  # lb * rem - f * b cancels the lead
            rem = [lb * x - f * y for x, y in zip(rem[1:], b[1:])] + [
                lb * x for x in rem[len(b):]
            ]
        else:
            rem = rem[1:]
    while rem and rem[0] == 0:
        rem.pop(0)
    return [-c for c in _content_free(rem)] if rem else []


def _primitive_ints(poly: Sequence[Scalar]) -> list[int]:
    # The primitive integer poly: leading zeros stripped, content-free, a
    # positive multiple of the input (floats at their binary values).
    if any(isinstance(c, float) and not math.isfinite(c) for c in poly):
        raise PreconditionError("polynomial coefficients must be finite")
    ints = _integer_view(poly)[0]
    while ints and ints[0] == 0:
        ints.pop(0)
    if not ints:
        raise PreconditionError("the zero polynomial has no isolated roots")
    return _content_free(ints)


def _sturm_chain(poly: Sequence[Scalar]) -> list[list[int]]:
    # The primitive integer poly (`_primitive_ints`), its content-free
    # derivative, then the content-free negated pseudo-remainders of
    # Euclid's algorithm; the last member is gcd(poly, poly').  Each member
    # is a positive multiple of the member of the classical Sturm chain over
    # the rationals, so sign changes agree.
    h = _primitive_ints(poly)
    d = len(h) - 1
    chain = [h]
    member = [c * (d - i) for i, c in enumerate(h[:-1])]
    while member:
        chain.append(_content_free(member))
        member = _neg_prem(chain[-2], chain[-1])
    return chain


def squarefree(poly: Sequence[Scalar]) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of
    poly / gcd(poly, poly') (coefficients descending, floats at their
    binary values): the same distinct roots, each simple, so `real_roots`
    never returns None on it.  Raises PreconditionError like `real_roots`.

    The quotient of the chain's first and last members is taken by exact
    integer division: both are primitive, so by Gauss's lemma it is."""
    chain = _sturm_chain(poly)
    rem, g = list(chain[0]), chain[-1]
    quot = []
    while len(rem) >= len(g):
        f = rem[0] // g[0]
        quot.append(f)
        rem = [x - f * y for x, y in zip(rem[1:], g[1:])] + rem[len(g):]
    return quot


def _scaled_value(poly: Sequence[int], num: int, den: int) -> int:
    # den^deg * poly(num/den), whose sign is that of poly at num/den.
    acc, power = 0, 1
    for c in poly:
        acc = acc * num + c * power
        power *= den
    return acc


def _changes_at(chain: Sequence[Sequence[int]], num: int, den: int) -> int:
    # V(num/den), den > 0: the chain's sign changes there, zeros skipped.
    # (num, den) = (1, 0) gives V(+inf), read off the leading coefficients.
    signs = [v > 0 for v in (_scaled_value(p, num, den) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_roots(poly: Sequence[Scalar]) -> list[Scalar] | None:
    """Every distinct real root of poly (coefficients in descending degree;
    floats are taken at their exact binary values) in ascending order: a
    Fraction when the root is rational, else the correctly rounded double
    of the certified root.  None when poly has a repeated root.

    Everything runs over Python ints, on the primitive integer poly h
    (`_primitive_ints`).  Linear and quadratic roots are read off: -h_1/h_0,
    and for a quadratic its discriminant (`_quadratic_roots`).  From degree
    3 on, the Sturm chain is built from h by content-free pseudo-remainders
    (`_sturm_chain`).  With V(x) the sign changes of the chain at x
    (`_changes_at`), a squarefree poly has exactly V(a) - V(b) roots in (a,
    b].  Roots are isolated by halving (-2^E, 2^E], 2^E above every root, at
    dyadic points, and each is refined by quadratic interval refinement
    (`_refine_root`) until the interval is narrower than 1/lead: a rational
    root of the primitive integer poly has the form m/lead, so the one such
    point inside is the only candidate.  A Fraction is built only for a
    returned rational root.  Raises PreconditionError for a nonfinite or
    all-zero coefficient list, and for an irrational root no double can
    hold.
    """
    return _isolate(poly)[0]


def _isolate(
    poly: Sequence[Scalar],
) -> tuple[list[Scalar] | None, list[list[int]] | None]:
    # `real_roots(poly)` and the Sturm chain it isolated with, None below
    # degree 3, where no chain is built.
    h = _primitive_ints(poly)
    if len(h) == 1:
        return [], None
    if len(h) == 2:
        return [Fraction(-h[1], h[0])], None
    if len(h) == 3:
        return _quadratic_roots(*h), None
    chain = _sturm_chain(h)
    if len(chain[-1]) > 1:
        return None, chain
    lead = abs(h[0])
    # top = 2^E is at least the Cauchy bound 1 + max|h_i| / lead, which
    # every |root| lies strictly below.
    top = 1 << (-(-max(abs(c) for c in h[1:]) // lead)).bit_length()
    roots: list[Scalar] = []
    # (a, b, e, V(a/2^e), V(b/2^e)); the left half is popped first, so the
    # roots come out in ascending order.
    todo = [(-top, top, 0, _changes_at(chain, -top, 1), _changes_at(chain, top, 1))]
    while todo:
        a, b, e, va, vb = todo.pop()
        if va - vb == 1:
            roots.append(_refine_root(h, lead, a, b, e))
        elif va - vb > 1:
            vm = _changes_at(chain, a + b, 2 << e)
            todo.append((a + b, 2 * b, e + 1, vm, vb))
            todo.append((2 * a, a + b, e + 1, va, vm))
    return roots, chain


def _quadratic_roots(a: int, b: int, c: int) -> list[Scalar] | None:
    """The roots of a x^2 + b x + c (ints, a != 0) as `real_roots` gives
    them, read off disc = b^2 - 4ac: none when disc < 0, None (a double
    root) when disc = 0, two Fractions when disc is a perfect square.
    Otherwise each root (-b -+ sqrt(disc)) / 2a is irrational, and with
    s = isqrt(disc * 4^t), sqrt(disc) * 2^t lies strictly between s and
    s + 1: each root has a bracket of width 1 / (2a * 2^t).  t doubles,
    from where that width is at most 2^-55, until both ends of a root's
    bracket give one double (`_same_double`), the rule `_refine_root`
    stops by."""
    if a < 0:
        a, b, c = -a, -b, -c
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return None
    s = math.isqrt(disc)
    if s * s == disc:
        return [Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)]
    roots: list[float | None] = [None, None]
    t = max(1, 56 - (2 * a).bit_length())
    while None in roots:
        s = math.isqrt(disc << 2 * t)
        # the lower ends: 2a * 2^t times the roots lie within 1 above them
        for i, lo in enumerate(((-b << t) - s - 1, (-b << t) + s)):
            if roots[i] is None:
                roots[i] = _same_double(lo, lo + 1, 2 * a << t)
        t *= 2
    return roots


def _same_double(lo: int, hi: int, den: int) -> float | None:
    # The double that lo/den and hi/den (den > 0) both round to, by int
    # true division, else None.  An irrational number between them, never
    # halfway between two doubles, then rounds to it too.  Both past the
    # double range on one side: no double holds that number.
    rounded = _rounded(hi, den)
    if _rounded(lo, den) != rounded:
        return None
    if math.isinf(rounded):
        raise PreconditionError(
            "an irrational root lies beyond the double range; no double can hold it"
        )
    return rounded


def _refine_root(h: Sequence[int], lead: int, a: int, b: int, e: int) -> Scalar:
    """The only root of h in (a/2^e, b/2^e], by quadratic interval
    refinement (Abbott 2006) over dyadic endpoints.

    A step splits the interval into 2^s cells and guesses, by the secant
    through the two endpoint values, the cell that holds the root.  Two
    signs check the guess: if they bracket the root, the interval becomes
    that cell and s doubles; otherwise the interval shrinks to the side the
    signs point to and s halves.  At s = 1 a step is one bisection, and
    bisection is also the step while h vanishes at the left end (another
    root sits there).  h is nonzero at the upper end unless the root sits
    there.  Once the interval is narrower than 1/lead, the one lattice
    point m/lead in it is the only possible rational root; past that test
    the root is irrational, hence never halfway between two doubles, and
    both ends rounding to the same double makes that double the rounded
    root (`_same_double`).  Every value is an int: den^deg * h(x) at the
    current scale.
    """
    deg = len(h) - 1
    vb = _scaled_value(h, b, 1 << e)
    if vb == 0:
        return Fraction(b, 1 << e)
    va = _scaled_value(h, a, 1 << e)
    sign_b = vb > 0
    lattice_tested = False
    s = 1
    while True:
        if not lattice_tested and (b - a) * lead < 1 << e:
            m = (b * lead) >> e
            if m << e > a * lead and _scaled_value(h, m, lead) == 0:
                return Fraction(m, lead)
            lattice_tested = True
        if lattice_tested:
            rounded = _same_double(a, b, 1 << e)
            if rounded is not None:
                return rounded
        if va == 0:
            s = 1
        # The grid x_j = a*n + j*(b - a), j = 0..n, at scale e + s; the
        # endpoint values rescale by 2^(s*deg).
        n, w, e = 1 << s, b - a, e + s
        a, b, va, vb = a * n, b * n, va << s * deg, vb << s * deg
        if s == 1:
            m = 1
        else:  # the grid point nearest the secant's zero
            num, den = (va, va - vb) if va > vb else (-va, vb - va)
            m = (2 * n * num + den) // (2 * den)
        x = a + m * w
        v = va if m == 0 else vb if m == n else _scaled_value(h, x, 1 << e)
        if v == 0:
            return Fraction(x, 1 << e)
        # The neighbour y on the root's side of x; the cell between them is
        # the guess, right by definition when y is an end of the interval.
        left = (v > 0) == sign_b
        y = x - w if left else x + w
        if y == a or y == b:
            u, hit = (va if y == a else vb), True
        else:
            u = _scaled_value(h, y, 1 << e)
            if u == 0:
                return Fraction(y, 1 << e)
            hit = ((u > 0) == sign_b) != left
        if hit:
            a, va, b, vb = (y, u, x, v) if left else (x, v, y, u)
            s *= 2
        else:
            a, va, b, vb = (a, va, y, u) if left else (y, u, b, vb)
            s >>= 1


def solve_linear_exact(
    rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> tuple[Fraction, ...] | None:
    """One exact solution of A x = b with free variables set to zero, or
    None when the system is inconsistent.

    Each row is scaled to integers with its right-hand side (floats at their
    binary values) and brought to echelon form by `_echelon`.  With d the
    last pivot, Cramer's rule makes d * x an integer vector, which back
    substitution finds with exact divisions; it is re-verified in the scaled
    rows, so the answer is sound whatever the pivoting, and the Fractions
    are built last.
    """
    sol = _solve_integer(rows, rhs)
    if sol is None:
        return None
    y, d = sol
    return tuple(Fraction(yi, d) for yi in y)


def _solve_integer(
    rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> tuple[list[int], int] | None:
    # `solve_linear_exact` as (y, d), d != 0, the solution being y / d.
    scaled = [_integer_view([*row, v])[0] for row, v in zip(rows, rhs, strict=True)]
    ncols = len(rows[0]) if scaled else 0
    ech = [list(row) for row in scaled]
    pivots, _, d = _echelon(ech, ncols)
    y = [0] * ncols
    for t in range(len(pivots) - 1, -1, -1):
        row = ech[t]
        acc = d * row[ncols] - sum(row[c] * y[c] for c in pivots[t + 1:])
        y[pivots[t]] = acc // row[pivots[t]]
    for row in scaled:
        if sum(a * yi for a, yi in zip(row, y)) != d * row[ncols]:
            return None
    return y, d


def solve_vandermonde(
    nodes: Sequence[Scalar], rhs: Sequence[Scalar], ctx: ToleranceContext = EXACT
) -> tuple[Scalar, ...]:
    """Solve sum_j rho_j * nodes_j^i = rhs_i for i = 0..m-1.

    One exact `solve_linear_exact` over the binary values of float entries.
    The solution is exact Fractions, or their correctly rounded doubles
    when a node or a right-hand side is a float or ctx is float mode; a
    rounded solution past the double range is a PreconditionError.
    """
    m = len(nodes)
    if len(rhs) != m:
        raise PreconditionError("nodes and rhs must have equal length")
    for i in range(m):
        for j in range(i + 1, m):
            if nodes[i] == nodes[j]:
                raise PreconditionError(f"repeated node {nodes[i]}")
    if m == 0:
        return ()
    sol = solve_linear_exact([[Fraction(x) ** i for x in nodes] for i in range(m)], rhs)
    if sol is None:
        raise InternalConsistencyError("distinct-node Vandermonde system unsolvable")
    if ctx.is_exact and not any(isinstance(x, float) for x in (*nodes, *rhs)):
        return sol
    try:
        return tuple(float(v) for v in sol)
    except OverflowError:
        raise PreconditionError(
            "a solution of the float Vandermonde system lies beyond the double range"
        ) from None


def _int_str(n: int) -> str:
    # Decimal digits of any length: str() refuses ints past the interpreter's
    # int-to-str digit limit (4300 by default), and Decimal does not.
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def _ratio_str(num: int, den: int) -> str:
    # fmt_scalar(Fraction(num, den)), den > 0, without building the Fraction.
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return _int_str(num)
    return f"{_int_str(num)}/{_int_str(den)}"


def fmt_scalar(x: Scalar) -> str:
    """Stable display form: integers bare, rationals as p/q, floats as repr.
    Integers and rationals are printed in full whatever their digit count."""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, Fraction):
        return _ratio_str(x.numerator, x.denominator)
    if isinstance(x, int):
        return _int_str(x)
    return repr(float(x))
