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
Linear algebra runs over Python ints in both modes, one kernel per
question on integer rows, every step an exact `//`: `_echelon`
(determinants, `_int_det`), `_pivots` (the symmetric PSD decider) and
`_solve_integer` (linear solves).  A public entry point (`det_bareiss`,
`psd_with_margin`, `solve_linear_exact`) scales its entries to integers
once (floats at their binary values), and only where they are not ints
already, so a caller holding an integer view passes it as it is;
a Fraction, or in float mode its correctly rounded double, is built only
for a value that leaves the routine.  `real_roots` works over ints too:
linear and quadratic roots are read off (a quadratic's irrational roots
bracketed by `math.isqrt` of its discriminant); from degree 3 on, a
content-free integer Sturm chain isolates the roots and quadratic interval
refinement at dyadic points narrows them.  A float PSD/PD verdict walks
the same integers' leading principal minors under one relative pivot band
(`ToleranceContext._small_pivot`); the one float-only kernel is the LDL^T
factorisation in doubles (`_ldlt_pd`) that decides, on the Jacobi-scaled
doubles, a matrix whose minors leave it open (`_shifted_pd`).  The package
imports no numpy.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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
    "SymMatrix",
    "Interval",
    "det_bareiss",
    "is_psd",
    "is_pd",
    "psd_with_margin",
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
    integers (`_in_band`).  A symmetric matrix's pivot d_j/d_{j-1} (d_j its
    leading principal minors) takes rel_eps alone, in band when at most
    rel_eps times a_jj (`_small_pivot`): the rule of every float Hankel
    zero test (`hankel.LadderVerdicts.vanishes`) and PSD/PD verdict
    (`psd_with_margin`).  Both are ignored in exact mode, whose band is 0,
    but must be finite and positive in every mode.
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
        # The package's one tolerance test outside the pivot band, lazily per
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

    def _small_pivot(self, d: int, low: int, corner: int) -> bool:
        # The float pivot band |d| <= rel_eps |low| corner, (d, low, corner)
        # = (d_j, d_{j-1}, a_jj) over one integer view; exact mode's band is
        # d = 0.
        num, den = self.rel_eps.as_integer_ratio()
        return den * abs(d) <= num * abs(low) * corner

    def is_zero(self, x: Scalar, scale: Scalar = 0.0) -> bool:
        """`_in_band` of x and |scale|; a nonfinite float is a PreconditionError."""
        (x, s), den = _integer_view([x, abs(scale)])
        return next(self._in_band([(x, s)], den))

    def nonneg(self, x: Scalar, scale: Scalar = 0.0) -> bool:
        """The signed `_in_band` of x and |scale|, as `is_zero`."""
        (x, s), den = _integer_view([x, abs(scale)])
        return next(self._in_band([(x, s)], den, signed=True))


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


def _ints(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """`_integer_view(values)` as a fresh list; values that are all ints
    already are copied as they are, over 1, with no conversion."""
    if all(type(x) is int for x in values):
        return list(values), 1
    return _integer_view(values)


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


def _int_det(rows: list[list[int]]) -> int:
    # The determinant of square integer rows, by `_echelon` in place.
    pivots, sign, last = _echelon(rows, len(rows))
    return sign * last if len(pivots) == len(rows) else 0


def _rounded(num: int, den: int) -> float:
    # num / den (den > 0) correctly rounded, as int true division rounds;
    # past the double range, the inf that IEEE rounding gives.
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def det_bareiss(matrix: _Matrix) -> Scalar:
    """Determinant by fraction-free Bareiss elimination (`_int_det`).

    Each row that is not all ints is scaled to integers over its own
    denominator (`_ints`; floats at their binary values), so the exact
    determinant is the integer one over the product of the row scales.  It
    is returned as a Fraction, or, when any entry is a float, as its
    correctly rounded double (`_rounded`).  A singular matrix gives 0; the
    order-0 determinant is 1.
    """
    rows = _rows_of(matrix)
    if not rows:
        return 1
    views = [_ints(row) for row in rows]
    num = _int_det([nums for nums, _ in views])
    den = math.prod(d for _, d in views)
    if any(isinstance(x, float) for row in rows for x in row):
        return _rounded(num, den)
    return Fraction(num, den)


def _elimination(rows: Sequence[Sequence[int]]) -> Iterator[Sequence[int]]:
    """Fraction-free symmetric elimination of integer rows (not modified),
    lazily: each step's row from the diagonal on, row[0] its pivot.

    By Sylvester's identity a pivot is the Schur-complement pivot times the
    previous nonzero pivot, which divides every update exactly; while none
    has been zero, step j's pivot is the leading principal minor d_j.  A
    zero pivot's row is dropped and the divisor stays.
    """
    # Only the upper triangle left to eliminate is kept, by symmetry every
    # entry the elimination reads: upper[i] holds row i from the diagonal.
    upper = [row[i:] for i, row in enumerate(rows)]
    prev = 1
    while upper:
        top, upper = upper[0], upper[1:]
        yield top
        pivot = top[0]
        if pivot:
            upper = [
                [(pivot * x - top[i] * y) // prev for x, y in zip(row, top[i:])]
                for i, row in enumerate(upper, 1)
            ]
            prev = pivot


def _pivots(rows: Sequence[Sequence[int]]) -> tuple[bool, bool]:
    """(is PSD, is PD) of a symmetric matrix given by integer rows, exactly,
    by `_elimination`.  A negative pivot means not PSD.  A zero pivot leaves
    a PSD matrix only when the rest of its row is zero too (a 2x2 principal
    minor [[0, b], [b, c]] has determinant -b^2); the matrix is then
    singular.  All pivots positive means PD.
    """
    singular = False
    for top in _elimination(rows):
        if top[0] < 0 or (top[0] == 0 and any(top[1:])):
            return False, False
        singular = singular or top[0] == 0
    return True, not singular


def _ldlt_pd(a: list[list[float]], shift: float) -> bool:
    """a + shift * I is PD, a the rows of a symmetric matrix of doubles: the
    package's one float factorisation, LDL^T in doubles, in place and
    without pivoting (the elimination of `_pivots` with float division).  A
    pivot, shifted as it is taken, that is not positive (nan included)
    means not PD.  Its backward error is of order n * u * |A| (Demmel 1989;
    Higham 2002, ch. 10), which on the Jacobi-scaled rows of
    `_shifted_pd`, entries at most 1 in size where the matrix is PSD, lies
    far inside a shift of rel_eps."""
    n = len(a)
    # Only the upper triangle (j >= i) is kept current, as in `_elimination`.
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


def _shifted_pd(doubles: Sequence[Sequence[float]], ctx: ToleranceContext) -> tuple[bool, bool]:
    """(psd, psd) of a symmetric matrix with an in-band pivot before its
    last (`psd_with_margin`): psd when B + rel_eps * I is PD
    (`_ldlt_pd`), B the Jacobi scaling b_ij = a_ij / sqrt(|a_ii a_jj|) of
    its correctly rounded doubles a_ij (a zero a_ii scales by 1).  An entry
    past the double range is a PreconditionError."""
    if any(math.isinf(x) for row in doubles for x in row):
        raise PreconditionError(
            "a float block entry is nan, inf or beyond the double range, "
            "so the block has no float verdict"
        )
    scale = [1.0 / math.sqrt(abs(row[i])) if row[i] else 1.0 for i, row in enumerate(doubles)]
    psd = _ldlt_pd(
        [[x * si * sj for x, sj in zip(row, scale)] for row, si in zip(doubles, scale)],
        ctx.rel_eps,
    )
    return psd, psd


def psd_with_margin(matrix: _Matrix, ctx: ToleranceContext = EXACT) -> tuple[bool, bool]:
    """(is PSD, verdict is marginal) of a symmetric matrix, given by its
    rows or as a `SymMatrix`.

    Both modes run on integer rows: ints as they are, else every entry
    scaled by one common denominator (`_integer_view`; floats at their
    binary values, a nan or inf a PreconditionError).  Exact mode decides
    by `_pivots` and flags exactly singular PSD matrices; exact Hankel
    blocks come here only when their minors and the rank structure leave
    them open (`hankel.LadderVerdicts`).  Float mode walks the leading
    principal minors d_0, d_1, ... that `_elimination` yields, with d_{-1}
    = 1, under the pivot band (`ToleranceContext._small_pivot`): every
    pivot positive and outside it is PD, a negative one outside it first
    is not PSD, the first in it at the last step is PSD and marginal, and
    one earlier leaves the verdict to `_shifted_pd`.  A float
    `LadderVerdicts` walks its blocks' minors the same way.  The order-0
    matrix is PSD, not marginal.
    """
    rows = _rows_of(matrix)
    if not rows:
        return True, False
    n, den = len(rows), 1
    if not all(type(x) is int for row in rows for x in row):
        flat, den = _integer_view([x for row in rows for x in row])
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    if ctx.is_exact:
        psd, pd = _pivots(rows)
        return psd, psd and not pd
    low = 1
    for j, top in enumerate(_elimination(rows)):
        d = top[0]
        if d == 0 or ctx._small_pivot(d, low, rows[j][j]):
            if j == n - 1:
                return True, True
            return _shifted_pd([[_rounded(x, den) for x in row] for row in rows], ctx)
        if d < 0:
            return False, False
        low = d
    return True, False


def is_psd(matrix: _Matrix, ctx: ToleranceContext = EXACT) -> bool:
    """The PSD verdict of `psd_with_margin` (rows or a `SymMatrix`)."""
    return psd_with_margin(matrix, ctx)[0]


def is_pd(matrix: _Matrix, ctx: ToleranceContext = EXACT) -> bool:
    """PD test (rows or a `SymMatrix`): `psd_with_margin` answers PSD and
    not marginal, in exact mode every `_pivots` pivot positive, in float
    mode every leading pivot positive and outside the band.  The order-0
    matrix is PD."""
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
    ints = _ints(poly)[0]
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

    Each row that is not all ints is scaled to integers with its right-hand
    side (`_ints`; floats at their binary values), and the integer system
    goes to `_solve_integer`; the Fractions are built last.
    """
    scaled = [_ints([*row, v])[0] for row, v in zip(rows, rhs, strict=True)]
    sol = _solve_integer([row[:-1] for row in scaled], [row[-1] for row in scaled])
    if sol is None:
        return None
    y, d = sol
    return tuple(Fraction(yi, d) for yi in y)


def _solve_integer(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[list[int], int] | None:
    """`solve_linear_exact` of integer rows and right-hand side, as (y, d)
    with d != 0, the solution being y / d; None when inconsistent.

    The augmented rows go to echelon form by `_echelon`.  With d the last
    pivot, Cramer's rule makes d * x an integer vector, which back
    substitution finds with exact divisions; it is re-verified in the given
    rows, so the answer is sound whatever the pivoting."""
    ncols = len(rows[0]) if rows else 0
    ech = [[*row, v] for row, v in zip(rows, rhs, strict=True)]
    pivots, _, d = _echelon(ech, ncols)
    y = [0] * ncols
    for t in range(len(pivots) - 1, -1, -1):
        row = ech[t]
        acc = d * row[ncols] - sum(row[c] * y[c] for c in pivots[t + 1:])
        y[pivots[t]] = acc // row[pivots[t]]
    for row, v in zip(rows, rhs):
        if sum(a * yi for a, yi in zip(row, y)) != d * v:
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
