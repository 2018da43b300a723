"""Exact inputs stay integers from the file to the report.

A p/q entry is read into its pair in lowest terms, exact weights, moments
and measures go from their integer pairs to the integer view of the moments
(`MomentSequence.scaled`, `WeightSequence.scaled`, `measures.
exact_moments`), and a determinant table's text is written from its
integers once.  These tests hold the integer-built objects against the
Fraction-built ones they replace, pin the reader's edge cases, and count the
Fractions a command-line run still builds."""

from __future__ import annotations

import contextlib
import copy
import decimal
import io
import json
import math
import pickle
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelshift.cli as cli
import hankelshift.shifts as shifts
from hankelshift import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    InputError,
    MomentSequence,
    WeightSequence,
    detect_recursion,
    exact_moments,
    moments_of,
    recover_atoms,
    weights_to_moments,
)
from hankelshift.numkit import _integer_view, _over_lcm, fmt_scalar

# ------------------------------------------------------------------- reader


def _reference_entry(raw):
    # The reader as it was: a p/q string into a Fraction, here as its pair.
    where = "f: values[0]"
    if isinstance(raw, bool):
        raise InputError(f"{where}: booleans are not numbers")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise InputError(f"{where}: {raw!r} is not a finite number")
        return raw
    if not re.match(r"^[+-]?\d+/\d+$", raw.strip()):
        raise InputError(
            f"{where}: string {raw!r} is not a p/q rational (optional sign, digits, '/', digits)"
        )
    num, den = (int(decimal.Decimal(part)) for part in raw.strip().split("/"))
    if den == 0:
        raise InputError(f"{where}: zero denominator in {raw!r}")
    value = F(num, den)
    return value.numerator, value.denominator


def _outcome(read, raw):
    try:
        value = read(raw)
    except InputError as exc:
        return "error", str(exc)
    return type(value), value


_LONG = "7" * 4400


class TestReader:
    @settings(max_examples=400, deadline=None)
    @given(
        st.from_regex(r"\A\s?[+-]?[0-9١߀]{1,4}/[0-9٣]{1,4}\s?\Z")
        | st.text(st.sampled_from(list("0123456789+-/ \n١²")), max_size=8)
        | st.integers()
        | st.floats()
        | st.booleans()
    )
    @example("2/4")
    @example("+3/6")
    @example(" -4/2\n")
    @example("0/7")
    @example("١٢/٣")
    @example("߁/߂")
    @example(f"-{_LONG}/{_LONG}1")
    @example(f"{_LONG}0/4")
    @example("3/0")
    @example("-0/0")
    @example(True)
    @example(False)
    @example(0.1)
    @example(math.inf)
    @example(math.nan)
    def test_reads_pairs_in_lowest_terms(self, raw):
        got = _outcome(lambda r: cli._parse_entry(r, "f: values[0]"), raw)
        assert got == _outcome(_reference_entry, raw)
        if got[0] is tuple:
            num, den = got[1]
            assert den > 0 and math.gcd(num, den) == 1

    @pytest.mark.parametrize("raw", [0.1, 1e-300, 3.0, -2.5, 1e300])
    def test_floats_in_exact_mode_at_their_binary_values(self, raw):
        # `--exact` on float entries: the pair is the Fraction of the double.
        value = F(raw)
        assert cli._pairs([cli._parse_entry(raw, "f")]) == [(value.numerator, value.denominator)]

    def test_long_entries_keep_every_digit(self):
        num, den = cli._parse_entry(f"{_LONG}0/4", "f")
        assert (num, den) == (int(decimal.Decimal(_LONG + "0")) // 2, 2)


# ----------------------------------------------------------- differentials

_POSITIVE = st.fractions(min_value=F(1, 10**4), max_value=10**4) | st.integers(1, 10**4)
_NONNEG = _POSITIVE | st.just(F(0))


def _pair(v) -> tuple[int, int]:
    return v.as_integer_ratio()


def _fraction_product(sq) -> MomentSequence:
    values, acc = [F(1)], F(1)
    for v in sq:
        acc = acc * v
        values.append(acc)
    return MomentSequence(tuple(values))


@st.composite
def _coprime_growing_weights(draw) -> list[F]:
    # Squared weights p_i / q_i whose denominators are increasing distinct
    # primes, and whose numerators take factors of earlier denominators, so
    # that the running product cancels across steps.
    n = draw(st.integers(1, 8))
    dens = sorted(draw(st.lists(st.sampled_from(_PRIMES), min_size=n, max_size=n, unique=True)))
    sq = []
    for i, q in enumerate(dens):
        factors = draw(st.lists(st.sampled_from(dens[:i]), max_size=3)) if i else []
        sq.append(F(math.prod(factors) * draw(st.integers(1, 6)), q))
    return sq


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _assert_same(built: MomentSequence, ref: MomentSequence) -> None:
    """built (from integers) against ref (from Fractions): the ladder's
    answers first, with built's values still unbuilt, then every field."""
    assert "values" not in built.__dict__
    assert built.integer_view == ref.integer_view
    assert built.horizon == ref.horizon and len(built) == len(ref)
    assert built.strictly_positive == ref.strictly_positive
    assert not built.has_float
    lad, ref_lad = built.ladder(EXACT), ref.ladder(EXACT)
    assert lad.rank == ref_lad.rank
    for k in range(ref.horizon // 2 + 1):
        table, ref_table = lad.table(k), ref_lad.table(k)
        assert (table.nums, table.scale, table.methods) == (
            ref_table.nums,
            ref_table.scale,
            ref_table.methods,
        )
        assert table.texts == tuple(map(fmt_scalar, ref_table.dets))
        if k:
            assert lad.verdict(k) == ref_lad.verdict(k)
    assert built.ladder(FLOAT).rank == ref.ladder(FLOAT).rank
    assert "values" not in built.__dict__
    assert built.values == ref.values and all(type(v) is F for v in built.values)
    assert built == ref and hash(built) == hash(ref)
    for twin in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
        assert twin == ref and twin.integer_view == ref.integer_view
        assert twin.horizon == ref.horizon


def _unbuilt_copies(seq: MomentSequence) -> None:
    # A copy taken before the values are read still builds them.
    for twin in (pickle.loads(pickle.dumps(seq)), copy.copy(seq)):
        assert "values" not in twin.__dict__
        assert twin.values == tuple(F(g, seq.integer_view[1]) for g in seq.integer_view[0])


class TestIntegerBuiltSequences:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_POSITIVE, min_size=1, max_size=10))
    def test_weights(self, sq):
        alpha = WeightSequence.scaled([_pair(v) for v in sq])
        ref_alpha = WeightSequence.from_squared(sq)
        built = weights_to_moments(alpha)
        assert "sq" not in alpha.__dict__
        assert alpha.pairs == ref_alpha.pairs
        _unbuilt_copies(built)
        _assert_same(built, _fraction_product(sq))
        assert weights_to_moments(ref_alpha) == built
        assert alpha == ref_alpha and hash(alpha) == hash(ref_alpha) and len(alpha) == len(sq)
        assert pickle.loads(pickle.dumps(alpha)) == ref_alpha

    def test_each_constructor_stores_the_one_form(self):
        exact = {"integer_view": ((2, 1), 2), "has_float": False}
        assert vars(MomentSequence.of([1, F(1, 2)])) == exact
        assert vars(MomentSequence.scaled([2, 1], 2)) == exact
        assert vars(MomentSequence.of([1.0, 0.5])) == {**exact, "has_float": True}
        pairs = {"pairs": ((1, 2), (3, 1)), "has_float": False}
        assert vars(WeightSequence.from_squared([F(1, 2), 3])) == pairs
        assert vars(WeightSequence.scaled([(1, 2), (3, 1)])) == pairs
        assert vars(WeightSequence.from_squared([0.5, 3])) == {**pairs, "has_float": True}

    @settings(max_examples=100, deadline=None)
    @given(_coprime_growing_weights())
    @example([F(1, 2), F(2, 3)])
    def test_running_product_stays_in_lowest_terms(self, sq):
        # Both cross gcds are needed: with the second, gcd(p, den), dropped,
        # 1/2 * 2/3 would stay 2/6.  The integer view cannot show it (the
        # lcm of the denominators comes out the same), so the products are
        # read where they are put over their lcm.
        seen = []

        def spy(pairs):
            seen.append(list(pairs))
            return _over_lcm(pairs)

        with mock.patch.object(shifts, "_over_lcm", spy):
            built = weights_to_moments(WeightSequence.scaled([_pair(v) for v in sq]))
        want, acc = [(1, 1)], F(1)
        for v in sq:
            acc *= v
            want.append(_pair(acc))
        assert seen == [want]
        assert built == _fraction_product(sq)

    @settings(max_examples=60, deadline=None)
    @given(_POSITIVE, st.lists(_NONNEG, max_size=10))
    def test_moments(self, first, rest):
        values = [F(first), *map(F, rest)]
        built = MomentSequence.scaled(*_over_lcm([_pair(v) for v in values]))
        _unbuilt_copies(built)
        _assert_same(built, MomentSequence.of(values))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=20, max_denominator=30),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.lists(_POSITIVE, min_size=4, max_size=4),
        st.integers(0, 10),
    )
    def test_measures(self, atoms, densities, horizon):
        atoms = sorted(atoms)
        densities = densities[: len(atoms)]
        built = exact_moments(_integer_view(atoms), _integer_view(densities), horizon)
        ref = MomentSequence.of(
            sum(F(r) * x**n for x, r in zip(atoms, densities)) for n in range(horizon + 1)
        )
        assert moments_of(AtomicMeasure(tuple(atoms), tuple(densities)), horizon) == ref
        _assert_same(built, ref)
        if horizon >= 2 * len(atoms):
            mu = recover_atoms(detect_recursion(ref, horizon // 2), ref)
            assert mu.atoms == tuple(atoms) and mu.densities == tuple(densities)
            assert all(type(r) is F for r in mu.densities)

    @pytest.mark.parametrize(
        "atoms, densities, message",
        [
            ([2, 1], [1, 1], "atoms must be strictly increasing"),
            ([-1, 1], [1, 1], "atoms must be nonnegative"),
            ([1, 2], [1, 0], "densities must be strictly positive"),
            ([1, 2], [1], "atoms and densities must have equal length"),
        ],
    )
    def test_measures_refuse_as_atomic_measure(self, atoms, densities, message):
        with pytest.raises(ValueError, match=message):
            AtomicMeasure(tuple(atoms), tuple(densities))
        with pytest.raises(ValueError, match=message):
            exact_moments(_integer_view(atoms), _integer_view(densities), 4)

    @pytest.mark.parametrize(
        "values, message",
        [([0, 1], "gamma_0 must be positive"), ([1, 2, -1], "gamma_2 is negative")],
    )
    def test_moments_refuse_as_the_constructor(self, values, message):
        with pytest.raises(ValueError, match=message):
            MomentSequence.of(values)
        with pytest.raises(ValueError, match=message):
            MomentSequence.scaled(values, 1)

    def test_weights_refuse_as_the_constructor(self):
        message = "squared weight at index 1 is not positive"
        with pytest.raises(ValueError, match=message):
            WeightSequence.from_squared([F(1, 2), 0])
        with pytest.raises(ValueError, match=message):
            WeightSequence.scaled([(1, 2), (0, 1)])


# ---------------------------------------------------------- Fraction count


def _bergman_file(tmp_path, horizon: int) -> str:
    path = tmp_path / "bergman.json"
    values = [f"{n + 1}/{n + 2}" for n in range(horizon)]
    path.write_text(json.dumps({"kind": "weights", "values": values}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["dets", "--k", "3", "--json", "--no-timestamp"], ["analyze", "--k", "1"]],
    ids=["dets", "analyze"],
)
def test_exact_reports_build_no_fraction(tmp_path, argv):
    # The p/q Bergman weights of horizon 20 go from the file to the report
    # as integers: every verdict reads the ladder's integers, and each table
    # is printed from them.
    path = _bergman_file(tmp_path, 20)
    full = [argv[0], path, *argv[1:]]
    new = vars(F)["__new__"]
    calls = 0

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return new(cls, *args, **kwargs)

    out = io.StringIO()
    F.__new__ = counting
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(full)
    finally:
        F.__new__ = new
    assert code == 0 and out.getvalue()
    assert calls == 0
