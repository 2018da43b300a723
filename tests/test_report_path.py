"""The exact report path's fast pieces against the code they replaced: the
report emitter against `json.dumps(indent=2, sort_keys=True)`, the one-pass
p/q reader (to a pair in lowest terms) against the regex reader (to a
Fraction), and the integer running product of `weights_to_moments` against
the Fraction product."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankelshift.cli as cli
from hankelshift import InputError, PreconditionError, WeightSequence, weights_to_moments

# -------------------------------------------------------------------- emitter

_ODD_TEXT = st.text(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\t\n\r \u00e9\u20ac\u2028\U0001f600ab0') | st.characters(),
    max_size=8,
)
_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 1e16, 0.1]
)
_LEAVES = (
    _ODD_TEXT
    | st.integers()
    | st.sampled_from([10**30, -(10**40), 0, -1])
    | _FLOATS
    | st.booleans()
    | st.none()
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_ODD_TEXT, kids, max_size=4),
    max_leaves=30,
)


class TestEmitter:
    @settings(max_examples=400, deadline=None)
    @given(_TREES)
    def test_equals_json_dumps(self, tree):
        assert cli._dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_every_leaf_type_at_every_depth(self):
        leaves = ["a\"\\\u00e9\x01", 3, -(10**25), True, False, None, -0.0, math.nan, -math.inf]
        tree = {"z": leaves, "a": {"": [], "b": {}, "c": [leaves, {"d": leaves}]}}
        assert cli._dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            F(1, 2), (1, 2), {1, 2}, b"x", pytest.param(object(), id="object()"),
            {1: "x"}, {None: 1}, [1, [F(1)]], {"k": (1,)},
        ],
        ids=repr,
    )
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)


# ------------------------------------------------------------------ p/q reader

RATIONAL_RE = re.compile(r"^[+-]?\d+/\d+$")


def _regex_entry(raw: str):
    # The reader the one-pass parse replaced, its Fraction as the pair the
    # one-pass reader gives.
    where = "f: values[0]"
    if not RATIONAL_RE.match(raw.strip()):
        raise InputError(
            f"{where}: string {raw!r} is not a p/q rational (optional sign, digits, '/', digits)"
        )
    num, den = (cli._parse_int(part) for part in raw.strip().split("/"))
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


# Signs, slashes, whitespace (ASCII and not), Unicode decimal digits (Arabic-
# Indic, NKo), digits that are not decimal (superscript two, one half).
_PQ_TEXT = st.text(
    st.sampled_from(
        list("0123456789+-/ \t\n\r\x0b\x0c\u00a0\u2028_a.\u0661\u0663\u07c0\u00b2\u00bd")
    ),
    max_size=9,
)


class TestRationalReader:
    @settings(max_examples=600, deadline=None)
    @given(_PQ_TEXT | st.text(max_size=6) | st.from_regex(r"\A\s?[+-]?\d{1,5}/\d{1,5}\s?\Z"))
    def test_accepts_and_refuses_as_the_regex(self, raw):
        got = _outcome(lambda r: cli._parse_entry(r, "f: values[0]"), raw)
        assert got == _outcome(_regex_entry, raw)

    @pytest.mark.parametrize(
        "raw, value",
        [
            ("+3/6", (1, 2)),
            (" -4/2\n", (-2, 1)),
            ("\u0661/\u0663", (1, 3)),
            ("0/7", (0, 1)),
            ("1/2\n", (1, 2)),
        ],
    )
    def test_reads_normalised_fractions(self, raw, value):
        # The pair in lowest terms, denominator positive: a Fraction's.
        assert cli._parse_entry(raw, "f") == value == _regex_entry(raw)

    @pytest.mark.parametrize(
        "raw", ["1/2\n/3", "\u00b2/3", "1_0/3", "+-1/2", "1/+2", "1 /2", "/2", "1/"]
    )
    def test_refuses_what_the_regex_refuses(self, raw):
        with pytest.raises(InputError, match="is not a p/q rational"):
            cli._parse_entry(raw, "f")


# ---------------------------------------------------------- moments of weights


def _fraction_product(sq):
    values, acc = [1], F(1)
    for v in sq:
        acc = acc * v
        values.append(acc)
    return tuple(values)


class TestWeightsToMoments:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=F(1, 10**6), max_value=10**6) | st.integers(1, 10**6),
            min_size=1,
            max_size=12,
        )
    )
    def test_equals_the_fraction_product(self, sq):
        values = weights_to_moments(WeightSequence.from_squared(sq)).values
        assert values == _fraction_product(sq)
        # Exact moments are built from their integer view, gamma_0 = 1 as well.
        assert values[0] == 1 and all(type(v) is F for v in values)

    def test_float_weights_stay_float(self):
        # A sequence with a float moment derives every value as a double,
        # gamma_0 = 1 as well.
        values = weights_to_moments(WeightSequence.from_squared([0.5, 3, 0.25])).values
        assert values == (1, 0.5, 1.5, 0.375)
        assert all(type(v) is float for v in values)


def test_entries_become_pairs_or_doubles():
    # Exact mode reads each parsed entry as (p, q), floats at their binary
    # values; float mode as its correctly rounded double.
    assert cli._pairs(((1, 2), 3, 0.25)) == [(1, 2), (3, 1), (1, 4)]
    assert cli._floats(((1, 3), 3, 0.25)) == (1 / 3, 3.0, 0.25) == (float(F(1, 3)), 3.0, 0.25)
    with pytest.raises(PreconditionError, match="beyond the double range"):
        cli._floats([(10**400, 3)])
