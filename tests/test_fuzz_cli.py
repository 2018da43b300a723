"""Fuzz of the command line: random JSON and CSV documents under random flag
sets.  Every run must end in a documented exit code (0, 2, 3 or 4) without a
traceback, and under `--json` every exit of a run must leave a report that
parses (argparse's own usage errors print nothing on stdout)."""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hankelshift.cli as cli

_INTS = st.integers(0, 30) | st.sampled_from([1, 10**30])
_FLOATS = st.floats(0.0, 50.0) | st.sampled_from([1e-300, 5e-324, 1e300, 1.7e308])
_RATIONAL_STRINGS = st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 40), st.integers(1, 12))
_JUNK = st.sampled_from(
    ["", "x", "1/", "/2", "1/0", "1.5/2", "-1/2", -3, -0.5, "nan", "inf", True, None, [1], {}]
)
_CLEAN = st.lists(_RATIONAL_STRINGS | _INTS, min_size=1, max_size=11) | st.lists(
    _FLOATS, min_size=1, max_size=11
)
_ATOMS = st.fractions(min_value=0, max_value=12, max_denominator=9)
_DENSITIES = st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 40), st.integers(1, 12))
_ANY = st.lists(_RATIONAL_STRINGS | _INTS | _FLOATS | _JUNK, max_size=11)


@st.composite
def documents(draw) -> tuple[str, str]:
    """(file name, content): a JSON sequence file, a measure file or a CSV
    moment list, well formed four times in five, else broken anywhere."""
    broken = draw(st.integers(0, 4)) == 4
    values = _ANY if broken else _CLEAN
    shape = draw(st.sampled_from(["weights", "moments", "measure", "csv"]))
    if shape == "csv":
        lines = [repr(v) for v in draw(st.lists(_FLOATS | _INTS, min_size=1, max_size=11))]
        if broken:
            lines.append(draw(st.sampled_from(["", "abc", "nan", "1/2", "1,2"])))
        return "in.csv", "\n".join(lines) + "\n"
    if broken and draw(st.booleans()):
        text = draw(st.sampled_from(["", "{", "[]", "null", '{"kind": 3}', '{"values": []}']))
        return "in.json", text
    doc: dict = {"kind": draw(st.sampled_from([shape, "other"])) if broken else shape}
    if shape == "measure" and broken:
        doc["atoms"] = draw(_ANY)
        doc["densities"] = draw(_ANY)
        if draw(st.booleans()):
            doc["horizon"] = draw(_JUNK | st.integers(-2, 14))
    elif shape == "measure":
        # distinct atoms in ascending order, as a measure needs them
        atoms = sorted(set(draw(st.lists(_ATOMS, min_size=1, max_size=4))))
        doc["atoms"] = [f"{x.numerator}/{x.denominator}" for x in atoms]
        doc["densities"] = draw(st.lists(_DENSITIES, min_size=len(atoms), max_size=len(atoms)))
        if draw(st.booleans()):
            doc["horizon"] = draw(st.integers(0, 14))
    else:
        doc["values"] = draw(values)
    if draw(st.integers(0, 4)) == 4:
        doc["exact"] = draw(_JUNK | st.booleans() if broken else st.booleans())
    return "in.json", json.dumps(doc)


@st.composite
def flag_sets(draw) -> list[str]:
    argv = [draw(st.sampled_from(["analyze", "dets", "recursion", "perturb"]))]
    for flag in ("--k", "--l", "--max-order"):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(1, 4) | st.integers(-2, 6)))]
    for flag, odds in (("--exact", 4), ("--float", 4), ("--closed-form", 4), ("--json", 2)):
        if draw(st.integers(1, odds)) == odds:
            argv.append(flag)
    argv.append("--no-timestamp")
    for flag in ("--tol-zero", "--tol-rel"):
        if draw(st.integers(0, 4)) == 4:
            argv += [flag, draw(st.sampled_from(["1e-12", "1e-6", "0.5", "0", "nan", "x"]))]
    return argv


def run_main(argv: list[str]) -> tuple[int, str, str]:
    # (exit code, stdout, stderr) of one main() call, argparse exits included
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flag set
            code = exc.code
            assert out.getvalue() == ""
            return code, "", err.getvalue()
    if "--json" in argv:
        # every exit of a run leaves a parseable report on stdout: the
        # results, or under a raised failure the error object
        doc = json.loads(out.getvalue())
        if "error" in doc:
            assert doc["error"]["exit"] == code != 0
        else:
            assert code in (0, 4) and "results" in doc
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(documents(), flag_sets())
def test_main_ends_in_a_documented_exit(tmp_path, document, flags):
    name, content = document
    path = tmp_path / name
    path.write_text(content)
    argv = [flags[0], str(path), *flags[1:]]
    outcome = run_main(argv)
    code, _, err = outcome
    assert code in (0, 2, 3, 4), (argv, content, err)
    assert "Traceback" not in err
    # main() reuses one parser per process: the same call again, after every
    # case drawn before it, gives the same (exit, stdout, stderr)
    assert run_main(argv) == outcome
