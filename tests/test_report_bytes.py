"""Byte pins of the command line's reports.

Every run of a fixed corpus (the README's example inputs and a seeded
corpus drawn with `gen.py`) through `cli.main`, under `--json
--no-timestamp` and under `--no-timestamp` alone, is pinned by one sha256
digest of its exit code, stdout and stderr in `report_digests.json`.  A
faster path must print the same bytes; a declared output change rewrites
the digests with

    PYTHONPATH=src python tests/test_report_bytes.py --write

and says so in CHANGES.md.  To see which runs such a change moves, dump
every run's [exit code, stdout, stderr], keyed by its argv, at two commits
and diff the dumps:

    PYTHONPATH=src python tests/test_report_bytes.py --dump PATH
    PYTHONPATH=src python tests/test_report_bytes.py --diff PARENT CHANGE

`--diff` prints each argv whose outcome differs between two dumps, with
its exit code in each and the first stdout or stderr line that differs on
each side, and then a count of the moved runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

import hankelshift.cli as cli
from gen import (
    bergman_moments,
    flat_tail_weights,
    k_positive_moments,
    logconvex_moments,
    random_measure,
)

DIGESTS = Path(__file__).with_name("report_digests.json")

# Each option set runs on every input, so each subcommand meets exact and
# float values, weights, moments, measures and CSV files.
OPTION_SETS: tuple[tuple[str, ...], ...] = (
    ("analyze",),
    ("analyze", "--k", "3"),
    ("analyze", "--k", "3", "--float", "--tol-rel", "1e-6"),
    ("dets", "--k", "1"),
    ("dets", "--k", "3"),
    ("recursion",),
    ("recursion", "--max-order", "2"),
    ("recursion", "--float", "--tol-rel", "1e-6"),
    ("perturb", "--k", "1"),
    ("perturb", "--l", "3", "--k", "2"),
    ("perturb", "--k", "3", "--closed-form"),
)
OUTPUTS = (("--json", "--no-timestamp"), ("--no-timestamp",))


def _pq(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _doc(kind: str, **fields) -> str:
    return json.dumps({"kind": kind, **fields})


def corpus() -> list[tuple[str, str]]:
    """(file name, content) of every input, in a fixed order."""
    files = [
        # README: the Bergman shift and the three input-file examples
        ("bergman.json", _doc("weights", values=[f"{n + 1}/{n + 2}" for n in range(14)])),
        ("readme_weights.json", _doc("weights", values=["1/2", "2/3", "3/4"])),
        ("readme_moments.json", _doc("moments", values=[1, 0.5, 0.333333])),
        (
            "readme_measure.json",
            _doc("measure", atoms=["0/1", "1/1"], densities=["3/4", "1/4"], horizon=8),
        ),
        ("readme_overflow.json", _doc("moments", values=[1.0, 0, 0, 0, 1e300, 0, 0])),
        # entries the p/q reader accepts or refuses, echoed into messages
        ("signs.json", _doc("moments", values=["+1/1", " 1/2 ", "1/3", "+1/4", "1/5"])),
        ("unicode_digits.json", _doc("moments", values=["\u0661/\u0661", "1/2", "1/3"])),
        ("odd_chars.json", _doc("moments", values=["1/1", 'x"\\\u00e9\u2028\t1/2'])),
        ("non_ascii_\u00e9.json", _doc("weights", values=["1/2", "2/3", "3/4", "4/5", "5/6"])),
        ("zero_den.json", _doc("weights", values=["1/2", "3/0"])),
        ("mixed.json", _doc("moments", values=["1/1", 0.5])),
        ("negative.json", _doc("moments", values=["1/1", "-1/2", "1/3"])),
        ("bad.csv", "1.0\n0.5\nnan\n"),
    ]
    for seed in range(3):
        rng = random.Random(f"report-bytes:{seed}")
        mu = random_measure(rng, max_atoms=3, positive=True)
        gamma = [sum(r * x**n for x, r in zip(mu.atoms, mu.densities)) for n in range(11)]
        files += [
            (f"measure{seed}.json", _doc(
                "measure",
                atoms=[_pq(x) for x in mu.atoms],
                densities=[_pq(r) for r in mu.densities],
                horizon=10,
            )),
            (f"atomic{seed}.json", _doc("moments", values=[_pq(v) for v in gamma])),
            (f"atomic_float{seed}.json", _doc("moments", values=[float(v) for v in gamma])),
            (f"atomic{seed}.csv", "".join(f"{float(v)!r}\n" for v in gamma)),
            (f"kpos{seed}.json", _doc(
                "moments", values=[_pq(v) for v in k_positive_moments(rng, 2, 10).values]
            )),
            (f"logconvex{seed}.json", _doc(
                "moments", values=[_pq(v) for v in logconvex_moments(rng, 9).values]
            )),
            (f"flat{seed}.json", _doc(
                "weights", values=[_pq(v) for v in flat_tail_weights(rng, 9).sq]
            )),
            (f"flat_float{seed}.json", _doc(
                "weights", values=[float(v) for v in flat_tail_weights(rng, 9).sq]
            )),
        ]
    files.append((
        "bergman_moments.json",
        _doc("moments", values=[_pq(v) for v in bergman_moments(10).values]),
    ))
    return files


def run_outcome(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one `cli.main` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def run_digest(argv: list[str]) -> str:
    """sha256 of one run's `run_outcome`."""
    return hashlib.sha256(json.dumps(run_outcome(argv)).encode()).hexdigest()


def argvs(name: str) -> list[list[str]]:
    """Every run on one input file."""
    return [
        [options[0], name, *options[1:], *flags]
        for options in OPTION_SETS
        for flags in OUTPUTS
    ]


def file_digests(name: str, content: str, run=run_digest) -> dict:
    """run(argv) of every run on one input, keyed by its argv.  Runs in the
    current directory, so the report's path is the bare file name."""
    Path(name).write_text(content, encoding="utf-8")
    return {" ".join(argv): run(argv) for argv in argvs(name)}


CORPUS = corpus()


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name,content", CORPUS, ids=[name for name, _ in CORPUS])
def test_reports_are_byte_identical(tmp_path, monkeypatch, pinned, name, content):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HANKELSHIFT_TOL_REL", raising=False)
    got = file_digests(name, content)
    assert {k: pinned.get(k) for k in got} == got


def test_every_pin_has_its_run(pinned):
    assert set(pinned) == {" ".join(argv) for name, _ in CORPUS for argv in argvs(name)}


def test_diff_lists_each_moved_run_with_both_exit_codes():
    parent = {
        "a": [0, "x", ""], "b": [3, "", "e"], "c": [0, "y", ""],
        "e": [0, "same\nold\ntail\n", ""], "f": [0, "one\n", ""], "g": [0, "x", ""],
    }
    change = {
        "a": [0, "x", ""], "b": [0, "z", ""], "d": [2, "", "f"],
        "e": [0, "same\nnew\ntail\n", ""], "f": [0, "one\ntwo\n", ""], "g": [3, "x", ""],
    }
    assert moved_runs(parent, change) == [
        "b: exit 3 -> 0",
        "  - stdout line 1: (no line)",
        "  + stdout line 1: z",
        "c: exit 0 -> -",
        "d: exit - -> 2",
        "e: exit 0 -> 0",
        "  - stdout line 2: old",
        "  + stdout line 2: new",
        "f: exit 0 -> 0",
        "  - stdout line 2: (no line)",
        "  + stdout line 2: two",
        "g: exit 0 -> 3",
    ]


def _corpus_runs(run) -> dict:
    # run(argv) of every corpus run, in a scratch directory, without the
    # tolerance override the environment might set.
    import tempfile

    os.environ.pop("HANKELSHIFT_TOL_REL", None)
    runs: dict = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, content in CORPUS:
                runs.update(file_digests(name, content, run))
        finally:
            os.chdir(here)
    return runs


def _save(path: Path, runs: dict, what: str) -> None:
    path.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"{len(runs)} {what} written to {path}")


def first_difference(parent: list, change: list) -> list[str]:
    """The first stdout line that differs between two outcomes of one run,
    else the first stderr line, as a "-" (parent) and a "+" (change) line;
    no lines when both streams match."""
    for name, before, after in zip(("stdout", "stderr"), parent[1:], change[1:]):
        before, after = before.splitlines(), after.splitlines()
        for i in range(max(len(before), len(after))):
            pair = [lines[i] if i < len(lines) else "(no line)" for lines in (before, after)]
            if pair[0] != pair[1]:
                return [f"  {sign} {name} line {i + 1}: {line}" for sign, line in zip("-+", pair)]
    return []


def moved_runs(parent: dict, change: dict) -> list[str]:
    """One line per argv whose outcome differs between two dumps: the argv
    and its exit code in each ("-" where a dump lacks the run), followed,
    when both dumps have the run, by its `first_difference`."""
    def code(runs: dict, argv: str) -> str:
        return str(runs[argv][0]) if argv in runs else "-"

    lines = []
    for argv in sorted(parent.keys() | change.keys()):
        if parent.get(argv) != change.get(argv):
            lines.append(f"{argv}: exit {code(parent, argv)} -> {code(change, argv)}")
            if argv in parent and argv in change:
                lines += first_difference(parent[argv], change[argv])
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _save(DIGESTS, _corpus_runs(run_digest), "digests")
    elif len(sys.argv) == 3 and sys.argv[1] == "--dump":
        _save(Path(sys.argv[2]), _corpus_runs(run_outcome), "outcomes")
    elif len(sys.argv) == 4 and sys.argv[1] == "--diff":
        moved = moved_runs(*(json.loads(Path(p).read_text()) for p in sys.argv[2:]))
        count = sum(not line.startswith(" ") for line in moved)
        print("\n".join([*moved, f"{count} run(s) moved"]))
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | --dump PATH | --diff PARENT CHANGE")
