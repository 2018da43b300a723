"""Hankel blocks reach numkit as row slices: the deciders answer the same on
rows as on a `SymMatrix`, and a float run builds a `SymMatrix` only for a
verdict's witness."""

from __future__ import annotations

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelshift import EXACT, FLOAT, SymMatrix, is_pd, is_psd, psd_with_margin

from test_fuzz_cli import run_main

_entries = (
    st.integers(-4, 4)
    | st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    | st.floats(-4, 4, allow_nan=False)
)


@st.composite
def symmetric_rows(draw):
    n = draw(st.integers(0, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(_entries)
    return rows


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
@settings(max_examples=200, deadline=None)
@given(rows=symmetric_rows())
def test_rows_decide_as_the_matrix_does(ctx, rows):
    matrix = SymMatrix.from_rows(rows)
    for given_rows in (rows, [tuple(row) for row in rows]):
        assert psd_with_margin(given_rows, ctx) == psd_with_margin(matrix, ctx)
        assert is_psd(given_rows, ctx) == is_psd(matrix, ctx)
        assert is_pd(given_rows, ctx) == is_pd(matrix, ctx)


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_order_zero_rows(ctx):
    assert psd_with_margin([], ctx) == psd_with_margin(SymMatrix(()), ctx) == (True, False)
    assert is_psd([], ctx) and is_pd([], ctx)
    assert psd_with_margin([[2, 1], [1, 2]], ctx) == (True, False)


@pytest.fixture
def builds(monkeypatch):
    # One entry per SymMatrix built: True when a k-positivity scan built it
    # as the witness of a failed verdict.
    built: list[bool] = []
    post_init = SymMatrix.__post_init__

    def recording(self):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        built.append("_scan" in names)
        post_init(self)

    monkeypatch.setattr(SymMatrix, "__post_init__", recording)
    return built


_COMMANDS = [
    ["analyze", "--k", "3"],
    ["dets", "--k", "2"],
    ["perturb", "--l", "3", "--k", "2"],
    ["recursion"],
]


@pytest.mark.parametrize("command", _COMMANDS, ids=lambda c: c[0])
def test_float_run_builds_no_matrix(tmp_path, builds, command):
    path = tmp_path / "hilbert.csv"
    path.write_text("".join(f"{1.0 / (n + 1)!r}\n" for n in range(14)))
    code, _, _ = run_main([command[0], str(path), *command[1:], "--json", "--no-timestamp"])
    assert code == 0
    assert builds == []


@pytest.mark.parametrize("command", _COMMANDS[:2], ids=lambda c: c[0])
def test_float_run_builds_only_witnesses(tmp_path, builds, command):
    # 1, 2, 1, 2, ... fails 1-positivity at anchor 0
    path = tmp_path / "spikes.csv"
    path.write_text("".join(f"{float(1 + n % 2)!r}\n" for n in range(7)))
    code, _, _ = run_main([command[0], str(path), *command[1:], "--json", "--no-timestamp"])
    assert code == 0
    assert builds and all(builds)
