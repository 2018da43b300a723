"""Command-line interface: file ingestion, mode resolution, subcommands,
exit codes, JSON determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

import hankelshift.cli as cli
import hankelshift.hankel as hankel
import hankelshift.measures as measures
import hankelshift.perturbation as perturbation
from hankelshift import AtomicMeasure, InputError, Interval, IntervalReport, moments_of
from hankelshift.perturbation import InteriorReport

from gen import hausdorff_moments, six_atom_moments
from test_fuzz_cli import run_main


def _pq_moments(gamma) -> dict:
    # An exact moment sequence as a p/q moments document.
    return {"kind": "moments", "values": [f"{v.numerator}/{v.denominator}" for v in gamma.values]}


def write(tmp_path, name, content):
    p = tmp_path / name
    if isinstance(content, (dict, list)):
        p.write_text(json.dumps(content))
    else:
        p.write_text(content)
    return str(p)


def assert_json_error(captured, code, kind):
    # Under --json a failed run prints {"error": {"kind", "exit", "message"}}
    # on stdout and its one labelled line, with the same message, on stderr.
    doc = json.loads(captured.out)
    assert doc == {"error": {"kind": kind, "exit": code, "message": doc["error"]["message"]}}
    assert captured.err.count("\n") == 1
    assert captured.err.endswith(f": {doc['error']['message']}\n")


@pytest.fixture
def bergman_file(tmp_path):
    sq = [f"{n + 1}/{n + 2}" for n in range(14)]
    return write(tmp_path, "bergman.json", {"kind": "weights", "values": sq})


@pytest.fixture
def twoatom_file(tmp_path):
    doc = {"kind": "measure", "atoms": ["1/1", "4/1"], "densities": ["1/2", "1/2"]}
    return write(tmp_path, "twoatom.json", doc)


@pytest.fixture
def csv_file(tmp_path):
    vals = [1.0 / (n + 1) for n in range(10)]
    return write(tmp_path, "moments.csv", "\n".join(repr(v) for v in vals) + "\n")


class TestParsing:
    def test_weights_json(self, bergman_file, capsys):
        assert cli.main(["analyze", bergman_file, "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "mode: exact" in out
        assert "k=3: holds" in out

    def test_csv_defaults_to_float(self, csv_file, capsys):
        assert cli.main(["analyze", csv_file]) == 0
        assert "mode: float" in capsys.readouterr().out

    def test_measure_default_horizon(self, twoatom_file, capsys):
        assert cli.main(["analyze", twoatom_file]) == 0
        out = capsys.readouterr().out
        assert "horizon=12" in out
        assert "default horizon 12" in out

    def test_measure_horizon_field(self, tmp_path, capsys):
        doc = {
            "kind": "measure",
            "atoms": ["1/1", "4/1"],
            "densities": ["1/2", "1/2"],
            "horizon": 8,
        }
        path = write(tmp_path, "m.json", doc)
        assert cli.main(["analyze", path]) == 0
        assert "horizon=8" in capsys.readouterr().out

    def test_mixed_representations_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "mixed.json", {"kind": "weights", "values": ["1/2", 0.5]})
        assert cli.main(["analyze", path]) == 2
        assert "mixed representations" in capsys.readouterr().err

    def test_rational_requires_exact(self, tmp_path):
        path = write(
            tmp_path, "bad.json",
            {"kind": "moments", "values": ["1/1", "1/2"], "exact": False},
        )
        assert cli.main(["analyze", path]) == 2

    def test_zero_denominator(self, tmp_path):
        path = write(tmp_path, "bad.json", {"kind": "moments", "values": ["1/0"]})
        assert cli.main(["analyze", path]) == 2

    def test_malformed_rational(self, tmp_path):
        path = write(tmp_path, "bad.json", {"kind": "moments", "values": ["1//2"]})
        assert cli.main(["analyze", path]) == 2

    def test_boolean_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", {"kind": "moments", "values": [True, 1]})
        assert cli.main(["analyze", path]) == 2

    def test_bad_kind(self, tmp_path):
        path = write(tmp_path, "bad.json", {"kind": "mystery", "values": [1]})
        assert cli.main(["analyze", path]) == 2

    def test_json_syntax_error_reports_position(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{\"kind\": \"moments\",\n  values: [1]}")
        assert cli.main(["analyze", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_csv_bad_line_reported(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", "1.0\nnot-a-number\n")
        assert cli.main(["analyze", path]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_csv_non_finite_rejected(self, tmp_path, capsys, token):
        path = write(tmp_path, "bad.csv", f"1.0\n2.0\n5.0\n13.0\n{token}\n")
        assert cli.main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "not a finite number" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
    def test_json_non_finite_rejected(self, tmp_path, capsys, literal):
        path = write(
            tmp_path, "bad.json", f'{{"kind": "moments", "values": [1.0, 2.0, {literal}]}}'
        )
        assert cli.main(["analyze", path]) == 2
        assert "values[2]" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["atoms", "densities"])
    @pytest.mark.parametrize("i", [0, 1, 3])
    @pytest.mark.parametrize("bad", [True, "1/0", "x", None, "1.5"])
    def test_entry_error_names_the_first_bad_entry(self, name, i, bad):
        # The location is built only once an entry fails; the message is the
        # one that entry gives with its location, whatever comes after it.
        raw = ["1/2"] * 5
        raw[i] = bad
        raw[4] = "bad"
        with pytest.raises(InputError) as exc:
            cli._parse_array(raw, f"f.json: {name}")
        with pytest.raises(InputError) as want:
            cli._parse_entry(bad, f"f.json: {name}[{i}]")
        assert str(exc.value) == str(want.value)

    def test_missing_file(self):
        assert cli.main(["analyze", "/nonexistent/nope.json"]) == 2

    def test_unknown_command_is_usage_error(self, bergman_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", bergman_file])
        assert exc.value.code == 2

    def test_exact_and_float_flags_conflict(self, csv_file):
        assert cli.main(["analyze", csv_file, "--exact", "--float"]) == 2


class TestModeAndTolerances:
    def test_float_flag_overrides_rational_default(self, bergman_file, capsys):
        assert cli.main(["analyze", bergman_file, "--float"]) == 0
        assert "mode: float" in capsys.readouterr().out

    def test_exact_flag_on_csv(self, csv_file, capsys):
        assert cli.main(["analyze", csv_file, "--exact"]) == 0
        assert "mode: exact" in capsys.readouterr().out

    def test_env_var_sets_rel_tolerance(self, csv_file, capsys, monkeypatch):
        monkeypatch.setenv("HANKELSHIFT_TOL_REL", "1e-6")
        assert cli.main(["analyze", csv_file, "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"]["rel_eps"] == 1e-6

    def test_flag_beats_env(self, csv_file, capsys, monkeypatch):
        monkeypatch.setenv("HANKELSHIFT_TOL_REL", "1e-6")
        assert cli.main(
            ["analyze", csv_file, "--json", "--no-timestamp", "--tol-rel", "1e-4"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"]["rel_eps"] == 1e-4

    def test_bad_env_value(self, csv_file, monkeypatch):
        monkeypatch.setenv("HANKELSHIFT_TOL_REL", "banana")
        assert cli.main(["analyze", csv_file]) == 2

    @pytest.mark.parametrize(
        "flags, env",
        [
            (["--tol-rel", "nan"], None),
            (["--tol-rel", "-1"], None),
            (["--tol-zero", "inf"], None),
            ([], "nan"),
        ],
        ids=["rel-nan", "rel-negative", "zero-inf", "env-nan"],
    )
    def test_tolerance_must_be_finite_and_positive(
        self, csv_file, bergman_file, capsys, monkeypatch, flags, env
    ):
        if env is not None:
            monkeypatch.setenv("HANKELSHIFT_TOL_REL", env)
        for path in (csv_file, bergman_file):
            assert cli.main(["analyze", path, "--json", "--no-timestamp", *flags]) == 2
            captured = capsys.readouterr()
            assert_json_error(captured, 2, "input")
            assert "finite and positive" in captured.err

    @pytest.mark.parametrize("command", ["perturb", "analyze"])
    def test_bisect_eps_is_an_unknown_option(self, bergman_file, capsys, command):
        argv = [command, bergman_file, "--l", "3", "--k", "2", "--bisect-eps", "1e-12"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --bisect-eps" in captured.err


class TestCountRanges:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--k", "0"], "--k must be >= 1 for analyze, got 0"),
            (["analyze", "--k", "-3"], "--k must be >= 1 for analyze, got -3"),
            (["perturb", "--k", "0"], "--k must be >= 1 for perturb, got 0"),
            (["dets", "--k", "-1"], "--k must be >= 0 for dets, got -1"),
            (["perturb", "--l", "0"], "--l must be >= 1 for perturb, got 0"),
            (["perturb", "--l", "-1"], "--l must be >= 1 for perturb, got -1"),
            (["recursion", "--max-order", "0"], "--max-order must be >= 1 for recursion, got 0"),
        ],
    )
    def test_out_of_range_count_is_an_input_error(self, tmp_path, capsys, argv, message):
        # rejected before the file is read: the file does not even exist
        missing = str(tmp_path / "missing.json")
        assert cli.main([argv[0], missing, *argv[1:], "--json"]) == 2
        captured = capsys.readouterr()
        assert_json_error(captured, 2, "input")
        assert captured.err == f"input error: {message}\n"

    def test_least_counts_still_run(self, bergman_file, capsys):
        for argv in (
            ["analyze", "--k", "1"],
            ["dets", "--k", "0"],
            ["recursion", "--max-order", "1"],
            ["perturb", "--l", "1", "--k", "1"],
        ):
            assert cli.main([argv[0], bergman_file, *argv[1:], "--json"]) == 0
            json.loads(capsys.readouterr().out)


class TestLazyNumpy:
    def test_no_command_imports_numpy(self, tmp_path, bergman_file):
        # a fresh interpreter: exact and float runs of all four subcommands,
        # and an exact recovery of irrational atoms (t^2 - 4t + 2: 2 -+
        # sqrt(2)), leave numpy unloaded
        vals = [F(1), F(2)]
        while len(vals) < 9:
            vals.append(4 * vals[-1] - 2 * vals[-2])
        irrational = write(
            tmp_path, "irr.json", {"kind": "moments", "values": [f"{v}/1" for v in vals]}
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        script = (
            "import contextlib, io, sys\n"
            "import hankelshift.cli as cli\n"
            f"path = {bergman_file!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main([c, path, *mode, '--json']) for mode in ((), ('--float',))"
            " for c in ('analyze', 'dets', 'recursion', 'perturb')]\n"
            f"    codes.append(cli.main(['recursion', {irrational!r}, '--json']))\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[0,", *["0,"] * 7, "0]", "False"]


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestColdStart:
    # The modules a fresh `python -m hankelshift.cli` run imports, as
    # `-X importtime` lists them on stderr (cli itself runs as __main__):
    # numkit and hankel always, shifts for weights, measures for a measure
    # or `recursion`, perturbation for `perturb`.
    BASE = {"hankelshift", "hankelshift.numkit", "hankelshift.hankel"}
    BY_KIND = {"moments": set(), "weights": {"shifts"}, "measure": {"measures"}, "csv": set()}
    BY_COMMAND = {
        "analyze": set(),
        "dets": set(),
        "recursion": {"measures"},
        "perturb": {"perturbation"},
    }

    @pytest.fixture
    def inputs(self, tmp_path, bergman_file, twoatom_file, csv_file):
        moments = write(
            tmp_path, "hausdorff.json",
            {"kind": "moments", "values": [f"1/{n + 1}" for n in range(15)]},
        )
        return {"moments": moments, "weights": bergman_file, "measure": twoatom_file,
                "csv": csv_file}

    @pytest.mark.parametrize("command", list(BY_COMMAND))
    def test_a_run_imports_only_what_its_command_and_input_use(self, inputs, command):
        for kind, path in inputs.items():
            done = _fresh_python(
                "-X", "importtime", "-m", "hankelshift.cli", command, path,
                "--json", "--no-timestamp",
            )
            assert done.returncode == 0, done.stderr
            imported = {
                line.rpartition("|")[2].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")
            }
            extra = self.BY_KIND[kind] | self.BY_COMMAND[command]
            want = self.BASE | {f"hankelshift.{name}" for name in extra}
            assert {m for m in imported if m.startswith("hankelshift")} == want, kind
            assert "datetime" not in imported, kind

    def test_importing_the_package_loads_no_module_of_it(self):
        done = _fresh_python(
            "-c",
            "import sys, hankelshift\n"
            "print(sorted(m for m in sys.modules if m.startswith('hankelshift')))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["['hankelshift']"]


class TestSubcommands:
    def test_dets_table(self, twoatom_file, capsys):
        assert cli.main(["dets", twoatom_file, "--k", "2", "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        table = report["results"]["table"]
        assert table["k"] == 2
        assert all(d == "0" for d in table["dets"])
        assert report["results"]["propagation"]["vanishing_found"]

    def test_recursion_recovers_measure(self, twoatom_file, capsys):
        assert cli.main(["recursion", twoatom_file, "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert res["recursion"]["order"] == 2
        assert res["recursion"]["coeffs"] == ["-4", "5"]
        assert res["measure"]["atoms"] == ["1", "4"]
        assert res["finite_mass"]["finite"] is True
        assert res["finite_mass"]["witness"]["k"] == 2

    def test_recursion_flags_irrational_atoms(self, tmp_path, twoatom_file, capsys):
        # t^2 - 4t + 2: atoms 2 -+ sqrt(2), equal densities
        vals = [F(1), F(2)]
        while len(vals) < 9:
            vals.append(4 * vals[-1] - 2 * vals[-2])
        doc = {"kind": "moments", "values": [f"{v}/1" for v in vals]}
        path = write(tmp_path, "irr.json", doc)
        assert cli.main(["recursion", path, "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        atoms = [float(x) for x in report["results"]["measure"]["atoms"]]
        assert atoms == pytest.approx([2 - 2**0.5, 2 + 2**0.5], rel=1e-15)
        assert len(report["warnings"]) == 1
        assert "correctly rounded" in report["warnings"][0]
        assert cli.main(["recursion", twoatom_file, "--json", "--no-timestamp"]) == 0
        assert not any("rounded" in w for w in json.loads(capsys.readouterr().out)["warnings"])

    @pytest.mark.parametrize(
        "command", [["analyze", "--k", "1"], ["recursion"]], ids=["analyze", "recursion"]
    )
    def test_exact_moments_beyond_float_range(self, tmp_path, capsys, command):
        # gamma_80 = 3^80 + 10^400 does not fit in a double
        doc = {
            "kind": "measure", "atoms": ["3/1", "100000/1"],
            "densities": ["1/1", "1/1"], "horizon": 80,
        }
        path = write(tmp_path, "big.json", doc)
        assert cli.main([command[0], path, *command[1:], "--json", "--no-timestamp"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        if command[0] == "analyze":
            assert res["ladder"] == [{"k": 1, "holds": True}]
            assert res["log_convex"] is True and res["zero_moment_collapse"] is True
        else:
            assert res["measure"]["atoms"] == ["3", "100000"]
            assert res["measure"]["densities"] == ["1", "1"]
            assert res["finite_mass"]["witness"] == {"n": 0, "k": 2}

    def test_exact_weights_beyond_float_range(self, tmp_path, capsys):
        # squared weights 10^400: exact mode takes no float scale of them
        doc = {"kind": "weights", "values": ["1" + "0" * 400 + "/1"] * 5}
        path = write(tmp_path, "big.json", doc)
        assert cli.main(["analyze", path, "--k", "2", "--json", "--no-timestamp"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["flatness"]["flat_pair_found"] is True
        assert res["flatness"]["propagation_verified"] is True

    def test_float_witness_inside_the_band_is_flagged(self, tmp_path, capsys):
        # 6-atom measure, horizon 40: exact mode's witness is (anchor 0,
        # order 6); float mode's (26, 2) is a relative pivot, d_2(26) != 0
        path = write(tmp_path, "six.json", _pq_moments(six_atom_moments(40)))
        argv = ["recursion", path, "--max-order", "6", "--float", "--json", "--no-timestamp"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["finite_mass"]["witness"] == {"n": 26, "k": 2}
        assert report["warnings"] == [
            "float mode: the finite-mass witness (anchor 26, order 2), below the order-6 "
            "recursion, is a relative pivot within rel_eps = 1e-10, not an exactly "
            "vanishing determinant"
        ]
        assert cli.main(argv[:-3] + ["--json", "--no-timestamp"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert exact["results"]["finite_mass"]["witness"] == {"n": 0, "k": 6}
        assert exact["warnings"] == []

    def test_float_propagation_zeros_inside_the_band_are_flagged(self, tmp_path, capsys):
        # Hausdorff moments 1/(n+1), horizon 80: the float order-39 dets
        # print as -0.0 and 0.0 and count as vanishing, yet none is 0
        path = write(tmp_path, "hausdorff.json", _pq_moments(hausdorff_moments(80)))
        argv = ["analyze", path, "--k", "40", "--float", "--json", "--no-timestamp"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        prop = report["results"]["propagation"]
        assert prop["vanishing_found"] and set(prop["dets"]) == {"-0.0", "0.0"}
        assert report["warnings"] == [
            "float mode: the vanishing order-39 determinants of the propagation check "
            f"at {len(prop['dets'])} anchor(s), from anchor 0, are relative pivots "
            "within rel_eps = 1e-10, not exactly vanishing determinants"
        ]
        assert cli.main(["analyze", path, "--k", "40", "--json", "--no-timestamp"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert not exact["results"]["propagation"]["vanishing_found"]
        assert exact["warnings"] == []

    def test_float_moments_far_below_the_largest_are_not_zero(self, tmp_path, capsys):
        # 3 atoms in (3, 6] at horizon 24: gamma_0 = 3 lies far inside
        # rel_eps times the largest moment, yet no moment is zero
        doc = {"kind": "measure", "atoms": [3.5, 4.5, 6.0], "densities": [1.0, 1.0, 1.0],
               "horizon": 24}
        path = write(tmp_path, "m.json", doc)
        assert cli.main(["analyze", path, "--float", "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "float"
        assert report["results"]["zero_moment_collapse"] is True
        assert not any("zero moment" in w for w in report["warnings"])

    def test_float_recursion_fit_that_numpy_cannot_take_exits_3(self, tmp_path, capsys):
        # numpy's least-squares SVD did not converge on these moments at
        # order 4; the exact fit takes them, and the run exits 3 from the
        # Stieltjes screen with the error object, as exact mode does
        path = tmp_path / "in.csv"
        moments = (1.0, 0.0, 1.7e308, 0.0, 0.0, 1e300, 1.7e308, 1e300, 0.0, 1e300, 0.0)
        path.write_text("".join(f"{v!r}\n" for v in moments))
        for mode in ("--float", "--exact"):
            argv = ["recursion", str(path), mode, "--no-timestamp", "--json"]
            assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert_json_error(captured, 3, "precondition")
            assert "not all PSD" in captured.err

    @pytest.mark.parametrize(
        "atoms, densities",
        [
            # one atom far above two small ones: an order-1 fit used to pass
            # the absolute band rel_eps * max|gamma| and exit 4
            ((F(14, 17), F(19, 17), F(94, 17)), (F(16, 13), F(25, 13), F(24, 13))),
            # moments up to ~1e18: the order-3 fit used to miss the re-check
            ((F(60, 17), F(77, 17), F(91, 17)), (F(15, 13), F(25, 13), F(19, 13))),
        ],
        ids=["dominant", "wide"],
    )
    def test_float_recursion_on_wide_range_moments(self, tmp_path, capsys, atoms, densities):
        gamma = moments_of(AtomicMeasure(atoms, densities), 24)
        path = write(tmp_path, "m.csv", "".join(f"{float(g)!r}\n" for g in gamma.values))
        assert cli.main(["recursion", path, "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "float"
        assert report["results"]["recursion"]["order"] == 3
        got = [float(x) for x in report["results"]["measure"]["atoms"]]
        assert got == pytest.approx([float(x) for x in atoms], rel=1e-9)

    @pytest.mark.parametrize("kind", ["weights", "moments"])
    def test_float_mode_input_beyond_double_range_exits_3(self, tmp_path, capsys, kind):
        # 10^400 has no double: float mode rejects it with exit 3 and an
        # error object, where it used to exit 1 with an OverflowError traceback
        doc = {"kind": kind, "values": ["1" + "0" * 400 + "/1"] * 5}
        path = write(tmp_path, "big.json", doc)
        argv = ["analyze", path, "--float", "--k", "2", "--json", "--no-timestamp"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert_json_error(captured, 3, "precondition")
        assert "beyond the double range" in captured.err

    @pytest.mark.parametrize(
        "factor, message",
        [
            # densities 10^400: the float Vandermonde solve cannot hold them
            (lambda n: 10**400, "Vandermonde"),
            # atoms (2 -+ sqrt(2)) 2^1100: no double holds the atoms
            (lambda n: 2 ** (1100 * n), "beyond the double range"),
        ],
        ids=["densities", "atoms"],
    )
    def test_irrational_atoms_beyond_double_range_exit_3(
        self, tmp_path, capsys, factor, message
    ):
        # t^2 - 4t + 2 moments with atoms 2 -+ sqrt(2), scaled
        vals = [2, 4]
        while len(vals) < 9:
            vals.append(4 * vals[-1] - 2 * vals[-2])
        doc = {"kind": "moments", "values": [f"{v * factor(n)}/1" for n, v in enumerate(vals)]}
        path = write(tmp_path, "big.json", doc)
        assert cli.main(["recursion", path, "--json", "--no-timestamp"]) == 3
        captured = capsys.readouterr()
        assert_json_error(captured, 3, "precondition")
        assert captured.err.startswith("precondition error:")
        assert message in captured.err

    def test_irrational_atoms_with_moments_beyond_double_range(self, tmp_path, capsys):
        # The same atoms with densities 10^305: gamma_7 and up leave the
        # double range.  The re-check of the irrational atoms compares the
        # measure's moments with gamma on integers, so it needs no double of
        # them (it rebuilt the moments in doubles and exited 3).
        vals = [2, 4]
        while len(vals) < 9:
            vals.append(4 * vals[-1] - 2 * vals[-2])
        doc = {"kind": "moments", "values": [f"{v * 10**305}/1" for v in vals]}
        path = write(tmp_path, "big.json", doc)
        assert cli.main(["recursion", path, "--json", "--no-timestamp"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        measure = report["results"]["measure"]
        assert measure["atoms"] == ["0.585786437626905", "3.414213562373095"]
        assert measure["densities"] == ["1e+305", "1.0000000000000001e+305"]
        (warning,) = report["warnings"]
        assert warning.startswith("exact mode: 2 irrational atom(s) are the correctly rounded")

    def test_moments_near_1e80_get_finite_closed_form_endpoints(self, tmp_path, capsys):
        # moments near 1e80 overflowed the double arithmetic of the order-2
        # corner bounds to nan (exit 3, and exit 0 with "nan" endpoints
        # before that); on the integer view the closed form is finite and
        # agrees with the pencil engine to within an ulp.
        path = write(
            tmp_path, "big.csv", "\n".join(repr(1e80 / (n + 1)) for n in range(14)) + "\n"
        )
        for extra in (["--closed-form"], []):
            argv = ["perturb", path, "--l", "4", "--k", "2", "--json", "--no-timestamp"]
            assert cli.main(argv + extra) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            res = json.loads(captured.out)["results"]
            closed = res["closed_form"]["intersection"]
            assert (closed["lo"], closed["hi"]) == ("0.9987457537698562", "1.002073580880346")
            if extra:
                continue
            assert res["interiority"]["agreement"] and res["interiority"]["interior"]
            assert float(res["cross_check_max_deviation"]) <= 2.3e-16

    def test_weights_near_1e_201_get_finite_order_one_bounds(self, tmp_path, capsys):
        # a * c underflowed to 0 in the double arithmetic of the order-1
        # closed form (exit 3); on the integer view both orders are finite.
        doc = '{"kind": "weights", "values": [2.74e-201, 1.0, 1.0, 1.0, 1.0]}'
        path = write(tmp_path, "tiny.json", doc)
        for extra in (["--closed-form"], []):
            assert cli.main(["perturb", path, *extra, "--json", "--no-timestamp"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            res = json.loads(captured.out)["results"]
            closed = res["closed_form"]["intersection"]
            assert float(closed["lo"]) <= 1 <= float(closed["hi"])
            if not extra:
                assert res["interiority"]["agreement"]

    def test_moments_near_1e200_are_log_convex(self, tmp_path, capsys):
        # gamma_n * gamma_{n+2} overflowed to inf in doubles: analyze printed
        # "log-convex: False" beside "k=1: holds", and perturb refused the
        # sequence as not 1-positive (exit 3).
        path = write(
            tmp_path, "h.csv", "".join(f"{1e200 / (n + 1)!r}\n" for n in range(8))
        )
        assert cli.main(["analyze", path, "--k", "1", "--json", "--no-timestamp"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["ladder"][0]["holds"] and res["log_convex"] is True
        assert cli.main(["perturb", path, "--l", "2", "--k", "1", "--no-timestamp"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "closed form (k=1): [0.888888888888889, 1.0666666666666667]" in captured.out

    @pytest.mark.parametrize(
        "name, content, argv, message",
        [
            # gamma_2 = 1e600 of the float measure
            ("atom.json", '{"kind": "measure", "atoms": [1e300], "densities": [1]}',
             ["dets"], "a moment lies beyond the double range: gamma_2 of the float measure"),
            # gamma_2 = 2 * 1.7e308 of the float weights
            ("weights.json", '{"kind": "weights", "values": [2.0, 1.7e308, 1.0]}',
             ["recursion"], "a moment lies beyond the double range: gamma_2 of the float weights"),
            # the exact right endpoint 1e330 has no double for the cross-check
            ("wide.csv", "1.0\n1e-300\n1e-300\n1e30\n", ["perturb", "--k", "1", "--exact"],
             "float cross-check deviation does not exist"),
        ],
    )
    def test_values_past_the_double_range_exit_3(
        self, tmp_path, capsys, name, content, argv, message
    ):
        # each of these used to end in a traceback
        path = write(tmp_path, name, content)
        assert cli.main([argv[0], path, *argv[1:], "--json", "--no-timestamp"]) == 3
        captured = capsys.readouterr()
        assert_json_error(captured, 3, "precondition")
        assert captured.err.startswith("precondition error:") and message in captured.err

    def test_zero_float_divisor_with_a_nan_scale(self, tmp_path, capsys):
        # the Hadamard bound of a block holding 1e300 and a zero row was nan,
        # which used to let a zero condensation divisor through; the order-3
        # determinant then went direct and printed "-inf" with exit 0.  A
        # non-finite float determinant is a precondition error, named by the
        # table the run reads: the order-1 entry gamma_3 gamma_5 - gamma_4^2
        # and the order-3 entry -gamma_4^3 both overflow to -inf.
        doc = {"kind": "moments", "values": [1.0, 0.0, 0.0, 0.0, 1e300, 0.0, 0.0]}
        path = write(tmp_path, "m.json", doc)
        for k, entry in (("1", "order-1 determinant at anchor 3 (condensation)"),
                         ("3", "order-3 determinant at anchor 0 (direct)")):
            argv = ["dets", path, "--k", k, "--float", "--json", "--no-timestamp"]
            assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert_json_error(captured, 3, "precondition")
            assert captured.err == f"precondition error: the float {entry} overflows to -inf\n"
        # exact mode takes 1e300 at its binary value: d_3(0) = -gamma_4^3
        assert cli.main(["dets", path, "--k", "3", "--exact", "--json", "--no-timestamp"]) == 0
        table = json.loads(capsys.readouterr().out)["results"]["table"]
        assert table["dets"] == [str(-(int(1e300) ** 3))]

    @pytest.mark.parametrize("as_json", [True, False])
    def test_float_zero_test_scale_past_the_square_root_of_the_double_range(
        self, tmp_path, capsys, as_json
    ):
        # 1e160 squared overflows a double, but its Hadamard row norm must
        # not: an inf scale would band every value as zero and read "vanish
        # from anchor 2" off nonzero moments, with a numpy RuntimeWarning
        path = write(tmp_path, "m.csv", "1\n1e80\n1e160\n1e240\n")
        argv = ["dets", path, "--k", "0", "--float", "--no-timestamp"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + (["--json"] if as_json else [])) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if as_json:
            prop = json.loads(captured.out)["results"]["propagation"]
            assert (prop["vanishing_found"], prop["first_zero_anchor"]) == (False, None)
        else:
            assert "vanish from" not in captured.out
            assert "no vanishing determinant" in captured.out

    @pytest.mark.parametrize("as_json", [True, False])
    def test_dets_table_overflow_after_a_holding_float_verdict(self, tmp_path, capsys, as_json):
        # gamma_n = x^n + y^n with x = 2^170, y = 2^169, exact as doubles:
        # the float 3-positivity verdict holds (its floor scales with the
        # largest entry), but d_1(3) = (xy)^3 (x - y)^2 = 2^1355 has no
        # double.  dets --k 2 never reads the order-1 table: it prints the
        # two-atom order-2 table, exactly zero, and its propagation report,
        # whose zero test reads the zero integers before any Hadamard scale.
        values = [2.0 ** (170 * n) + 2.0 ** (169 * n) for n in range(7)]
        path = write(tmp_path, "m.csv", "".join(f"{v!r}\n" for v in values))
        argv = ["dets", path, "--k", "2", "--float", "--no-timestamp"]
        assert cli.main(argv + (["--json"] if as_json else [])) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if as_json:
            report = json.loads(captured.out)
            assert report["results"]["table"]["dets"] == ["0.0"] * 3
            prop = report["results"]["propagation"]
            assert (prop["vanishing_found"], prop["first_zero_anchor"]) == (True, 0)
            assert prop["conclusion_verified"] is True
            assert report["warnings"] == []
        else:
            assert "  0: 0.0 [condensation]\n  1: 0.0 [condensation]\n" in captured.out
            assert "vanish from anchor 0; all anchors >= 1 vanish: True" in captured.out
        assert "overflows" not in captured.out + captured.err
        assert "skipped" not in captured.out + captured.err

    @pytest.mark.parametrize("as_json", [True, False])
    def test_integers_past_the_int_str_digit_limit(self, tmp_path, capsys, as_json):
        # gamma_100 = 3^100 + 10^5000 has 5001 digits, past Python's default
        # int-to-str limit of 4300 (so the expectation is built as a string)
        doc = {
            "kind": "measure",
            "atoms": ["3/1", "1" + "0" * 50 + "/1"],
            "densities": ["1/1", "1/1"],
            "horizon": 100,
        }
        path = write(tmp_path, "bigint.json", doc)
        argv = ["dets", path, "--k", "0", "--no-timestamp"] + (["--json"] if as_json else [])
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        tail = str(3**100)
        expected = "1" + "0" * (5000 - len(tail)) + tail
        if as_json:
            assert json.loads(captured.out)["results"]["table"]["dets"][100] == expected
        else:
            assert f"  100: {expected} [direct]" in captured.out.splitlines()

    def test_inputs_past_the_int_str_digit_limit(self, tmp_path, capsys):
        # gamma = (1, 10^5000, 10^10000): one atom at 10^5000, given as p/q
        # strings and as JSON integer literals
        big, square = "1" + "0" * 5000, "1" + "0" * 10000
        rational = write(
            tmp_path, "pq.json", {"kind": "moments", "values": ["1/1", big + "/1", square + "/1"]}
        )
        literal = write(
            tmp_path, "lit.json", f'{{"kind": "moments", "values": [1, {big}, {square}]}}'
        )
        for path in (rational, literal):
            assert cli.main(["analyze", path, "--k", "1", "--json", "--no-timestamp"]) == 0
            results = json.loads(capsys.readouterr().out)["results"]
            assert results["ladder"] == [
                {"k": 1, "holds": True, "flags": ["singular block at anchor 0"]}
            ]
            assert results["propagation"]["dets"] == ["1", big, square]

    def test_recursion_none_on_bergman(self, bergman_file, capsys):
        assert cli.main(["recursion", bergman_file, "--max-order", "5", "--json",
                         "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["recursion"] is None
        assert report["results"]["finite_mass"]["finite"] is False

    def test_recursion_repeated_root_fails_stieltjes_gate(self, tmp_path):
        # gamma_n = n + 1 has an order-2 recursion with a repeated root, but it
        # is not a moment sequence of a positive measure, so the finite-mass
        # stage aborts with its precondition before any verdict is emitted.
        path = write(
            tmp_path, "lin.json",
            {"kind": "moments", "values": [str(n + 1) + "/1" for n in range(8)]},
        )
        assert cli.main(["recursion", path]) == 3

    def test_recursion_non_atomic_is_a_verdict(self, twoatom_file, capsys, monkeypatch):
        from hankelshift import NotAtomicError

        def boom(*a, **kw):
            raise NotAtomicError("characteristic root is not admissible")

        monkeypatch.setattr(measures, "recover_atoms", boom)
        assert cli.main(["recursion", twoatom_file, "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["measure"]["atomic"] is False
        assert "admissible" in report["results"]["measure"]["reason"]

    def test_perturb_closed_and_bisection(self, bergman_file, capsys):
        assert cli.main(
            ["perturb", bergman_file, "--l", "3", "--k", "2", "--json", "--no-timestamp"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert res["closed_form"]["intersection"]["hi"] == "225/224"
        assert "bisection" in res
        assert float(res["cross_check_max_deviation"]) < 1e-9
        assert res["interiority"]["interior"] is True
        assert res["interiority"]["agreement"] is True

    def test_perturb_flags_rounded_closed_form_endpoints(self, bergman_file, capsys):
        argv = ["perturb", bergman_file, "--l", "3", "--k", "2", "--json", "--no-timestamp"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["closed_form"]["intersection"]["lo"] == "0.9972252350708143"
        assert report["warnings"] == [
            "exact mode: 4 closed-form endpoint(s) are the correctly rounded doubles "
            "of certified irrational roots of the determinant quadratics, not exact values",
            "exact mode: 3 pencil-engine endpoint(s) are doubles (next to irrational "
            "roots, inside the admissible set), not exact values",
        ]
        # float mode says nothing, and neither does an all-rational closed form
        assert cli.main([*argv, "--float"]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == []
        assert cli.main(["perturb", bergman_file, "--l", "1", "--k", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == []

    def test_dets_takes_table_from_propagation_report(self, twoatom_file, capsys, monkeypatch):
        argv = ["dets", twoatom_file, "--k", "2", "--json", "--no-timestamp"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        results = json.loads(expected)["results"]
        assert results["table"]["dets"] == results["propagation"]["dets"]
        walks = []
        det_ladder = hankel.det_ladder

        def counting(gamma, ctx):
            walks.append(gamma)
            return det_ladder(gamma, ctx)

        monkeypatch.setattr(hankel, "det_ladder", counting)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
        assert len(walks) == 1

    def test_dets_without_propagation_keeps_table(self, twoatom_file, capsys):
        # horizon 12: order 6 fits, the order-7 propagation check does not
        assert cli.main(["dets", twoatom_file, "--k", "6", "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["table"]["k"] == 6
        assert "propagation" not in report["results"]
        assert any("propagation check skipped" in w for w in report["warnings"])
        assert cli.main(["dets", twoatom_file, "--k", "7"]) == 3

    def test_perturb_closed_form_only(self, bergman_file, capsys):
        assert cli.main(
            ["perturb", bergman_file, "--l", "1", "--k", "1", "--closed-form",
             "--json", "--no-timestamp"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert res["closed_form"]["intersection"]["lo"] == "3/4"
        assert res["closed_form"]["intersection"]["hi"] == "9/8"
        assert "bisection" not in res
        assert "interiority" not in res

    def test_perturb_no_closed_form_at_high_order(self, bergman_file):
        assert cli.main(
            ["perturb", bergman_file, "--l", "1", "--k", "3", "--closed-form"]
        ) == 3

    def test_analyze_failure_is_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "decr.csv", "1.0\n0.9\n0.7\n0.4\n0.2\n0.1\n")
        assert cli.main(["analyze", path, "--k", "2"]) == 0
        assert "FAILS" in capsys.readouterr().out

    def test_perturb_precondition_exit(self, tmp_path):
        path = write(tmp_path, "decr.csv", "1.0\n0.9\n0.7\n0.4\n0.2\n0.1\n")
        assert cli.main(["perturb", path, "--l", "1", "--k", "1"]) == 3

    def test_horizon_exit(self, twoatom_file):
        assert cli.main(["dets", twoatom_file, "--k", "9"]) == 3

    def test_non_stieltjes_exit(self, tmp_path):
        path = write(tmp_path, "alt.json", {"kind": "moments", "values": [1, 2, 1, 2, 1]})
        assert cli.main(["recursion", path]) == 3


class TestPencilEngine:
    def test_interval_narrower_than_a_bisection_step(self, tmp_path, capsys):
        # The right endpoint is 1 + 3.0e-15: the earlier bisection engine
        # (resolution 1e-12) returned 1, so 1 read as not interior while
        # every block is PD, an exit-4 incident.
        doc = {
            "kind": "measure",
            "atoms": ["3/1", "100000/1", "200000/1"],
            "densities": ["1/1", "1/1", "1/1"],
            "horizon": 900,
        }
        path = write(tmp_path, "wide.json", doc)
        argv = ["perturb", path, "--l", "3", "--k", "2", "--json", "--no-timestamp"]
        assert cli.main(argv) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["interiority"]["interior"] and res["interiority"]["agreement"]
        hi = res["bisection"]["intersection"]["hi"]
        assert hi == res["closed_form"]["intersection"]["hi"]
        assert 0 < F(hi) - 1 < F(1, 10**14)

    @pytest.mark.parametrize(
        "base, ratio, count, cut, k",
        [(F(3, 7), F(12, 7), 9, 4, 1), (F(6, 7), F(1, 7), 12, 3, 3)],
    )
    def test_geometric_order_one_bounds_clamp_to_one(
        self, tmp_path, capsys, base, ratio, count, cut, k
    ):
        # Geometric moments: both order-1 bounds are 1, and rounding crossed
        # them (0.9999999999999999 > 0.9999999999999998 for the first),
        # first an uncaught ValueError, then exit 3.  The bounds are clamped
        # to [min(lo, 1), max(hi, 1)], and the pencil engine flags the
        # anchors whose blocks are not PSD over the binary values.
        values = [float(base * ratio**n) for n in range(count)]
        path = write(tmp_path, "geo.csv", "\n".join(map(repr, values)) + "\n")
        argv = ["perturb", path, "--l", str(cut), "--k", str(k), "--json", "--no-timestamp"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        res = json.loads(captured.out)["results"]
        if k == 1:
            closed = res["closed_form"]["intersection"]
            # the clamp's 1 is the double 1.0, not the int 1
            assert (closed["lo"], closed["hi"]) == ("0.9999999999999999", "1.0")
        assert res["interiority"]["agreement"]
        assert any("marginal" in f for f in res["bisection"]["flags"])

    def test_float_block_singular_at_one_gets_the_point_one(self, tmp_path, capsys):
        # Two atoms at order 2: every block is singular, and over the binary
        # values of the doubles some are not PSD; the float bisection probes
        # found 1 interior, an exit-4 incident.
        values = [float(F(6, 7) * F(24, 7) ** n + F(5, 7) * F(20, 7) ** n) for n in range(9)]
        path = write(tmp_path, "two.csv", "\n".join(map(repr, values)) + "\n")
        argv = ["perturb", path, "--l", "2", "--k", "2", "--json", "--no-timestamp"]
        assert cli.main(argv) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        inter = res["interiority"]
        assert not inter["interior"] and not inter["pd_all"] and inter["agreement"]
        assert any("marginal" in f for f in res["bisection"]["flags"])


class TestConsistencyIncident:
    def test_interiority_disagreement_exits_4(self, bergman_file, capsys, monkeypatch):
        dummy_interval = IntervalReport(
            k=1,
            cut=1,
            per_block={},
            methods={},
            intersection=Interval(F(1, 2), F(3, 2)),
            intersection_methods=("bisection", "bisection"),
            contains_one=True,
            one_interior=True,
            flags=(),
        )
        fake = InteriorReport(
            k=1,
            cut=1,
            interior=True,
            pd_all=False,
            failing_block=0,
            agreement=False,
            interval=dummy_interval,
            flags=("tolerance incident",),
        )
        monkeypatch.setattr(perturbation, "interiority_report", lambda *a, **kw: fake)
        rc = cli.main(["perturb", bergman_file, "--l", "1", "--k", "1"])
        assert rc == 4
        assert "incident" in capsys.readouterr().out


class TestDeterminism:
    def test_json_byte_identical(self, bergman_file, capsys):
        args = ["perturb", bergman_file, "--l", "2", "--k", "2", "--json", "--no-timestamp"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_timestamp_present_by_default(self, csv_file, capsys):
        assert cli.main(["analyze", csv_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "timestamp" in report

    def test_timestamp_suppressed(self, csv_file, capsys):
        assert cli.main(["analyze", csv_file, "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "timestamp" not in report


class TestJsonErrors:
    """Under --json every failure of a run prints {"error": ...} on stdout;
    the stderr line and the exit code are those of the human mode, which
    prints nothing on stdout."""

    def _both_modes(self, argv, capsys, code, kind):
        assert cli.main([*argv, "--no-timestamp"]) == code
        human = capsys.readouterr()
        assert human.out == ""
        assert cli.main([*argv, "--json", "--no-timestamp"]) == code
        captured = capsys.readouterr()
        assert captured.err == human.err
        assert_json_error(captured, code, kind)
        return json.loads(captured.out)["error"]["message"]

    def test_input_error_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        message = self._both_modes(["analyze", missing], capsys, 2, "input")
        assert message.startswith(f"cannot read {missing}")

    def test_precondition_error_exit_3(self, bergman_file, capsys):
        argv = ["perturb", bergman_file, "--l", "2", "--k", "3", "--closed-form"]
        message = self._both_modes(argv, capsys, 3, "precondition")
        assert message == "no closed form at order k=3; rerun without --closed-form"

    def test_horizon_error_exit_3(self, twoatom_file, capsys):
        message = self._both_modes(["dets", twoatom_file, "--k", "7"], capsys, 3, "precondition")
        assert message == str(hankel.InsufficientMomentsError(14, 12))

    def test_consistency_incident_exit_4(self, tmp_path, capsys):
        # the float relative pivot at a wide band takes order 1, whose
        # recursion holds within that band while its one atom misses
        # gamma_2; this used to exit 4 with nothing on stdout under --json
        doc = {"kind": "measure", "atoms": ["1/2", "5/2"], "densities": ["1/1", "1/1"]}
        path = write(tmp_path, "m.json", doc)
        argv = ["recursion", path, "--float", "--tol-rel", "0.5"]
        message = self._both_modes(argv, capsys, 4, "consistency")
        assert message.startswith("recovered measure mismatches gamma_2:")

    def test_usage_error_stays_with_argparse(self, bergman_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", bergman_file, "--k", "x", "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid int value: 'x'" in captured.err


class TestParserReuse:
    """main() builds its parser once per process; a flag set in one call
    must not leak into the next."""

    def _sequence(self, bergman_file, csv_file):
        tail = ["--json", "--no-timestamp"]
        return [
            ["analyze", csv_file, "--exact", *tail],
            ["analyze", csv_file, *tail],
            ["analyze", bergman_file, "--float", *tail],
            ["analyze", bergman_file, *tail],
            ["analyze", csv_file, "--tol-rel", "1e-3", *tail],
            ["analyze", csv_file, *tail],
            ["perturb", bergman_file, "--l", "2", "--k", "2", "--closed-form", *tail],
            ["perturb", bergman_file, "--l", "2", "--k", "2", *tail],
            ["analyze", bergman_file, "--k", "5", *tail],
            ["analyze", bergman_file, *tail],
            ["analyze", bergman_file, "--k", "x", *tail],
            ["dets", bergman_file, "--k", "1", "--tol-zero"],
            ["analyze", bergman_file, *tail],
            ["dets", bergman_file, "--k", "1", *tail],
        ]

    def test_reused_parser_matches_a_fresh_one(self, bergman_file, csv_file, monkeypatch):
        monkeypatch.delenv("HANKELSHIFT_TOL_REL", raising=False)
        builds = []
        build = cli.build_parser

        def counting():
            builds.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        sequence = self._sequence(bergman_file, csv_file)
        fresh = []
        for argv in sequence:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run_main(argv))
        assert len(builds) == len(sequence)
        monkeypatch.setattr(cli, "_parser", None)
        reused = [run_main(argv) for argv in sequence]
        assert len(builds) == len(sequence) + 1
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [0] * 10 + [2, 2, 0, 0]
        # each flag took effect where it was given and only there
        modes = [json.loads(out)["mode"] for _, out, _ in reused[:4]]
        assert modes == ["exact", "float", "float", "exact"]
        rel = [json.loads(out)["tolerances"]["rel_eps"] for _, out, _ in reused[4:6]]
        assert rel[0] == 1e-3 and rel[1] != 1e-3
        assert "bisection" not in json.loads(reused[6][1])["results"]
        assert "bisection" in json.loads(reused[7][1])["results"]
        ladders = [len(json.loads(out)["results"]["ladder"]) for _, out, _ in reused[8:10]]
        assert ladders == [5, 2]
