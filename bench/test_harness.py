"""Self-tests of the benchmark: tail rule, normalisation, oracle, tracer."""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from fractions import Fraction

import pytest

import oracle
import run
import spans
import workloads

run.import_package()


# ------------------------------------------------------------ tail percentile


@pytest.mark.parametrize(
    "n, p, beyond", [(11, 9, 10), (100, 90, 10), (101, 90, 10), (234, 95, 11)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p, beyond):
    samples = [float(i) for i in range(n)]
    got_p, value, got_beyond = run.tail_percentile(samples[::-1])
    assert (got_p, got_beyond) == (p, beyond)
    assert value == samples[n - beyond - 1]
    # One percentile higher would leave fewer than ten samples beyond.
    assert n - -(-(p + 1) * n // 100) < 10


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(run.BenchError):
        run.tail_percentile([1.0] * 10)


# ---------------------------------------------------------------- normalising


def test_normalise_scales_by_mean_reference_time():
    assert run.normalise(2.0, 0.02, 0.04, 0.03) == pytest.approx(2.0)
    assert run.normalise(2.0, 0.015, 0.015, 0.03) == pytest.approx(4.0)
    assert run.normalise(1.0, 0.06, 0.06, 0.03) == pytest.approx(0.5)


# --------------------------------------------------------------------- oracle


def test_exact_psd_and_pd():
    one = Fraction(1)
    assert oracle.is_psd([[one, one], [one, one]])
    assert not oracle.is_pd([[one, one], [one, one]])
    assert oracle.is_psd([[one, 0 * one], [0 * one, 0 * one]])
    assert not oracle.is_psd([[0 * one, one], [one, 0 * one]])
    assert oracle.is_pd([[2 * one, one], [one, 2 * one]])
    assert oracle.det([[2 * one, one], [one, 2 * one]]) == 3


def test_bergman_closed_form_at_cut_one():
    gamma = oracle.weights_moments(oracle.bergman_weights(14))
    assert gamma[:4] == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    expect = oracle.expect_perturb(gamma, cut=1, k=1, exact=True)
    assert expect["closed_form"] == [Fraction(3, 4), Fraction(9, 8)]
    assert expect["pd_all"]


def test_recursion_of_two_atoms():
    expect = oracle.expect_recursion_measure([1, 2], [1, 1], exact=True)
    # gamma_{p+2} = 3 gamma_{p+1} - 2 gamma_p
    assert expect["coeffs"] == [-2, 3]
    assert expect["witness"] == {"n": 0, "k": 2}


def _recursion_report(coeffs, atoms, densities):
    return json.dumps(
        {
            "results": {
                "recursion": {"order": len(atoms), "coeffs": [str(c) for c in coeffs]},
                "measure": {"atomic": True, "atoms": atoms, "densities": densities},
                "finite_mass": {"finite": True, "witness": {"n": 0, "k": len(atoms)}},
            }
        }
    )


def test_near_coincident_atoms_defect_is_named():
    atoms = [Fraction(1), 1 + Fraction(1, 10**10), Fraction(3)]
    dens = [Fraction(1), Fraction(2), Fraction(1, 3)]
    expect = oracle.expect_recursion_measure(atoms, dens, exact=True)
    seed_output = _recursion_report(
        expect["coeffs"],
        ["1", "1.0000000001", "3"],
        ["1.0000022204458656", "1.9999977795541344", "0.33333333333333337"],
    )
    problems = oracle.check(expect, 0, seed_output)
    assert any("not the exact atoms" in p for p in problems)
    assert oracle.defect_shows("near-coincident-atoms-inexact", expect, 0, seed_output, "")
    exact_output = _recursion_report(
        expect["coeffs"], ["1", "10000000001/10000000000", "3"], ["1", "2", "1/3"]
    )
    assert oracle.check(expect, 0, exact_output) == []


def test_nan_csv_defect_is_named():
    expect = oracle.expect_error(2)
    assert oracle.check(expect, 0, "{}") == ["exit code 0, expected 2"]
    assert oracle.defect_shows("nan-csv-accepted", expect, 0, "{}", "")
    assert oracle.check(expect, 2, "") == []


def test_float_recursion_defects_are_named():
    atoms = [Fraction(7, 2), Fraction(9, 2), Fraction(11, 2)]
    expect = oracle.expect_recursion_measure(atoms, [1, 1, 1], exact=False)
    prefix = "internal consistency incident: recovered measure mismatches "
    gross = prefix + "gamma_11: 1096314555.4797888 != 323502658"
    close = prefix + "gamma_23: 1927502.2731490792 != 1927502.2727642714"
    assert oracle.check(expect, 4, "") == ["exit code 4, expected 0"]
    assert oracle.defect_shows("float-recursion-lstsq-band", expect, 4, "", gross)
    assert not oracle.defect_shows("float-recursion-lstsq-band", expect, 4, "", close)
    assert oracle.defect_shows("float-recursion-check-band", expect, 4, "", close)
    assert not oracle.defect_shows("float-recursion-check-band", expect, 4, "", gross)
    for defect in ("float-recursion-lstsq-band", "float-recursion-check-band"):
        assert not oracle.defect_shows(defect, expect, 4, "", "other")
    low_order = json.dumps({"results": {"recursion": {"order": 1}}})
    assert oracle.defect_shows("float-recursion-lstsq-band", expect, 0, low_order, "")


def test_float_zero_band_defect_is_named():
    atoms = [Fraction(61, 17), Fraction(80, 17), Fraction(99, 17)]
    gamma = oracle.measure_moments(atoms, [1, 1, 1], 24)
    expect = oracle.expect_analyze(gamma, 1, None, exact=False)
    seed_output = json.dumps(
        {
            "results": {
                "ladder": [{"k": 1, "holds": True}],
                "log_convex": True,
                "zero_moment_collapse": False,
                "propagation": {"det_order": 0},
            }
        }
    )
    assert oracle.check(expect, 0, seed_output) == ["zero_moment_collapse False != True"]
    assert oracle.defect_shows("float-zero-band-collapse", expect, 0, seed_output, "")


def test_band_failures_are_known_only_where_they_are_documented():
    timed, probes = workloads.build("float_scan", 1)
    assert not any(c.defects for c in timed)
    tagged = {c.name: c.defects for c in probes}
    check_band = ("float-recursion-check-band",)
    assert tagged == {
        "analyze-nan.csv": ("nan-csv-accepted",),
        **{f"recursion-fmeasure{i}.csv": check_band for i in range(4)},
        "analyze-fwide.csv-k3": ("float-zero-band-collapse",),
        "recursion-fwide.csv": check_band + ("float-recursion-lstsq-band",),
        "analyze-fdominant.csv-k3": ("float-zero-band-collapse",),
        "recursion-fdominant.csv": ("float-recursion-lstsq-band",),
    }
    # A gross mismatch on a well-scaled input is a wrong recovery, not the
    # check band.
    case = next(c for c in probes if c.name == "recursion-fmeasure0.csv")
    stderr = "internal consistency incident: recovered measure mismatches gamma_7: 1 != 2"
    verdict = run.judge(case, run.Outcome(4, "", stderr))
    assert not verdict.ok and verdict.defect is None


def test_probe_defects_are_named_but_not_counted():
    timed = [workloads.Case("t", "analyze", (), "t", "", {})]
    probes = [workloads.Case("p", "analyze", (), "p", "", {}, defects=("nan-csv-accepted",))]
    shown = run.Verdict(ok=False, defect="nan-csv-accepted", problems=["exit code 0, expected 2"])
    passes = [
        run.Pass([0.01], [(0.025, 0.025)], [0.025, 0.025], set(), traced=False)
        for _ in range(11)
    ]
    args = argparse.Namespace(ref_kernel_s=0.025, trace=0, workload="w")
    out = run.report(args, timed, probes, [run.Verdict(ok=True), shown], passes, [(0.2, 0.2)], [])
    assert (out["result"]["correct"], out["result"]["attempted"], out["result"]["failed"]) == (
        True,
        11,
        0,
    )
    assert any(line.startswith("probe p: known defect nan-csv-accepted") for line in out["info"])
    # A probe that fails some other way makes the run incorrect.
    other = run.Verdict(ok=False, problems=["exit code 1, expected 2"])
    out = run.report(args, timed, probes, [run.Verdict(ok=True), other], passes, [(0.2, 0.2)], [])
    assert not out["result"]["correct"]


def test_every_named_defect_has_a_case():
    named = {
        defect
        for name in workloads.WORKLOADS
        for case in workloads.build(name, 1)[1]
        for defect in case.defects
    }
    assert named == set(oracle.KNOWN_DEFECTS)


# ------------------------------------------------------------------ workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded_and_odd(name):
    timed, probes = workloads.build(name, 7)
    assert len(timed) % 2 == 1
    assert all(c.defects for c in probes) and not any(c.defects for c in timed)
    again = workloads.build(name, 7)
    assert [c.content for c in timed + probes] == [c.content for c in again[0] + again[1]]
    assert len({c.name for c in timed + probes}) == len(timed) + len(probes)


def test_cases_match_the_oracle(tmp_path):
    for name in ("ladder", "perturb"):
        case = workloads.build(name, 3)[0][0]
        path = tmp_path / case.filename
        path.write_text(case.content)
        outcome, _ = run.run_case(
            [case.command, str(path), *case.options, "--json", "--no-timestamp"]
        )
        assert run.judge(case, outcome).ok


# --------------------------------------------------------------------- tracer


def test_fold_derives_self_time_from_child_spans():
    span_list = [
        ("cli.main", "cli", 0.0, 10.0, -1, "cli.main"),
        ("hankel.is_k_positive", "hankel", 1.0, 7.0, 0, "hankel.is_k_positive"),
        ("numkit.char_poly", "numkit", 2.0, 5.0, 1, "numkit.char_poly"),
        ("numkit.is_psd", "numkit", 5.0, 6.5, 1, None),
        ("numkit.psd_with_margin", "numkit", 5.5, 6.0, 3, None),
    ]
    totals: defaultdict = defaultdict(float)
    spans.fold(span_list, totals)
    assert totals["self:cli"] == pytest.approx(4.0)
    assert totals["self:hankel"] == pytest.approx(1.5)
    assert totals["self:numkit"] == pytest.approx(4.5)
    assert totals["under:hankel"] == pytest.approx(4.5)
    assert totals["time:hankel.is_k_positive"] == pytest.approx(6.0)


def test_traced_output_is_identical_and_bindings_restored(tmp_path):
    import hankelshift.hankel

    case = workloads.build("perturb", 1)[0][1]
    path = tmp_path / case.filename
    path.write_text(case.content)
    argv = [case.command, str(path), *case.options, "--json", "--no-timestamp"]
    plain, _ = run.run_case(argv)
    original = hankelshift.hankel.psd_with_margin
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hankelshift.hankel.psd_with_margin is not original
        tracer.begin_op()
        traced, _ = run.run_case(argv)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert hankelshift.hankel.psd_with_margin is original
    assert (traced.rc, traced.stdout) == (plain.rc, plain.stdout)
    times, counts = spans.layer_metrics(tracer.take())
    assert counts["numkit.psd_probes"] > 0
    # cmd_perturb and interiority_report each compute the same interval.
    assert counts["perturbation.stability_interval_calls"] == 2
    assert counts["perturbation.interval_repeat_share"] == 0.5
    assert times["numkit.under_perturbation_s"] > 0
