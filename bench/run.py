"""Closed-loop benchmark of the hankelshift CLI: one process, one client.

    python3 bench/run.py --ref-kernel-s R0 --ref-child-s C0 \
        --workload NAME --seed N --seconds S --trace 0|1

Each operation is an in-process `hankelshift.cli.main([..., "--json",
"--no-timestamp"])` call on a generated input (see workloads.py).  The run
makes the inputs from the seed, works out each case's expected output with
a stdlib-only oracle, runs one untimed warm-up pass and checks every output,
then loops over whole passes for S seconds.  Every later output must equal
its case's first output byte for byte.  Defect probes (cases that show a
known defect of the package) run once, untimed, and are reported by name;
they are not among the timed operations, on which nothing may fail.

Timings are in reference-speed seconds: wall time * R0 / r, where r is the
mean of the reference kernel (refkernel.py) timed just before and after the
operations it brackets, and R0 is fixed in BENCHMARK.json.  This cancels
machine drift, which on a shared host moves raw times by tens of percent
within seconds.  Set-up time (a fresh `python -m hankelshift.cli` process on
the workload's first, light case) is normalised the same way by a stdlib-only
reference child process and C0.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it holds the per-layer
metrics (spans.py).  Lines above it are informational, for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import oracle
import spans
import workloads
from refkernel import time_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 11
MIN_PASSES = 3
CHECKPOINT_S = 0.25
CHILD_TIMEOUT_S = 60
# Start-up and stdlib imports like the package's own, nothing from it.  Set-up
# children are normalised by this child rather than by the in-process kernel:
# over 100 s on a shared 2-core host, medians of 11 set-up children ranged 6 %
# normalised this way, 16 % normalised by the kernel and 37 % raw.
REF_CHILD = ["-c", "import argparse, dataclasses, datetime, fractions, hashlib, json, re"]


class BenchError(Exception):
    """The benchmark cannot run or cannot trust its own measurement."""


# ----------------------------------------------------------------- statistics


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """(p, value, samples beyond): the highest integer percentile p whose
    value has at least ten samples above it in rank."""
    n = len(samples)
    if n < 11:
        raise BenchError(f"{n} latency samples; the tail needs at least 11")
    ordered = sorted(samples)
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return p, ordered[rank - 1], n - rank


def normalise(wall_s: float, ref_before_s: float, ref_after_s: float, r0: float) -> float:
    """Wall seconds converted to reference-speed seconds."""
    return wall_s * r0 / ((ref_before_s + ref_after_s) / 2)


def guard_state() -> tuple:
    """Interpreter settings the reference kernel's speed depends on."""
    return gc.get_threshold(), gc.isenabled(), sys.getswitchinterval()


# ------------------------------------------------------------------ operations


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str


def run_case(argv: list[str]) -> tuple[Outcome, float]:
    from hankelshift.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback is an outcome to report
            rc = -1
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
    wall = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), err.getvalue()), wall


@dataclass
class Verdict:
    """How a case's first output compares with the oracle."""

    ok: bool
    defect: Optional[str] = None
    problems: list[str] = field(default_factory=list)


def judge(case: workloads.Case, outcome: Outcome) -> Verdict:
    problems = oracle.check(case.expect, outcome.rc, outcome.stdout)
    if not problems:
        return Verdict(ok=True)
    for defect in case.defects:
        if oracle.defect_shows(defect, case.expect, outcome.rc, outcome.stdout, outcome.stderr):
            return Verdict(ok=False, defect=defect, problems=problems)
    return Verdict(ok=False, problems=problems + [outcome.stderr.strip()[-300:]])


# ---------------------------------------------------------------------- run


@dataclass
class Pass:
    """Raw latencies of one pass and, per operation, the reference-kernel
    readings taken just before and just after it."""

    latencies: list[float]
    refs: list[tuple[float, float]]
    readings: list[float]
    changed: set[int]
    traced: bool
    layer_totals: dict = field(default_factory=dict)

    def normalised(self, r0: float) -> list[float]:
        return [normalise(lat, *ref, r0) for lat, ref in zip(self.latencies, self.refs)]

    def busy(self, r0: float) -> float:
        return sum(self.normalised(r0))

    def factor(self, r0: float) -> float:
        return self.busy(r0) / sum(self.latencies)


def setup_child(
    case_argv: list[str], expected: Outcome, c0: float, problems: list[str]
) -> tuple[float, float]:
    """One fresh `python -m hankelshift.cli` process bracketed by the
    reference child: (reference seconds, wall seconds).  Its output must
    equal the in-process output of the same case."""
    before, _ = _spawn(REF_CHILD)
    wall, proc = _spawn(["-m", "hankelshift.cli", *case_argv])
    after, _ = _spawn(REF_CHILD)
    if (proc.returncode, proc.stdout) != (expected.rc, expected.stdout):
        problems.append(f"set-up child output differs (exit {proc.returncode}): {proc.stderr[-300:]}")
    return normalise(wall, before, after, c0), wall


def _spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def check_child_origin() -> None:
    """Children must import the package from this checkout's src."""
    _, proc = _spawn(["-c", "import hankelshift; print(hankelshift.__file__)"])
    origin = Path(proc.stdout.strip()).resolve()
    if proc.returncode != 0 or SRC.resolve() not in origin.parents:
        raise BenchError(f"child imports hankelshift from {proc.stdout or proc.stderr!r}")


def import_package() -> None:
    if not (SRC / "hankelshift" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import hankelshift

    origin = Path(hankelshift.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"hankelshift imported from {origin}, not {SRC}")


def measure(args: argparse.Namespace) -> dict:
    guard = guard_state()
    import_package()
    if guard_state() != guard:
        raise BenchError("importing hankelshift changed gc or switch-interval settings")
    cases, probes = workloads.build(args.workload, args.seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        argvs = []
        for case in cases + probes:
            path = workdir / case.filename
            path.write_text(case.content)
            argvs.append([case.command, str(path), *case.options, "--json", "--no-timestamp"])
        return _measure(args, cases, argvs[: len(cases)], probes, argvs[len(cases) :])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _measure(
    args: argparse.Namespace, cases: list, argvs: list, probes: list, probe_argvs: list
) -> dict:
    guard = guard_state()
    first = [run_case(argv)[0] for argv in argvs]
    verdicts = [judge(case, outcome) for case, outcome in zip(cases, first)]
    verdicts += [judge(case, run_case(argv)[0]) for case, argv in zip(probes, probe_argvs)]
    if guard_state() != guard:
        raise BenchError("running hankelshift changed gc or switch-interval settings")

    tracer = spans.Tracer() if args.trace else None
    if not args.trace:
        check_child_origin()
    children: list[tuple[float, float]] = []
    child_problems: list[str] = []
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        passes.append(_one_pass(argvs, first, tracer if traced else None))
        if not args.trace and len(children) < SETUP_CHILDREN:
            children.append(setup_child(argvs[0], first[0], args.ref_child_s, child_problems))
        elapsed = time.perf_counter() - started
        last = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
            break
    while not args.trace and len(children) < SETUP_CHILDREN:
        children.append(setup_child(argvs[0], first[0], args.ref_child_s, child_problems))
    if guard_state() != guard:
        raise BenchError("running hankelshift changed gc or switch-interval settings")
    return report(args, cases, probes, verdicts, passes, children, child_problems)


def _one_pass(argvs, first, tracer: Optional[spans.Tracer]) -> Pass:
    """One pass over every case.  The reference kernel runs before the
    pass, after it, and between operations once CHECKPOINT_S of busy time
    has gone by, so long passes are normalised piecewise."""
    gc.collect()
    latencies: list[float] = []
    refs: list[tuple[float, float]] = []
    readings = [time_reference()]
    changed = set()
    pending = 0
    if tracer:
        tracer.install()
    try:
        for i, argv in enumerate(argvs):
            if tracer:
                tracer.begin_op()
            outcome, wall = run_case(argv)
            if tracer:
                tracer.end_op()
            latencies.append(wall)
            if (outcome.rc, outcome.stdout) != (first[i].rc, first[i].stdout):
                changed.add(i)
            pending += 1
            if sum(latencies[-pending:]) >= CHECKPOINT_S or i == len(argvs) - 1:
                readings.append(time_reference())
                refs += [(readings[-2], readings[-1])] * pending
                pending = 0
    finally:
        if tracer:
            tracer.uninstall()
    return Pass(
        latencies=latencies,
        refs=refs,
        readings=readings,
        changed=changed,
        traced=tracer is not None,
        layer_totals=tracer.take() if tracer else {},
    )


# ------------------------------------------------------------------- report


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(args, cases, probes, verdicts, passes, children, child_problems) -> dict:
    """`verdicts` holds the timed cases' verdicts, then the probes'."""
    r0 = args.ref_kernel_s
    changed = set().union(*(p.changed for p in passes))
    failing = [i for i, v in enumerate(verdicts[: len(cases)]) if not v.ok]
    unexpected = [i for i, v in enumerate(verdicts) if not v.ok and v.defect is None]
    attempted = len(cases) * len(passes)
    failed = sum(len(set(failing) | p.changed) for p in passes)
    info: list[str] = []
    for i, (case, v) in enumerate(zip(cases + probes, verdicts)):
        if v.ok and i >= len(cases):
            info.append(f"probe {case.name}: known defect {', '.join(case.defects)} did not show")
        elif not v.ok:
            label = f"probe {case.name}: known defect {v.defect}" if v.defect else (
                f"failing case {case.name}: UNEXPECTED"
            )
            info.append(f"{label}: {'; '.join(v.problems)[:400]}")
    for i in sorted(changed):
        info.append(f"failing case {cases[i].name}: UNEXPECTED: output changed between passes")
    info += [f"set-up: {p}" for p in child_problems]
    info.append(f"{failed} of {attempted} timed operations failed")

    plain = [p for p in passes if not p.traced]
    busy = sum(p.busy(r0) for p in plain)
    latencies = [lat for p in plain for lat in p.normalised(r0)]
    refs = [r for p in passes for r in p.readings]
    ops_per_s = len(cases) * len(plain) / busy
    raw_ops_per_s = len(cases) * len(plain) / sum(sum(p.latencies) for p in plain)
    info.append(
        f"{len(passes)} passes of {len(cases)} cases; reference kernel median "
        f"{statistics.median(refs):.5f} s (R0 {r0} s)"
    )
    info.append(f"bench.wall_ops_per_s {raw_ops_per_s:.4f} 1/s (raw, not normalised)")

    if args.trace:
        identical = not any(p.changed for p in passes if p.traced)
        info.append(f"traced outputs byte-identical to untraced outputs: {identical}")
        metrics = _layer_report(passes, r0, ops_per_s, info)
        metrics["bench.ref_kernel_s"] = _metric(statistics.median(refs), "s")
        metrics["bench.wall_ops_per_s"] = _metric(raw_ops_per_s, "1/s")
    else:
        p, tail, beyond = tail_percentile(latencies)
        setup = statistics.median(c[0] for c in children)
        metrics = {
            "ops_per_s": _metric(ops_per_s, "1/s"),
            "latency_p50_s": _metric(statistics.median(latencies), "s"),
            "latency_tail_s": _metric(tail, "s"),
            "setup_s": _metric(setup, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
        info.append(f"latency_tail_s is p{p} with {beyond} of {len(latencies)} samples beyond it")
        per_case = zip(*(p.normalised(r0) for p in plain))
        for case, samples in zip(cases, per_case):
            info.append(f"case {case.name} median latency {statistics.median(samples):.5f} s")
        info.append(
            f"raw wall: latency_p50_s {statistics.median(lat for q in plain for lat in q.latencies):.6f} s, "
            f"setup_s {statistics.median(c[1] for c in children):.4f} s"
        )
    for name, m in metrics.items():
        info.append(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    return {
        "info": info,
        "result": {
            "correct": not unexpected and not changed and not child_problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _layer_report(passes: list[Pass], r0: float, ops_per_s: float, info: list) -> dict:
    traced = [p for p in passes if p.traced]
    per_pass = [spans.layer_metrics(p.layer_totals) for p in traced]
    factors = [p.factor(r0) for p in traced]
    metrics: dict[str, dict] = {}
    for name in per_pass[0][0]:
        values = [times[name] * f for (times, _), f in zip(per_pass, factors)]
        metrics[name] = _metric(statistics.median(values), "s")
    for name in per_pass[0][1]:
        unit = "ratio" if name.endswith("_share") else "count"
        if name == "perturbation.probes_per_interval":
            unit = "probes/call"
        metrics[name] = _metric(statistics.median(c[name] for _, c in per_pass), unit)
    traced_busy = sum(p.busy(r0) for p in traced)
    self_sum = sum(
        times[f"{layer}.self_s"] * f
        for (times, _), f in zip(per_pass, factors)
        for layer in spans.LAYERS
    )
    traced_ops = len(traced[0].latencies) * len(traced) / traced_busy
    metrics["trace.overhead"] = _metric(ops_per_s / traced_ops - 1, "ratio")
    metrics["trace.self_share"] = _metric(self_sum / traced_busy, "ratio")
    names = [f"{layer}.self_s" for layer in spans.LAYERS] + [
        f"numkit.under_{layer}_s" for layer in ("hankel", "perturbation", "measures")
    ]
    shares = ", ".join(
        f"{name} {sum(times[name] * f for (times, _), f in zip(per_pass, factors)) / self_sum:.3f}"
        for name in names
    )
    info.append(f"shares of traced self time: {shares}")
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--ref-kernel-s",
        type=float,
        required=True,
        help="R0: reference-kernel seconds that define one reference-speed second",
    )
    parser.add_argument(
        "--ref-child-s",
        type=float,
        required=True,
        help="C0: reference-child seconds that define one set-up reference second",
    )
    args = parser.parse_args(argv)
    # Held to one thread before numpy is imported by the package under test.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        out = measure(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in out["info"]:
        print(line)
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
