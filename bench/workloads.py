"""The benchmark's four workloads, each a fixed list of CLI operations built
from a seed.

Every case is one `hankelshift.cli.main` call on a generated input file,
with the oracle's expectation attached before anything is timed.  Seeded
generators fix the shape of each input (atom count, denominators, horizon)
and draw only the values, so the cost of a pass barely depends on the seed.

A workload's cases split into timed cases, on which no operation may fail,
and defect probes: cases that carry the name of a known defect of the
package, run once per run outside the timing, so the defect is shown and
named without making the count of failed operations depend on the seed.
Each workload has an odd number of timed cases, so the median latency falls
inside one case's samples rather than on the seam between two cases.  The
first timed case of each workload is a light one; set-up time is measured
on it.

Why these workloads:
- ladder: exact `analyze`/`dets`; the exact PSD probe under
  `hankel.is_k_positive` dominates (determinant-ladder work).
- perturb: exact `perturb`; bisection probes under
  `perturbation.stability_interval` dominate (interval-engine work).
- recover: exact `recursion`; `measures.is_finite_mass` dominates, and
  `recover_atoms` decides exactness of the atoms.
- float_scan: float CSV inputs through all four subcommands; numpy, no
  `char_poly`, and CLI parse/emit matter, so an exact-path gain that costs
  float mode shows here.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import oracle


@dataclass(frozen=True)
class Case:
    """One operation: `hankelshift <command> <file> <options>`."""

    name: str
    command: str
    options: tuple[str, ...]
    filename: str
    content: str
    expect: dict
    defects: tuple[str, ...] = ()


def _pq(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _json_file(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def weights_file(sq: Sequence[Fraction]) -> str:
    return _json_file({"kind": "weights", "values": [_pq(v) for v in sq]})


def moments_file(gamma: Sequence[Fraction]) -> str:
    return _json_file({"kind": "moments", "values": [_pq(v) for v in gamma]})


def measure_file(atoms: Sequence[Fraction], dens: Sequence[Fraction], horizon: int) -> str:
    return _json_file(
        {
            "kind": "measure",
            "atoms": [_pq(x) for x in atoms],
            "densities": [_pq(r) for r in dens],
            "horizon": horizon,
        }
    )


def csv_file(values: Sequence[float]) -> str:
    return "".join(f"{v!r}\n" for v in values)


# ------------------------------------------------------------------ generators


def random_measure(
    rng: random.Random,
    count: int,
    den: int,
    lo: Fraction | int,
    hi: Fraction | int,
    gap: int = 1,
) -> tuple[list[Fraction], list[Fraction]]:
    """count atoms a/den in (lo, hi], at least gap/den apart, and densities
    b/13 in (1, 2).

    den should be a prime above 13: every atom and density then has a fixed
    denominator and a numerator of nearly fixed size, so the cost of exact
    arithmetic on the moments hardly depends on the seed."""
    pool = [a for a in range(math.floor(lo * den) + 1, math.floor(hi * den) + 1) if a % den]
    nums = sorted(rng.sample(pool, count))
    while any(b - a < gap for a, b in zip(nums, nums[1:])):
        nums = sorted(rng.sample(pool, count))
    atoms = [Fraction(a, den) for a in nums]
    dens = [Fraction(rng.randint(14, 25), 13) for _ in nums]
    return atoms, dens


def logconvex_moments(
    rng: random.Random, horizon: int, first: int = 1, steps: tuple[int, int] = (0, 6)
) -> list[Fraction]:
    """Positive sequence with nondecreasing consecutive ratios, hence
    1-positive: the first ratio is in [first/12, 1], each next one grows by
    steps/24."""
    ratio = Fraction(rng.randint(first, 12), 12)
    values = [Fraction(1)]
    for _ in range(horizon):
        values.append(values[-1] * ratio)
        ratio += Fraction(rng.randint(*steps), 24)
    return values


def irrational_quadratic(rng: random.Random) -> tuple[Fraction, Fraction]:
    """(b, c) with t^2 - b t + c having two distinct positive irrational roots."""
    while True:
        b = Fraction(rng.randint(3, 12), rng.choice((1, 2, 3)))
        c = Fraction(rng.randint(1, 24), rng.choice((2, 3, 4)))
        disc = b * b - 4 * c
        if disc > 0 and not _is_square(disc):
            return b, c


def _is_square(q: Fraction) -> bool:
    return all(math.isqrt(v) ** 2 == v for v in (q.numerator, q.denominator))


# ------------------------------------------------------------------ case makers


def _analyze(name: str, content: str, gamma, k: int, weights=None, exact=True) -> Case:
    return Case(
        name=f"analyze-{name}-k{k}",
        command="analyze",
        options=("--k", str(k)),
        filename=name,
        content=content,
        expect=oracle.expect_analyze(gamma, k, weights, exact),
    )


def _dets(name: str, content: str, gamma, k: int, exact=True) -> Case:
    return Case(
        name=f"dets-{name}-k{k}",
        command="dets",
        options=("--k", str(k)),
        filename=name,
        content=content,
        expect=oracle.expect_dets(gamma, k, exact),
    )


def _perturb(name: str, content: str, gamma, cut: int, k: int, exact=True) -> Case:
    return Case(
        name=f"perturb-{name}-l{cut}-k{k}",
        command="perturb",
        options=("--l", str(cut), "--k", str(k)),
        filename=name,
        content=content,
        expect=oracle.expect_perturb(gamma, cut, k, exact),
    )


def _bergman(horizon: int) -> tuple[str, str, list[Fraction], list[Fraction]]:
    sq = oracle.bergman_weights(horizon)
    return f"bergman{horizon}", weights_file(sq), oracle.weights_moments(sq), sq


# --------------------------------------------------------------------- workloads


def ladder(rng: random.Random) -> list[Case]:
    # The fixed analyze-bergman14-k3 is the median case, with six cheaper and
    # six dearer cases well clear of it, so the median latency does not move
    # with the seeded cases.  The two dearest cases are fixed and of like
    # cost, so the tail percentile falls inside their samples even when a
    # slow machine leaves only ten passes.
    cases = []
    bergman_runs = {
        12: (("dets", 5),),
        14: (("dets", 3), ("analyze", 3), ("dets", 6)),
        16: (("dets", 2),),
        20: (("dets", 4), ("analyze", 5)),
        30: (("dets", 5),),
        40: (("dets", 3),),
    }
    for horizon, runs in bergman_runs.items():
        name, content, gamma, sq = _bergman(horizon)
        for command, k in runs:
            if command == "analyze":
                cases.append(_analyze(name, content, gamma, k, weights=sq))
            else:
                cases.append(_dets(name, content, gamma, k))
    atoms, dens = random_measure(rng, 4, den=17, lo=2, hi=3)
    gamma = oracle.measure_moments(atoms, dens, 20)
    cases.append(_analyze("measure", moments_file(gamma), gamma, 3))
    cases.append(_dets("measure", moments_file(gamma), gamma, 3))
    for k in (3, 4):
        gamma = logconvex_moments(rng, 20)
        cases.append(_analyze(f"logconvex{k}", moments_file(gamma), gamma, k))
    return cases


def perturb(rng: random.Random) -> list[Case]:
    # Cases come in cost groups (k = 1, 2, 3) of similar members, so the
    # median and the tail fall inside a group even with few passes per run.
    cases = []
    bergman_runs = {14: ((3, 1), (3, 2), (1, 3)), 30: ((6, 2), (1, 3))}
    for horizon, runs in bergman_runs.items():
        name, content, gamma, _sq = _bergman(horizon)
        cases += [_perturb(name, content, gamma, cut, k) for cut, k in runs]
    for i, (count, cut, k) in enumerate(((3, 3, 1), (4, 4, 2))):
        atoms, dens = random_measure(rng, count, den=17, lo=2, hi=3)
        gamma = oracle.measure_moments(atoms, dens, cut + 8)
        cases.append(_perturb(f"pool{i}", moments_file(gamma), gamma, cut, k))
    return cases


def recover(rng: random.Random) -> list[Case]:
    # The fixed horizon-16 measure is the costliest case, alone at the top,
    # so the tail percentile falls inside its samples.  Atoms 1e-4 apart are
    # big-integer work that is still recovered exactly; atoms 1e-10 apart
    # show a known defect and are a probe.
    fixed = (
        [Fraction(a, 17) for a in (37, 41, 45, 50)],
        [Fraction(b, 13) for b in (15, 19, 22, 24)],
        16,
    )
    measures = [(*random_measure(rng, count, den=17, lo=2, hi=3), 12) for count in (2, 3, 4)]
    cases = []
    for i, (atoms, dens, horizon) in enumerate([*measures, fixed]):
        cases.append(
            Case(
                name=f"recursion-measure{i}-h{horizon}",
                command="recursion",
                options=(),
                filename=f"measure{i}",
                content=measure_file(atoms, dens, horizon),
                expect=oracle.expect_recursion_measure(atoms, dens, exact=True),
            )
        )
    for i in range(3):
        b, c = irrational_quadratic(rng)
        g0 = Fraction(rng.randint(1, 12), 4)
        g1 = g0 * b / 2
        gamma = [g0, g1]
        while len(gamma) < 13:
            gamma.append(b * gamma[-1] - c * gamma[-2])
        cases.append(
            Case(
                name=f"recursion-irrational{i}",
                command="recursion",
                options=(),
                filename=f"irrational{i}",
                content=moments_file(gamma),
                expect=oracle.expect_recursion_quadratic(b, c, g0, g1),
            )
        )
    dens = [Fraction(1), Fraction(2), Fraction(1, 3)]
    for name, power, defects in (
        ("close", 4, ()),
        ("near-coincident", 10, ("near-coincident-atoms-inexact",)),
    ):
        atoms = [Fraction(1), 1 + Fraction(1, 10**power), Fraction(3)]
        cases.append(
            Case(
                name=f"recursion-{name}",
                command="recursion",
                options=(),
                filename=name,
                content=measure_file(atoms, dens, 12),
                expect=oracle.expect_recursion_measure(atoms, dens, exact=True),
                defects=defects,
            )
        )
    while True:
        gamma = logconvex_moments(rng, 12)
        if oracle.stieltjes_screen_fails(gamma):
            break
    cases.append(
        Case(
            name="recursion-logconvex",
            command="recursion",
            options=(),
            filename="logconvex",
            content=moments_file(gamma),
            expect=oracle.expect_error(3),
        )
    )
    return cases


def float_scan(rng: random.Random) -> list[Case]:
    horizon = 24
    # Float mode calls x zero when |x| <= rel_eps * max|gamma|.  Atoms in
    # (0, 2] and slowly growing ratios keep max|gamma| small, so float
    # verdicts should equal the exact verdicts of the source values, which are
    # the expectations.  Float recursion checks its result within that band,
    # too tight once moments reach ~1e6, so the measure inputs' recursion
    # cases are probes of that defect; the timed recursion cases use atoms in
    # (1/2, 3/2], whose moments stay below ~1e5.  The wide-range inputs at
    # the end probe the defects the band causes.
    # A fixed k=3 interval on Bergman moments is the costliest case, alone
    # at the top, so the tail percentile falls inside its samples whatever
    # the seed does to the other cases.
    gamma = oracle.weights_moments(oracle.bergman_weights(horizon))
    name, content = "fbergman.csv", csv_file([float(g) for g in gamma])
    cases = [
        Case(
            name="analyze-nan.csv",
            command="analyze",
            options=(),
            filename="nan.csv",
            content=csv_file([1.0, 2.0, 5.0, 13.0, float("nan")]),
            expect=oracle.expect_error(2),
            defects=("nan-csv-accepted",),
        ),
        _analyze(name, content, gamma, 3, exact=False),
        _perturb(name, content, gamma, 3, 3, exact=False),
    ]
    for i in range(4):
        # Atoms at least 4/17 apart keep the blocks far enough from singular
        # that float PD tests and intervals agree.
        atoms, dens = random_measure(rng, 3 + i % 2, den=17, lo=0, hi=2, gap=4)
        gamma = oracle.measure_moments(atoms, dens, horizon)
        name, content = f"fmeasure{i}.csv", csv_file([float(g) for g in gamma])
        cases.append(_analyze(name, content, gamma, 3, exact=False))
        cases.append(_dets(name, content, gamma, 2, exact=False))
        cases.append(_perturb(name, content, gamma, 3, 2, exact=False))
        cases.append(_float_recursion(name, content, atoms, dens, ("float-recursion-check-band",)))
    for i in range(3):
        gamma = logconvex_moments(rng, horizon, first=6, steps=(1, 2))
        name, content = f"flogconvex{i}.csv", csv_file([float(g) for g in gamma])
        top = oracle.positivity_order(gamma, 3)
        cases.append(_analyze(name, content, gamma, top, exact=False))
        cases.append(_dets(name, content, gamma, top - 1, exact=False))
        cases.append(_perturb(name, content, gamma, 3, 1, exact=False))
    for i, count in enumerate((2, 3, 3)):
        half = Fraction(1, 2)
        atoms, dens = random_measure(rng, count, den=17, lo=half, hi=3 * half, gap=4)
        gamma = oracle.measure_moments(atoms, dens, horizon)
        name, content = f"fnarrow{i}.csv", csv_file([float(g) for g in gamma])
        cases.append(_float_recursion(name, content, atoms, dens))
    # Atoms up to 6: max|gamma| ~ 1e18 makes the tolerance band huge, and
    # one atom far above two small ones lets an order-1 fit pass the band.
    # Only these probes carry the band defects of analyze and of the
    # least-squares fit; such a failure on any other case is unexpected.
    atoms, dens = random_measure(rng, 3, den=17, lo=3, hi=6)
    gamma = oracle.measure_moments(atoms, dens, horizon)
    name, content = "fwide.csv", csv_file([float(g) for g in gamma])
    wide = _analyze(name, content, gamma, 3, exact=False)
    cases.append(dataclasses.replace(wide, defects=("float-zero-band-collapse",)))
    cases.append(_dets(name, content, gamma, 2, exact=False))
    # Two atoms 1/17 apart can pass the band at order 2.
    both = ("float-recursion-check-band", "float-recursion-lstsq-band")
    cases.append(_float_recursion(name, content, atoms, dens, both))
    small, small_dens = random_measure(rng, 2, den=17, lo=0, hi=2, gap=4)
    big, big_dens = random_measure(rng, 1, den=17, lo=5, hi=6)
    atoms, dens = small + big, small_dens + big_dens
    gamma = oracle.measure_moments(atoms, dens, horizon)
    name, content = "fdominant.csv", csv_file([float(g) for g in gamma])
    dominant = _analyze(name, content, gamma, 3, exact=False)
    cases.append(dataclasses.replace(dominant, defects=("float-zero-band-collapse",)))
    cases.append(_float_recursion(name, content, atoms, dens, ("float-recursion-lstsq-band",)))
    return cases


def _float_recursion(name: str, content: str, atoms, dens, defects=()) -> Case:
    return Case(
        name=f"recursion-{name}",
        command="recursion",
        options=(),
        filename=name,
        content=content,
        expect=oracle.expect_recursion_measure(atoms, dens, exact=False),
        defects=defects,
    )


WORKLOADS: dict[str, Callable[[random.Random], list[Case]]] = {
    "ladder": ladder,
    "perturb": perturb,
    "recover": recover,
    "float_scan": float_scan,
}


def build(workload: str, seed: int) -> tuple[list[Case], list[Case]]:
    """(timed cases, defect probes) of the workload for this seed; same
    seed, same cases."""
    cases = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    timed = [c for c in cases if not c.defects]
    if len(timed) % 2 == 0:
        raise AssertionError(f"{workload} must have an odd number of timed cases")
    return timed, [c for c in cases if c.defects]
