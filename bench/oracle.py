"""Stdlib-only oracle: the expected exit code and verdict fields of each
benchmark case, worked out from how the case was built, and the check of
an actual `--json` report against them.

Exact arithmetic here is deliberately independent of the package: PSD and
PD by symmetric elimination, determinants by Gaussian elimination.  Method
tags and float formatting are never compared, so a declared method tag or
a change of float printing is not a failure.

Known defects of the package are named in KNOWN_DEFECTS.  A case on which
one shows carries its name; when that case fails in the defect's
documented way the failure is counted and reported under that name, and
any other failure makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

Matrix = list[list[Fraction]]

BISECT_EPS = 1e-12
FLOAT_REL = 1e-4
# Two moments this close are the same up to float error of a right recovery.
MISMATCH_REL = 1e-6

KNOWN_DEFECTS: dict[str, str] = {
    "near-coincident-atoms-inexact": (
        "exact recursion on atoms {1, 1+1e-10, 3} returns float atoms and "
        "densities instead of exact rationals"
    ),
    "nan-csv-accepted": (
        "a CSV holding NaN is analysed with exit 0; non-finite input must exit 2"
    ),
    "float-zero-band-collapse": (
        "float analyze calls a moment zero when it lies inside the band "
        "rel_eps*max|gamma| (gamma_0 of wide-range input), so it reports no "
        "zero-moment collapse (not 1-positive) beside a holding k=1 verdict"
    ),
    "float-recursion-lstsq-band": (
        "float recursion accepts a too-low order because the least-squares band "
        "rel_eps*max|gamma| is huge next to the small atoms' moments (one "
        "dominant atom); it then exits 4 (recovered measure mismatches gamma_n "
        "grossly) or reports the wrong measure"
    ),
    "float-recursion-check-band": (
        "float recursion finds the right order and measure, but its final check "
        "allows only rel_eps*max|gamma| between recovered and given moments, less "
        "than the float error of root finding once moments reach ~1e6; it exits "
        "4 (recovered measure mismatches gamma_n, the two values agreeing to "
        f"{MISMATCH_REL:g} relative)"
    ),
}


# ---------------------------------------------------------------- exact algebra


def hankel_block(gamma: Sequence[Fraction], n: int, k: int) -> Matrix:
    return [[gamma[n + i + j] for j in range(k + 1)] for i in range(k + 1)]


def is_psd(rows: Matrix) -> bool:
    """Symmetric elimination: a PSD matrix has no negative pivot, and a zero
    pivot forces its whole remaining row to vanish."""
    a = [list(r) for r in rows]
    n = len(a)
    for i in range(n):
        p = a[i][i]
        if p < 0:
            return False
        if p == 0:
            if any(a[i][j] != 0 for j in range(i + 1, n)):
                return False
            continue
        for r in range(i + 1, n):
            f = a[r][i] / p
            if f:
                for c in range(i + 1, n):
                    a[r][c] -= f * a[i][c]
    return True


def is_pd(rows: Matrix) -> bool:
    a = [list(r) for r in rows]
    n = len(a)
    for i in range(n):
        p = a[i][i]
        if p <= 0:
            return False
        for r in range(i + 1, n):
            f = a[r][i] / p
            if f:
                for c in range(i + 1, n):
                    a[r][c] -= f * a[i][c]
    return True


def det(rows: Matrix) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    out = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        p = a[i][i]
        out *= p
        for r in range(i + 1, n):
            f = a[r][i] / p
            if f:
                for c in range(i + 1, n):
                    a[r][c] -= f * a[i][c]
    return sign * out


def first_failure(gamma: Sequence[Fraction], k: int) -> Optional[int]:
    """First anchor whose order-k block is not PSD, or None."""
    for n in range(len(gamma) - 2 * k):
        if not is_psd(hankel_block(gamma, n, k)):
            return n
    return None


def positivity_order(gamma: Sequence[Fraction], k_max: int) -> int:
    """Largest k <= k_max such that gamma is 1..k-positive on its horizon."""
    top = 0
    for k in range(1, k_max + 1):
        if 2 * k > len(gamma) - 1 or first_failure(gamma, k) is not None:
            break
        top = k
    return top


def measure_moments(
    atoms: Sequence[Fraction], densities: Sequence[Fraction], horizon: int
) -> list[Fraction]:
    return [sum(r * x**n for x, r in zip(atoms, densities)) for n in range(horizon + 1)]


def weights_moments(sq: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(1)]
    for w in sq:
        out.append(out[-1] * w)
    return out


def bergman_weights(horizon: int) -> list[Fraction]:
    """Squared Bergman weights (n+1)/(n+2); the moments are 1/(n+1)."""
    return [Fraction(n + 1, n + 2) for n in range(horizon)]


def poly_from_roots(roots: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients c_0..c_m (ascending) of prod (t - x)."""
    coeffs = [Fraction(1)]
    for x in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= x * c
        coeffs = nxt
    return coeffs


def parse_scalar(text: str) -> Fraction | float:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(text))
    except ValueError:
        return float(text)


# ------------------------------------------------------------- expectations


def expect_error(rc: int) -> dict:
    return {"cmd": "error", "rc": rc}


def expect_analyze(
    gamma: Sequence[Fraction], k: int, weights: Optional[Sequence[Fraction]], exact: bool
) -> dict:
    """Ladder up to k with its first failures, log-convexity and the
    zero-moment rule; for exact inputs also the propagation determinants."""
    horizon = len(gamma) - 1
    ladder = []
    top = 0
    for order in range(1, k + 1):
        if horizon < 2 * order:
            break
        fail = first_failure(gamma, order)
        entry: dict[str, Any] = {"k": order, "holds": fail is None}
        if fail is not None:
            entry["first_failure"] = {"n": fail, "k": order}
        ladder.append(entry)
        if fail is not None:
            break
        top = order
    log_convex = all(
        gamma[n] * gamma[n + 2] >= gamma[n + 1] ** 2 for n in range(horizon - 1)
    )
    out: dict[str, Any] = {
        "cmd": "analyze",
        "rc": 0,
        "ladder": ladder,
        "log_convex": log_convex,
        "zero_moment_collapse": all(g > 0 for g in gamma),
    }
    if weights is not None and k >= 2 and top >= 2:
        out["flat_pair_found"] = any(
            weights[i] == weights[i + 1] for i in range(len(weights) - 1)
        )
    if top >= 1:
        out["propagation"] = _expect_propagation(gamma, top, exact)
    return out


def _expect_propagation(gamma: Sequence[Fraction], k: int, exact: bool) -> dict:
    order = k - 1
    out: dict[str, Any] = {"det_order": order}
    if exact:
        dets = [det(hankel_block(gamma, n, order)) for n in range(len(gamma) - 2 * order)]
        out["dets"] = dets
        out["vanishing_found"] = any(d == 0 for d in dets)
    return out


def expect_dets(gamma: Sequence[Fraction], k: int, exact: bool) -> dict:
    horizon = len(gamma) - 1
    out: dict[str, Any] = {
        "cmd": "dets",
        "rc": 0,
        "k": k,
        "anchors": horizon - 2 * k + 1,
    }
    if exact:
        out["dets"] = [det(hankel_block(gamma, n, k)) for n in range(horizon - 2 * k + 1)]
    if horizon >= 2 * (k + 1) and first_failure(gamma, k + 1) is None:
        out["propagation"] = _expect_propagation(gamma, k + 1, exact)
    else:
        out["propagation"] = None
    return out


def expect_recursion_measure(
    atoms: Sequence[Fraction], densities: Sequence[Fraction], exact: bool
) -> dict:
    """Distinct positive atoms: minimal order = atom count, coefficients
    from prod (t - x), witness at anchor 0 of that order."""
    coeffs = poly_from_roots(atoms)
    out: dict[str, Any] = {
        "cmd": "recursion",
        "rc": 0,
        "order": len(atoms),
        "coeffs": [-c for c in coeffs[:-1]],
        "atoms": list(atoms),
        "densities": list(densities),
        "exact_coeffs": exact,
        "exact_atoms": exact,
    }
    if exact:
        # Float mode calls a determinant zero relative to its Hadamard
        # bound, so its witness may legitimately come earlier.
        out["witness"] = {"n": 0, "k": len(atoms)}
    return out


def expect_recursion_quadratic(
    b: Fraction, c: Fraction, gamma0: Fraction, gamma1: Fraction
) -> dict:
    """Moments of the recursion gamma_{n+2} = b gamma_{n+1} - c gamma_n whose
    characteristic polynomial t^2 - b t + c has two irrational positive
    roots; atoms and densities are irrational, so compared as floats."""
    root = math.sqrt(float(b * b - 4 * c))
    x1, x2 = (float(b) - root) / 2, (float(b) + root) / 2
    r2 = (float(gamma1) - x1 * float(gamma0)) / (x2 - x1)
    r1 = float(gamma0) - r2
    return {
        "cmd": "recursion",
        "rc": 0,
        "order": 2,
        "coeffs": [-c, b],
        "atoms": [x1, x2],
        "densities": [r1, r2],
        "witness": {"n": 0, "k": 2},
        "exact_coeffs": True,
        "exact_atoms": False,
    }


def stieltjes_screen_fails(gamma: Sequence[Fraction]) -> bool:
    """The package's double positivity screen: the maximal even- and
    odd-anchored blocks must both be PSD."""
    h = len(gamma) - 1
    if not is_psd(hankel_block(gamma, 0, h // 2)):
        return True
    return h >= 1 and not is_psd(hankel_block(gamma, 1, (h - 1) // 2))


def expect_perturb(gamma: Sequence[Fraction], cut: int, k: int, exact: bool) -> dict:
    """1 is interior to the admissible interval iff every block at anchors
    n <= cut is PD; at k = 1 the interval has a closed form."""
    failing = next(
        (n for n in range(cut + 1) if not is_pd(hankel_block(gamma, n, k))), None
    )
    g = gamma
    out: dict[str, Any] = {
        "cmd": "perturb",
        "rc": 0,
        "cut": cut,
        "k": k,
        "gamma": list(gamma),
        "exact": exact,
        "pd_all": failing is None,
        "failing_block": failing,
        "cap": g[cut] * g[cut + 2] / (g[cut + 1] * g[cut + 1]),
    }
    if k == 1:
        out["closed_form"] = [
            g[cut] * g[cut] / (g[cut - 1] * g[cut + 1]),
            out["cap"],
        ]
    return out


# ------------------------------------------------------------------- checks


def check(expect: dict, rc: int, stdout: str) -> list[str]:
    """Mismatches between a run's exit code and report and the expectation;
    an empty list means the output is correct."""
    if rc != expect["rc"]:
        return [f"exit code {rc}, expected {expect['rc']}"]
    if expect["cmd"] == "error":
        return []
    try:
        return _CHECKS[expect["cmd"]](expect, json.loads(stdout)["results"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report lacks an expected field or value: {exc!r}"]


def _close(a: Fraction | float, b: Fraction | float, rel: float = FLOAT_REL) -> bool:
    return abs(float(a) - float(b)) <= rel * max(1.0, abs(float(b)))


def _check_analyze(e: dict, r: dict) -> list[str]:
    bad = []
    got_ladder = [
        {key: entry[key] for key in ("k", "holds", "first_failure") if key in entry}
        for entry in r["ladder"]
    ]
    if got_ladder != e["ladder"]:
        bad.append(f"ladder {got_ladder} != {e['ladder']}")
    for key in ("log_convex", "zero_moment_collapse"):
        if r[key] != e[key]:
            bad.append(f"{key} {r[key]} != {e[key]}")
    if "flat_pair_found" in e:
        got = (r.get("flatness") or {}).get("flat_pair_found")
        if got != e["flat_pair_found"]:
            bad.append(f"flat_pair_found {got} != {e['flat_pair_found']}")
    bad += _check_propagation(e.get("propagation"), r.get("propagation"))
    return bad


def _check_propagation(e: Optional[dict], r: Optional[dict]) -> list[str]:
    if e is None:
        return [] if r is None else ["unexpected propagation report"]
    if r is None:
        return ["missing propagation report"]
    bad = []
    if r["det_order"] != e["det_order"]:
        bad.append(f"propagation order {r['det_order']} != {e['det_order']}")
    if "dets" in e:
        got = [parse_scalar(d) for d in r["dets"]]
        if got != e["dets"]:
            bad.append("propagation determinants differ from the exact ones")
        if r["vanishing_found"] != e["vanishing_found"]:
            bad.append(f"vanishing_found {r['vanishing_found']}")
    return bad


def _check_dets(e: dict, r: dict) -> list[str]:
    bad = []
    table = r["table"]
    if table["k"] != e["k"] or len(table["anchors"]) != e["anchors"]:
        bad.append(f"table order/anchors {table['k']}/{len(table['anchors'])}")
    if "dets" in e and [parse_scalar(d) for d in table["dets"]] != e["dets"]:
        bad.append("determinants differ from the exact ones")
    bad += _check_propagation(e["propagation"], r.get("propagation"))
    return bad


def _check_recursion(e: dict, r: dict) -> list[str]:
    rec = r.get("recursion")
    if rec is None:
        return ["no recursion found"]
    if rec["order"] != e["order"]:
        return [f"recursion order {rec['order']} != {e['order']}"]
    bad = []
    coeffs = [parse_scalar(c) for c in rec["coeffs"]]
    if e["exact_coeffs"]:
        if coeffs != e["coeffs"]:
            bad.append("recursion coefficients differ")
    elif not all(_close(a, b) for a, b in zip(coeffs, e["coeffs"])):
        bad.append("recursion coefficients off")
    measure = r.get("measure") or {}
    if not measure.get("atomic"):
        bad.append(f"measure not recovered: {measure.get('reason')}")
    else:
        for key in ("atoms", "densities"):
            got = [parse_scalar(v) for v in measure[key]]
            want = e[key]
            if len(got) != len(want):
                bad.append(f"{len(got)} {key}, expected {len(want)}")
            elif e["exact_atoms"]:
                if got != want:
                    bad.append(f"{key} {measure[key]} are not the exact {key}")
            elif not all(_close(a, b) for a, b in zip(got, want)):
                bad.append(f"{key} {measure[key]} off")
    fm = r["finite_mass"]
    if not fm["finite"]:
        bad.append("finite mass not detected")
    elif "witness" in e and fm["witness"] != e["witness"]:
        bad.append(f"finite-mass witness {fm['witness']} != {e['witness']}")
    return bad


def _perturbed_feasible(e: dict, t: Fraction) -> bool:
    g, cut, k = e["gamma"], e["cut"], e["k"]
    for n in range(cut + 1):
        rows = [
            [g[n + i + j] if n + i + j <= cut else t * g[n + i + j] for j in range(k + 1)]
            for i in range(k + 1)
        ]
        if not is_psd(rows):
            return False
    return True


def _check_perturb(e: dict, r: dict) -> list[str]:
    bad = []
    inter = r["interiority"]
    if inter["pd_all"] != e["pd_all"] or inter["failing_block"] != e["failing_block"]:
        bad.append(f"pd_all/failing_block {inter['pd_all']}/{inter['failing_block']}")
    if inter["interior"] != e["pd_all"] or not inter["agreement"]:
        bad.append(f"interior {inter['interior']}, agreement {inter['agreement']}")
    iv = r["bisection"]["intersection"]
    lo, hi = parse_scalar(iv["lo"]), parse_scalar(iv["hi"])
    if iv["empty"] or not lo <= 1 <= hi:
        return bad + [f"bisection interval [{iv['lo']}, {iv['hi']}] misses 1"]
    cap = e["cap"]
    tol = 2 * BISECT_EPS * max(1.0, float(cap))
    if e["exact"]:
        # Certificate: both endpoints feasible, and one step outside each
        # endpoint infeasible unless the endpoint is a window bound.
        if not (_perturbed_feasible(e, Fraction(lo)) and _perturbed_feasible(e, Fraction(hi))):
            bad.append("a bisection endpoint is infeasible")
        if lo > 0 and _perturbed_feasible(e, Fraction(lo) - Fraction(tol)):
            bad.append("left endpoint is not tight")
        if hi < cap and _perturbed_feasible(e, Fraction(hi) + Fraction(tol)):
            bad.append("right endpoint is not tight")
    if "closed_form" in e:
        cf = r["closed_form"]["intersection"]
        got = [parse_scalar(cf["lo"]), parse_scalar(cf["hi"])]
        want = e["closed_form"]
        same = got == want if e["exact"] else all(_close(a, b) for a, b in zip(got, want))
        if not same:
            bad.append(f"closed form {got} != {want}")
    if e["exact"] and r.get("closed_form"):
        cf = r["closed_form"]["intersection"]
        for a, b in ((cf["lo"], lo), (cf["hi"], hi)):
            if abs(float(parse_scalar(a)) - float(b)) > 1e-9 * max(1.0, float(cap)):
                bad.append(f"closed form endpoint {a} far from bisection {float(b)}")
    return bad


_CHECKS: dict[str, Callable[[dict, dict], list[str]]] = {
    "analyze": _check_analyze,
    "dets": _check_dets,
    "recursion": _check_recursion,
    "perturb": _check_perturb,
}


def defect_shows(defect: str, expect: dict, rc: int, stdout: str, stderr: str) -> bool:
    """True when a failure has the documented signature of the known defect."""
    if defect == "near-coincident-atoms-inexact":
        if rc != 0:
            return False
        atoms = json.loads(stdout)["results"]["measure"]["atoms"]
        return any(isinstance(parse_scalar(a), float) for a in atoms)
    if defect == "nan-csv-accepted":
        return rc == 0
    if defect == "float-zero-band-collapse":
        results = json.loads(stdout)["results"] if rc == 0 else {}
        ladder = results.get("ladder") or [{}]
        return results.get("zero_moment_collapse") is False and ladder[0].get("holds") is True
    if defect == "float-recursion-lstsq-band":
        if rc == 4:
            return _mismatch(stderr) is False
        rec = json.loads(stdout)["results"]["recursion"] if rc == 0 else None
        return rec is not None and rec["order"] < expect["order"]
    if defect == "float-recursion-check-band":
        return rc == 4 and _mismatch(stderr) is True
    raise KeyError(defect)


def _mismatch(stderr: str) -> Optional[bool]:
    """For a "recovered measure mismatches gamma_n: a != b" report: whether
    a and b agree to MISMATCH_REL; None for any other message."""
    found = re.search(r"recovered measure mismatches gamma_\d+: (\S+) != (\S+)", stderr)
    if not found:
        return None
    a, b = (float(parse_scalar(v)) for v in found.groups())
    return abs(a - b) <= MISMATCH_REL * max(abs(a), abs(b))
