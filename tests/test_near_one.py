"""Pencil endpoints next to 1, decided by Sturm counts on p.

When the double next to an irrational pencil root on the inside of the
admissible set is 1.0, exact mode ends the interval at the first dyadic
1 -+ 2^-m (m >= 53) with no root of p strictly between it and 1, and
places a root whose double is 1.0 on its side of 1 by the count of roots
above 1.  The reference below is the path this replaced: the side from the
roots of the shifted polynomial p(1 + u), which refuses a root within
2^-1074 of 1, and m found by one PSD probe per m from 53 up.  Both must
give the same endpoints and methods at every anchor, and the count rule
takes one PSD probe per dyadic endpoint.  The least m is found by
galloping over m, checked against the scan of one Sturm count per m from
53 up that it replaced.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction as F
from itertools import count

import pytest

import hankelshift.numkit as numkit
import hankelshift.perturbation as perturbation
from hankelshift import (
    EXACT,
    AtomicMeasure,
    Interval,
    PreconditionError,
    is_psd,
    moments_of,
    perturbed_block,
    real_roots,
    squarefree,
    stability_interval,
)
from hankelshift.numkit import InternalConsistencyError, _echelon, det_bareiss, psd_with_margin

from gen import hausdorff_moments, six_atom_moments, three_atom_moments
from test_fuzz_cli import run_main


def shift_to_one(poly: list[int]) -> list[int]:
    # poly(1 + u), descending: repeated synthetic division by t - 1.
    a = list(poly)
    for i in range(len(a) - 1):
        for j in range(1, len(a) - i):
            a[j] += a[j - 1]
    return a


def retired_block(gamma, n, k, cut, cap, probes: Counter | None = None):
    """Exact-mode endpoints and methods at one anchor as the shifted
    isolation and the PSD m-search gave them.  probes counts the PSD probes
    of the m-search under "search" and all others under "other"."""
    probes = Counter() if probes is None else probes
    size = range(k + 1)
    g = gamma.integer_view[0]
    h = [[g[n + i + j] if n + i + j <= cut else 0 for j in size] for i in size]
    d = [[g[n + i + j] - h[i][j] for j in size] for i in size]

    def pencil(t, idx=size):
        a, c = t.numerator, t.denominator
        return [[c * h[i][j] + a * d[i][j] for j in idx] for i in idx]

    def feasible(t, kind="other"):
        probes[kind] += 1
        return psd_with_margin(pencil(F(t)))[0]

    p = perturbation._pencil_poly(gamma, n, k, cut, EXACT)
    if not any(p):
        idx = _echelon([list(row) for row in h + d], k + 1)[0]
        p = perturbation._interpolate([int(det_bareiss(pencil(F(t), idx))) for t in range(k + 2)])
    if not any(p):
        return Interval(F(1), F(1)), ("pencil_root", "pencil_root")
    while p[-1] == 0:
        p.pop()
    roots = real_roots(p)
    if roots is None:
        p = squarefree(p)
        roots = real_roots(p)
    shifted = None
    if any(isinstance(r, float) and r == 1 for r in roots):
        shifted = real_roots(shift_to_one(p))
    ones, below, above = [], [], []
    for i, r in enumerate(roots):
        if shifted is not None and isinstance(r, float) and r == 1:
            u = shifted[i]
            if u == 0:
                raise PreconditionError("a pencil root lies within 2^-1074 of 1")
            (below if u < 0 else above).append((1 + F(u), True))
        elif r == 1:
            ones.append(r)
        elif 0 < r < 1 or 1 < r < cap:
            (below if r < 1 else above).append((F(r), isinstance(r, float)))
    ends, methods = [], []
    for step, bound, near in ((-1, 0, below[-1:]), (1, cap, above[:1])):
        far, irrational = near[0] if near else (F(bound), False)
        if ones and (far == 1 or not feasible((1 + far) / 2)):
            ends.append(ones[0])
            methods.append("direct" if far == 1 else "pencil_root")
            continue
        if not near:
            ends.append(F(bound))
            methods.append("direct")
            continue
        x = float(far)
        tries = [y for y in (x, math.nextafter(x, 1.0)) if y != 1] if irrational else [far]
        end = next((y for y in tries if feasible(y)), None)
        if end is None and irrational:
            dyadics = (1 + F(step, 1 << m) for m in range(53, 1077))
            end = next((e for e in dyadics if feasible(e, "search")), None)
        if end is None:
            raise InternalConsistencyError(f"no feasible endpoint at anchor {n}")
        ends.append(end)
        methods.append("pencil_root")
    return Interval(ends[0], ends[1]), tuple(methods)


def linear_dyadic(chain, clear: int, step: int) -> F:
    # The scan `perturbation._first_dyadic` replaced: one Sturm count per m
    # from 53 up.
    m = next(m for m in count(53) if numkit._changes_at(chain, (1 << m) + step, 1 << m) == clear)
    return 1 + F(step, 1 << m)


def _checking_gallop(monkeypatch) -> list:
    # Every `_first_dyadic` answer checked against the linear scan.
    seen = []
    gallop = perturbation._first_dyadic

    def checked(chain, clear, step):
        got = gallop(chain, clear, step)
        assert got == linear_dyadic(chain, clear, step)
        seen.append(got)
        return got

    monkeypatch.setattr(perturbation, "_first_dyadic", checked)
    return seen


def _measure(atoms, dens, horizon):
    return moments_of(AtomicMeasure(tuple(map(F, atoms)), tuple(map(F, dens))), horizon)


# name: (moments, cut, k).  The two inputs of test_pencil's
# TestEndpointsNextToOne, then the scale inputs at horizon 40: the six-atom
# measure, where at anchor 9 (k = 5) the root 1 - 8.0e-17 has the double
# 0.9999999999999999 and its inside double is 1.0, so the dyadic path runs
# although no root has the double 1.0; Hausdorff moments, whose blocks are
# PD at 1 (19 dyadic endpoints at k = 10); the three-atom measure at k = 3,
# whose blocks are singular at 1.  Each call builds a fresh sequence, so no
# report is kept from an earlier test.
CASES = {
    "three-atoms-horizon-13": (lambda: _measure((3, 9, 2000), (3, 3, 1), 13), 9, 2),
    "six-atoms-horizon-80": (
        lambda: _measure((5, 8, 9, 17, 32, 37), (4, 4, 4, 2, 1, 4), 80), 40, 3
    ),
    "scale-six-atoms-k5": (lambda: six_atom_moments(40), 14, 5),
    "scale-six-atoms-k6": (lambda: six_atom_moments(40), 14, 6),
    "scale-hausdorff-k10": (lambda: hausdorff_moments(40), 20, 10),
    "scale-three-atoms-k3": (lambda: three_atom_moments(40), 30, 3),
}


def _case(name):
    moments, cut, k = CASES[name]
    return moments(), cut, k


def _dyadic_gap(t) -> int | None:
    # m when t = 1 -+ 2^-m with m >= 53, else None.
    if not isinstance(t, F) or t == 1:
        return None
    gap = abs(t - 1)
    m = gap.denominator.bit_length() - 1
    return m if gap.numerator == 1 and gap.denominator == 1 << m and m >= 53 else None


def _blocks(gamma, cut, k):
    cap = perturbation._window_cap(gamma, cut, k, EXACT)
    return cap, range(max(0, cut - 2 * k + 1), cut + 1)


@pytest.mark.parametrize("case", list(CASES))
def test_count_rule_matches_the_shifted_isolation_and_probe_search(monkeypatch, case):
    gamma, cut, k = _case(case)
    cap, anchors = _blocks(gamma, cut, k)
    gallops = _checking_gallop(monkeypatch)
    dyadic = 0
    for n in anchors:
        iv, methods, _ = perturbation._pencil_block(gamma, n, k, cut, cap, EXACT)
        want_iv, want_methods = retired_block(gamma, n, k, cut, cap)
        assert (repr(iv), methods) == (repr(want_iv), want_methods), n
        dyadic += sum(_dyadic_gap(t) is not None for t in (iv.lo, iv.hi))
    assert dyadic and gallops


@pytest.mark.parametrize("gap", [1, 50, 52, 53, 54, 55, 60, 117, 300, 1100])
@pytest.mark.parametrize("root_at_one", [False, True])
def test_gallop_finds_the_first_clear_dyadic(gap, root_at_one):
    # Roots 1 - 3 * 2^-gap and 1 + 2^-gap, beside sqrt(2) and 5 (and 1):
    # below, 1 - 2^-m clears the root from m = gap - 1 on; above, 1 + 2^-m
    # is the root at m = gap and clears it from m = gap + 1 on.
    scale = 1 << gap
    poly = [scale, -(scale - 3)]  # scale * t - (scale - 3)
    for factor in ([scale, -(scale + 1)], [1, 0, -2], [1, -5], *([[1, -1]] if root_at_one else [])):
        poly = [
            sum(poly[i] * factor[j - i] for i in range(len(poly)) if 0 <= j - i < len(factor))
            for j in range(len(poly) + len(factor) - 1)
        ]
    chain = numkit._sturm_chain(poly)
    v_one = numkit._changes_at(chain, 1, 1)
    for step, clear, first in ((-1, v_one + root_at_one, gap - 1), (1, v_one, gap + 1)):
        want = 1 + F(step, 1 << max(53, first))
        assert perturbation._first_dyadic(chain, clear, step) == want
        assert linear_dyadic(chain, clear, step) == want


def test_near_one_sturm_work_on_hausdorff_moments(monkeypatch):
    # Exact Hausdorff moments at horizon 80, cut 40, k = 14: 26 polynomials,
    # 52 dyadic endpoints.  Outside isolation, V(x) is counted twice per
    # polynomial (V(1), V(+inf)) and about 2 log2(m - 52) times per dyadic
    # endpoint: 648 counts (2 297 with one count per m and V(1), V(+inf)
    # per near-1 root), and each Sturm chain is built once (26 chains, 50
    # when isolation dropped its chain).
    chains, outside = [], []
    sturm_chain, changes_at = numkit._sturm_chain, numkit._changes_at

    def recording_chain(poly):
        chains.append(tuple(numkit._primitive_ints(poly)))
        return sturm_chain(poly)

    def counted(*args):
        outside.append(None)
        return changes_at(*args)

    for module in (numkit, perturbation):
        monkeypatch.setattr(module, "_sturm_chain", recording_chain)
    monkeypatch.setattr(perturbation, "_changes_at", counted)
    gallops = _checking_gallop(monkeypatch)
    report = stability_interval(hausdorff_moments(80), 40, 14)
    assert report.one_interior and len(gallops) == 52
    assert (len(chains), len(set(chains))) == (26, 26)
    assert len(outside) == 648


def test_a_root_nearer_one_than_its_inside_double_takes_the_dyadic_path():
    gamma, cut, k = _case("scale-six-atoms-k5")
    iv = stability_interval(gamma, cut, k).per_block[9]
    assert iv.lo == 1 - F(1, 1 << 54)


def _counting_probes(monkeypatch) -> list:
    calls = []
    probe = perturbation.psd_with_margin

    def counted(*args):
        calls.append(None)
        return probe(*args)

    monkeypatch.setattr(perturbation, "psd_with_margin", counted)
    return calls


@pytest.mark.parametrize(
    "case, total",
    [("six-atoms-horizon-80", 14), ("three-atoms-horizon-13", 6), ("scale-six-atoms-k5", 25)],
)
def test_each_dyadic_endpoint_takes_one_probe(monkeypatch, case, total):
    # The probe search took 142, 80 and 44 probes in all on these inputs.
    gamma, cut, k = _case(case)
    cap, anchors = _blocks(gamma, cut, k)
    calls = _counting_probes(monkeypatch)
    for n in anchors:
        retired = Counter()
        retired_block(gamma, n, k, cut, cap, retired)
        del calls[:]
        iv = perturbation._pencil_block(gamma, n, k, cut, cap, EXACT)[0]
        dyadic = sum(_dyadic_gap(t) is not None for t in (iv.lo, iv.hi))
        assert len(calls) == retired["other"] + dyadic, n
    del calls[:]
    stability_interval(_case(case)[0], cut, k)
    assert len(calls) == total


def test_a_root_within_2_to_the_minus_1074_of_one_gets_an_answer(tmp_path):
    # At anchor 35 a root lies so near 1 that u = root - 1 rounds to 0.0:
    # the shifted isolation refused the input, and the CLI exited 3.
    gamma, cut, k = _measure((1, 3, 10**9), (1, 1, 1), 40), 36, 2
    cap, anchors = _blocks(gamma, cut, k)
    with pytest.raises(PreconditionError):
        retired_block(gamma, 35, k, cut, cap)
    report = stability_interval(gamma, cut, k)
    assert report.one_interior
    gaps = []
    for n in anchors:
        iv = report.per_block[n]
        for t in (iv.lo, iv.hi):
            m = _dyadic_gap(t)
            if m is not None:
                # certified, and the dyadic one step nearer the root is not
                assert is_psd(perturbed_block(gamma, n, k, cut, t))
                assert m == 53 or not is_psd(perturbed_block(gamma, n, k, cut, 1 + 2 * (t - 1)))
                gaps.append(m)
    assert max(gaps) > 1075
    path = tmp_path / "near.json"
    atoms = {"atoms": ["1/1", "3/1", "1000000000/1"], "densities": ["1/1"] * 3}
    path.write_text(json.dumps({"kind": "measure", **atoms, "horizon": 40}))
    code, out, err = run_main(["perturb", str(path), "--l", "36", "--k", "2"])
    assert code == 0 and not err
