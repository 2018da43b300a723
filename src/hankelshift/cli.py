"""Command-line front end: ingest a sequence file, dispatch one analysis,
emit a human-readable or JSON report.

Exit codes: 0 analysis completed (whatever the verdict), 2 malformed
input, 3 unmet precondition or horizon, 4 internal consistency incident.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Optional, Sequence

from .hankel import (
    DetTable,
    LadderVerdicts,
    MomentSequence,
    PropagationReport,
    log_convexity,
    zero_moment_collapse,
)
from .measures import (
    AtomicMeasure,
    NotAtomicError,
    detect_recursion,
    is_finite_mass,
    moments_of,
    recover_atoms,
)
from .numkit import (
    InputError,
    InsufficientMomentsError,
    InternalConsistencyError,
    Interval,
    PreconditionError,
    Scalar,
    ToleranceContext,
    fmt_scalar,
)
from .perturbation import (
    IntervalReport,
    interiority_report,
    stability_interval,
    stability_interval_k1,
    stability_interval_k2,
)
from .shifts import (
    WeightSequence,
    flat_tail_report,
    weights_to_moments,
)

RATIONAL_RE = re.compile(r"^[+-]?\d+/\d+$")
DEFAULT_MEASURE_HORIZON = 12
# The least value of each count option a subcommand reads.
COUNT_FLOORS = {
    "analyze": {"k": 1},
    "dets": {"k": 0},
    "recursion": {"max_order": 1},
    "perturb": {"k": 1, "l": 1},
}

__all__ = ["main"]


@dataclass(frozen=True)
class LoadedInput:
    path: str
    sha256: str
    kind: str
    values: tuple[Scalar, ...]
    atoms: tuple[Scalar, ...]
    densities: tuple[Scalar, ...]
    has_rational: bool
    has_float: bool
    exact_hint: Optional[bool]
    horizon: Optional[int]


def _parse_int(digits: str) -> int:
    # int() refuses digit strings past the interpreter's int-to-str digit
    # limit (4300 by default); Decimal reads any length exactly.
    try:
        return int(digits)
    except ValueError:
        return int(decimal.Decimal(digits))


def _parse_entry(raw: Any, where: str) -> tuple[Scalar, bool, bool]:
    """Returns (value, is_rational_string, is_float_number)."""
    if isinstance(raw, bool):
        raise InputError(f"{where}: booleans are not numbers")
    if isinstance(raw, int):
        return raw, False, False
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise InputError(f"{where}: {raw!r} is not a finite number")
        return raw, False, True
    if isinstance(raw, str):
        if not RATIONAL_RE.match(raw.strip()):
            raise InputError(
                f"{where}: string {raw!r} is not a p/q rational "
                "(optional sign, digits, '/', digits)"
            )
        num, den = (_parse_int(part) for part in raw.strip().split("/"))
        if den == 0:
            raise InputError(f"{where}: zero denominator in {raw!r}")
        return Fraction(num, den), True, False
    raise InputError(f"{where}: unsupported value {raw!r}")


def _parse_array(raw: Any, where: str) -> tuple[tuple[Scalar, ...], bool, bool]:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{where}: expected a nonempty array")
    vals: list[Scalar] = []
    any_rat = any_flt = False
    for i, entry in enumerate(raw):
        v, r, f = _parse_entry(entry, f"{where}[{i}]")
        vals.append(v)
        any_rat = any_rat or r
        any_flt = any_flt or f
    return tuple(vals), any_rat, any_flt


def load_sequence_file(path: str) -> LoadedInput:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    text = blob.decode("utf-8", errors="strict") if blob else ""
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        return _load_json(path, digest, text)
    return _load_csv(path, digest, text)


def _load_json(path: str, digest: str, text: str) -> LoadedInput:
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in ("weights", "moments", "measure"):
        raise InputError(f"{path}: kind must be weights|moments|measure, got {kind!r}")
    exact_hint = doc.get("exact")
    if exact_hint is not None and not isinstance(exact_hint, bool):
        raise InputError(f"{path}: exact must be a boolean")
    horizon = doc.get("horizon")
    if horizon is not None and (not isinstance(horizon, int) or horizon < 0):
        raise InputError(f"{path}: horizon must be a nonnegative integer")
    values: tuple[Scalar, ...] = ()
    atoms: tuple[Scalar, ...] = ()
    densities: tuple[Scalar, ...] = ()
    if kind == "measure":
        atoms, r1, f1 = _parse_array(doc.get("atoms"), f"{path}: atoms")
        densities, r2, f2 = _parse_array(doc.get("densities"), f"{path}: densities")
        has_rational, has_float = r1 or r2, f1 or f2
    else:
        values, has_rational, has_float = _parse_array(
            doc.get("values"), f"{path}: values"
        )
    if has_rational and has_float:
        raise InputError(
            f"{path}: mixed representations (p/q strings alongside floats)"
        )
    if has_rational and exact_hint is False:
        raise InputError(f"{path}: p/q rational strings require exact mode")
    return LoadedInput(
        path=path,
        sha256=digest,
        kind=kind,
        values=values,
        atoms=atoms,
        densities=densities,
        has_rational=has_rational,
        has_float=has_float,
        exact_hint=exact_hint,
        horizon=horizon,
    )


def _load_csv(path: str, digest: str, text: str) -> LoadedInput:
    values: list[Scalar] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError as exc:
            raise InputError(
                f"{path}: line {lineno}, column 1: not a float literal: {token!r}"
            ) from exc
        if not math.isfinite(value):
            raise InputError(
                f"{path}: line {lineno}, column 1: not a finite number: {token!r}"
            )
        values.append(value)
    if not values:
        raise InputError(f"{path}: no values found")
    return LoadedInput(
        path=path,
        sha256=digest,
        kind="moments",
        values=tuple(values),
        atoms=(),
        densities=(),
        has_rational=False,
        has_float=True,
        exact_hint=None,
        horizon=None,
    )


def resolve_context(args: argparse.Namespace, loaded: LoadedInput) -> ToleranceContext:
    if args.exact and args.float_mode:
        raise InputError("--exact and --float are mutually exclusive")
    if args.exact:
        mode = "exact"
    elif args.float_mode:
        mode = "float"
    elif loaded.exact_hint is not None:
        mode = "exact" if loaded.exact_hint else "float"
    elif loaded.has_rational or not loaded.has_float:
        mode = "exact"
    else:
        mode = "float"
    rel = args.tol_rel
    if rel is None:
        env = os.environ.get("HANKELSHIFT_TOL_REL")
        if env is not None:
            try:
                rel = float(env)
            except ValueError as exc:
                raise InputError(
                    f"HANKELSHIFT_TOL_REL is not a float: {env!r}"
                ) from exc
    defaults = ToleranceContext(mode="float")
    try:
        return ToleranceContext(
            mode=mode,
            zero_eps=args.tol_zero if args.tol_zero is not None else defaults.zero_eps,
            rel_eps=rel if rel is not None else defaults.rel_eps,
            psd_floor=defaults.psd_floor,
        )
    except ValueError as exc:
        raise InputError(f"bad tolerance: {exc}") from exc


def _coerce(values: Sequence[Scalar], ctx: ToleranceContext) -> tuple[Scalar, ...]:
    if ctx.is_exact:
        return tuple(Fraction(v) for v in values)
    return tuple(float(v) for v in values)


def materialize(
    loaded: LoadedInput, ctx: ToleranceContext, warnings: list[str]
) -> tuple[MomentSequence, Optional[WeightSequence], Optional[AtomicMeasure], int]:
    try:
        if loaded.kind == "weights":
            alpha = WeightSequence.from_squared(_coerce(loaded.values, ctx))
            gamma = weights_to_moments(alpha)
            return gamma, alpha, None, gamma.horizon
        if loaded.kind == "moments":
            gamma = MomentSequence(_coerce(loaded.values, ctx))
            return gamma, None, None, gamma.horizon
        mu = AtomicMeasure(
            atoms=_coerce(loaded.atoms, ctx),
            densities=_coerce(loaded.densities, ctx),
        )
        horizon = loaded.horizon if loaded.horizon is not None else DEFAULT_MEASURE_HORIZON
        if loaded.horizon is None:
            warnings.append(
                f"measure input: moments materialized to default horizon "
                f"{DEFAULT_MEASURE_HORIZON}"
            )
        gamma = moments_of(mu, horizon)
        return gamma, None, mu, horizon
    except ValueError as exc:
        raise InputError(f"{loaded.path}: {exc}") from exc


def _interval_json(iv: Interval, methods: tuple[str, str] | None = None) -> dict:
    out: dict[str, Any] = {
        "lo": fmt_scalar(iv.lo),
        "hi": fmt_scalar(iv.hi),
        "empty": iv.empty,
    }
    if methods is not None:
        out["lo_method"], out["hi_method"] = methods
    return out


def _interval_report_json(rep: IntervalReport) -> dict:
    return {
        "k": rep.k,
        "cut": rep.cut,
        "per_block": {
            str(n): _interval_json(rep.per_block[n], rep.methods[n])
            for n in sorted(rep.per_block)
        },
        "intersection": _interval_json(rep.intersection, rep.intersection_methods),
        "contains_one": rep.contains_one,
        "one_interior": rep.one_interior,
        "flags": list(rep.flags),
    }


def _propagation_json(rep: PropagationReport) -> dict:
    return {
        "k": rep.k,
        "det_order": rep.table.k,
        "dets": [fmt_scalar(d) for d in rep.table.dets],
        "methods": list(rep.table.methods),
        "vanishing_found": rep.vanishing_found,
        "first_zero_anchor": rep.first_zero_anchor,
        "conclusion_verified": rep.conclusion_verified,
        "anchor_zero_allowed_nonzero": rep.anchor_zero_allowed_nonzero,
    }


def _det_table_json(table: DetTable) -> dict:
    return {
        "k": table.k,
        "horizon": table.horizon,
        "anchors": list(table.anchors()),
        "dets": [fmt_scalar(d) for d in table.dets],
        "methods": list(table.methods),
    }


def cmd_analyze(
    gamma: MomentSequence,
    alpha: Optional[WeightSequence],
    args: argparse.Namespace,
    ctx: ToleranceContext,
    warnings: list[str],
) -> dict:
    # One ladder walk serves every order of the scan and the propagation
    # report; weight inputs have gamma = weights_to_moments(alpha), so it
    # certifies the hyponormality the flatness scan needs as well.
    results: dict[str, Any] = {"horizon": gamma.horizon}
    ladder = LadderVerdicts(gamma, ctx)
    entries = []
    top_holding = 0
    for k in range(1, args.k + 1):
        if gamma.horizon < 2 * k:
            warnings.append(f"ladder stops at k={k - 1}: horizon {gamma.horizon} < {2 * k}")
            break
        verdict = ladder.verdict(k)
        entry: dict[str, Any] = {"k": k, "holds": verdict.holds}
        if verdict.first_failure is not None:
            entry["first_failure"] = {
                "n": verdict.first_failure.n,
                "k": verdict.first_failure.k,
            }
        if verdict.flags:
            entry["flags"] = list(verdict.flags)
        entries.append(entry)
        if verdict.holds:
            top_holding = k
        else:
            break
    results["ladder"] = entries
    results["log_convex"] = log_convexity(gamma, ctx)
    results["zero_moment_collapse"] = zero_moment_collapse(gamma, ctx)
    if not results["zero_moment_collapse"]:
        warnings.append(
            "a zero moment is followed by nonzero ones: not 1-positive"
        )
    if alpha is not None and args.k >= 2 and top_holding >= 2:
        rep = flat_tail_report(alpha, 2, ctx)
        results["flatness"] = {
            "flat_pair_found": rep.flat_pair_found,
            "pair_index": rep.pair_index,
            "propagation_verified": rep.propagation_verified,
            "alpha0_exception": rep.alpha0_exception,
        }
    if top_holding >= 1:
        results["propagation"] = _propagation_json(ladder.propagation(top_holding))
    return results


def cmd_dets(
    gamma: MomentSequence,
    args: argparse.Namespace,
    ctx: ToleranceContext,
    warnings: list[str],
) -> dict:
    # The order-(k+1) propagation report carries the order-k table; both
    # come from one ladder walk.
    ladder = LadderVerdicts(gamma, ctx)
    try:
        rep = ladder.propagation(args.k + 1)
    except (PreconditionError, InsufficientMomentsError) as exc:
        table = ladder.table(args.k)
        warnings.append(f"propagation check skipped: {exc}")
        return {"table": _det_table_json(table)}
    return {"table": _det_table_json(rep.table), "propagation": _propagation_json(rep)}


def cmd_recursion(
    gamma: MomentSequence,
    args: argparse.Namespace,
    ctx: ToleranceContext,
    warnings: list[str],
) -> dict:
    results: dict[str, Any] = {}
    rec = detect_recursion(gamma, args.max_order, ctx)
    if rec is None:
        results["recursion"] = None
        warnings.append(
            f"no recursion of order <= {args.max_order} fits on the horizon"
        )
    else:
        results["recursion"] = {
            "order": rec.order,
            "coeffs": [fmt_scalar(c) for c in rec.coeffs],
            "valid_from": rec.valid_from,
        }
        try:
            mu = recover_atoms(rec, gamma, ctx)
            inexact = sum(isinstance(x, float) for x in mu.atoms)
            if ctx.is_exact and inexact:
                warnings.append(
                    f"exact mode: {inexact} irrational atom(s) are the correctly "
                    "rounded doubles of certified roots, and the densities are "
                    "solved in float from them; neither is exact"
                )
            results["measure"] = {
                "atomic": True,
                "atoms": [fmt_scalar(x) for x in mu.atoms],
                "densities": [fmt_scalar(r) for r in mu.densities],
                "mass": fmt_scalar(mu.mass),
            }
        except NotAtomicError as exc:
            results["measure"] = {"atomic": False, "reason": str(exc)}
    report = is_finite_mass(gamma, ctx)
    results["finite_mass"] = {
        "finite": report.finite,
        "witness": None
        if report.witness is None
        else {"n": report.witness.n, "k": report.witness.k},
    }
    return results


def cmd_perturb(
    gamma: MomentSequence,
    loaded: LoadedInput,
    args: argparse.Namespace,
    ctx: ToleranceContext,
    warnings: list[str],
) -> tuple[dict, bool]:
    results: dict[str, Any] = {"cut": args.l, "k": args.k}
    incident = False
    ref_iv: Optional[Interval] = None
    if args.k == 1:
        ref_iv = stability_interval_k1(gamma, args.l, ctx)
        results["closed_form"] = {
            "intersection": _interval_json(ref_iv, ("closed_form", "closed_form"))
        }
    elif args.k == 2:
        closed = stability_interval_k2(gamma, args.l, ctx)
        ref_iv = closed.intersection
        results["closed_form"] = _interval_report_json(closed)
        inexact = sum(
            isinstance(x, float) for iv in closed.per_block.values() for x in (iv.lo, iv.hi)
        )
        if ctx.is_exact and inexact:
            warnings.append(
                f"exact mode: {inexact} closed-form endpoint(s) are the correctly "
                "rounded doubles of certified irrational roots of the determinant "
                "quadratics, not exact values"
            )
    elif args.closed_form:
        raise PreconditionError(
            f"no closed form at order k={args.k}; rerun without --closed-form"
        )
    else:
        results["closed_form"] = None
    if not args.closed_form:
        bis = stability_interval(gamma, args.l, args.k, ctx)
        results["bisection"] = _interval_report_json(bis)
        if ref_iv is not None:
            try:
                dev = max(
                    abs(float(ref_iv.lo) - float(bis.intersection.lo)),
                    abs(float(ref_iv.hi) - float(bis.intersection.hi)),
                )
            except OverflowError:
                raise PreconditionError(
                    "an interval endpoint lies beyond the double range, so the "
                    "float cross-check deviation does not exist"
                ) from None
            results["cross_check_max_deviation"] = repr(dev)
        interior = interiority_report(gamma, args.l, args.k, ctx)
        results["interiority"] = {
            "interior": interior.interior,
            "pd_all": interior.pd_all,
            "failing_block": interior.failing_block,
            "agreement": interior.agreement,
            "flags": list(interior.flags),
        }
        if not interior.agreement:
            incident = True
            warnings.append(
                "internal consistency incident: interval interiority and "
                "block definiteness disagree"
            )
        if loaded.kind == "weights" and bis.intersection.contains(0):
            warnings.append(
                "scale 0 is admissible for the moment matrices, but a zero "
                "weight breaks shift injectivity; weight-side scaling needs t > 0"
            )
    return results, incident


def _human_interval(iv_json: dict) -> str:
    return f"[{iv_json['lo']}, {iv_json['hi']}]"


def emit_human(report: dict, out) -> None:
    print(f"command: {report['command']}", file=out)
    inp = report["input"]
    print(
        f"input: {inp['path']} (kind={inp['kind']}, horizon={inp['horizon']}, "
        f"sha256={inp['sha256'][:12]}...)",
        file=out,
    )
    print(f"mode: {report['mode']}", file=out)
    results = report["results"]
    if report["command"] == "analyze":
        for entry in results["ladder"]:
            line = f"k={entry['k']}: {'holds' if entry['holds'] else 'FAILS'}"
            if "first_failure" in entry:
                ff = entry["first_failure"]
                line += f" (first failure at anchor {ff['n']}, order {ff['k']})"
            print(line, file=out)
        print(f"log-convex: {results['log_convex']}", file=out)
        print(f"zero-moment collapse: {results['zero_moment_collapse']}", file=out)
        flat = results.get("flatness")
        if flat is not None:
            if flat["flat_pair_found"]:
                print(
                    f"flat pair at index {flat['pair_index']}: constant tail "
                    f"verified={flat['propagation_verified']}, "
                    f"alpha_0 exception={flat['alpha0_exception']}",
                    file=out,
                )
            else:
                print("no flat weight pair", file=out)
        prop = results.get("propagation")
        if prop is not None:
            _print_propagation(prop, out)
    elif report["command"] == "dets":
        table = results["table"]
        print(f"order-{table['k']} determinants (anchor: value [method]):", file=out)
        for n, d, m in zip(table["anchors"], table["dets"], table["methods"]):
            print(f"  {n}: {d} [{m}]", file=out)
        prop = results.get("propagation")
        if prop is not None:
            _print_propagation(prop, out)
    elif report["command"] == "recursion":
        rec = results.get("recursion")
        if rec is None:
            print("recursion: none found", file=out)
        else:
            print(
                f"recursion: order {rec['order']}, coefficients "
                f"({', '.join(rec['coeffs'])}), valid from {rec['valid_from']}",
                file=out,
            )
        measure = results.get("measure")
        if measure is not None:
            if measure["atomic"]:
                pairs = ", ".join(
                    f"{r}*delta_{x}"
                    for x, r in zip(measure["atoms"], measure["densities"])
                )
                print(f"measure: {pairs}", file=out)
            else:
                print(f"measure: not atomic ({measure['reason']})", file=out)
        fm = results["finite_mass"]
        if fm["finite"]:
            w = fm["witness"]
            print(
                f"finite mass: yes (vanishing determinant at anchor {w['n']}, "
                f"order {w['k']})",
                file=out,
            )
        else:
            print("finite mass: not on this horizon", file=out)
    elif report["command"] == "perturb":
        closed = results.get("closed_form")
        if closed is not None:
            print(
                f"closed form (k={results['k']}): "
                f"{_human_interval(closed['intersection'])}",
                file=out,
            )
        bis = results.get("bisection")
        if bis is not None:
            print(
                f"bisection (k={results['k']}): "
                f"{_human_interval(bis['intersection'])}",
                file=out,
            )
        if "cross_check_max_deviation" in results:
            print(
                f"cross-check max endpoint deviation: "
                f"{results['cross_check_max_deviation']}",
                file=out,
            )
        interior = results.get("interiority")
        if interior is not None:
            print(
                f"interiority: 1 interior={interior['interior']}, "
                f"all blocks PD={interior['pd_all']}, "
                f"agreement={interior['agreement']}",
                file=out,
            )
    for w in report["warnings"]:
        print(f"warning: {w}", file=out)


def _print_propagation(prop: dict, out) -> None:
    if prop["vanishing_found"]:
        print(
            f"propagation (order-{prop['det_order']} dets): vanish from anchor "
            f"{prop['first_zero_anchor']}; all anchors >= 1 vanish: "
            f"{prop['conclusion_verified']}"
            + (
                " (anchor 0 nonzero, allowed)"
                if prop["anchor_zero_allowed_nonzero"]
                else ""
            ),
            file=out,
        )
    else:
        print(
            f"propagation (order-{prop['det_order']} dets): no vanishing "
            "determinant; hypothesis not triggered",
            file=out,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelshift",
        description=(
            "Positivity of Hankel moment blocks, weighted-shift hyponormality, "
            "atomic measure recovery, and rank-one tail-scaling intervals."
        ),
    )
    parser.add_argument(
        "command", choices=["analyze", "dets", "recursion", "perturb"]
    )
    parser.add_argument("file", help="JSON sequence file or CSV float moment list")
    parser.add_argument("--k", type=int, default=2, help="block order / ladder top")
    parser.add_argument("--l", type=int, default=1, help="cut index for perturb")
    parser.add_argument(
        "--max-order", type=int, default=4, help="largest recursion order tried"
    )
    parser.add_argument("--exact", action="store_true", help="force exact mode")
    parser.add_argument(
        "--float", dest="float_mode", action="store_true", help="force float mode"
    )
    parser.add_argument("--tol-zero", type=float, default=None)
    parser.add_argument("--tol-rel", type=float, default=None)
    parser.add_argument(
        "--closed-form",
        action="store_true",
        help="perturb: closed form only (k <= 2), skip the pencil engine",
    )
    parser.add_argument("--json", dest="as_json", action="store_true")
    parser.add_argument("--no-timestamp", action="store_true")
    return parser


def _check_counts(args: argparse.Namespace) -> None:
    """An out-of-range count is an input error, raised before the file is
    read."""
    for name, floor in COUNT_FLOORS[args.command].items():
        value = getattr(args, name)
        if value < floor:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} must be >= {floor} for {args.command}, got {value}")


def run(args: argparse.Namespace) -> tuple[dict, bool]:
    _check_counts(args)
    loaded = load_sequence_file(args.file)
    ctx = resolve_context(args, loaded)
    warnings: list[str] = []
    gamma, alpha, _mu, horizon = materialize(loaded, ctx, warnings)
    incident = False
    if args.command == "analyze":
        results = cmd_analyze(gamma, alpha, args, ctx, warnings)
    elif args.command == "dets":
        results = cmd_dets(gamma, args, ctx, warnings)
    elif args.command == "recursion":
        results = cmd_recursion(gamma, args, ctx, warnings)
    else:
        results, incident = cmd_perturb(gamma, loaded, args, ctx, warnings)
    report: dict[str, Any] = {
        "command": args.command,
        "input": {
            "path": loaded.path,
            "sha256": loaded.sha256,
            "kind": loaded.kind,
            "horizon": horizon,
        },
        "mode": ctx.mode,
        "tolerances": {
            "zero_eps": ctx.zero_eps,
            "rel_eps": ctx.rel_eps,
            "psd_floor": ctx.psd_floor,
        },
        "results": results,
        "warnings": warnings,
    }
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    return report, incident


_parser: Optional[argparse.ArgumentParser] = None


def _fail(args: argparse.Namespace, exc: Exception, code: int, kind: str, label: str) -> int:
    # One stderr line; under --json also {"error": ...} on stdout, so every
    # exit of a run leaves a parseable report.
    print(f"{label}: {exc}", file=sys.stderr)
    if args.as_json:
        error = {"kind": kind, "exit": code, "message": str(exc)}
        print(json.dumps({"error": error}, indent=2, sort_keys=True))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The parser is built once per process, on the first call, and reused:
    # it keeps no state between parses and reads nothing from the
    # environment (HANKELSHIFT_TOL_REL is read per run by resolve_context).
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        report, incident = run(args)
    except InputError as exc:
        return _fail(args, exc, 2, "input", "input error")
    except (PreconditionError, InsufficientMomentsError) as exc:
        return _fail(args, exc, 3, "precondition", "precondition error")
    except InternalConsistencyError as exc:
        return _fail(args, exc, 4, "consistency", "internal consistency incident")
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        emit_human(report, sys.stdout)
    return 4 if incident else 0


if __name__ == "__main__":
    sys.exit(main())
