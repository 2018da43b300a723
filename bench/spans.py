"""Per-layer tracing from outside the package.

`Tracer.install` wraps every public function of the six layer modules and
patches every module namespace that bound the same function object, since
the layers import names from each other (`hankel` binds `psd_with_margin`
itself).  Each call records a span (name, start, end, parent span); at the
end of an operation the spans are folded into inclusive times, per-layer
self times (span minus child spans) and the time numkit spends on behalf of
each calling layer.  Counts come from arguments and returned values.
Nothing in the package changes, and `uninstall` restores every binding.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

LAYERS = ("cli", "numkit", "hankel", "shifts", "measures", "perturbation")

# Functions whose inclusive time is reported.  Functions sharing a group
# (the solvers call each other) are counted once, at the outermost call.
TIMED: dict[str, str] = {
    "cli.main": "cli.main",
    "cli.run": "cli.run",
    "cli.load_sequence_file": "cli.parse",
    "cli.resolve_context": "cli.parse",
    "cli.materialize": "cli.materialize",
    "numkit.char_poly": "numkit.char_poly",
    "numkit.solve_linear_exact": "numkit.solve",
    "numkit.solve_vandermonde": "numkit.solve",
    "numkit.solve_quadratic": "numkit.solve",
    "hankel.is_k_positive": "hankel.is_k_positive",
    "hankel.propagation_report": "hankel.propagation_report",
    "hankel.det_sequence": "hankel.det_sequence",
    "shifts.weights_to_moments": "shifts.weights_to_moments",
    "shifts.flatness_check": "shifts.flatness_check",
    "measures.detect_recursion": "measures.detect_recursion",
    "measures.is_finite_mass": "measures.is_finite_mass",
    "measures.recover_atoms": "measures.recover_atoms",
    "perturbation.stability_interval": "perturbation.stability_interval",
    "perturbation.interiority_report": "perturbation.interiority_report",
    "perturbation.stability_interval_k2": "perturbation.k2_closed_form",
}
FLOAT_PSD = "numkit.float_psd"


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _is_exact(ctx: Any) -> bool:
    # Every traced function defaults ctx to EXACT.
    return ctx is None or ctx.is_exact


class Tracer:
    """Wraps the package's layers; `begin_op`/`end_op` bracket one CLI call,
    `take` returns and clears the totals gathered since the last `take`."""

    def __init__(self) -> None:
        self.layer_modules = {
            layer: importlib.import_module(f"hankelshift.{layer}") for layer in LAYERS
        }
        self.namespaces = [importlib.import_module("hankelshift"), *self.layer_modules.values()]
        self._patched: list[tuple[Any, str, Callable]] = []
        self._spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._seen: dict[str, set] = {"is_k_positive": set(), "stability_interval": set()}
        self._new_totals()

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        if self._patched:
            return
        for layer, module in self.layer_modules.items():
            for name, fn in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(layer, f"{layer}.{name}", fn)
                for ns in self.namespaces:
                    if vars(ns).get(name) is fn:
                        self._patched.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, fn in self._patched:
            setattr(ns, name, fn)
        self._patched = []

    def _wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        tracer = self
        group = TIMED.get(key)
        before = getattr(self, "_before_" + key.split(".")[1], None)
        after = getattr(self, "_after_" + key.split(".")[1], None)

        def wrapper(*args, **kwargs):
            span_group = before(args, kwargs) if before else None
            span_group = span_group or group
            depth = tracer._depth
            outermost = span_group is not None and depth[span_group] == 0
            if span_group is not None:
                depth[span_group] += 1
            spans, stack = tracer._spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if span_group is not None:
                    depth[span_group] -= 1
                spans[index] = (
                    key,
                    layer,
                    start,
                    end,
                    parent,
                    span_group if outermost else None,
                )
            if after:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ operations

    def begin_op(self) -> None:
        self._spans = []
        self._stack = []
        self._depth = Counter()
        for seen in self._seen.values():
            seen.clear()

    def end_op(self) -> None:
        fold(self._spans, self.totals)
        self._spans = []

    def take(self) -> dict[str, float]:
        totals = self.totals
        self._new_totals()
        return dict(totals)

    def _new_totals(self) -> None:
        self.totals: defaultdict[str, float] = defaultdict(float)

    # ------------------------------------------- counts from args and returns
    # `_wrap` calls `_before_<name>(args, kwargs)` ahead of the function named
    # <name> (a returned group name overrides its TIMED group) and
    # `_after_<name>(args, kwargs, result)` after a normal return.

    def _count(self, key: str, n: float = 1) -> None:
        self.totals[key] += n

    def _before_char_poly(self, args, kwargs):
        self._count("numkit.char_poly_calls")

    def _before_det_bareiss(self, args, kwargs):
        self._count("numkit.det_bareiss_calls")

    def _before_psd_with_margin(self, args, kwargs):
        if self._depth["perturbation.stability_interval"]:
            self._count("perturbation.interval_probes")
        if not _is_exact(_arg(args, kwargs, 1, "ctx")):
            return FLOAT_PSD
        self._count("numkit.psd_probes")
        return None

    def _before_is_pd(self, args, kwargs):
        if not _is_exact(_arg(args, kwargs, 1, "ctx")):
            return FLOAT_PSD
        self._count("numkit.pd_probes")
        return None

    def _before_is_k_positive(self, args, kwargs):
        self._count("hankel.is_k_positive_calls")
        gamma, k = (_arg(args, kwargs, i, n) for i, n in enumerate(("gamma", "k")))
        self._repeat("is_k_positive", (gamma.values, k), "hankel.is_k_positive_repeats")

    def _after_det_sequence(self, args, kwargs, table):
        self._count("hankel.det_entries", len(table.dets))
        self._count("hankel.condensation_entries", table.methods.count("condensation"))

    def _before_recover_atoms(self, args, kwargs):
        self._count("measures.recover_atoms_calls")
        if _is_exact(_arg(args, kwargs, 2, "ctx")):
            self._count("measures.exact_calls")

    def _after_recover_atoms(self, args, kwargs, mu):
        if _is_exact(_arg(args, kwargs, 2, "ctx")) and not any(
            isinstance(x, float) for x in mu.atoms
        ):
            self._count("measures.exact_atom_returns")

    def _before_stability_interval(self, args, kwargs):
        self._count("perturbation.stability_interval_calls")
        gamma, cut, k = (
            _arg(args, kwargs, i, n) for i, n in enumerate(("gamma", "cut", "k"))
        )
        self._repeat("stability_interval", (gamma.values, cut, k), "perturbation.interval_repeats")

    def _after_stability_interval_k2(self, args, kwargs, report):
        self._count("perturbation.k2_anchors", len(report.per_block))
        fallbacks = sum("bisection used" in flag for flag in report.flags)
        self._count("perturbation.k2_fallbacks", fallbacks)

    def _repeat(self, family: str, key: tuple, counter: str) -> None:
        seen = self._seen[family]
        if key in seen:
            self._count(counter)
        else:
            seen.add(key)


def fold(spans: list, totals: defaultdict) -> None:
    """Add one operation's spans to the totals.

    Spans are listed in call order, so a parent precedes its children.
    `time:<group>` is inclusive time of outermost spans of the group,
    `self:<layer>` is span time minus child spans, and
    `under:<caller layer>` is numkit self time below that layer.
    """
    child = [0.0] * len(spans)
    outer = [""] * len(spans)
    for i, (key, layer, start, end, parent, group) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child[parent] += dur
            p_layer = spans[parent][1]
            outer[i] = p_layer if p_layer != layer else outer[parent]
        if group is not None:
            totals["time:" + group] += dur
    for i, (key, layer, start, end, parent, group) in enumerate(spans):
        self_time = end - start - child[i]
        totals["self:" + layer] += self_time
        if layer == "numkit" and outer[i]:
            totals["under:" + outer[i]] += self_time


def layer_metrics(t: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """(times in seconds, counts and shares) of one pass, from `take()`."""

    def time(group: str) -> float:
        return t.get("time:" + group, 0.0)

    def share(part: str, whole: str) -> float:
        return t.get(part, 0.0) / t[whole] if t.get(whole) else 0.0

    times = {
        "cli.parse_s": time("cli.parse"),
        "cli.materialize_s": time("cli.materialize"),
        "cli.emit_s": time("cli.main") - time("cli.run"),
        "numkit.char_poly_s": time("numkit.char_poly"),
        "numkit.float_psd_s": time(FLOAT_PSD),
        "numkit.solve_s": time("numkit.solve"),
        "numkit.under_hankel_s": t.get("under:hankel", 0.0),
        "numkit.under_perturbation_s": t.get("under:perturbation", 0.0),
        "numkit.under_measures_s": t.get("under:measures", 0.0),
        "hankel.is_k_positive_s": time("hankel.is_k_positive"),
        "hankel.propagation_report_s": time("hankel.propagation_report"),
        "hankel.det_sequence_s": time("hankel.det_sequence"),
        "shifts.weights_to_moments_s": time("shifts.weights_to_moments"),
        "shifts.flatness_check_s": time("shifts.flatness_check"),
        "measures.detect_recursion_s": time("measures.detect_recursion"),
        "measures.is_finite_mass_s": time("measures.is_finite_mass"),
        "measures.recover_atoms_s": time("measures.recover_atoms"),
        "perturbation.stability_interval_s": time("perturbation.stability_interval"),
        "perturbation.interiority_report_s": time("perturbation.interiority_report"),
        "perturbation.k2_closed_form_s": time("perturbation.k2_closed_form"),
    }
    times.update({f"{layer}.self_s": t.get("self:" + layer, 0.0) for layer in LAYERS})
    counts = {
        "numkit.char_poly_calls": t.get("numkit.char_poly_calls", 0.0),
        "numkit.psd_probes": t.get("numkit.psd_probes", 0.0),
        "numkit.pd_probes": t.get("numkit.pd_probes", 0.0),
        "numkit.det_bareiss_calls": t.get("numkit.det_bareiss_calls", 0.0),
        "hankel.is_k_positive_calls": t.get("hankel.is_k_positive_calls", 0.0),
        "hankel.is_k_positive_repeat_share": share(
            "hankel.is_k_positive_repeats", "hankel.is_k_positive_calls"
        ),
        "hankel.det_entries": t.get("hankel.det_entries", 0.0),
        "hankel.condensation_share": share(
            "hankel.condensation_entries", "hankel.det_entries"
        ),
        "measures.recover_atoms_calls": t.get("measures.recover_atoms_calls", 0.0),
        "measures.exact_atom_share": share(
            "measures.exact_atom_returns", "measures.exact_calls"
        ),
        "perturbation.stability_interval_calls": t.get(
            "perturbation.stability_interval_calls", 0.0
        ),
        "perturbation.interval_repeat_share": share(
            "perturbation.interval_repeats", "perturbation.stability_interval_calls"
        ),
        "perturbation.probes_per_interval": share(
            "perturbation.interval_probes", "perturbation.stability_interval_calls"
        ),
        "perturbation.k2_fallback_share": share(
            "perturbation.k2_fallbacks", "perturbation.k2_anchors"
        ),
    }
    return times, counts
