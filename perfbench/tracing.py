"""Spans around the calls into genaft's layers, for the traced run only.

`Tracer.install` replaces the entry points in ENTRY_POINTS with timing
wrappers, in every genaft module namespace that holds them and on
their classes; `Tracer.remove` puts the originals back.  Nothing is
installed in an untraced run.  Per-element
primitives (leq, index, members, ...) stay unwrapped, so tracing does
not swamp the run.  `Approximator.apply` is counted but not spanned: a
span opens only on a cache miss, around the approximator's mapping, and
takes the layer of the module that defined the mapping (the space for
ultimate approximators, the LP encoder for Fitting's).

A span records its name, start, end, parent span and instance.  Spans
are kept in flat arrays and written out when the run ends; a layer's
self time is its spans' durations minus their child spans'.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "encoders", "posets", "intervals", "flowers", "framework", "engine", "fixpoints", "hierarchy")

ENTRY_POINTS = {
    "genaft.cli": ["main"],
    "genaft.encoders.logic_programs": [
        "NormalLogicProgram.from_json", "lp_exact_space", "lp_operator", "fitting_approximator",
    ],
    "genaft.encoders.autoepistemic": ["AelTheory.from_json", "belief_state_space", "ael_operator"],
    "genaft.encoders.dialectical": ["Wadf.from_json", "wadf_exact_space", "wadf_operator"],
    "genaft.posets": [
        "FinitePoset.__init__", "FinitePoset.from_json", "FinitePoset.classify",
        "powerset_lattice", "product_poset",
    ],
    "genaft.intervals": ["build_interval_framework", "IntervalFramework.enumerate_approximants"],
    "genaft.flowers": [
        "build_flower_framework", "enumerate_flowers",
        "FlowerFramework.enumerate_aubs", "FlowerFramework.enumerate_approximants",
    ],
    "genaft.framework": [
        "check_framework", "check_preamble", "check_composition_poset", "check_chain_ilp",
        "check_weak_ilp", "check_abstract_ilp", "check_glb_property", "check_approximates_relation",
    ],
    "genaft.engine": [
        "ultimate_approximator", "compute_semantics", "kripke_kleene", "well_founded",
        "supported_fixpoints", "stable_fixpoints", "stable_revision", "run_wf_induction",
        "application_refinements", "grounding_refinements",
    ],
    "genaft.fixpoints": ["lfp"],
    "genaft.hierarchy": [
        "induce_fine", "induce_coarse", "check_fixpoint_preservation", "check_precision_transfer",
        "check_ultimate_composition", "verify_transfer_theorems",
    ],
}

# Each semantics' inclusive time, counted only outside another semantics
# call (stable_fixpoints calls supported_fixpoints).
SEMANTICS_TOTALS = {
    "engine.kripke_kleene": "engine.kk_s",
    "engine.well_founded": "engine.wf_s",
    "engine.supported_fixpoints": "engine.supported_s",
    "engine.stable_fixpoints": "engine.stable_s",
}

GROUPS = (None, "semantics", "checker", "encoders", "map")
COUNTERS = (
    "posets.classify_s", "posets.classify_elements", "encoders.time_s",
    "engine.apply_calls", "engine.apply_misses", "engine.map_s", *SEMANTICS_TOTALS.values(),
    "engine.induction_steps", "fixpoints.lfp_steps", "framework.checks", "framework.exhaustive",
)


def _layer(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if parts[0] == "genaft" and len(parts) > 1 else "engine"


def _count_checks(tracer: "Tracer", args, result, outer: bool) -> None:
    if outer:
        results = result if isinstance(result, list) else [result]
        tracer.counts["framework.checks"] += len(results)
        tracer.counts["framework.exhaustive"] += sum(r.status == "pass" for r in results)


def _count_elements(tracer: "Tracer", args, result, outer: bool) -> None:
    tracer.counts["posets.classify_elements"] += len(args[0])


def _count_induction(tracer: "Tracer", args, result, outer: bool) -> None:
    tracer.counts["engine.induction_steps"] += len(result) - 1


def _count_miss(tracer: "Tracer", args, result, outer: bool) -> None:
    tracer.counts["engine.apply_misses"] += 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # Plain dicts with every key present: cheaper than Counter per span.
        self.depth = dict.fromkeys(GROUPS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.current = -1
        self._ids: dict[str, int] = {}
        self._patches: list[tuple] = []  # (target, attribute, original, wrapper)
        self._missing: list[str] = []

    # -- recording ---------------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, kind: str) -> None:
        """Open the root span of one timed instance."""
        self.current = len(self.kinds)
        self.kinds.append(kind)
        self.stack.append(len(self.start))
        self.span_name.append(self._name(f"bench.{kind}"))
        self.parent.append(-1)
        self.instance.append(self.current)
        self.end.append(0.0)
        self.start.append(perf_counter())

    def finish(self) -> None:
        self.end[self.stack.pop()] = perf_counter()

    def wrap(self, name: str, fn, *, total=None, group=None, before=None, after=None):
        """A wrapper recording a span per call made inside an instance."""
        name_id = self._name(name)
        tracer, stack, depth, counts = self, self.stack, self.depth, self.counts
        span_name, parent, instance, start, end = (
            self.span_name, self.parent, self.instance, self.start, self.end,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(tracer, args)
            outer = group is None or not depth[group]
            depth[group] += 1
            sid = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            instance.append(tracer.current)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = end[sid] = perf_counter()
                stack.pop()
                depth[group] -= 1
            if total is not None and outer:
                counts[total] += t1 - t0
            if after is not None:
                after(tracer, args, result, outer)
            return result

        traced.perfbench_traced = True
        return traced

    # -- installation --------------------------------------------------------------

    def _options(self, name: str) -> dict:
        layer, _, entry = name.partition(".")
        if name in SEMANTICS_TOTALS:
            return {"total": SEMANTICS_TOTALS[name], "group": "semantics"}
        if name == "posets.FinitePoset.classify":
            return {"total": "posets.classify_s", "after": _count_elements}
        if name == "fixpoints.lfp":
            return {"before": _count_lfp_steps}
        if name == "engine.run_wf_induction":
            return {"after": _count_induction}
        if entry.startswith(("check_", "verify_")):
            return {"group": "checker", "after": _count_checks}
        if layer == "encoders":
            return {"total": "encoders.time_s", "group": "encoders"}
        return {}

    def install(self) -> list[str]:
        """Put the wrappers in place, building them on first use; return
        the entry points the library no longer has."""
        if not self._patches:
            self._missing = self._build()
        for target, key, _, wrapped in self._patches:
            setattr(target, key, wrapped)
        return self._missing

    def remove(self) -> None:
        """Put the library's own functions back."""
        for target, key, original, _ in reversed(self._patches):
            setattr(target, key, original)

    def _build(self) -> list[str]:
        modules = [m for n, m in list(sys.modules.items()) if n == "genaft" or n.startswith("genaft.")]
        missing = []
        for module_name, entries in ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            for entry in entries:
                name = f"{_layer(module_name)}.{entry}"
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or not hasattr(owner, attr):
                    missing.append(name)
                    continue
                if owner_name:
                    raw = vars(owner).get(attr, getattr(owner, attr))
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(name, raw.__func__, **self._options(name)))
                    else:
                        wrapped = self.wrap(name, raw, **self._options(name))
                    self._patches.append((owner, attr, raw, wrapped))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, **self._options(name))
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, key, original, wrapped))
        approximator = importlib.import_module("genaft.engine").Approximator
        self._patches.append(
            (approximator, "apply", approximator.apply, self._counting_apply(approximator.apply))
        )
        return missing

    def _counting_apply(self, apply):
        tracer = self

        @functools.wraps(apply)
        def counted(approximator, x):
            if tracer.stack:
                tracer.counts["engine.apply_calls"] += 1
                mapping = approximator.mapping
                if not getattr(mapping, "perfbench_traced", False):
                    layer = _layer(getattr(mapping, "__module__", "") or "")
                    approximator.mapping = tracer.wrap(
                        f"{layer}.approximator_map", mapping,
                        total="engine.map_s", group="map", after=_count_miss,
                    )
            return apply(approximator, x)

        return counted

    # -- results -----------------------------------------------------------------

    def metrics(self, rounds: int, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and seconds are per round."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        span_layer = [name.split(".")[0] for name in self.names]
        calls, self_s, by_name = Counter(), Counter(), Counter()
        for i in range(n):
            name_id = self.span_name[i]
            layer = span_layer[name_id]
            calls[layer] += 1
            self_s[layer] += self.end[i] - self.start[i] - child[i]
            by_name[self.names[name_id]] += 1

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / rounds, "count/round")
            out[f"{layer}.self_s"] = (self_s[layer] / rounds, "s/round")
            out[f"{layer}.share"] = (self_s[layer] / traced_wall, "ratio")
        c = self.counts
        per_round = {
            "posets.classify_calls": (by_name["posets.FinitePoset.classify"], "count/round"),
            "posets.classify_s": (c["posets.classify_s"], "s/round"),
            "posets.classify_elements": (c["posets.classify_elements"], "count/round"),
            "encoders.time_s": (c["encoders.time_s"], "s/round"),
            "engine.apply_calls": (c["engine.apply_calls"], "count/round"),
            "engine.apply_misses": (c["engine.apply_misses"], "count/round"),
            "engine.map_s": (c["engine.map_s"], "s/round"),
            "engine.kk_s": (c["engine.kk_s"], "s/round"),
            "engine.wf_s": (c["engine.wf_s"], "s/round"),
            "engine.supported_s": (c["engine.supported_s"], "s/round"),
            "engine.stable_s": (c["engine.stable_s"], "s/round"),
            "engine.stable_revisions": (by_name["engine.stable_revision"], "count/round"),
            "engine.induction_steps": (c["engine.induction_steps"], "count/round"),
            "fixpoints.lfp_calls": (by_name["fixpoints.lfp"], "count/round"),
            "fixpoints.lfp_steps": (c["fixpoints.lfp_steps"], "count/round"),
            "framework.checks": (c["framework.checks"], "count/round"),
        }
        for key, (value, unit) in per_round.items():
            out[key] = (value / rounds, unit)
        calls_made = c["engine.apply_calls"]
        out["engine.cache_hit_ratio"] = (1 - c["engine.apply_misses"] / calls_made if calls_made else 0.0, "ratio")
        checks = c["framework.checks"]
        out["framework.exhaustive_ratio"] = (c["framework.exhaustive"] / checks if checks else 0.0, "ratio")
        out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
        return out

    def write(self, path, header: dict) -> None:
        """Spans as gzipped JSON lines: a header, then one array per span."""
        t0 = self.start[0] if len(self.start) else 0.0
        header = {
            **header,
            "names": self.names,
            "instances": self.kinds,
            "span": ["id", "parent", "name", "start_s", "end_s", "instance"],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{i},{self.parent[i]},{self.span_name[i]},"
                    f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},{self.instance[i]}]\n"
                )


def _count_lfp_steps(tracer: Tracer, args):
    """Count lfp's iterations by counting its operator's applications."""
    op, *rest = args
    inner = op.apply

    def counted(x):
        tracer.counts["fixpoints.lfp_steps"] += 1
        return inner(x)

    return (type(op)(op.domain, counted), *rest)
