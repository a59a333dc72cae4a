"""Span recorder for the traced run, and the per-layer metrics derived from it.

A layer is a module of the cubeaut package. ``install`` wraps every
public function of each layer, the structural queries of
``FiniteGroup`` (re-wrapping the ``cached_property`` descriptors), the
``FiniteGroup`` constructor and ``Catalog.build``, and rebinds every
module-level name that refers to a wrapped function, because the
modules import each other's functions by name. Element-wise methods
(``mul``, ``pow``, ``commutator``, ...) stay unwrapped: they run
millions of times and a span each would swamp the measurement.

A span is ``[name, start, end, parent]``, kept in memory and written out
when the run ends. The benchmark's own operation is the root span
``bench``; spans are recorded only while an operation runs, so the
answer checks leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("builders", "groups", "catalog", "automorphisms", "cubing", "sfs",
          "verifier", "cli")

# FiniteGroup queries counted as structural work (groups.structural_s).
STRUCTURAL = ("derived_subgroup", "derived_series", "is_solvable",
              "lower_central_series", "nilpotency_class", "sylow", "normalizer",
              "is_normal", "quotient", "conjugacy_classes", "normal_subgroups",
              "generating_set", "closure", "center", "centralizer")
# Other whole-table FiniteGroup queries; their time is groups.other_s.
TABLE_QUERIES = ("element_orders", "is_abelian", "exponent", "commuting_masks",
                 "table_hash", "subgroup_generated", "right_cosets")

# Spans that start a metric of their own. A span with no entry here takes
# the bucket of its parent when the parent is in the same layer, and its
# layer's default bucket otherwise.
NAMED_BUCKETS = {
    "groups.FiniteGroup": "groups.validate_s",
    # table construction the builders delegate to groups is build work
    "groups.from_permutation_generators": "builders.build_s",
    "groups.from_cayley_table": "builders.build_s",
    "groups.max_abelian_subgroup_order": "groups.max_abelian_s",
    "automorphisms.enumerate_automorphisms": "automorphisms.enumerate_s",
    "automorphisms.automorphism_group": "automorphisms.cache_self_s",
    "cubing.max_cube_ratio": "cubing.max_ratio_s",
    "cubing.classify_cubing_structure": "cubing.classify_s",
    "sfs.max_free_subset:fast": "sfs.fast_search_s",
    "sfs.max_free_subset:generic": "sfs.generic_search_s",
    "sfs.enumerate_extremal": "sfs.enumerate_s",
    **{f"groups.FiniteGroup.{q}": "groups.structural_s" for q in STRUCTURAL},
}
LAYER_BUCKETS = {
    "bench": "unattributed_s",
    "builders": "builders.build_s",
    "groups": "groups.other_s",
    "catalog": "catalog.self_s",
    "automorphisms": "automorphisms.other_s",
    "cubing": "cubing.other_s",
    "sfs": "sfs.other_s",
    "verifier": "verifier.self_s",
    "cli": "cli.self_s",
}

# Every per-layer metric a traced run reports: (name, unit, better), in
# layer order. Each "_s" metric is a sum of span self times, so together
# they partition the traced operation time.
PER_LAYER = (
    ("builders.build_s", "s", "lower"),
    ("groups.validate_s", "s", "lower"),
    ("groups.tables_built", "count", "lower"),
    ("groups.structural_s", "s", "lower"),
    ("groups.closure_calls", "count", "lower"),
    ("groups.max_abelian_s", "s", "lower"),
    ("groups.max_abelian_nodes", "count", "lower"),
    ("groups.other_s", "s", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("catalog.group_builds", "count", "lower"),
    ("automorphisms.enumerate_s", "s", "lower"),
    ("automorphisms.enumerate_calls", "count", "lower"),
    ("automorphisms.enumerate_nodes", "count", "lower"),
    ("automorphisms.members_per_node", "ratio", "higher"),
    ("automorphisms.cache_self_s", "s", "lower"),
    ("automorphisms.cache_hits", "count", "higher"),
    ("automorphisms.cache_misses", "count", "lower"),
    ("automorphisms.cache_mb", "MB", "lower"),
    ("automorphisms.other_s", "s", "lower"),
    ("cubing.max_ratio_s", "s", "lower"),
    ("cubing.classify_s", "s", "lower"),
    ("cubing.classify_calls", "count", "lower"),
    ("cubing.other_s", "s", "lower"),
    ("sfs.fast_search_s", "s", "lower"),
    ("sfs.fast_search_nodes", "count", "lower"),
    ("sfs.generic_search_s", "s", "lower"),
    ("sfs.generic_search_nodes", "count", "lower"),
    ("sfs.enumerate_s", "s", "lower"),
    ("sfs.enumerate_nodes", "count", "lower"),
    ("sfs.other_s", "s", "lower"),
    ("verifier.self_s", "s", "lower"),
    ("verifier.pairs", "count", "higher"),
    ("verifier.instances", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
TIME_METRICS = tuple(dict.fromkeys([*NAMED_BUCKETS.values(), *LAYER_BUCKETS.values()]))
# Work counters: each must repeat exactly between two traced passes.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


class Recorder:
    """Spans and returned work counters of the operations run while active."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def _call(self, name, fn, args, kwargs, count):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if count is not None:
            count(self.counts, args, kwargs, result)
        return result

    def run_op(self, fn):
        """Run one benchmark operation as a root span."""
        self.active = True
        try:
            return self._call("bench", fn, (), {}, None)
        finally:
            self.active = False

    def wrap(self, name, fn, count=None):
        """``fn`` with a span named ``name`` (or ``name(args, kwargs)``)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            return self._call(label, fn, args, kwargs, count)

        return traced

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, out)


# ---------------------------------------------------------------------------
# Returned counters and span names that depend on the arguments


def _search_kind(instance) -> str:
    # all-3-term equation sets take the conflict-table path in sfs._Search
    return "fast" if all(len(e.coefficients) == 3 for e in instance.equations) else "generic"


def _max_free_subset_name(args, kwargs):
    instance = args[0] if args else kwargs["instance"]
    return f"sfs.max_free_subset:{_search_kind(instance)}"


def _count_max_free_subset(counts, args, kwargs, result):
    counts[f"sfs.{_search_kind(result.instance)}_search_nodes"] += result.nodes


def _count_enumerate_extremal(counts, args, kwargs, result):
    counts["sfs.enumerate_nodes"] += result.nodes


def _count_enumeration(counts, args, kwargs, result):
    counts["automorphisms.enumerate_nodes"] += result.nodes
    counts["automorphisms.enumerate_members"] += result.order


def _count_max_abelian(counts, args, kwargs, result):
    counts["groups.max_abelian_nodes"] += result.nodes


def _count_properties(counts, args, kwargs, report):
    scope = report["scope"]
    counts["verifier.pairs"] += scope["exhaustive_pairs"] + scope["sampled_pairs"]
    counts["verifier.instances"] += sum(c["instances"] for c in report["checks"])


def _count_classification(counts, args, kwargs, report):
    counts["verifier.instances"] += len(report["rows"])


SPAN_NAMERS = {"sfs.max_free_subset": _max_free_subset_name}
RESULT_COUNTERS = {
    "sfs.max_free_subset": _count_max_free_subset,
    "sfs.enumerate_extremal": _count_enumerate_extremal,
    "automorphisms.enumerate_automorphisms": _count_enumeration,
    "groups.max_abelian_subgroup_order": _count_max_abelian,
    "verifier.verify_properties": _count_properties,
    "verifier.verify_classification": _count_classification,
}


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions and the chosen methods."""
    import cubeaut
    from cubeaut.catalog import Catalog
    from cubeaut.groups import FiniteGroup

    modules = [importlib.import_module(f"cubeaut.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(value)):
                full = f"{layer}.{attr}"
                wrapped[value] = rec.wrap(SPAN_NAMERS.get(full, full), value,
                                          RESULT_COUNTERS.get(full))
    for module in [cubeaut, *modules]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])

    for attr in STRUCTURAL + TABLE_QUERIES:
        _wrap_method(rec, FiniteGroup, attr, f"groups.FiniteGroup.{attr}")
    _wrap_method(rec, FiniteGroup, "__init__", "groups.FiniteGroup")
    _wrap_method(rec, Catalog, "build", "catalog.Catalog.build")


def _wrap_method(rec: Recorder, cls, attr: str, name: str) -> None:
    value = cls.__dict__[attr]
    if isinstance(value, functools.cached_property):
        value = functools.cached_property(rec.wrap(name, value.func))
        value.__set_name__(cls, attr)
    else:
        value = rec.wrap(name, value)
    setattr(cls, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(rec: Recorder) -> dict:
    """Self time per bucket plus the work counters, from one traced pass.

    A span's self time is its duration minus its children's. Every
    ``*_s`` value is a sum of self times, so the buckets partition the
    traced operation time.
    """
    spans = rec.spans
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    buckets = []
    times = dict.fromkeys(TIME_METRICS, 0.0)
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        bucket = NAMED_BUCKETS.get(name)
        if bucket is None:
            same_layer = parent >= 0 and spans[parent][0].split(".", 1)[0] == layer
            bucket = buckets[parent] if same_layer else LAYER_BUCKETS[layer]
        buckets.append(bucket)
        times[bucket] += end - start - child_time[i]

    names = Counter(span[0] for span in spans)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    counts.update((k, v) for k, v in rec.counts.items() if k in counts)
    counts["groups.tables_built"] = names["groups.FiniteGroup"]
    counts["groups.closure_calls"] = names["groups.FiniteGroup.closure"]
    counts["automorphisms.enumerate_calls"] = names["automorphisms.enumerate_automorphisms"]
    counts["cubing.classify_calls"] = names["cubing.classify_cubing_structure"]
    for i, (name, *_rest) in enumerate(spans):
        if name == "catalog.Catalog.build" and children[i]:
            counts["catalog.group_builds"] += 1  # a memo miss builds the group
        elif name == "automorphisms.automorphism_group":
            enumerated = any(spans[c][0] == "automorphisms.enumerate_automorphisms"
                             for c in children[i])
            counts["automorphisms.cache_misses" if enumerated
                   else "automorphisms.cache_hits"] += 1

    nodes = counts["automorphisms.enumerate_nodes"]
    members = rec.counts["automorphisms.enumerate_members"]
    return {**times, **counts,
            "automorphisms.members_per_node": members / nodes if nodes else 0.0}
