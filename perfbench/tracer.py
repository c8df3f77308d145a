"""Per-layer tracing of labeled_thompson from the benchmark's side.

``Tracer.install`` wraps the public functions and methods of each layer
module (plus the operators ``*``, ``~`` and ``**`` and the constructors
listed in ``CONSTRUCTED``) and rebinds every module attribute that refers
to a wrapped function, so that e.g. ``diagrams.is_forest_partition`` is
traced too.  It changes nothing on disk and only affects the process it
runs in.

A span has a name (``layer.Class.method`` or ``layer.function``), a start,
an end and a parent: the span open when it started.  Spans are not kept
one by one; they are aggregated in memory per name and per (parent, child)
edge, and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans add up to the traced wall time without overlap.  The hottest
leaf calls (``COUNT_ONLY``) are counted but not timed, to keep the overhead
bounded; their time shows up as self time of their caller.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "groups",
    "words",
    "diagrams",
    "elements",
    "perfection",
    "germs",
    "splinter",
    "complexes",
)
OPERATORS = ("__mul__", "__invert__", "__pow__")
CONSTRUCTED = (
    "diagrams.LabeledDiagram",
    "elements.VPhiElement",
    "elements.GroupoidElement",
    "complexes.SimplicialComplex",
)
# the hottest leaf calls (up to millions per job) are only counted
COUNT_ONLY = frozenset(
    {
        "groups.GroupElement.__mul__",
        "words.is_partition_set",
        "words.is_forest_partition",
    }
)
COUNT_ONLY_METHODS = frozenset(
    {
        # group backends and labels
        "identity_value",
        "mul",
        "inv",
        "check_value",
        "one",
        "element",
        "is_identity",
        # recursion images, points and diagram columns
        "is_injective",
        "apply_bit",
        "child",
        "letter",
        "domain",
        "range_",
    }
)
# a hot leaf that is timed without a span of their own: its duration counts
# for its layer, but it records no parent edge.  It must not call another
# timed function, since it opens no frame for their time.
LEAF_TIMED = frozenset({"groups.WreathRecursion.apply"})
# spans inside which element products are also counted separately
SCOPES = ("perfection.decompose", "complexes.dlink_complex")
PRODUCTS = ("elements.VPhiElement.__mul__", "elements.GroupoidElement.__mul__")
INVERSES = ("elements.VPhiElement.__invert__", "elements.GroupoidElement.__invert__")
ACTIONS = ("elements.VPhiElement.act_word", "elements.VPhiElement.act_point")

# the names every per-layer metric is computed from; install() fails when
# one of them no longer exists, so a rename cannot silently report zeros
SOURCES = (
    "groups.WreathRecursion.apply",
    "groups.WreathRecursion.preimage",
    "groups.GroupElement.__mul__",
    "words.is_partition_set",
    "diagrams.LabeledDiagram.__init__",
    "diagrams.LabeledDiagram.simple_expand",
    "diagrams.LabeledDiagram.simple_reduce",
    "diagrams.LabeledDiagram.reduce",
    "diagrams.compose",
    *PRODUCTS,
    *INVERSES,
    *ACTIONS,
    "perfection.decompose",
    "germs.lsupp_approx",
    "splinter.splinter_act",
    "complexes.dlink_complex",
    "complexes.SimplicialComplex.k_simplices",
    "complexes.SimplicialComplex.boundary_matrix",
    "complexes.smith_diagonal",
    "complexes.SimplicialComplex.maximal_simplices",
)

_ELEMENT_CORE = (
    "groups.WreathRecursion.apply",
    "groups.GroupElement.__mul__",
    "words.is_partition_set",
    "diagrams.LabeledDiagram.__init__",
    "diagrams.LabeledDiagram.simple_expand",
    "diagrams.LabeledDiagram.simple_reduce",
    "diagrams.LabeledDiagram.reduce",
    "diagrams.compose",
)
# spans that must be reached on each workload: the layers it measures
REQUIRED = {
    "products-large": _ELEMENT_CORE
    + (
        "groups.WreathRecursion.preimage",
        "elements.VPhiElement.__mul__",
        "elements.VPhiElement.__invert__",
        "elements.VPhiElement.act_word",
        "elements.VPhiElement.act_point",
    ),
    "certify-small": _ELEMENT_CORE
    + (
        "groups.WreathRecursion.preimage",
        "elements.VPhiElement.__mul__",
        "elements.VPhiElement.__invert__",
        "elements.VPhiElement.__pow__",
        "elements.VPhiElement.act_word",
        "elements.VPhiElement.act_point",
        "perfection.decompose",
        "perfection.commutator_witness",
        "germs.lsupp_approx",
        "germs.transitivity_witness",
        "splinter.splinter_act",
        "splinter.check_hom",
        "splinter.check_faithful",
    ),
    "dlink": _ELEMENT_CORE
    + (
        "elements.GroupoidElement.__mul__",
        "complexes.dlink_complex",
        "complexes.check_complete_join",
        "complexes.connectivity_report",
    ),
    "matching-homology": (
        "complexes.SimplicialComplex.__init__",
        "complexes.SimplicialComplex.k_simplices",
        "complexes.SimplicialComplex.boundary_matrix",
        "complexes.SimplicialComplex.maximal_simplices",
        "complexes.SimplicialComplex.to_json",
        "complexes.SimplicialComplex.from_json",
        "complexes.smith_diagonal",
        "complexes.homology",
    ),
}

ROOT = "<job>"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.stack = [[ROOT, 0.0]]
        self.open_scopes = dict.fromkeys(SCOPES, 0)
        self.scoped_products = dict.fromkeys(SCOPES, 0)
        self.observed = defaultdict(int)
        self.names: set[str] = set()
        self.observers = {
            "diagrams.LabeledDiagram.simple_reduce": self._see_merge,
            "diagrams.LabeledDiagram.reduce": self._see_reduce,
            "germs.lsupp_approx": self._see_lsupp,
            "complexes.SimplicialComplex.boundary_matrix": self._see_boundary,
            "complexes.dlink_complex": self._see_dlink,
            **dict.fromkeys(PRODUCTS, self._see_product),
        }

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        """Wrap fn so that every call records a span called name."""
        stack = self.stack
        calls, total, self_time, edges = self.calls, self.total, self.self_time, self.edges
        observe = self.observers.get(name)
        scope = self.open_scopes if name in self.open_scopes else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            if scope is not None:
                scope[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if scope is not None:
                    scope[name] -= 1
                parent[1] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
                edge = edges[(parent[0], name)]
                edge[0] += 1
                edge[1] += dur
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name, fn):
        """Wrap fn so that calls count and add their time to name and to the
        caller's child time, without opening a span."""
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack[-1][1] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur

        timed.__wrapped__ = fn
        return timed

    def counter(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrap(self, name, fn):
        self.names.add(name)
        is_method = name.count(".") == 2
        if name in COUNT_ONLY or (is_method and name.rsplit(".", 1)[1] in COUNT_ONLY_METHODS):
            return self.counter(name, fn)
        if name in LEAF_TIMED:
            return self.leaf(name, fn)
        return self.span(name, fn)

    # -- observers (result-derived counts) ----------------------------------

    def _see_merge(self, args, result):
        if result is not None:
            self.observed["merges"] += 1

    def _see_reduce(self, args, result):
        if result is args[0]:
            self.observed["noop_reduces"] += 1

    def _see_lsupp(self, args, result):
        self.observed["lsupp_included"] += len(result.included)
        self.observed["lsupp_walked"] += 1 << result.depth

    def _see_boundary(self, args, result):
        self.observed["boundary_nonzeros"] += int(np.count_nonzero(result))
        self.observed["boundary_cells"] += int(result.size)

    def _see_dlink(self, args, result):
        self.observed["dlink_classes"] += len(result.simplex_vertices)

    def _see_product(self, args, result):
        for scope, depth in self.open_scopes.items():
            if depth:
                self.scoped_products[scope] += 1

    # -- installation -------------------------------------------------------

    def install(self):
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"labeled_thompson.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(f"{layer}.{attr}", obj)
        # rebind every alias, e.g. the names diagrams imported from words
        for modname, mod in list(sys.modules.items()):
            if modname != "labeled_thompson" and not modname.startswith("labeled_thompson."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        missing = [name for name in SOURCES if name not in self.names]
        if missing:
            raise RuntimeError(f"tracer: functions not found in labeled_thompson: {missing}")

    def _install_class(self, cname, cls):
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                if cname not in CONSTRUCTED:
                    continue
            elif attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{cname}.{attr}"
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))

    def wrap_op(self, kind, fn):
        """A span around one benchmark operation, the parent of its library calls."""
        return self.span(f"bench.{kind}", fn)

    # -- results ------------------------------------------------------------

    def _sum(self, table, names):
        return sum(table.get(n, 0) for n in names)

    def metrics(self) -> dict:
        # copies, so that looking up a name never reached does not add it
        calls = defaultdict(int, self.calls)
        total = defaultdict(float, self.total)
        obs = defaultdict(int, self.observed)
        layer_self = defaultdict(float)
        for name, t in self.self_time.items():
            layer_self[name.split(".", 1)[0]] += t

        def ratio(a, b):
            return a / b if b else 0.0

        attempts = calls["diagrams.LabeledDiagram.simple_reduce"]
        certificates = calls["perfection.decompose"]
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update(
            {
                "groups.apply_calls": calls["groups.WreathRecursion.apply"],
                "groups.preimage_calls": calls["groups.WreathRecursion.preimage"],
                "groups.label_mul_calls": calls["groups.GroupElement.__mul__"],
                "words.partition_checks": calls["words.is_partition_set"],
                "diagrams.built": calls["diagrams.LabeledDiagram.__init__"],
                "diagrams.expansions": calls["diagrams.LabeledDiagram.simple_expand"],
                "diagrams.merge_attempts": attempts,
                "diagrams.merges": obs["merges"],
                "diagrams.merge_yield": ratio(obs["merges"], attempts),
                "diagrams.reduce_calls": calls["diagrams.LabeledDiagram.reduce"],
                "diagrams.noop_reduces": obs["noop_reduces"],
                "diagrams.reduce_s": total["diagrams.LabeledDiagram.reduce"],
                "diagrams.compose_calls": calls["diagrams.compose"],
                "diagrams.compose_s": total["diagrams.compose"],
                "elements.products": self._sum(calls, PRODUCTS),
                "elements.inverses": self._sum(calls, INVERSES),
                "elements.action_s": self._sum(total, ACTIONS),
                "perfection.certificates": certificates,
                "perfection.products_per_certificate": ratio(
                    self.scoped_products["perfection.decompose"], certificates
                ),
                "germs.lsupp_s": total["germs.lsupp_approx"],
                "germs.lsupp_yield": ratio(obs["lsupp_included"], obs["lsupp_walked"]),
                "splinter.point_actions": calls["splinter.splinter_act"],
                "complexes.dlink_s": total["complexes.dlink_complex"],
                "complexes.dlink_products": self.scoped_products["complexes.dlink_complex"],
                "complexes.products_per_class": ratio(
                    self.scoped_products["complexes.dlink_complex"], obs["dlink_classes"]
                ),
                "complexes.k_simplices_calls": calls["complexes.SimplicialComplex.k_simplices"],
                "complexes.boundary_s": total["complexes.SimplicialComplex.boundary_matrix"],
                "complexes.boundary_density": ratio(
                    obs["boundary_nonzeros"], obs["boundary_cells"]
                ),
                "complexes.smith_s": total["complexes.smith_diagonal"],
                "complexes.maximal_s": total["complexes.SimplicialComplex.maximal_simplices"],
            }
        )
        return out

    def self_check(self, workload: str) -> list[str]:
        """Names that the workload should reach but did not."""
        return [name for name in REQUIRED[workload] if not self.calls.get(name)]

    def dump(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total.get(name),
                    "self_s": self.self_time.get(name),
                }
                for name in sorted(self.calls)
            },
            "edges": [
                {"parent": p, "child": c, "calls": n, "total_s": t}
                for (p, c), (n, t) in sorted(self.edges.items())
            ],
            "observed": dict(sorted(self.observed.items())),
            "scoped_products": self.scoped_products,
        }
