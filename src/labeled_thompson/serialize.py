"""JSON formats for groups, recursions, elements and certificates.

This module alone reads and writes the group and recursion JSON.  Group
definition files look like
  {"group": {"kind": "finite", "table": [[...]], "names": {"g": 1}},
   "recursion": {"rule": "diagonal"}}
where a custom rule lists rows [g, left, right, swap] and a kappa rule rows
[g, 0|1], and every label is its backend token.  The readers read back
what `backend_to_json` and `recursion_to_json` write.
Elements look like
  {"columns": [{"dom": "0", "label": "g", "ran": "0"}, ...],
   "kind": "tree", "roots": [1, 1]}.
Forest leaves are written "r:word".  Labels are backend tokens; elements
of auto-quotiented contexts mark their labels as living in the quotient.
"""

from __future__ import annotations

import json
from typing import Callable, TypeVar

from .diagrams import Context, LabeledDiagram
from .elements import GroupoidElement, VPhiElement
from .groups import (
    CyclicGroup,
    FiniteTableGroup,
    FreeGroup,
    GroupBackend,
    ProductGroup,
    SymmetricGroup,
    WreathRecursion,
)
from .perfection import CommutatorCertificate
from .words import Leaf

T = TypeVar("T")


def backend_from_json(data: dict) -> GroupBackend:
    kind = data["kind"]
    if kind == "finite":
        return FiniteTableGroup(data["table"], names=data.get("names"))
    if kind == "cyclic":
        return CyclicGroup(data.get("n"))
    if kind == "free":
        return FreeGroup(data["rank"])
    if kind == "symmetric":
        return SymmetricGroup(data["m"])
    if kind == "product":
        return ProductGroup([backend_from_json(f) for f in data["factors"]])
    raise ValueError(f"unknown group kind {kind!r}")


def backend_to_json(B: GroupBackend) -> dict:
    if isinstance(B, FiniteTableGroup):
        out = {"kind": "finite", "table": [list(row) for row in B.table]}
        if B.names:
            out["names"] = dict(B.names)
        return out
    if isinstance(B, CyclicGroup):
        return {"kind": "cyclic", "n": B.n}
    if isinstance(B, FreeGroup):
        return {"kind": "free", "rank": B.rank}
    if isinstance(B, SymmetricGroup):
        return {"kind": "symmetric", "m": B.m}
    if isinstance(B, ProductGroup):
        return {"kind": "product", "factors": [backend_to_json(f) for f in B.factors]}
    raise ValueError(f"no JSON form for {B!r}")


def recursion_from_json(backend: GroupBackend, data: dict) -> WreathRecursion:
    rule = data["rule"]
    parse = lambda tok: backend.parse_element(str(tok))  # noqa: E731
    if rule == "custom":
        table = {
            parse(g): (parse(left), parse(right), bool(s))
            for g, left, right, s in data["table"]
        }
        return WreathRecursion(backend, "custom", table=table)
    if rule == "kappa":
        kappa = {parse(g): bool(s) for g, s in data["kappa"]}
        return WreathRecursion(backend, "kappa", kappa=kappa)
    return WreathRecursion(backend, rule)


def recursion_to_json(phi: WreathRecursion) -> dict:
    fmt = phi.backend.format_element
    out = {"rule": phi.rule}
    if phi.rule == "kappa":
        out["kappa"] = [[fmt(v), int(s)] for v, (_, _, s) in phi.table.items()]
    elif phi.rule == "custom":
        out["table"] = [
            [fmt(v), fmt(l), fmt(r), int(s)] for v, (l, r, s) in phi.table.items()
        ]
    return out


def context_from_json(data: dict) -> Context:
    backend = backend_from_json(data["group"])
    recursion = recursion_from_json(backend, data["recursion"])
    return Context(backend, recursion)


def load_json(path: str, parse: Callable[[object], T]) -> T:
    """Parse the JSON file at `path` with `parse`; a missing or ill-typed
    field raises ValueError naming the file, as malformed JSON does."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: missing or malformed field: {exc!r}") from exc


def load_context(path: str) -> Context:
    return load_json(path, context_from_json)


def _leaf_str(leaf: Leaf, forest: bool) -> str:
    r, w = leaf
    return f"{r}:{w}" if forest else w


def _leaf_parse(text: str) -> Leaf:
    if ":" in text:
        r, w = text.split(":", 1)
        return (int(r), w)
    return (0, text)


def element_to_json(x: GroupoidElement) -> dict:
    d = x.diagram
    # a (1,1) groupoid element stays a forest, so it reads back as one
    forest = not isinstance(x, VPhiElement)
    ctx = d.context
    if ctx.pi_hat is None:
        fmt = ctx.source_backend.format_element
        picture = "source"
    else:
        fmt = ctx.backend.format_element
        picture = "quotient"
    out = {
        "columns": [
            {
                "dom": _leaf_str(dom, forest),
                "label": fmt(g.value),
                "ran": _leaf_str(ran, forest),
            }
            for dom, g, ran in d.columns
        ],
        "kind": "forest" if forest else "tree",
        "roots": [d.m_roots, d.n_roots],
    }
    if picture == "quotient":
        out["labels"] = "quotient"
    return out


def element_from_json(ctx: Context, data: dict) -> GroupoidElement:
    quotient = data.get("labels") == "quotient"
    if quotient:
        parse = lambda tok: ctx.backend.parse(tok)  # noqa: E731
    else:
        parse = lambda tok: ctx.label(ctx.source_backend.parse(tok))  # noqa: E731
    cols = [
        (_leaf_parse(c["dom"]), parse(str(c["label"])), _leaf_parse(c["ran"]))
        for c in data["columns"]
    ]
    m, n = data.get("roots", [1, 1])
    diagram = LabeledDiagram(ctx, cols, m, n)
    if data.get("kind", "tree") == "tree" and m == n == 1:
        return VPhiElement(diagram)
    return GroupoidElement(diagram)


def certificate_to_json(cert: CommutatorCertificate) -> dict:
    return {
        "factors": [
            [element_to_json(p), element_to_json(q)] for p, q in cert.factors
        ],
        "tail": element_to_json(cert.tail),
        "target": element_to_json(cert.target),
    }
