"""Permutation model on G x (truncated Cantor set): an independent oracle.

X is a finite group G acting on itself by right multiplication, the
regular G-set.  Nothing about X is checked at run time: it is a right
action by associativity and faithful by cancellation, the backend already
guarantees both, and a `finite` table was checked when it was loaded.  X
lists all of G, so a group of more than MAX_GSET_ORDER elements is refused
from its order before anything is listed.  A diagonal-labeled element
acts on pairs (x, w) by locating the domain cone of w, translating x by
that column's label and rewriting the cone prefix.
Acting on too-short words is an error, which keeps the oracle independent
of the diagram engine's expansion machinery.
"""

from __future__ import annotations

import random
from typing import Optional

from .diagrams import Context, _require_diagonal
from .elements import VPhiElement, element
from .groups import GroupElement

# points of the regular G-set: listing and indexing the 2^20 points of
# Z/2^20 took 0.2 s on a 2-vCPU x86 host
MAX_GSET_ORDER = 1 << 20


class SplinterPoint:
    """A point (x, w): an index into the G-set and a finite cone coordinate."""

    __slots__ = ("x", "w")

    def __init__(self, x: int, w: str):
        self.x = x
        self.w = w

    def __eq__(self, other):
        return isinstance(other, SplinterPoint) and (self.x, self.w) == (
            other.x,
            other.w,
        )

    def __hash__(self):
        return hash((self.x, self.w))

    def __repr__(self):
        return f"({self.x}, {self.w!r})"


class GSet:
    """G acting on itself, x . g = xg; `act` is one call per point."""

    __slots__ = ("size", "act", "backend")

    def __init__(self, backend):
        order = backend.order()
        if order is None:
            raise ValueError("need a finite group")
        if order > MAX_GSET_ORDER:
            raise ValueError(
                f"the G-set of a group of order {order:,} has more than "
                f"MAX_GSET_ORDER = {MAX_GSET_ORDER:,} points"
            )
        values = sorted(backend.element_values(), key=backend.sort_key)
        index = {v: i for i, v in enumerate(values)}

        def act(x: int, g: GroupElement) -> int:
            return index[backend.mul(values[x], g.value)]

        self.size = len(values)
        self.act = act
        self.backend = backend

    @classmethod
    def regular(cls, backend) -> "GSet":
        """G acting on itself; the name every caller builds a G-set by."""
        return cls(backend)


def splinter_act(gset: GSet, a: VPhiElement, p: SplinterPoint) -> SplinterPoint:
    """(x, u_i w) -> (x g_i, v_i w): translate through the matched column."""
    _require_diagonal(a.context, "the permutation model")
    for (_, u), g, (_, v) in a.diagram.columns:
        if p.w.startswith(u):
            return SplinterPoint(gset.act(p.x, g), v + p.w[len(u):])
    raise ValueError("insufficient depth: point is shorter than the domain tree")


def a_g(ctx: Context, g: GroupElement) -> VPhiElement:
    """The standard three-cone element carrying g on the 01-cone."""
    _require_diagonal(ctx, "the permutation model")
    one = ctx.one()
    return element(ctx, ["00", "01", "1"], [one, ctx.label(g), one], ["00", "01", "1"])


def bar_g(gset: GSet, g: GroupElement, p: SplinterPoint) -> SplinterPoint:
    """Direct definition of the generator: move x over the 01-cone only."""
    if p.w.startswith("01"):
        return SplinterPoint(gset.act(p.x, g), p.w)
    if len(p.w) < 2:
        raise ValueError("insufficient depth")
    return p


def depth_of(a: VPhiElement) -> int:
    return max(len(u) for (_, u), _, _ in a.diagram.columns)


def check_hom(
    gset: GSet,
    a: VPhiElement,
    b: VPhiElement,
    samples: int = 50,
    depth: int = 10,
    rng: Optional[random.Random] = None,
) -> bool:
    """Sampled check that acting by a*b equals acting by a then by b."""
    rng = rng or random.Random(0)
    ab = a * b
    need = depth_of(a) + depth_of(b) + depth_of(ab)
    if depth < need:
        raise ValueError(f"insufficient depth: need at least {need}")
    for _ in range(samples):
        p = SplinterPoint(
            rng.randrange(gset.size),
            "".join(rng.choice("01") for _ in range(depth)),
        )
        via_ab = splinter_act(gset, ab, p)
        via_steps = splinter_act(gset, b, splinter_act(gset, a, p))
        if via_ab != via_steps:
            return False
    return True


def check_faithful(gset: GSet, a: VPhiElement, depth: int) -> bool:
    """True when a fixes every (x, w) with |w| = depth.

    Agrees with the word problem once depth reaches the domain tree depth.
    """
    if depth < depth_of(a):
        raise ValueError("insufficient depth")
    words = [format(i, f"0{depth}b") if depth else "" for i in range(1 << depth)]
    for w in words:
        for x in range(gset.size):
            if splinter_act(gset, a, SplinterPoint(x, w)) != SplinterPoint(x, w):
                return False
    return True
