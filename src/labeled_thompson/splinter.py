"""Permutation model on X x (truncated Cantor set): an independent oracle.

For a faithful finite right G-set X, a diagonal-labeled element acts on
pairs (x, w) by locating the domain cone of w, translating x by that
column's label and rewriting the cone prefix.  Acting on too-short words
is an error, which keeps the oracle independent of the diagram engine's
expansion machinery.
"""

from __future__ import annotations

import random
from typing import Optional

from .diagrams import Context
from .elements import VPhiElement, element
from .groups import GroupElement


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
    """A finite right G-set, validated to be an action and faithful."""

    def __init__(self, size: int, act, backend):
        self.size = size
        self._act = act
        self.backend = backend
        self._validate()

    @classmethod
    def regular(cls, backend) -> "GSet":
        """G acting on itself by right multiplication (always faithful)."""
        if not backend.is_finite():
            raise ValueError("need a finite group")
        values = sorted(backend.element_values(), key=backend.sort_key)
        index = {v: i for i, v in enumerate(values)}

        def act(x: int, g: GroupElement) -> int:
            return index[backend.mul(values[x], g.value)]

        return cls(len(values), act, backend)

    def _validate(self):
        one = self.backend.one()
        elems = list(self.backend.elements())
        pts = range(self.size)
        for x in pts:
            if self._act(x, one) != x:
                raise ValueError("identity must act trivially")
        for g in elems:
            for h in elems:
                gh = g * h
                if any(self._act(self._act(x, g), h) != self._act(x, gh) for x in pts):
                    raise ValueError("not a right action")
        for g in elems:
            if not g.is_identity() and all(self._act(x, g) == x for x in pts):
                raise ValueError("action is not faithful")

    def act(self, x: int, g: GroupElement) -> int:
        return self._act(x, g)


def _require_diagonal(ctx: Context):
    if ctx.rule != "diagonal":
        raise ValueError("the permutation model is defined for the diagonal rule")


def splinter_act(gset: GSet, a: VPhiElement, p: SplinterPoint) -> SplinterPoint:
    """(x, u_i w) -> (x g_i, v_i w): translate through the matched column."""
    _require_diagonal(a.context)
    for (_, u), g, (_, v) in a.diagram.columns:
        if p.w.startswith(u):
            return SplinterPoint(gset.act(p.x, g), v + p.w[len(u):])
    raise ValueError("insufficient depth: point is shorter than the domain tree")


def a_g(ctx: Context, g: GroupElement) -> VPhiElement:
    """The standard three-cone element carrying g on the 01-cone."""
    _require_diagonal(ctx)
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
