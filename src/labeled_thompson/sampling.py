"""Random diagrams and elements for randomized checks."""

from __future__ import annotations

import random

from .diagrams import Context, LabeledDiagram, tree_diagram
from .elements import VPhiElement
from .groups import GroupElement


def random_partition(rng: random.Random, max_splits: int = 3) -> list[str]:
    """Random binary-tree leaf set grown by splitting random leaves."""
    words = [""]
    for _ in range(rng.randint(0, max_splits)):
        w = rng.choice(words)
        words.remove(w)
        words.extend([w + "0", w + "1"])
    words.sort()
    return words


def random_label(ctx: Context, rng: random.Random) -> GroupElement:
    """A random label in the context's working group."""
    order = ctx.backend.order()
    if order is not None:
        values = list(ctx.backend.element_values())
        return ctx.backend.element(rng.choice(values))
    # infinite cyclic: small exponents
    return ctx.backend.element(rng.randint(-3, 3))


def random_diagram(
    rng: random.Random, ctx: Context, max_splits: int = 3
) -> LabeledDiagram:
    dom = random_partition(rng, max_splits)
    ran = random_partition(rng, max_splits)
    while len(ran) != len(dom):
        side = ran if len(ran) < len(dom) else dom
        w = rng.choice(side)
        side.remove(w)
        side.extend([w + "0", w + "1"])
        side.sort()
    rng.shuffle(ran)
    labels = [random_label(ctx, rng) for _ in dom]
    return tree_diagram(ctx, dom, labels, ran)


def random_element(
    rng: random.Random, ctx: Context, max_splits: int = 3
) -> VPhiElement:
    return VPhiElement(random_diagram(rng, ctx, max_splits))
