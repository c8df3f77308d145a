"""Random diagrams and elements for randomized checks."""

from __future__ import annotations

import random

from .diagrams import Context, LabeledDiagram, tree_diagram
from .elements import VPhiElement
from .groups import CyclicGroup, FreeGroup, GroupBackend, GroupElement, ProductGroup


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
    return ctx.backend.element(_random_value(ctx.backend, rng))


def _random_value(B: GroupBackend, rng: random.Random):
    """Any value of a finite B; in an infinite one a small value: an
    exponent -3..3 of Z, a reduced word of length at most 3 in a free group,
    and in a product one value of each factor."""
    if B.is_finite():
        return rng.choice(list(B.element_values()))
    if isinstance(B, CyclicGroup):
        return rng.randint(-3, 3)
    if isinstance(B, FreeGroup):
        letters = B.LETTERS[: B.rank] + B.LETTERS[: B.rank].upper()
        return B.parse_element("".join(rng.choice(letters) for _ in range(rng.randint(0, 3))))
    if isinstance(B, ProductGroup):
        return tuple(_random_value(f, rng) for f in B.factors)
    raise ValueError(f"no random labels are drawn in {B!r}")


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
