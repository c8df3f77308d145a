"""Elements of the labeled Thompson group and its forest groupoid.

A groupoid element is a reduced labeled paired forest diagram; the reduced
form is the unique canonical representative of its class, so equality,
hashing and the word problem are literal comparisons.  A group element is
the (1,1) case: one root on each side, plus the group-only operations
(powers, the leaf permutation, the Cantor action).  Composition is the
right action: (w)(a * b) = ((w)a)b on the Cantor set.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from . import diagrams
from .diagrams import Column, Context, LabeledDiagram, _require_diagonal
from .groups import GroupElement
from .words import OMEGA0, EventuallyPeriodicWord, Leaf, complete_to_partition, padded_complements


# the most columns a product on the way to a power may have; each squaring
# can double the count
MAX_POWER_COLUMNS = 1 << 12


def _bounded_power(x: "VPhiElement") -> "VPhiElement":
    if len(x.diagram.columns) > MAX_POWER_COLUMNS:
        raise ValueError(
            f"a power passes {len(x.diagram.columns):,} columns, more than "
            f"MAX_POWER_COLUMNS = {MAX_POWER_COLUMNS:,}"
        )
    return x


def _of_reduced(cls, diagram: LabeledDiagram):
    """An element of class cls wrapping a diagram that is already reduced,
    as `compose`, `invert` and the descending-link class representatives
    return them, without reducing it again; the public constructors
    reduce."""
    x = object.__new__(cls)
    x.diagram = diagram
    return x


class GroupoidElement:
    """A reduced labeled paired forest diagram with (m, n) root bookkeeping.

    Products, inverses, equality and the word problem are shared with the
    group elements of the subclass; an element is only ever equal to one of
    its own class.  A product keeps its operands' class when they share it
    and is a groupoid element otherwise; an inverse keeps its operand's."""

    __slots__ = ("diagram",)

    def __init__(self, diagram: LabeledDiagram):
        self.diagram = diagram.reduce()

    @property
    def context(self) -> Context:
        return self.diagram.context

    @property
    def m_roots(self) -> int:
        return self.diagram.m_roots

    @property
    def n_roots(self) -> int:
        return self.diagram.n_roots

    def __mul__(self, other: "GroupoidElement") -> "GroupoidElement":
        cls = type(self) if type(other) is type(self) else GroupoidElement
        return _of_reduced(cls, diagrams.compose(self.diagram, other.diagram))

    def __invert__(self) -> "GroupoidElement":
        return _of_reduced(type(self), diagrams.invert(self.diagram))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.diagram == other.diagram

    def __hash__(self) -> int:
        return hash(self.diagram)

    def __repr__(self):
        return f"{type(self).__name__}({self.diagram!r})"

    def is_identity(self) -> bool:
        """Solves the word problem: the reduced form of an identity is one
        trivially labeled column (r, "") -> (r, "") per root."""
        d = self.diagram
        return d.m_roots == d.n_roots == len(d.columns) and all(
            dom == ran == (r, "") and g.is_identity()
            for r, (dom, g, ran) in enumerate(d.columns)
        )


class VPhiElement(GroupoidElement):
    """A group element: a (1,1) groupoid element, stored as its reduced
    canonical diagram."""

    __slots__ = ()

    def __init__(self, diagram: LabeledDiagram):
        if diagram.m_roots != 1 or diagram.n_roots != 1:
            raise ValueError("group elements are (1,1)-root diagrams")
        super().__init__(diagram)

    # named again: perfbench's tracer counts products per class from its own vars()
    __mul__ = GroupoidElement.__mul__
    __invert__ = GroupoidElement.__invert__

    def __pow__(self, n: int) -> "VPhiElement":
        """Power by repeated squaring from the first base the bits select, so
        x^1 and x^-1 make no product; raises ValueError when a product on
        the way has more than MAX_POWER_COLUMNS columns."""
        if n < 0:
            return (~self) ** (-n)
        if n == 0:
            return identity(self.context)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else _bounded_power(out * base)
            n >>= 1
            if not n:
                return out
            base = _bounded_power(base * base)

    def conjugate(self, by: "VPhiElement") -> "VPhiElement":
        return ~by * self * by

    def sigma(self) -> tuple[int, ...]:
        return self.diagram.sigma()

    def in_f(self) -> bool:
        """True when the derived leaf permutation is the identity."""
        sig = self.sigma()
        return all(s == i for i, s in enumerate(sig))

    def in_t(self) -> bool:
        """True when the derived leaf permutation is a power of the full
        lex-rank cycle."""
        sig = self.sigma()
        n = len(sig)
        k = sig[0]
        return all(sig[i] == (i + k) % n for i in range(n))

    # -- the Cantor action ------------------------------------------------

    def _column(self, w: str) -> Optional[Column]:
        """The column whose domain cone holds every extension of w, or None
        when w is shorter than its column: the one of the greatest domain
        word d <= w (they are sorted and incomparable) if d is a prefix of w."""
        cols = self.diagram.columns
        i = bisect.bisect_right(cols, (0, w), key=itemgetter(0))
        if i and w.startswith(cols[i - 1][0][1]):
            return cols[i - 1]
        return None

    def _locate(self, point: EventuallyPeriodicWord) -> tuple[str, GroupElement, str]:
        """Domain column (u, g, v) whose cone contains the point."""
        # a partition set of k words is at most k - 1 letters deep
        (_, u), g, (_, v) = self._column(point.head(len(self.diagram.columns)))
        return u, g, v

    def act_word(self, point: EventuallyPeriodicWord, depth: int) -> str:
        """First `depth` letters of the image of the point."""
        u, g, v = self._locate(point)
        tail = point.drop(len(u)).head(max(depth - len(v), 0))
        image, _ = self.context.recursion.walk(g, tail)
        return (v + image)[:depth]

    def act_point(
        self, point: EventuallyPeriodicWord, state_budget: int = 4096
    ) -> Optional[EventuallyPeriodicWord]:
        """Exact image of an eventually periodic point, or None when the
        label transducer does not close up within `state_budget` steps
        through the point's period; the budget binds only infinite label
        groups.

        After the tail's prefix, the transducer runs one period at a time;
        the image is periodic from the first label seen twice at the start
        of a period.  Finite label groups always close up, within |G|
        periods, and so does the adding machine because child exponents
        shrink.
        """
        u, g, v = self._locate(point)
        tail = point.drop(len(u))
        walk = self.context.recursion.walk
        head, g = walk(g, tail.prefix)
        finite = self.context.backend.is_finite()
        seen: dict = {}
        images: list[str] = []
        while finite or len(seen) * len(tail.period) <= state_budget:
            if g.value in seen:
                start = seen[g.value]
                pre = v + head + "".join(images[:start])
                return EventuallyPeriodicWord(pre, "".join(images[start:]))
            seen[g.value] = len(images)
            image, g = walk(g, tail.period)
            images.append(image)
        return None

    def spine(self) -> tuple[int, GroupElement, str]:
        """(depth, label, range word) of the column containing the all-zero
        point."""
        u, g, v = self._locate(OMEGA0)
        return len(u), g, v


def identity(ctx: Context) -> VPhiElement:
    return VPhiElement(diagrams.identity_diagram(ctx, 1))


def element(
    ctx: Context,
    domain: Sequence[str],
    labels: Sequence[GroupElement],
    ranges: Sequence[str],
) -> VPhiElement:
    """Element from parallel (domain word, label, range word) columns."""
    return VPhiElement(diagrams.tree_diagram(ctx, domain, labels, ranges))


def from_parts(
    ctx: Context,
    domain: Sequence[str],
    labels: Sequence[GroupElement],
    sigma: Sequence[int],
    ranges: Sequence[str],
) -> VPhiElement:
    """Element [T, (labels, sigma), S]: column i pairs the i-th domain leaf
    with the sigma(i)-th range leaf (both in lex order, 0-indexed)."""
    dom = sorted(domain)
    ran = sorted(ranges)
    if sorted(sigma) != list(range(len(dom))):
        raise ValueError("sigma must be a permutation of the leaf ranks")
    return element(ctx, dom, labels, [ran[s] for s in sigma])


def iota(ctx: Context, g: GroupElement) -> VPhiElement:
    """The caret embedding of a label: g on the 0-cone, trivial on the 1-cone."""
    return VPhiElement(
        diagrams.tree_diagram(ctx, ["0", "1"], [ctx.label(g), ctx.one()], ["0", "1"])
    )


def lambda_u(ctx: Context, u: str, g: GroupElement) -> VPhiElement:
    """The element supported on the cone of u with single label g: g on
    the cone of u, trivial elsewhere, domain = range."""
    part = complete_to_partition([u])
    one = ctx.one()
    return element(ctx, part, [g if w == u else one for w in part], part)


def rho(a: VPhiElement) -> GroupElement:
    """First label of the reduced diagram; a retraction onto the label group.

    Only meaningful for the diagonal rule, where expansion copies the first
    label so the value does not depend on the representative.
    """
    _require_diagonal(a.context, "rho")
    return a.diagram.columns[0][1]


def v_strip(a: VPhiElement) -> VPhiElement:
    """Forget all labels; the projection onto the plain Thompson group.

    Only a homomorphism for the diagonal rule, where labels do not move
    points.
    """
    _require_diagonal(a.context, "stripping labels")
    one = a.context.one()
    cols = [(d, one, r) for d, _, r in a.diagram.columns]
    return VPhiElement(
        LabeledDiagram(a.context, cols, 1, 1)
    )


def in_lim_tree(a: VPhiElement) -> bool:
    """Kernel membership for the label-forgetting projection."""
    return v_strip(a).is_identity()


def v_functor(
    f: dict, a: VPhiElement, target: Context
) -> VPhiElement:
    """Apply a homomorphism to every label (diagonal contexts only).

    `f` maps source backend values to target backend values and is
    validated to be a homomorphism.
    """
    _require_diagonal(a.context, "the label functor")
    _require_diagonal(target, "the label functor")
    src = a.context.backend
    dst = target.backend
    if not src.is_finite():
        raise ValueError("homomorphisms are validated exhaustively; need finite G")
    if set(f) != set(src.element_values()):
        raise ValueError("map must be defined on every element")
    if f[src.identity_value()] != dst.identity_value():
        raise ValueError("map must send identity to identity")
    for x in src.element_values():
        for y in src.element_values():
            if f[src.mul(x, y)] != dst.mul(f[x], f[y]):
                raise ValueError("map is not a homomorphism")
    cols = [(d, dst.element(f[g.value]), r) for d, g, r in a.diagram.columns]
    return VPhiElement(LabeledDiagram(target, cols, 1, 1))


def commutator(a: VPhiElement, b: VPhiElement) -> VPhiElement:
    return a * b * ~a * ~b


def groupoid_identity(ctx: Context, roots: int) -> GroupoidElement:
    return GroupoidElement(diagrams.identity_diagram(ctx, roots))


def forest_element(
    ctx: Context,
    columns: Iterable[tuple[Leaf, GroupElement, Leaf]],
    m_roots: int,
    n_roots: int,
) -> GroupoidElement:
    cols = [(d, ctx.label(g), r) for d, g, r in columns]
    return GroupoidElement(LabeledDiagram(ctx, cols, m_roots, n_roots))


def generation_word(a: VPhiElement) -> list[tuple[str, object]]:
    """Rewrite a diagonal-context element as a word in caret embeddings of
    labels and label-free elements.

    Returns tokens ("iota", g) and ("plain", VPhiElement); evaluating the
    tokens left to right reproduces the element.  Follows the constructive
    generation argument: split off the label-free part, write the label
    part as a product of one-label elements, and conjugate each into the
    0-cone.
    """
    _require_diagonal(a.context, "the generation rewriting")
    ctx = a.context
    word: list[tuple[str, object]] = []
    cols = a.diagram.columns
    for (_, u), g, _ in cols:
        if g.is_identity():
            continue
        for out_u, out_g in ([(u, g)] if u else [("0", g), ("1", g)]):
            if out_u == "0":
                word.append(("iota", out_g))
            else:
                # move the 0-cone onto the target cone by a label-free element
                rest_src, rest_dst = padded_complements(["0"], [out_u])
                src = ["0"] + rest_src
                dst = [out_u] + rest_dst
                ones = [ctx.one()] * len(src)
                carrier = element(ctx, src, ones, dst)
                word.append(("plain", ~carrier))
                word.append(("iota", out_g))
                word.append(("plain", carrier))
    # the label-free part of a itself
    plain_cols = [(d, ctx.one(), r) for d, _, r in cols]
    word.append(("plain", VPhiElement(LabeledDiagram(ctx, plain_cols, 1, 1))))
    return word


def evaluate_generation_word(
    ctx: Context, word: Sequence[tuple[str, object]]
) -> VPhiElement:
    out = identity(ctx)
    for kind, payload in word:
        if kind == "iota":
            out = out * iota(ctx, payload)
        else:
            out = out * payload
    return out
