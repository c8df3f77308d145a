"""Labeled paired forest diagrams and the expansion/reduction calculus.

A diagram is a finite list of columns (domain leaf, label, range leaf)
whose domain leaves and range leaves each form a forest partition.  The
column at (u, g, v) splits into (u0, g0, v.(0)s) and (u1, g1, v.(1)s)
where ((g0, g1), s) is the image of g under the context's wreath
recursion; merging such a sibling pair back needs the recursion to be
injective.  Canonical storage sorts columns by domain leaf, so the leaf
permutation is derived, never stored.

Sibling domain leaves are adjacent in that order, so `reduce` is one
left-to-right pass over the columns, made of the column move
`simple_reduce`; `compose` is one pass over the first factor's columns,
splitting columns of either factor with `simple_expand` as it needs them.

Validation happens once, at the boundary.  The `LabeledDiagram`
constructor sorts the columns and checks both forest partitions and the
labels' group; `tree_diagram`, `identity_diagram`, `invert`, the element
constructors and JSON all build through it.  `reduce` and `compose`
build their results with the unchecked `LabeledDiagram._trusted`, because
they cannot break a valid diagram, and so does `complexes._class_element`,
whose descending-link representatives are valid and reduced by
construction (see its docstring).  The trust argument covers one column
move at a time: a move replaces a leaf by its two children, or two sibling
leaves by their parent, which keeps both forest partitions; a leaf's
children sort directly after it, so the columns stay in domain order; and
the new labels come from the context's own recursion.  A product emits
one column for each leaf of the common refinement of a's range and b's
domain: a column of a, whole or split by column moves, paired with the
column of b, whole or split, at its range leaf.  Its domain leaves are
a's, split, in a's domain order; its range leaves are b's, split, each
once, since every refinement leaf is one range leaf of the split a and one
domain leaf of the split b; and its labels are products in the context's
group.  So neither the moves of a pass nor the products are checked one
by one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional, Sequence

from .groups import (
    GroupBackend,
    GroupElement,
    WreathImage,
    WreathRecursion,
    injectivize,
)
from .words import Leaf, is_forest_partition

Column = tuple[Leaf, GroupElement, Leaf]


class ContextMismatch(ValueError):
    pass


class Context:
    """A group backend paired with a wreath recursion.

    Elements only compose within one context.  The working recursion is
    always injective, which is what lets sibling columns merge: when the
    given recursion is not, and the group is finite, the context routes
    through the injectivization tower, so labels handed to constructors are
    quotient-mapped and equality of elements is equality in the quotient
    picture, which loses nothing.  Over an infinite group a non-injective
    recursion raises ValueError.
    """

    def __init__(self, backend: GroupBackend, recursion: WreathRecursion):
        if recursion.backend is not backend:
            raise ValueError("recursion must live on the given backend")
        self.source_backend = backend
        self.source_recursion = recursion
        if recursion.is_injective():
            self.backend = backend
            self.recursion = recursion
            self.pi_hat = None
            self.tower_steps = 0
        else:
            hat_g, pi_hat, hat_phi, steps = injectivize(recursion)
            self.backend = hat_g
            self.recursion = hat_phi
            self.pi_hat = pi_hat
            self.tower_steps = steps

    def label(self, g: GroupElement) -> GroupElement:
        """Coerce a source-group label into the working (injective) picture."""
        if g.backend is self.backend:
            return g
        if g.backend is self.source_backend and self.pi_hat is not None:
            return self.pi_hat(g)
        raise ContextMismatch("label does not belong to this context")

    def one(self) -> GroupElement:
        return self.backend.one()

    def parse_label(self, token: str) -> GroupElement:
        return self.label(self.source_backend.parse(token))

    @property
    def rule(self) -> str:
        return self.recursion.rule

    def __repr__(self):
        return f"Context({self.source_backend!r}, {self.source_recursion!r})"


def _require_diagonal(context: Context, operation: str) -> None:
    """The one guard of the operations that only the diagonal rule makes
    well defined."""
    if context.rule != "diagonal":
        raise ValueError(f"{operation} is defined only for the diagonal rule")


class LabeledDiagram:
    """Canonical column form of a labeled paired forest diagram."""

    __slots__ = ("context", "columns", "m_roots", "n_roots")

    def __init__(
        self,
        context: Context,
        columns: Iterable[Column],
        m_roots: int = 1,
        n_roots: int = 1,
    ):
        cols = sorted(columns, key=lambda c: c[0])
        if not cols:
            raise ValueError("a diagram needs at least one column")
        doms = [c[0] for c in cols]
        rans = [c[2] for c in cols]
        if not is_forest_partition(doms, m_roots):
            raise ValueError("domain leaves do not form a forest partition")
        if not is_forest_partition(rans, n_roots):
            raise ValueError("range leaves do not form a forest partition")
        for _, g, _ in cols:
            if g.backend is not context.backend:
                raise ContextMismatch("labels must live in the context's group")
        self.context = context
        self.columns = tuple(cols)
        self.m_roots = m_roots
        self.n_roots = n_roots

    @classmethod
    def _trusted(
        cls,
        context: Context,
        columns: tuple[Column, ...],
        m_roots: int,
        n_roots: int,
    ) -> "LabeledDiagram":
        """A diagram from columns already known to be valid and in domain
        order; nothing is sorted or checked.  Only `reduce`, `compose` and
        `complexes._class_element` use it (see the module docstring for why
        their results are valid)."""
        d = object.__new__(cls)
        d.context = context
        d.columns = columns
        d.m_roots = m_roots
        d.n_roots = n_roots
        return d

    # -- bookkeeping ---------------------------------------------------

    def domain(self) -> list[Leaf]:
        return [c[0] for c in self.columns]

    def range_(self) -> list[Leaf]:
        return [c[2] for c in self.columns]

    def sigma(self) -> tuple[int, ...]:
        """Derived leaf permutation: column i -> lex rank of its range leaf."""
        rans = sorted(range(len(self.columns)), key=lambda i: self.columns[i][2])
        rank = [0] * len(self.columns)
        for r, i in enumerate(rans):
            rank[i] = r
        return tuple(rank)

    def labels(self) -> list[GroupElement]:
        return [c[1] for c in self.columns]

    def key(self):
        """Hashable canonical key (columns with raw label values)."""
        return (
            self.m_roots,
            self.n_roots,
            tuple((d, g.value, r) for d, g, r in self.columns),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LabeledDiagram)
            and self.context is other.context
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((id(self.context), self.key()))

    def __repr__(self):
        def leaf(l: Leaf) -> str:
            r, w = l
            word = w if w else "eps"
            return word if self.m_roots == self.n_roots == 1 else f"{r}:{word}"

        cols = "; ".join(f"{leaf(d)}|{g!r}|{leaf(r)}" for d, g, r in self.columns)
        return f"[{cols}]"

    # -- the calculus ----------------------------------------------------

    @staticmethod
    def simple_expand(context: Context, column: Column) -> tuple[Column, Column]:
        """Split one column via the recursion into its two children, in
        domain order; together they represent the same map."""
        (root, u), g, (rroot, v) = column
        img = context.recursion.apply(g)
        return (
            ((root, u + "0"), img.left, (rroot, v + img.apply_bit("0"))),
            ((root, u + "1"), img.right, (rroot, v + img.apply_bit("1"))),
        )

    @staticmethod
    def simple_reduce(context: Context, left: Column, right: Column) -> Optional[Column]:
        """The parent of two adjacent columns, or None unless their domain
        leaves and their range leaves are siblings and the induced slot pair
        has a recursion preimage."""
        (r0, u0), g0, (s0, v0) = left
        (r1, u1), g1, (s1, v1) = right
        if r0 != r1 or not u0 or u0[:-1] != u1[:-1] or u0[-1] != "0" or u1[-1] != "1":
            return None
        if s0 != s1 or not v0 or not v1 or v0[:-1] != v1[:-1] or v0[-1] == v1[-1]:
            return None
        g = context.recursion.preimage(WreathImage(g0, g1, v0[-1] == "1"))
        if g is None:
            return None
        return ((r0, u0[:-1]), g, (s0, v0[:-1]))

    def reduce(self) -> "LabeledDiagram":
        """The unique reduced representative of this diagram's class; self
        when nothing merges.

        One pass over the lex-sorted columns: each incoming column merges
        with the top of a stack while simple_reduce gives a parent, which is
        then pushed.  Sibling domain leaves are adjacent, so a merged
        column's only partners are the top of the stack and the next
        incoming column, and the pass ends on a reduced diagram.  Any other
        order ends on the same one: two merge sites never share a column (a
        site's left domain leaf ends in 0, its right one in 1), so merges at
        different sites commute, and each merge removes a column.
        """
        context = self.context
        stack: list[Column] = []
        for col in self.columns:
            while stack:
                parent = LabeledDiagram.simple_reduce(context, stack[-1], col)
                if parent is None:
                    break
                stack.pop()
                col = parent
            stack.append(col)
        if len(stack) == len(self.columns):
            return self
        return LabeledDiagram._trusted(context, tuple(stack), self.m_roots, self.n_roots)

    def is_reduced(self) -> bool:
        return self.reduce() is self

    def inverse_columns(self) -> list[Column]:
        return [(r, ~g, d) for d, g, r in self.columns]


def compose(a: LabeledDiagram, b: LabeledDiagram) -> LabeledDiagram:
    """Groupoid composition (first a, then b), reduced; the convention is
    the right action (w)(ab) = ((w)a)b.

    One pass over a's columns in domain order, matching each range leaf r
    of a with b's domain leaf at r.  When b has no leaf at r, its leaves
    either split r's cone or one of them is a proper prefix of r.  In the
    first case a's column is split, depth first with the left child on
    top, so the product's columns stay in domain order; its children are
    never finer than b's leaves.  In the second, b's covering column, the
    one at the greatest domain leaf up to r, is split down to r, and every
    split joins the lookup of b's columns by domain leaf.  So a node of the
    common refinement is split once on each side, in whatever order a's
    range leaves visit b's columns.
    """
    if a.context is not b.context:
        raise ContextMismatch("cannot compose elements of different contexts")
    if a.n_roots != b.m_roots:
        raise ValueError(
            f"arity mismatch: {a.n_roots} range roots vs {b.m_roots} domain roots"
        )
    context = a.context
    bdom = b.domain()
    bcols = {c[0]: c for c in b.columns}
    cols: list[Column] = []
    for col in a.columns:
        todo = [col]
        while todo:
            d, g, r = col = todo.pop()
            match = bcols.get(r)
            if match is None:
                root, word = r
                i = bisect_right(bdom, r)
                cover_root, cover = bdom[i - 1] if i else (None, "")
                if cover_root != root or not word.startswith(cover):
                    todo += reversed(LabeledDiagram.simple_expand(context, col))
                    continue
                match = b.columns[i - 1]
                for k in range(len(cover) + 1, len(word) + 1):
                    child = bcols.get((root, word[:k]))
                    if child is None:
                        left, right = LabeledDiagram.simple_expand(context, match)
                        bcols[left[0]] = left
                        bcols[right[0]] = right
                        child = left if word[k - 1] == "0" else right
                    match = child
            cols.append((d, g * match[1], match[2]))
    return LabeledDiagram._trusted(context, tuple(cols), a.m_roots, b.n_roots).reduce()


def invert(a: LabeledDiagram) -> LabeledDiagram:
    """The inverse diagram, with domain and range exchanged.

    Not reduced again: it is reduced whenever a is, as for every element
    (the recursion is an injective homomorphism, so each merge of the
    inverse would be a merge of a).
    """
    return LabeledDiagram(a.context, a.inverse_columns(), a.n_roots, a.m_roots)


def identity_diagram(context: Context, roots: int = 1) -> LabeledDiagram:
    one = context.one()
    cols = [((r, ""), one, (r, "")) for r in range(roots)]
    return LabeledDiagram(context, cols, roots, roots)


def tree_diagram(
    context: Context,
    domain: Sequence[str],
    labels: Sequence[GroupElement],
    ranges: Sequence[str],
) -> LabeledDiagram:
    """Tree diagram from parallel word/label/word sequences."""
    if not (len(domain) == len(labels) == len(ranges)):
        raise ValueError("column data must have equal lengths")
    cols = [
        ((0, u), context.label(g), (0, v))
        for u, g, v in zip(domain, labels, ranges)
    ]
    return LabeledDiagram(context, cols, 1, 1)

