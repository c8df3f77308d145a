"""Labeled paired forest diagrams and the expansion/reduction calculus.

A diagram is a finite list of columns (domain leaf, label, range leaf)
whose domain leaves and range leaves each form a forest partition.  The
column at (u, g, v) splits into (u0, g0, v.(0)s) and (u1, g1, v.(1)s)
where ((g0, g1), s) is the image of g under the context's wreath
recursion; merging such a sibling pair back needs the recursion to be
injective.  Canonical storage sorts columns by domain leaf, so the leaf
permutation is derived, never stored.

Sibling domain leaves are adjacent in that order, so `reduce` and
`expand_to` are each one left-to-right walk over the columns, made of the
one-step moves `simple_reduce` and `simple_expand`.

Validation happens once, at the boundary.  The `LabeledDiagram`
constructor sorts the columns and checks both forest partitions and the
labels' group; `tree_diagram`, `from_parts`, `identity_diagram`, `invert`, the element
helpers and JSON all build through it.  The two one-step moves and
`compose` build their results with the unchecked `LabeledDiagram._trusted`,
because they cannot break a valid diagram, and so does
`complexes._class_element`, whose descending-link representatives are
valid and reduced by construction (see its docstring).  A move replaces a leaf by its
two children, or two sibling leaves by their parent, which keeps both
forest partitions; a leaf's children sort directly after it, so the
columns stay in domain order; and the new labels come from the context's
own recursion.  A product takes its columns from the expansions of two
valid diagrams to their common refinement, which `forest_refinement`
finds in one sorted pass over both leaf sets: its domain leaves are those of
the first expansion, in the same order, and its range leaves those of the
second, each once, since the first's range and the second's domain are the
refinement itself; its labels are products in the context's group.  So
neither the intermediate diagrams of a walk nor the products are checked
one by one.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .groups import (
    GroupBackend,
    GroupElement,
    WreathImage,
    WreathRecursion,
    injectivize,
)
from .words import Leaf, complete_to_partition, is_forest_partition

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
        order; nothing is sorted or checked.  Only the one-step moves,
        `compose` and `complexes._class_element` use it (see the module
        docstring for why their results are valid)."""
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

    def simple_expand(self, k: int) -> "LabeledDiagram":
        """Split column k via the recursion; the result represents the same
        groupoid element."""
        (root, u), g, (rroot, v) = self.columns[k]
        img = self.context.recursion.apply(g)
        cols = self.columns
        new = cols[:k] + (
            ((root, u + "0"), img.left, (rroot, v + img.apply_bit("0"))),
            ((root, u + "1"), img.right, (rroot, v + img.apply_bit("1"))),
        ) + cols[k + 1 :]
        return LabeledDiagram._trusted(self.context, new, self.m_roots, self.n_roots)

    def simple_reduce(self, k: int) -> Optional["LabeledDiagram"]:
        """Merge columns k, k+1 when they are a compatible sibling pair.

        Requires: sibling domain leaves, sibling range leaves, and a
        recursion preimage of the induced slot pair; returns None when the
        pair does not merge.
        """
        if k + 1 >= len(self.columns):
            return None
        (r0, u0), g0, (s0, v0) = self.columns[k]
        (r1, u1), g1, (s1, v1) = self.columns[k + 1]
        if r0 != r1 or not u0 or u0[:-1] != u1[:-1] or u0[-1] != "0" or u1[-1] != "1":
            return None
        if s0 != s1 or not v0 or not v1 or v0[:-1] != v1[:-1] or v0[-1] == v1[-1]:
            return None
        swap = v0[-1] == "1"
        g = self.context.recursion.preimage(
            WreathImage(g0, g1, swap)
        )
        if g is None:
            return None
        cols = self.columns
        new = cols[:k] + (((r0, u0[:-1]), g, (s0, v0[:-1])),) + cols[k + 2 :]
        return LabeledDiagram._trusted(self.context, new, self.m_roots, self.n_roots)

    def reduction_sites(self) -> list[int]:
        """Indices k where columns k, k+1 merge under simple_reduce."""
        return [k for k in range(len(self.columns) - 1) if self.simple_reduce(k) is not None]

    def reduce(self) -> "LabeledDiagram":
        """The unique reduced representative of this diagram's class.

        One left-to-right walk of an index k over the lex-sorted columns,
        trying simple_reduce(k) at each step.  Sibling domain leaves are
        adjacent, so a merge at k leaves one new column at k whose only
        possible partners are its neighbours: after a merge the walk steps
        back to k-1, otherwise it advances.  Every pair left of k stays
        unmergeable, so the walk ends on a reduced diagram.  Any other
        order ends on the same one: two merge sites never share a column
        (a site's left domain leaf ends in 0, its right one in 1), so merges
        at different sites commute, and each merge removes a column.
        """
        cur = self
        k = 0
        while k + 1 < len(cur.columns):
            merged = cur.simple_reduce(k)
            if merged is None:
                k += 1
            else:
                cur = merged
                k = max(k - 1, 0)
        return cur

    def is_reduced(self) -> bool:
        return not self.reduction_sites()

    def expand_to(
        self, target: Sequence[Leaf], on_range: bool = False
    ) -> "LabeledDiagram":
        """Expand until the domain (or, with on_range, the range) partition
        equals `target` exactly.

        One left-to-right walk: a column whose leaf is not in the target is
        split in place by simple_expand and examined again, since its two
        halves land at k and k+1.  Splitting a column always splits its
        range leaf into the two children, whatever the swap does to their
        pairing, so the same walk serves both sides.  A leaf that reaches
        the target's depth without matching shows that the target does not
        refine this partition.
        """
        side, name = (2, "range") if on_range else (0, "domain")
        want = set(target)
        depth = max((len(w) for _, w in want), default=0)
        cur = self
        k = 0
        while k < len(cur.columns):
            leaf = cur.columns[k][side]
            if leaf in want:
                k += 1
            elif len(leaf[1]) < depth:
                cur = cur.simple_expand(k)
            else:
                raise ValueError(f"target does not refine the {name}")
        if len(cur.columns) != len(want):
            raise ValueError(f"target does not refine the {name}")
        return cur

    def inverse_columns(self) -> list[Column]:
        return [(r, ~g, d) for d, g, r in self.columns]


def forest_refinement(p: Sequence[Leaf], q: Sequence[Leaf]) -> list[Leaf]:
    """Coarsest common refinement of two forest partitions on the same roots.

    The inputs are leaves of validated diagrams and are not checked again;
    `expand_to` refuses a target that its expansion does not reach exactly.
    In (root, word) order a leaf's extensions sort directly after it, so a
    leaf is kept unless its successor extends it under the same root.
    """
    pool = sorted(set(p) | set(q))
    out = [a for a, b in zip(pool, pool[1:]) if a[0] != b[0] or not b[1].startswith(a[1])]
    out.append(pool[-1])
    return out


def compose(a: LabeledDiagram, b: LabeledDiagram) -> LabeledDiagram:
    """Groupoid composition (first a, then b), reduced.

    Expands a's range and b's domain to their common refinement, matches
    columns through it, and multiplies labels; the convention is the right
    action (w)(ab) = ((w)a)b.
    """
    if a.context is not b.context:
        raise ContextMismatch("cannot compose elements of different contexts")
    if a.n_roots != b.m_roots:
        raise ValueError(
            f"arity mismatch: {a.n_roots} range roots vs {b.m_roots} domain roots"
        )
    mid = forest_refinement(a.range_(), b.domain())
    ax = a.expand_to(mid, on_range=True)
    bx = b.expand_to(mid)
    bcols = {d: (g, r) for d, g, r in bx.columns}
    cols = []
    for d, g, r in ax.columns:
        h, w = bcols[r]
        cols.append((d, g * h, w))
    return LabeledDiagram._trusted(a.context, tuple(cols), a.m_roots, b.n_roots).reduce()


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


def from_parts(
    context: Context,
    domain: Sequence[str],
    labels: Sequence[GroupElement],
    sigma: Sequence[int],
    ranges: Sequence[str],
) -> LabeledDiagram:
    """Tree diagram [T, (labels, sigma), S]: column i pairs the i-th domain
    leaf with the sigma(i)-th range leaf (both in lex order, 0-indexed)."""
    dom = sorted(domain)
    ran = sorted(ranges)
    if sorted(sigma) != list(range(len(dom))):
        raise ValueError("sigma must be a permutation of the leaf ranks")
    return tree_diagram(
        context, dom, labels, [ran[sigma[i]] for i in range(len(dom))]
    )


def lambda_diagram(context: Context, u: str, g: GroupElement) -> LabeledDiagram:
    """Single label g on the cone of u, trivial elsewhere, domain = range."""
    part = complete_to_partition([u]) if u else [""]
    one = context.one()
    labels = [context.label(g) if w == u else one for w in part]
    return tree_diagram(context, part, labels, part).reduce()
