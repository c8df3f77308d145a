"""Reference diagram kernel for differential tests.

The rescanning route that the one-pass kernel in ``labeled_thompson.diagrams``
replaced: ``reduce`` finds every merge site, merges the deepest one and
scans again; ``compose`` expands to a common refinement computed by an
all-pairs prefix scan, expanding the first leaf that is not in the target
and rescanning after every split.  Slow (about cubic in the column count),
but it shares no walk logic with the library, which is what makes it a
useful reference.  Only the column moves ``simple_expand`` and
``simple_reduce`` are reused.

``expand_at``, ``merge_at`` and ``reduction_sites`` are the diagram-level
one-step moves that the tests take: each applies a column move at one index
and rebuilds the diagram through the validating ``LabeledDiagram``
constructor, so every move a test makes is checked.

``complete_to_partition`` is the word-layer completion that the library's
set difference replaced: it scans the words chosen so far for one that
each new sibling extends.  ``common_refinement`` and ``forest_refinement``
are the all-pairs prefix scan, root by root.

``column_at`` and ``locate`` are the linear column scans that the
bisection of ``VPhiElement._column`` replaced: the first column whose
domain word is a prefix of the word, or of the point.

``lsupp_approx`` is the per-cone support loop that the block walk in
``labeled_thompson.germs`` replaced: it reads every one of the 2^depth
cones from its column root again, and skips nothing.
"""

from __future__ import annotations

from labeled_thompson.diagrams import ContextMismatch, LabeledDiagram
from labeled_thompson.germs import SupportApprox, cone_data
from labeled_thompson.words import is_partition_set, sibling


def expand_at(d: LabeledDiagram, k: int) -> LabeledDiagram:
    """d with column k split into its two children."""
    cols = list(d.columns)
    cols[k : k + 1] = LabeledDiagram.simple_expand(d.context, cols[k])
    return LabeledDiagram(d.context, cols, d.m_roots, d.n_roots)


def merge_at(d: LabeledDiagram, k: int) -> LabeledDiagram | None:
    """d with columns k, k+1 merged into their parent, or None when they are
    not a compatible sibling pair."""
    if k + 1 >= len(d.columns):
        return None
    parent = LabeledDiagram.simple_reduce(d.context, d.columns[k], d.columns[k + 1])
    if parent is None:
        return None
    cols = list(d.columns)
    cols[k : k + 2] = [parent]
    return LabeledDiagram(d.context, cols, d.m_roots, d.n_roots)


def reduction_sites(d: LabeledDiagram) -> list[int]:
    """Indices k where columns k, k+1 merge."""
    cols = d.columns
    return [
        k
        for k in range(len(cols) - 1)
        if LabeledDiagram.simple_reduce(d.context, cols[k], cols[k + 1]) is not None
    ]


def reduce(d: LabeledDiagram) -> LabeledDiagram:
    """Repeatedly merge the deepest mergeable sibling pair."""
    cur = d
    while True:
        sites = reduction_sites(cur)
        if not sites:
            return cur
        k = max(sites, key=lambda i: len(cur.columns[i][0][1]))
        cur = merge_at(cur, k)


def complete_to_partition(words) -> list[str]:
    """Adds the sibling of every prefix step not yet covered, after
    scanning every word chosen so far for one it extends."""
    chosen = sorted(set(words))
    if chosen == [""]:
        return [""]
    for a, b in zip(chosen, chosen[1:]):
        if b.startswith(a):
            raise ValueError(f"cones of {a!r} and {b!r} intersect")
    needed: set[str] = set(chosen)
    covered: set[str] = set()
    for w in chosen:
        for i in range(len(w)):
            covered.add(w[: i + 1])
    for w in chosen:
        for i in range(len(w)):
            sib = sibling(w[: i + 1])
            if sib not in covered and not any(sib.startswith(c) for c in needed):
                needed.add(sib)
    out = sorted(needed)
    assert is_partition_set(out)
    return out


def common_refinement(p, q) -> list[str]:
    pool = set(p) | set(q)
    out = sorted(w for w in pool if not any(x != w and x.startswith(w) for x in pool))
    assert is_partition_set(list(p)) and is_partition_set(list(q))
    assert is_partition_set(out)
    return out


def forest_refinement(p, q, roots: int):
    out = []
    for r in range(roots):
        pr = [w for root, w in p if root == r]
        qr = [w for root, w in q if root == r]
        out.extend((r, w) for w in common_refinement(pr, qr))
    return out


def expand_to(d: LabeledDiagram, target, side: int) -> LabeledDiagram:
    """Expand until the leaves on `side` (0 domain, 2 range) equal `target`."""
    want = set(target)
    cur = d
    while True:
        leaves = [c[side] for c in cur.columns]
        if set(leaves) == want:
            return cur
        for k, leaf in enumerate(leaves):
            if leaf not in want:
                if not any(u[0] == leaf[0] and u[1].startswith(leaf[1]) for u in want):
                    raise ValueError("target does not refine the diagram")
                cur = expand_at(cur, k)
                break
        else:
            raise ValueError("target does not refine the diagram")


def compose(a: LabeledDiagram, b: LabeledDiagram) -> LabeledDiagram:
    if a.context is not b.context:
        raise ContextMismatch("cannot compose elements of different contexts")
    if a.n_roots != b.m_roots:
        raise ValueError("arity mismatch")
    mid = forest_refinement(a.range_(), b.domain(), a.n_roots)
    ax = expand_to(a, mid, 2)
    bx = expand_to(b, mid, 0)
    bcols = {d: (g, r) for d, g, r in bx.columns}
    cols = []
    for d, g, r in ax.columns:
        h, w = bcols[r]
        cols.append((d, g * h, w))
    return reduce(LabeledDiagram(a.context, cols, a.m_roots, b.n_roots))


def column_at(a, w: str):
    """The column whose domain word is a prefix of w, or None."""
    for col in a.diagram.columns:
        if w.startswith(col[0][1]):
            return col
    return None


def locate(a, point):
    """The column whose domain word is a prefix of the point."""
    for col in a.diagram.columns:
        u = col[0][1]
        if point.head(len(u)) == u:
            return col
    raise AssertionError("partition sets cover every point")


def lsupp_approx(a, depth: int) -> SupportApprox:
    """Cones of the given depth that do not read (u, 1, u), one by one."""
    included = []
    for i in range(1 << depth):
        u = format(i, f"0{depth}b") if depth else ""
        g, v = cone_data(a, u)
        if not (g.is_identity() and v == u):
            included.append(u)
    return SupportApprox(depth, frozenset(included))
