"""Finite simplicial complexes and exact integer homology.

Covers the two complex families the library can materialize: matching
complexes on n points, and the descending-link complexes of height-n
vertices for a finite label group.  Both are built from one enumerator of
the matchings of K_n, and both are sized exactly before anything is listed:
M_n has sum_j (#j-matchings) simplices and the descending link
sum_j (#j-matchings) (2|G|)^j classes.  Past MAX_MATCHING_SIMPLICES or
MAX_DLINK_CLASSES the constructors raise ValueError.  Descending links are
built twice, by independent routes: one canonical form per orbit of the
wreath action, with faces computed by groupoid re-splitting, and the
fiber-join over the matching complex through the forgetful map.  Homology
uses Smith normal form over the integers: unit pivots are eliminated
sparsely and exactly, and the dense code (numpy int64 fast path with an
exact object-dtype fallback) finishes the residual block that has no unit
left.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .diagrams import Context, LabeledDiagram
from .elements import GroupoidElement

# size limits, checked by exact counts before anything is listed: M_14
# (2,390,479 simplices) and Z/2 diagonal n=8 (57,232 classes) are admitted,
# M_15 and Z/2 diagonal n=9 (328,752 classes) are refused
MAX_MATCHING_SIMPLICES = 1 << 22
MAX_DLINK_CLASSES = 1 << 16


class SimplicialComplex:
    """Vertex-keyed finite complex, closed under faces.

    Simplex entries must be vertex indices: ints in range(len(vertices)).
    """

    def __init__(self, vertices: Sequence, simplices: Iterable[tuple[int, ...]]):
        self.vertices = list(vertices)
        nv = len(self.vertices)
        closed: set[tuple[int, ...]] = set()
        raw = [tuple(s) for s in simplices]
        entries = list(itertools.chain.from_iterable(raw))
        if entries and (
            set(map(type, entries)) != {int} or min(entries) < 0 or max(entries) >= nv
        ):
            bad = next(v for v in entries if type(v) is not int or not 0 <= v < nv)
            raise ValueError(f"simplex entry {bad!r} is not a vertex index")
        stack = [tuple(sorted(s)) for s in raw]
        for s in stack:
            if len(set(s)) != len(s):
                raise ValueError(f"degenerate simplex {s}")
        while stack:
            s = stack.pop()
            if s in closed or not s:
                continue
            closed.add(s)
            if len(s) > 1:
                for i in range(len(s)):
                    stack.append(s[:i] + s[i + 1:])
        for v in range(nv):
            closed.add((v,))
        self.simplices = closed
        self._by_dim: list[list[tuple[int, ...]]] | None = None

    def _index(self) -> list[list[tuple[int, ...]]]:
        """Sorted k-simplices for k = 0..dimension, built on first use."""
        if self._by_dim is None:
            top = max(map(len, self.simplices), default=0)
            by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(top)]
            for s in self.simplices:
                by_dim[len(s) - 1].append(s)
            for faces in by_dim:
                faces.sort()
            self._by_dim = by_dim
        return self._by_dim

    def dimension(self) -> int:
        return len(self._index()) - 1

    def k_simplices(self, k: int) -> list[tuple[int, ...]]:
        by_dim = self._index()
        return list(by_dim[k]) if 0 <= k < len(by_dim) else []

    def f_vector(self) -> list[int]:
        return [len(faces) for faces in self._index()]

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """The simplices that are no codimension-1 face of another; in a
        complex closed under faces these are exactly the maximal ones."""
        covered = {
            s[:i] + s[i + 1:]
            for s in self.simplices
            if len(s) > 1
            for i in range(len(s))
        }
        return sorted(s for s in self.simplices if s not in covered)

    def connected_components(self) -> int:
        """Component count by union-find; independent of the chain complex."""
        parent = list(range(len(self.vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in self.k_simplices(1):
            a, b = find(s[0]), find(s[1])
            if a != b:
                parent[a] = b
        return len({find(v) for v in range(len(self.vertices))})

    def boundary_matrix(self, k: int) -> np.ndarray:
        """Integer matrix of the boundary map C_k -> C_{k-1}; k = 0 gives
        the augmentation onto the empty simplex (reduced homology)."""
        cols = self.k_simplices(k)
        if k == 0:
            return np.ones((1, len(cols)), dtype=np.int64)
        rows = {s: i for i, s in enumerate(self.k_simplices(k - 1))}
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for j, s in enumerate(cols):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                mat[rows[face], j] = (-1) ** i
        return mat

    def to_json(self) -> dict:
        return {
            "vertices": [str(v) for v in self.vertices],
            "maximal": [list(s) for s in self.maximal_simplices()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SimplicialComplex":
        return cls(data["vertices"], [tuple(s) for s in data["maximal"]])


def smith_diagonal(mat: np.ndarray) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-chained.

    Unit pivots are eliminated sparsely and exactly (Dumas-Saunders-Villard,
    J. Symbolic Comput. 2001): the shortest column first, within it the
    +-1 entry whose row is shortest; each one adds a 1 to the diagonal.
    The dense code finishes the residual block that has no unit left: it
    pivots on the minimal absolute value, runs in int64 and retries with
    exact big integers whenever entries threaten to overflow.
    """
    if mat.size == 0:
        return []
    units, residual = _eliminate_units(mat)
    tail: list[int] = []
    if residual.size:
        try:
            tail = _smith_work(residual.astype(np.int64), guard=True)
        except OverflowError:
            tail = _smith_work(residual, guard=False)
    return [1] * units + tail


def _eliminate_units(mat: np.ndarray) -> tuple[int, np.ndarray]:
    """Eliminate unit pivots of mat by exact sparse column operations.

    A pivot u = +-1 at (p, j) clears row p by subtracting multiples of
    column j from the other columns; column j is then cleared by row
    operations that touch nothing else, so the Smith form of mat is a 1
    followed by that of mat without row p and column j.  Returns the
    number of pivots and the residual block as an object array of Python
    ints (fill-in may exceed int64).
    """
    cols: list[dict[int, int] | None] = [{} for _ in range(mat.shape[1])]
    rows: dict[int, set[int]] = {}
    nz = np.nonzero(mat)
    for i, j, v in zip(nz[0].tolist(), nz[1].tolist(), mat[nz].tolist()):
        cols[j][i] = int(v)
        rows.setdefault(i, set()).add(j)
    # shortest live column first; a column re-enters whenever it changes,
    # and an entry whose length is stale is skipped
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    units = 0
    while heap:
        size, j = heapq.heappop(heap)
        col = cols[j]
        if col is None or len(col) != size:
            continue
        p = min(
            (i for i, v in col.items() if v == 1 or v == -1),
            key=lambda i: len(rows[i]),
            default=None,
        )
        if p is None:
            continue
        u = col[p]
        for k in rows.pop(p):
            if k == j:
                continue
            other = cols[k]
            f = other[p] * u
            for i, v in col.items():
                w = other.get(i, 0) - f * v
                if w:
                    if i not in other:
                        rows[i].add(k)
                    other[i] = w
                else:
                    del other[i]
                    if i != p:
                        rows[i].discard(k)
            if other:
                heapq.heappush(heap, (len(other), k))
        for i in col:
            if i != p:
                rows[i].discard(j)
        cols[j] = None
        units += 1
    live_rows = sorted(i for i, js in rows.items() if js)
    live_cols = [j for j, col in enumerate(cols) if col]
    where = {i: r for r, i in enumerate(live_rows)}
    residual = np.zeros((len(live_rows), len(live_cols)), dtype=object)
    for c, j in enumerate(live_cols):
        for i, v in cols[j].items():
            residual[where[i], c] = v
    return units, residual


def _smith_work(a: np.ndarray, guard: bool) -> list[int]:
    # int64 stays exact while entries are below 2^30: one elimination step
    # forms products of two entries, well inside 2^63
    limit = 1 << 30
    m, n = a.shape
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        if guard and np.abs(a[t:, t:]).max(initial=0) > limit:
            raise OverflowError
        sub = a[t:, t:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        vals = np.abs(sub[nz])
        k = int(np.argmin(vals))
        i, j = int(nz[0][k]) + t, int(nz[1][k]) + t
        if i != t:
            a[[t, i], :] = a[[i, t], :]
        if j != t:
            a[:, [t, j]] = a[:, [j, t]]
        if a[t, t] < 0:
            a[t, :] = -a[t, :]
        pivot = int(a[t, t])
        col = a[t + 1:, t]
        row = a[t, t + 1:]
        if not col.any() and not row.any():
            diag.append(pivot)
            t += 1
            continue
        q = col // pivot
        if q.any():
            a[t + 1:, :] -= np.outer(q, a[t, :])
        q = row // pivot
        if q.any():
            a[:, t + 1:] -= np.outer(a[:, t], q)
    # any diagonal form repairs to the true normal form by pairwise
    # gcd/lcm exchanges, which sort every prime's exponents into a chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = math.gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return [int(abs(d)) for d in diag]


@dataclass(frozen=True)
class HomologyResult:
    """Reduced Betti numbers and torsion, by dimension."""

    betti: dict
    torsion: dict
    f_vector: tuple[int, ...] = field(default_factory=tuple)

    def is_trivial_through(self, top: int) -> bool:
        return all(
            self.betti.get(i, 0) == 0 and not self.torsion.get(i, ())
            for i in range(top + 1)
        )

    def to_json(self) -> list[dict]:
        return [
            {"dim": i, "betti": self.betti[i], "torsion": list(self.torsion[i])}
            for i in sorted(self.betti)
        ]


def homology(cx: SimplicialComplex, up_to: int) -> HomologyResult:
    """Reduced integer homology through dimension `up_to`.

    Betti_k = dim ker d_k - rank d_{k+1}; torsion in dimension k is the
    set of nontrivial elementary divisors of d_{k+1}.  `up_to` may not
    exceed the number of vertices: no simplex on v vertices has dimension
    v or more, so every further group is zero.
    """
    if up_to > len(cx.vertices):
        raise ValueError(
            f"up_to {up_to} exceeds the {len(cx.vertices)} vertices of the "
            "complex; every homology group past them is zero"
        )
    betti: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    ranks: dict[int, int] = {}
    divisors: dict[int, list[int]] = {}
    for k in range(up_to + 2):
        divisors[k] = smith_diagonal(cx.boundary_matrix(k))
        ranks[k] = len(divisors[k])
    for k in range(up_to + 1):
        n_k = len(cx.k_simplices(k))
        kernel = n_k - ranks[k]
        betti[k] = kernel - ranks[k + 1]
        torsion[k] = tuple(d for d in divisors[k + 1] if d > 1)
        if betti[k] < 0:
            raise AssertionError("negative Betti number: rank computation broken")
    result = HomologyResult(betti, torsion, tuple(cx.f_vector()))
    _check_euler(cx, result, up_to)
    return result


def _check_euler(cx: SimplicialComplex, res: HomologyResult, up_to: int):
    """Euler consistency on the full complex when it was fully resolved."""
    if up_to < cx.dimension():
        return
    chi_faces = sum((-1) ** k * f for k, f in enumerate(cx.f_vector())) - 1
    chi_homology = sum((-1) ** k * b for k, b in res.betti.items())
    if chi_faces != chi_homology:
        raise AssertionError("Euler characteristic mismatch")


# -- matching complexes ------------------------------------------------------


def _matchings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The nonempty matchings of K_n on the points 0..n-1, each as a tuple
    of edges (a, c) with a < c, listed by increasing a."""

    def grow(edges: tuple, free: tuple) -> Iterator[tuple]:
        # free: the unmatched points past the last edge's a; a point passed
        # over as an a can never be matched later, since every later edge
        # has a larger a and c > a
        for i, a in enumerate(free):
            for k in range(i + 1, len(free)):
                more = edges + ((a, free[k]),)
                yield more
                yield from grow(more, free[i + 1:k] + free[k + 1:])

    return grow((), tuple(range(n)))


def _matching_count(n: int, weight: int, stop: float) -> int:
    """Sum over j >= 1 of (number of j-edge matchings of K_n) * weight^j,
    or the first partial sum, over K_k for some k < n, past `stop`.

    T(k) = T(k-1) + weight (k-1) T(k-2) counts the weighted matchings of
    K_k, the empty one included: point k is unmatched, or matched to one
    of the k-1 others.  Weight 1 counts the simplices of M_n, weight 2|G|
    the descending-link classes at height n.  T grows with k, so a partial
    sum past `stop` shows the full one is too; stopping there keeps the
    check short on large n, where T(n) has about n log n digits.
    """
    prev, cur = 1, 1
    for k in range(2, n + 1):
        if cur - 1 > stop:
            break
        prev, cur = cur, cur + weight * (k - 1) * prev
    return cur - 1


def matching_complex(n: int) -> SimplicialComplex:
    """Vertices are 2-subsets of {1..n}; faces are partial matchings.

    Refuses, before listing any, complexes of more than
    MAX_MATCHING_SIMPLICES simplices (M_15 and up)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if _matching_count(n, 1, MAX_MATCHING_SIMPLICES) > MAX_MATCHING_SIMPLICES:
        raise ValueError(
            f"M_{n} has more than MAX_MATCHING_SIMPLICES = "
            f"{MAX_MATCHING_SIMPLICES:,} simplices"
        )
    verts = list(itertools.combinations(range(1, n + 1), 2))
    index = {(a - 1, c - 1): i for i, (a, c) in enumerate(verts)}
    simplices = [tuple(index[e] for e in m) for m in _matchings(n)]
    return SimplicialComplex(verts, simplices)


def connectivity_bound(n: int) -> int:
    """Dimension through which homology must vanish at height n."""
    return (n + 1) // 3 - 2


# -- descending links --------------------------------------------------------


def _splitting(ctx: Context, roots: int, carets: Sequence[int]) -> GroupoidElement:
    """The label-free splitter [F_J, 1, 1_(roots+|J|)]: domain has a caret
    at each listed root, range is the expanded row of bare roots."""
    cols = []
    out = 0
    one = ctx.one()
    cset = set(carets)
    for r in range(roots):
        if r in cset:
            cols.append(((r, "0"), one, (out, "")))
            out += 1
            cols.append(((r, "1"), one, (out, "")))
            out += 1
        else:
            cols.append(((r, ""), one, (out, "")))
            out += 1
    return GroupoidElement(LabeledDiagram(ctx, cols, roots, out))


def _forest_leaves(m: int, carets: Sequence[int]) -> list:
    """Leaves of the elementary forest F_J on m roots, in lex order."""
    leaves: list = []
    cset = set(carets)
    for r in range(m):
        if r in cset:
            leaves.append((r, "0"))
            leaves.append((r, "1"))
        else:
            leaves.append((r, ""))
    return leaves


def _class_tuple(d: LabeledDiagram) -> tuple:
    """(labels, sigma, caret roots) read off a [1_n, (g, s), F_J] diagram."""
    labels = tuple(g.value for _, g, _ in d.columns)
    carets = tuple(sorted({r for _, _, (r, w) in d.columns if w}))
    return labels, d.sigma(), carets


def _class_element(
    ctx: Context, n: int, labels: Sequence, sigma: Sequence[int], carets: Sequence[int]
) -> GroupoidElement:
    """[1_n, (labels, sigma), F_J]: domain root i pairs with the
    sigma(i)-th lex leaf of the elementary range forest."""
    m = n - len(carets)
    leaves = _forest_leaves(m, carets)
    cols = [
        ((i, ""), ctx.backend.element(labels[i]), leaves[sigma[i]]) for i in range(n)
    ]
    return GroupoidElement(LabeledDiagram(ctx, cols, n, m))


class CaretOrbits:
    """The right action of the wreath elements, one range root at a time.

    A range root of F_J is a caret, fed by two domain roots a < c, or bare,
    fed by one.  Right multiplication by the wreath element (h, tau) moves
    root r to tau(r) and acts on its leaves alone: a bare root's label g
    becomes g * h_r, and a caret's state (side of a, g_a, g_c) becomes
    (side ^ swap, g_a * h_side, g_c * h_(1-side)), where ((h_0, h_1), swap)
    is the recursion image of h_r.  The recursion is injective, so the group
    acts freely on the 2|G|^2 caret states, in 2|G| orbits of |G| states.  A
    class is therefore a j-edge matching of the n domain roots with one
    caret orbit per edge; the other domain roots feed bare roots.
    """

    def __init__(self, ctx: Context):
        G = ctx.backend
        self.values = list(G.element_values())
        self.rank = rank = {g: i for i, g in enumerate(self.values)}
        images = []
        for h in self.values:
            img = ctx.recursion.apply(G.element(h))
            images.append(((img.left.value, img.right.value), int(img.swap)))
        # caret state -> the orbit member of least (side, label indices), and
        # the one of least (label a, side, label c) by value
        self.rep_of: dict[tuple, tuple] = {}
        self.least_of: dict[tuple, tuple] = {}
        for state in itertools.product((0, 1), self.values, self.values):
            if state in self.rep_of:
                continue
            s, ga, gc = state
            orbit = [
                (s ^ swap, G.mul(ga, kids[s]), G.mul(gc, kids[1 - s]))
                for kids, swap in images
            ]
            rep = min(orbit, key=lambda t: (t[0], rank[t[1]], rank[t[2]]))
            least = min(orbit, key=lambda t: (t[1], t[0], t[2]))
            for t in orbit:
                self.rep_of[t] = rep
                self.least_of[t] = least
        self.reps = sorted(set(self.rep_of.values()))
        if len(self.reps) != 2 * len(self.values):
            raise AssertionError("right action is not free on classes")

    def representative(self, n: int, edges: Sequence[tuple]) -> tuple:
        """The class tuple of least (carets, sigma, label indices) in the
        orbit given by `edges`, the pairs ((a, c), caret orbit
        representative) by increasing a.  The carets are roots 0..j-1,
        numbered by their first domain root; the bare roots follow in domain
        order, labelled by the first group element."""
        j = len(edges)
        labels = [self.values[0]] * n
        sigma: list = [None] * n
        for r, ((a, c), (s, ga, gc)) in enumerate(edges):
            sigma[a], sigma[c] = 2 * r + s, 2 * r + 1 - s
            labels[a], labels[c] = ga, gc
        leaf = 2 * j
        for i in range(n):
            if sigma[i] is None:
                sigma[i] = leaf
                leaf += 1
        return tuple(labels), tuple(sigma), tuple(range(j))

    def key(self, n: int, edges: Sequence[tuple]) -> tuple:
        """The least product-diagram key (n, m, columns) over the orbit given
        by `edges`.  Columns compare by label value, then range leaf, so
        each caret takes its orbit member of least (g_a, side, g_c), each
        bare root the least label value, and range roots are numbered by
        first appearance among the domain roots."""
        low = min(self.values)
        fed: dict[int, tuple] = {}  # domain root -> (label, side, first feeder)
        for (a, c), state in edges:
            s, ga, gc = self.least_of[state]
            fed[a] = (ga, "01"[s], a)
            fed[c] = (gc, "01"[1 - s], a)
        number: dict[int, int] = {}
        cols = []
        for i in range(n):
            g, w, first = fed.get(i, (low, "", i))
            cols.append(((i, ""), g, (number.setdefault(first, len(number)), w)))
        return n, n - len(edges), tuple(cols)

    def canonical(self, raw: tuple) -> tuple:
        """The representative of the class of any raw (labels, sigma,
        carets) tuple."""
        labels, sigma, carets = raw
        leaves = _forest_leaves(len(labels) - len(carets), carets)
        first: dict[int, tuple] = {}
        edges = []
        for i, k in enumerate(sigma):
            r, w = leaves[k]
            if not w:
                continue
            if r not in first:
                first[r] = (i, int(w))
            else:
                a, s = first.pop(r)
                edges.append(((a, i), self.rep_of[(s, labels[a], labels[i])]))
        return self.representative(len(labels), sorted(edges))


@dataclass
class DescendingLink:
    """Descending link at height n, with class bookkeeping."""

    context: Context
    n: int
    complex: SimplicialComplex
    class_of: dict  # class representative (labels, sigma, carets) -> class id
    vertex_keys: list
    simplex_vertices: dict  # class id -> tuple of vertex ids
    orbits: CaretOrbits | None

    def class_id(self, raw: tuple) -> int:
        """The id of the class of any raw (labels, sigma, carets) tuple."""
        return self.class_of[self.orbits.canonical(raw)]


def dlink_complex(ctx: Context, n: int) -> DescendingLink:
    """Enumerate the descending-link classes, one canonical form each.

    A class is an orbit of [1_n, (g, s), F_J] diagrams under right
    multiplication by the wreath elements (h, tau): labels h on the m range
    roots, permuted by tau.  By `CaretOrbits`, a class is a j-edge matching
    of the domain roots with a caret orbit per edge, so the classes are
    listed directly, and the cost scales with their number.  That number is
    counted first, and heights with more than MAX_DLINK_CLASSES classes are
    refused before anything is listed.  Each class is stored by its orbit
    minimum in (carets, sigma, label indices) order, and ids follow
    (j, representative), which is the order in which a walk over every raw
    tuple would first meet the classes.  The vertex of a caret is
    the class left when every other caret is split; that face step goes
    through groupoid products and the canonical lookup.
    """
    G = ctx.backend
    if not G.is_finite():
        raise ValueError("descending links need a finite label group")
    size = _matching_count(n, 2 * G.order(), MAX_DLINK_CLASSES)
    if size > MAX_DLINK_CLASSES:
        raise ValueError(
            f"the descending link at height {n} has more than "
            f"MAX_DLINK_CLASSES = {MAX_DLINK_CLASSES:,} classes"
        )

    orbits = CaretOrbits(ctx)
    found: list[tuple] = []
    for matching in _matchings(n):
        j = len(matching)
        for states in itertools.product(orbits.reps, repeat=j):
            edges = list(zip(matching, states))
            rep = orbits.representative(n, edges)
            labels, sigma, _ = rep
            found.append(((j, sigma, tuple(orbits.rank[g] for g in labels)), rep, edges))
    if len(found) != size:
        raise AssertionError(f"listed {len(found)} classes, counted {size}")
    found.sort(key=lambda item: item[0])
    classes = [rep for _, rep, _ in found]
    class_of = {rep: cid for cid, rep in enumerate(classes)}
    vertex_keys = [orbits.key(n, edges) for _, rep, edges in found if len(rep[2]) == 1]

    # vertex set per class: keep one caret, split the others, and read off
    # the single-caret class; those are the first classes, so a vertex's
    # index is its class id
    simplex_vertices: dict[int, tuple[int, ...]] = {}
    splitters: dict[tuple, GroupoidElement] = {}
    for cid, (labels, sigma, carets) in enumerate(classes):
        if len(carets) == 1:
            simplex_vertices[cid] = (cid,)
            continue
        m = n - len(carets)
        rep = _class_element(ctx, n, labels, sigma, carets)
        hit = set()
        for r in carets:
            rest = tuple(c for c in carets if c != r)
            if (m, rest) not in splitters:
                splitters[m, rest] = _splitting(ctx, m, rest)
            split = rep * splitters[m, rest]
            hit.add(class_of[orbits.canonical(_class_tuple(split.diagram))])
        if len(hit) != len(carets):
            raise AssertionError("simplex has wrong number of vertices")
        simplex_vertices[cid] = tuple(sorted(hit))

    cx = SimplicialComplex(vertex_keys, simplex_vertices.values())
    return DescendingLink(ctx, n, cx, class_of, vertex_keys, simplex_vertices, orbits)


def forgetful_pi(key: tuple) -> tuple[int, int]:
    """Image of a single-caret vertex class in the matching complex: the
    1-based pair of domain roots feeding the caret's two leaves."""
    _, _, cols = key
    out = sorted(i + 1 for i, (_, _, (r, w)) in enumerate(cols) if w)
    if len(out) != 2:
        raise ValueError("key does not describe a single-caret class")
    return (out[0], out[1])


def _vertex_pi(link: DescendingLink) -> list[tuple[int, int]]:
    return [forgetful_pi(k) for k in link.vertex_keys]


def dlink_via_join(link: DescendingLink) -> SimplicialComplex:
    """The fiber-join model over the matching complex: independent of the
    brute-force face computation, sharing the same vertex keys."""
    fibers: dict[tuple[int, int], list[int]] = {}
    for v, pair in enumerate(_vertex_pi(link)):
        fibers.setdefault(pair, []).append(v)
    simplices: list[tuple[int, ...]] = []
    for matching in _matchings(link.n):
        for combo in itertools.product(*(fibers[a + 1, c + 1] for a, c in matching)):
            simplices.append(tuple(sorted(combo)))
    return SimplicialComplex(link.vertex_keys, simplices)


def check_complete_join(link: DescendingLink) -> bool:
    """Verify the forgetful map is a complete join, exhaustively.

    (1) injective on individual simplices and simplicial: the image pairs
    of a simplex are pairwise disjoint, so they form a matching; (2)
    surjective: all C(n,2) pairs are hit; (3) every simplex preimage is the
    join of its vertex fibers, which by finiteness reduces to equality with
    the fiber-join complex.
    """
    pi = _vertex_pi(link)
    for s in link.complex.simplices:
        ends = [i for v in s for i in pi[v]]
        if len(set(ends)) != len(ends):
            return False  # two image pairs coincide or meet
    if len(set(pi)) != math.comb(link.n, 2):
        return False  # not surjective on vertices
    join = dlink_via_join(link)
    return join.simplices == link.complex.simplices


def connectivity_report(cx: SimplicialComplex, n: int) -> dict:
    """Homological shadow of the connectivity claim at height n.

    Only homology is checked, never the fundamental group, so a passing
    report reads "homology-consistent" rather than claiming connectivity.
    """
    bound = connectivity_bound(n)
    if bound < 0:
        return {
            "n": n,
            "bound": bound,
            "vacuous": True,
            "consistent": True,
            "statement": f"vacuous at n={n}: bound is {bound}",
            "homology": [],
        }
    res = homology(cx, bound)
    ok = res.is_trivial_through(bound)
    return {
        "n": n,
        "bound": bound,
        "vacuous": False,
        "consistent": ok,
        "statement": (
            f"homology-consistent with {bound}-connected"
            if ok
            else f"homology contradicts {bound}-connectivity"
        ),
        "homology": res.to_json(),
    }
