"""Finite simplicial complexes and exact integer homology.

Covers the two complex families the library can materialize: matching
complexes on n points, and the descending-link complexes of height-n
vertices for a finite label group.  Both are built from one enumerator of
the matchings of K_n, and both are sized exactly before anything is listed:
M_n has sum_j (#j-matchings) simplices and the descending link
sum_j (#j-matchings) (2|G|)^j classes.  Past MAX_MATCHING_SIMPLICES or
MAX_DLINK_CLASSES the constructors raise ValueError, as a descending link
does when its caret-orbit table, 2|G|^2 states, is past MAX_DLINK_CLASSES.
Descending links are built twice, by independent routes: one canonical form per orbit of the
wreath action, and the fiber-join over the matching complex through the
forgetful map.  In the first, a face is the groupoid product of a class
representative with a splitter of all but one caret, and its vertex is
looked up by the edge of the one caret left, read off the product's
columns; the representatives are built unchecked, as they are valid and
reduced by construction.  The second is a listing of sorted vertex tuples,
closed under faces: `check_complete_join` compares it with the first
route's simplex set, and `dlink_via_join` wraps it as a complex.

Homology reads each dense boundary matrix once, into sparse tables of
every cell's faces and cofaces, and deletes unit pairs across the whole
truncated chain complex, coreductions and free faces (Mrozek-Batko,
Discrete Comput. Geom. 41, 2009), which change no other entry.  It then
takes the Smith normal form over the integers of what is left of each
boundary matrix, by one sparse elimination over Python ints on the live
face or coface dicts of the tables, whichever side has fewer cells (a
matrix and its transpose share the Smith form), every pivot an entry of
least absolute value, so units come first.  A JSON complex whose maximal
simplices have more than MAX_FACE_ENTRIES face entries is refused before
its faces are listed.  Boundary matrices are built a whole face position
at a time, looking faces up as vertex tuples, so no numeric face code can
overflow.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .diagrams import Context, LabeledDiagram
from .elements import GroupoidElement, _of_reduced
from .groups import GroupElement

# size limits, checked by exact counts before anything is listed: M_14
# (2,390,479 simplices) and Z/2 diagonal n=8 (57,232 classes) are admitted,
# M_15 and Z/2 diagonal n=9 (328,752 classes) are refused; the caret-orbit
# table of a descending link, 2|G|^2 states, is held to MAX_DLINK_CLASSES
# too, which admits |G| up to 181
MAX_MATCHING_SIMPLICES = 1 << 22
MAX_DLINK_CLASSES = 1 << 16
# dense one-byte cells of one boundary matrix that `homology` builds: d_2
# of M_12 (20,582,100) is admitted, d_3 of M_12 (720,373,500) refused
MAX_BOUNDARY_CELLS = 1 << 25
# vertex entries of the faces of a JSON complex's maximal simplices, repeats
# included: M_14, the largest that `ltg complex` writes, has 60,540,480, and
# one simplex on 22 vertices 46,137,344; one on 23 is refused
MAX_FACE_ENTRIES = 1 << 26


class SimplicialComplex:
    """Vertex-keyed finite complex, closed under faces.

    Simplex entries must be vertex indices: ints in range(len(vertices)).
    One face pass, from the top dimension down, closes the input and finds
    the maximal faces: each level takes in the codimension-1 faces of the
    level above, and its simplices that are none of them are maximal.
    """

    def __init__(self, vertices: Sequence, simplices: Iterable[tuple[int, ...]]):
        self.vertices = list(vertices)
        nv = len(self.vertices)
        raw = [tuple(s) for s in simplices]
        entries = list(itertools.chain.from_iterable(raw))
        if entries and (
            set(map(type, entries)) != {int} or min(entries) < 0 or max(entries) >= nv
        ):
            bad = next(v for v in entries if type(v) is not int or not 0 <= v < nv)
            raise ValueError(f"simplex entry {bad!r} is not a vertex index")
        del entries  # a flat copy of the input, not needed past the check
        # a sorted input tuple is kept, not copied: big inputs come sorted
        given = [s if list(s) == sorted(s) else tuple(sorted(s)) for s in raw]
        for s in given:
            if len(set(s)) != len(s):
                raise ValueError(f"degenerate simplex {s}")
        # level k maps each simplex on k + 1 vertices to whether it is a face
        # of one on k + 2; every vertex is a simplex
        levels: list = [dict.fromkeys([(v,) for v in range(nv)], False)] if nv else []
        levels += [{} for _ in range(len(levels), max(map(len, given), default=0))]
        for s in filter(None, given):
            levels[len(s) - 1][s] = False
        self.simplices: set[tuple[int, ...]] = set()
        maximal: list[tuple[int, ...]] = []
        for k in reversed(range(len(levels))):
            level = levels[k]
            if k:  # update keeps a face already stored and drops the new copy
                faces = itertools.chain.from_iterable(
                    map(itertools.combinations, level, itertools.repeat(k))
                )
                levels[k - 1].update(zip(faces, itertools.repeat(True)))
            maximal.extend(s for s, covered in level.items() if not covered)
            self.simplices.update(level)
            levels[k] = list(level)  # the dict goes once its level is done
        self._maximal = sorted(maximal)
        self._by_dim: list[list[tuple[int, ...]]] = levels

    def dimension(self) -> int:
        return len(self._by_dim) - 1

    def k_simplices(self, k: int) -> list[tuple[int, ...]]:
        """The k-simplices in sorted order, as a fresh list."""
        if not 0 <= k < len(self._by_dim):
            return []
        # sorted in place on first use; sorting again is one linear pass
        self._by_dim[k].sort()
        return list(self._by_dim[k])

    def f_vector(self) -> list[int]:
        return [len(level) for level in self._by_dim]

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """The simplices that are no face of another, in sorted order."""
        return list(self._maximal)

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
        """Integer matrix of the boundary map C_k -> C_{k-1}, in int8 since
        every entry is 0 or +-1; k = 0 gives the augmentation onto the
        empty simplex (reduced homology)."""
        cols = self.k_simplices(k)
        if k == 0:
            return np.ones((1, len(cols)), dtype=np.int8)
        rows = {s: i for i, s in enumerate(self.k_simplices(k - 1))}
        mat = np.zeros((len(rows), len(cols)), dtype=np.int8)
        # position lists: positions[i][j] is the i-th vertex of column j;
        # deleting position i gives every column's i-th face, sign (-1)^i
        positions = list(zip(*cols))
        everywhere = np.arange(len(cols))
        for i in range(len(positions)):
            faces = zip(*positions[:i], *positions[i + 1:])
            hit = np.fromiter(map(rows.__getitem__, faces), np.intp, len(cols))
            mat[hit, everywhere] = -1 if i % 2 else 1
        return mat

    def to_json(self) -> dict:
        return {
            "vertices": [str(v) for v in self.vertices],
            "maximal": [list(s) for s in self.maximal_simplices()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SimplicialComplex":
        """Refuses, before any face is listed, maximal simplices s whose
        faces hold more than MAX_FACE_ENTRIES vertex entries, sum |s| 2^(|s|-1)."""
        maximal = [tuple(s) for s in data["maximal"]]
        entries = sum(len(s) << len(s) for s in maximal) // 2
        if entries > MAX_FACE_ENTRIES:
            raise ValueError(
                f"the faces of the maximal simplices hold {entries:,} vertex "
                f"entries, more than MAX_FACE_ENTRIES = {MAX_FACE_ENTRIES:,}"
            )
        return cls(data["vertices"], maximal)


def smith_diagonal(cols: list[dict[int, int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-chained, of
    the matrix whose columns are `cols`, {row: entry} dicts of nonzero
    Python ints; rows are any ints, and a row no column holds is zero.  The
    list and its dicts are consumed.

    One sparse elimination, exact over Python ints, by column operations on
    the columns given: a caller that holds both sides passes the one with
    fewer columns, as the transpose has the same Smith form (`homology`
    passes the 48 rows of the 48 x 68 residual of d_2 of M_7).  One rule
    picks the pivots, least absolute value first: the column of least
    (least |entry|, length, index) comes off one heap, and in it the entry
    of least (|entry|, row length), so +-1 pivots come first, shortest
    columns first (Dumas-Saunders-Villard, J. Symbolic Comput. 2001).  A
    pivot u at (p, j) clears row p by column operations that subtract floor
    quotients, leaving remainders in row p; once row p holds u alone, row
    operations touch only column j and leave remainders there.  A nonzero
    remainder is smaller than u and becomes the next pivot; with u = +-1
    there is none, so a unit pivot takes one round.
    """
    rows: dict[int, set[int]] = {}  # the columns that hold each row
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, set()).add(j)
    # heap entries are (least |entry|, length, index, stamp).  A column is
    # pushed, and pushed again whenever it changes, under 1, a lower bound
    # that takes no pass over it; popped with no entry that small, it goes
    # back under its least |entry|.  An entry with a stale stamp is skipped
    stamps = [0] * len(cols)
    heap = [(1, len(col), j, 0) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)

    def subtract(col, f, k):
        """Column k -= f * col, keeping the row sets and the heap."""
        other = cols[k]
        for i, v in col.items():
            w = other.get(i, 0) - f * v
            if w:
                if i not in other:
                    rows[i].add(k)
                other[i] = w
            else:
                del other[i]
                rows[i].discard(k)
        stamps[k] += 1
        if other:
            heapq.heappush(heap, (1, len(other), k, stamps[k]))

    diag: list[int] = []
    while heap:
        least, _, j, stamp = heapq.heappop(heap)
        if stamp != stamps[j]:
            continue
        col = cols[j]
        p = min(
            (i for i, v in col.items() if v == least or v == -least),
            key=lambda i: len(rows[i]),
            default=None,
        )
        if p is None:
            heapq.heappush(heap, (min(map(abs, col.values())), len(col), j, stamp))
            continue
        while True:
            # row p leaves the pivot column and each column it clears, and
            # comes back only where a remainder is left
            u = col.pop(p)
            left = []
            for k in rows.pop(p):
                if k != j:
                    other = cols[k]
                    f, r = divmod(other.pop(p), u)
                    if r:
                        other[p] = r
                        left.append(k)
                    if f:  # 0 leaves a smaller entry in row p
                        subtract(col, f, k)
            if left:
                col[p] = u
                rows[p] = {j, *left}
                j = min(left, key=lambda k: abs(cols[k][p]))
                col = cols[j]
                continue
            kept = {}
            for i, v in col.items():
                if r := v % u:
                    kept[i] = r
                else:
                    rows[i].discard(j)
            if not kept:
                break
            cols[j] = col = kept | {p: u}
            rows[p] = {j}
            p = min(kept, key=lambda i: (abs(col[i]), len(rows[i])))
        cols[j] = None
        stamps[j] += 1  # still queued if a remainder moved the pivot here
        diag.append(abs(u))
    # the 1s divide everything; of the rest, a gcd/lcm exchange of neighbours
    # sorts each prime's exponents in the pair, so passes of them, as in a
    # bubble sort, make the divisors a chain
    ones = diag.count(1)
    diag = [d for d in diag if d != 1]
    while any(diag[i + 1] % diag[i] for i in range(len(diag) - 1)):
        for i in range(len(diag) - 1):
            g = math.gcd(diag[i], diag[i + 1])
            diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
    return [1] * ones + diag


def _nonzeros(mat: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Row indices, column indices and values of the nonzeros of mat, in
    row-major order, as lists of Python ints."""
    if not mat.size:
        return [], [], []
    # a flat scan of a bool mask is several times faster than
    # two-dimensional np.nonzero, and masks of a few rows at a time keep it
    # from doubling the matrix
    m, n = mat.shape
    step = 1 + (1 << 16) // n
    flat, vals = [], []
    for r in range(0, m, step):
        block = mat[r:r + step].ravel()
        hit = np.flatnonzero(block != 0)
        flat.append(hit + r * n)
        vals += block[hit].tolist()
    rows, cols = np.divmod(np.concatenate(flat), n)
    return rows.tolist(), cols.tolist(), vals


def _pair_off(mats: Sequence[np.ndarray]) -> tuple[list[int], list[list], list[list]]:
    """Delete the unit pairs that change no other entry from the chain
    complex whose boundary from level k + 1 to level k is mats[k].

    Each matrix is read once, into tables of each cell's faces and
    cofaces.  A pair is (s, t), t one level above s, with a +-1 entry at
    row s and column t of some mats[k], where t has no other live face (a
    coreduction) or s no other live coface (a free face).  The queue is
    seeded by level and index, so a simplicial complex pairs its empty
    simplex with a vertex first, and a neighbour of a deleted pair is
    queued again when its live faces or cofaces drop to one.  Returns, for
    each k, the number of pairs inside mats[k], and for each level, the
    live faces and the live cofaces of its cells, {index: entry} dicts of
    Python ints, None for a deleted cell: the live faces of level k + 1 are
    the columns of mats[k] restricted to the live cells, and the live
    cofaces of level k its rows.
    """
    sizes = [mats[0].shape[0]] + [mat.shape[1] for mat in mats]
    # live faces and cofaces of each cell, {neighbour: entry}; a deleted
    # cell's are None, and it is dropped from its neighbours' dicts
    faces = [[{} for _ in range(n)] for n in sizes]
    cofaces = [[{} for _ in range(n)] for n in sizes]
    for k, mat in enumerate(mats):
        up, down = cofaces[k], faces[k + 1]
        for i, j, v in zip(*_nonzeros(mat)):
            up[i][j] = v
            down[j][i] = v
    queue = collections.deque(
        (k, j)
        for k, n in enumerate(sizes)
        for j in range(n)
        if len(faces[k][j]) == 1 or len(cofaces[k][j]) == 1
    )

    def delete(k, j):
        for near, other, back in ((faces, k - 1, cofaces), (cofaces, k + 1, faces)):
            for i in near[k][j]:
                theirs = back[other][i]
                del theirs[j]
                if len(theirs) == 1:
                    queue.append((other, i))
        faces[k][j] = cofaces[k][j] = None

    pairs = [0] * len(mats)
    while queue:
        k, j = queue.popleft()
        if faces[k][j] is None:
            continue
        for other, near in ((k - 1, faces[k][j]), (k + 1, cofaces[k][j])):
            if len(near) == 1:
                (i, v), = near.items()
                if v == 1 or v == -1:
                    delete(k, j)
                    delete(other, i)
                    pairs[min(k, other)] += 1
                    break
    return pairs, faces, cofaces


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

    The elementary divisors come from the chain complex truncated after
    the (up_to + 1)-simplices, its levels running from the empty simplex
    up, once `_pair_off` has deleted its unit pairs.  A pair (s, t) has an
    entry u = +-1 at row s, column t of some d_k; write b for the rest of
    row s, c for the rest of column t and D for the rest of d_k.  Deleting
    it is exact:

    - within d_k, the Schur complement D - c u^-1 b equals D, since c = 0
      when s is t's only live face and b = 0 when t is s's only live coface;
    - in d_(k+1), row t is an integer combination of the other rows, as
      d_k d_(k+1) = 0 and u = +-1; in d_(k-1), column s is likewise one of
      the other columns, so neither deletion changes a Smith form.

    So SNF(d_k) = [1]^(p_k) + SNF(d_k on the cells left live), with p_k
    the pairs inside d_k, and only that residual is eliminated.  It goes to
    `smith_diagonal` straight from the tables `_pair_off` kept, as its
    columns, the live faces of level k + 1, or as its rows, the live
    cofaces of level k, whichever are fewer.
    """
    if up_to > len(cx.vertices):
        raise ValueError(
            f"up_to {up_to} exceeds the {len(cx.vertices)} vertices of the "
            "complex; every homology group past them is zero"
        )
    # f[k] simplices of dimension k - 1, the empty one included: d_k is a
    # dense f[k] x f[k + 1] matrix
    f = [1] + cx.f_vector() + [0] * (up_to + 2)
    for k in range(up_to + 2):
        if f[k] * f[k + 1] > MAX_BOUNDARY_CELLS:
            raise ValueError(
                f"d_{k} would have {f[k] * f[k + 1]:,} dense cells, more than "
                f"MAX_BOUNDARY_CELLS = {MAX_BOUNDARY_CELLS:,}; lower up_to"
            )
    betti: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    ranks: dict[int, int] = {}
    divisors: dict[int, list[int]] = {}
    pairs, faces, cofaces = _pair_off([cx.boundary_matrix(k) for k in range(up_to + 2)])
    for k in range(up_to + 2):
        cols = [near for near in faces[k + 1] if near is not None]
        rows = [near for near in cofaces[k] if near is not None]
        divisors[k] = [1] * pairs[k] + smith_diagonal(rows if len(rows) < len(cols) else cols)
        ranks[k] = len(divisors[k])
    for k in range(up_to + 1):
        kernel = f[k + 1] - ranks[k]
        betti[k] = kernel - ranks[k + 1]
        torsion[k] = tuple(d for d in divisors[k + 1] if d > 1)
        if betti[k] < 0:
            raise AssertionError("negative Betti number: rank computation broken")
    result = HomologyResult(betti, torsion, tuple(cx.f_vector()))
    _check_euler(cx, result, up_to)
    return result


def _check_euler(cx: SimplicialComplex, res: HomologyResult, up_to: int):
    """Euler consistency on the full complex when it was fully resolved.

    The empty simplex counts in dimension -1 on both sides: the complex
    with no vertices has H~_(-1) = Z, which `res` does not list."""
    if up_to < cx.dimension():
        return
    chi_faces = sum((-1) ** k * f for k, f in enumerate(cx.f_vector())) - 1
    chi_homology = sum((-1) ** k * b for k, b in res.betti.items())
    chi_homology -= not cx.vertices
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


def _forest_leaves(m: int, carets: Sequence[int]) -> list:
    """Leaves of the elementary forest F_J on m roots, in lex order."""
    cset = set(carets)
    return [(r, w) for r in range(m) for w in (("0", "1") if r in cset else ("",))]


def _splitting(ctx: Context, roots: int, carets: Sequence[int]) -> GroupoidElement:
    """The label-free splitter [F_J, 1, 1_(roots+|J|)]: domain has a caret
    at each listed root, range is the expanded row of bare roots."""
    leaves = _forest_leaves(roots, carets)
    one = ctx.one()
    cols = [(leaf, one, (i, "")) for i, leaf in enumerate(leaves)]
    return GroupoidElement(LabeledDiagram(ctx, cols, roots, len(leaves)))


def _class_element(
    ctx: Context, n: int, labels: Sequence, sigma: Sequence[int], carets: Sequence[int]
) -> GroupoidElement:
    """[1_n, (labels, sigma), F_J]: domain root i pairs with the
    sigma(i)-th lex leaf of the elementary range forest.

    Built unchecked from label values of the context's group and a
    permutation sigma of the leaves of F_J: the columns are in domain order
    (i, ""), and bare domain roots have no sibling to merge with, so the
    diagram is valid and already reduced."""
    m = n - len(carets)
    leaves = _forest_leaves(m, carets)
    G = ctx.backend
    cols = tuple(((i, ""), GroupElement(G, labels[i]), leaves[sigma[i]]) for i in range(n))
    return _of_reduced(GroupoidElement, LabeledDiagram._trusted(ctx, cols, n, m))


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
        # caret state -> the orbit member of least (side, label indices);
        # that representative -> the member of least (label a, side, label c)
        # by value
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
            self.least_of[rep] = min(orbit, key=lambda t: (t[1], t[0], t[2]))
            for t in orbit:
                self.rep_of[t] = rep
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

    def edges(self, feeds: Iterable[tuple]) -> list[tuple]:
        """The pairs ((a, c), caret orbit representative), by increasing a,
        of a [1_n, (g, s), F_J] diagram given as (domain root, label value,
        range leaf) triples in domain order: the two leaves of a caret are
        fed by domain roots a < c, and the leaf fed by a gives the side."""
        first: dict[int, tuple] = {}
        out = []
        for i, g, (r, w) in feeds:
            if not w:
                continue
            if r not in first:
                first[r] = (i, int(w), g)
            else:
                a, s, ga = first.pop(r)
                out.append(((a, i), self.rep_of[(s, ga, g)]))
        out.sort()
        return out

    def canonical(self, raw: tuple) -> tuple:
        """The representative of the class of any raw (labels, sigma,
        carets) tuple."""
        labels, sigma, carets = raw
        leaves = _forest_leaves(len(labels) - len(carets), carets)
        feeds = ((i, labels[i], leaves[k]) for i, k in enumerate(sigma))
        return self.representative(len(labels), self.edges(feeds))


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
    vertex_of: dict | None  # caret edge ((a, c), orbit representative) -> vertex id

    def class_id(self, raw: tuple) -> int:
        """The id of the class of any raw (labels, sigma, carets) tuple."""
        return self.class_of[self.orbits.canonical(raw)]


def _face_vertex(orbits: CaretOrbits, vertex_of: dict, face: LabeledDiagram) -> int:
    """The vertex of a single-caret [1_n, (g, s), F_{r}] diagram, looked up
    by the edge of its caret."""
    edges = orbits.edges((i, g.value, leaf) for (i, _), g, leaf in face.columns)
    if len(edges) != 1 or edges[0] not in vertex_of:
        raise AssertionError(f"a face is not one known caret edge: {edges}")
    return vertex_of[edges[0]]


def dlink_complex(ctx: Context, n: int) -> DescendingLink:
    """Enumerate the descending-link classes, one canonical form each.

    A class is an orbit of [1_n, (g, s), F_J] diagrams under right
    multiplication by the wreath elements (h, tau): labels h on the m range
    roots, permuted by tau.  By `CaretOrbits`, a class is a j-edge matching
    of the domain roots with a caret orbit per edge, so the classes are
    listed directly, and the cost scales with their number.  That number is
    counted first, and heights with more than MAX_DLINK_CLASSES classes are
    refused before anything is listed, as are groups whose caret-orbit
    table, 2|G|^2 states, is past MAX_DLINK_CLASSES.  Each class is stored
    by its orbit minimum in (carets, sigma, label indices) order, and ids
    follow (j, representative), which is the order in which a walk over
    every raw tuple would first meet the classes.  The vertex of a caret is the class
    left when every other caret is split: the product of the class
    representative with the splitter of the other carets has one caret,
    whose edge ((a, c), caret orbit representative) `CaretOrbits.edges`
    reads off its columns, and a table from the edges of the single-caret
    classes gives the vertex.  A face that is not one known edge raises
    AssertionError.
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
    states = 2 * G.order() ** 2
    if states > MAX_DLINK_CLASSES:
        raise ValueError(
            f"the caret-orbit table of a group of order {G.order():,} has "
            f"{states:,} states, more than MAX_DLINK_CLASSES = {MAX_DLINK_CLASSES:,}"
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
    # the single-caret classes come first, so a vertex's index is its class
    # id; each is looked up by its one edge
    vertex_of = {edges[0]: cid for cid, (_, _, edges) in enumerate(found) if len(edges) == 1}
    vertex_keys = [orbits.key(n, [edge]) for edge in vertex_of]

    # vertex set per class: keep one caret, split the others, and read the
    # edge of the one caret left off the product's columns
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
            hit.add(_face_vertex(orbits, vertex_of, split.diagram))
        if len(hit) != len(carets):
            raise AssertionError("simplex has wrong number of vertices")
        simplex_vertices[cid] = tuple(sorted(hit))

    cx = SimplicialComplex(vertex_keys, simplex_vertices.values())
    return DescendingLink(
        ctx, n, cx, class_of, vertex_keys, simplex_vertices, orbits, vertex_of
    )


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


def _join_listing(link: DescendingLink) -> set[tuple[int, ...]]:
    """The fiber-join's simplices as sorted vertex tuples, one per choice of
    a vertex over each edge of a nonempty matching: closed under faces, as
    matchings are, and holding every vertex, by the one-edge matchings."""
    fibers: dict[tuple[int, int], list[int]] = {}
    for v, pair in enumerate(_vertex_pi(link)):
        fibers.setdefault(pair, []).append(v)
    return {
        tuple(sorted(combo))
        for matching in _matchings(link.n)
        for combo in itertools.product(*(fibers[a + 1, c + 1] for a, c in matching))
    }


def dlink_via_join(link: DescendingLink) -> SimplicialComplex:
    """The fiber-join model over the matching complex: independent of the
    brute-force face computation, sharing the same vertex keys."""
    return SimplicialComplex(link.vertex_keys, _join_listing(link))


def check_complete_join(link: DescendingLink) -> bool:
    """Verify the forgetful map is a complete join, exhaustively.

    (1) injective on individual simplices and simplicial: the image pairs
    of a simplex are pairwise disjoint, so they form a matching; (2)
    surjective: all C(n,2) pairs are hit; (3) every simplex preimage is the
    join of its vertex fibers, which by finiteness reduces to equality with
    the fiber-join listing: both are closed under faces and hold every
    vertex, so equal simplex sets are equal complexes.
    """
    pi = _vertex_pi(link)
    for s in link.complex.simplices:
        ends = [i for v in s for i in pi[v]]
        if len(set(ends)) != len(ends):
            return False  # two image pairs coincide or meet
    if len(set(pi)) != math.comb(link.n, 2):
        return False  # not surjective on vertices
    return _join_listing(link) == link.complex.simplices


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
