"""Reference routines for differential tests of ``labeled_thompson.complexes``.

``maximal_simplices`` is an all-pairs scan: a simplex is maximal when no
simplex one dimension up contains it.  Quadratic in the number of
simplices, and it shares nothing with the top-down face sweep in which
``SimplicialComplex`` finds its maximal faces.

``closure`` lists every nonempty subset of every input simplex, by bit
mask, and every vertex: the closure under faces without the top-down sweep
of ``SimplicialComplex``.

``boundary_matrix`` is the loop builder that ``SimplicialComplex`` used
before it formed whole position lists of faces: one dict lookup and one
int8 cell write per face, each face sliced out of its simplex.

``dense_smith`` is the dense Smith route that ``smith_diagonal`` once
finished its residual with, kept here as its own copy and run on the whole
matrix in exact object dtype: each step pivots on an entry of least
absolute value anywhere in the block, swaps it to the corner and clears its
row and column by floor quotients, and the diagonal found is put into a
divisibility chain by gcd/lcm exchanges.  It shares no code with the
library's sparse elimination.

``columns`` turns a dense matrix into the ``{row: entry}`` column dicts
that ``complexes.smith_diagonal`` takes: ``np.argwhere`` gives the
positions of the nonzero cells, and each entry is read at its position as
a Python int.  It shares nothing with the library's flat, blocked scan,
``_nonzeros``.  ``fewer_columns`` gives the columns of the matrix or of
its transpose, whichever are fewer, which is the side the elimination
finishes soonest.

``homology_by_smith`` is the per-matrix route that ``complexes.homology``
took before it deleted unit pairs across the chain complex: one Smith
elimination of each whole boundary matrix d_0 .. d_(up_to+1), given by
``fewer_columns``, called as ``complexes.smith_diagonal`` so that a test
can spy on it, and the Betti numbers and torsion read off their
diagonals.

``inflation_homology`` gives the reduced homology of the descending link
at height n without building it, from matching complexes alone.  The link
is a complete join over M_n with q = 2|G| points in every fiber, so it is
the q-inflation of M_n (Bjorner-Wachs-Welker, Trans. AMS 357, 2005), and
the link of a j-edge matching in M_n is M_(n-2j):
H~_k(link) = sum over j of H~_(k-j)(M_(n-2j))^(m_j(n) (q-1)^j), with m_j(n)
the j-edge matchings of K_n and M_0 = M_1 = {empty face}, whose only
reduced homology is H~_(-1) = Z.  It shares no code with either listing of
the link.

``dlink_complex`` is the compose route that ``complexes.dlink_complex``
replaced: it walks every raw ``(labels, sigma, carets)`` tuple, and every
orbit element is the groupoid product of the class representative with a
wreath element diagram, whose class tuple (``_class_tuple``) and key are
read off the reduced product.  Its ``class_of`` holds every raw tuple.
Its faces are the same products as the library's, the representative
times the splitter of the other carets, but it finds the vertex of a face
from the face's whole class tuple in its ``class_of``, where the library
looks up the edge of the face's one caret.  It shares the representative
diagram and the splitter with the library and none of the canonical
forms or edge readers.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from labeled_thompson import complexes
from labeled_thompson.complexes import (
    DescendingLink,
    HomologyResult,
    SimplicialComplex,
    _class_element,
    _splitting,
    homology,
    matching_complex,
)
from labeled_thompson.diagrams import Context, LabeledDiagram
from labeled_thompson.elements import GroupoidElement


def _class_tuple(d: LabeledDiagram) -> tuple:
    """(labels, sigma, caret roots) read off a [1_n, (g, s), F_J] diagram."""
    labels = tuple(g.value for _, g, _ in d.columns)
    carets = tuple(sorted({r for _, _, (r, w) in d.columns if w}))
    return labels, d.sigma(), carets


def maximal_simplices(cx: SimplicialComplex) -> list[tuple[int, ...]]:
    out = []
    for s in cx.simplices:
        sset = set(s)
        if not any(len(t) == len(s) + 1 and sset < set(t) for t in cx.simplices):
            out.append(s)
    return sorted(out)


def closure(nv: int, simplices) -> set[tuple[int, ...]]:
    out = {(v,) for v in range(nv)}
    for s in simplices:
        s = sorted(s)
        out.update(
            tuple(v for i, v in enumerate(s) if mask >> i & 1)
            for mask in range(1, 1 << len(s))
        )
    return out


def boundary_matrix(cx: SimplicialComplex, k: int) -> np.ndarray:
    cols = cx.k_simplices(k)
    if k == 0:
        return np.ones((1, len(cols)), dtype=np.int8)
    rows = {s: i for i, s in enumerate(cx.k_simplices(k - 1))}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int8)
    for j, s in enumerate(cols):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            mat[rows[face], j] = (-1) ** i
    return mat


def columns(mat: np.ndarray) -> list[dict[int, int]]:
    cols: list[dict[int, int]] = [{} for _ in range(mat.shape[1])]
    for i, j in np.argwhere(mat).tolist():
        cols[j][i] = int(mat[i, j])
    return cols


def fewer_columns(mat: np.ndarray) -> list[dict[int, int]]:
    return columns(mat.T if mat.shape[1] > mat.shape[0] else mat)


def dense_smith(mat: np.ndarray) -> list[int]:
    a = mat.astype(object)  # a copy, of Python ints
    m, n = a.shape
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        sub = a[t:, t:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        k = int(np.argmin(np.abs(sub[nz])))
        i, j = int(nz[0][k]) + t, int(nz[1][k]) + t
        a[[t, i], :] = a[[i, t], :]
        a[:, [t, j]] = a[:, [j, t]]
        if a[t, t] < 0:
            a[t, :] = -a[t, :]
        pivot = a[t, t]
        col = a[t + 1:, t]
        row = a[t, t + 1:]
        if not col.any() and not row.any():
            diag.append(pivot)
            t += 1
            continue
        # only the rows and columns with a nonzero quotient change
        hit = np.flatnonzero(col // pivot)
        a[t + 1 + hit, :] -= np.outer(col[hit] // pivot, a[t, :])
        hit = np.flatnonzero(row // pivot)
        a[:, t + 1 + hit] -= np.outer(a[:, t], row[hit] // pivot)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = math.gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return diag


def homology_by_smith(cx: SimplicialComplex, up_to: int) -> HomologyResult:
    f = [1] + cx.f_vector() + [0] * (up_to + 2)
    divisors = [
        complexes.smith_diagonal(fewer_columns(cx.boundary_matrix(k)))
        for k in range(up_to + 2)
    ]
    ranks = [len(diagonal) for diagonal in divisors]
    betti = {k: f[k + 1] - ranks[k] - ranks[k + 1] for k in range(up_to + 1)}
    torsion = {k: tuple(d for d in divisors[k + 1] if d > 1) for k in range(up_to + 1)}
    return HomologyResult(betti, torsion, tuple(cx.f_vector()))


@functools.lru_cache(maxsize=None)
def _matching_homology(m: int, d: int) -> tuple[int, tuple[int, ...]]:
    """(Betti number, torsion) of H~_d(M_m), m >= 2 and d >= 0."""
    cx = matching_complex(m)
    if d > cx.dimension():
        return 0, ()
    res = homology(cx, d)
    return res.betti[d], res.torsion[d]


def _invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """The invariant factors, each dividing the next, of the direct sum of
    cyclic groups of the given orders: the largest power of each prime goes
    to the last factor, the next largest to the one before, and so on."""
    powers: dict[int, list[int]] = {}
    for d in orders:
        p = 2
        while d > 1:
            power = 1
            while d % p == 0:
                d //= p
                power *= p
            if power > 1:
                powers.setdefault(p, []).append(power)
            p += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for i, power in enumerate(sorted(qs, reverse=True)):
            factors[-1 - i] *= power
    return tuple(factors)


def inflation_homology(n: int, q: int, up_to: int) -> tuple[dict, dict]:
    """Reduced Betti numbers and torsion, degrees 0..up_to, of the
    q-inflation of M_n, as the dicts of ``HomologyResult``."""
    betti = dict.fromkeys(range(up_to + 1), 0)
    orders: dict[int, list[int]] = {k: [] for k in range(up_to + 1)}
    for j in range(n // 2 + 1):
        m = n - 2 * j
        matchings = math.factorial(n) // (math.factorial(j) * 2**j * math.factorial(m))
        copies = matchings * (q - 1) ** j
        for k in range(max(j - 1, 0), up_to + 1):
            if m < 2:  # M_0 and M_1: Z in degree -1 only
                betti[k] += copies * (k - j == -1)
            elif k >= j:
                b, torsion = _matching_homology(m, k - j)
                betti[k] += copies * b
                orders[k] += list(torsion) * copies
    return betti, {k: _invariant_factors(orders[k]) for k in orders}


def dlink_complex(ctx: Context, n: int) -> DescendingLink:
    G = ctx.backend
    gvals = list(G.element_values())
    perms = list(itertools.permutations(range(n)))
    wreath: dict[int, list[GroupoidElement]] = {}

    def wreath_elements(m: int) -> list[GroupoidElement]:
        if m not in wreath:
            out = []
            for tau in itertools.permutations(range(m)):
                for hs in itertools.product(gvals, repeat=m):
                    cols = [
                        ((r, ""), G.element(hs[r]), (tau[r], "")) for r in range(m)
                    ]
                    out.append(GroupoidElement(LabeledDiagram(ctx, cols, m, m)))
            wreath[m] = out
        return wreath[m]

    class_of: dict[tuple, int] = {}
    reps: list[GroupoidElement] = []
    keys: list[tuple] = []
    caret_sets: list[tuple[int, ...]] = []
    for j in range(1, n // 2 + 1):
        m = n - j
        for carets in itertools.combinations(range(m), j):
            for sigma in perms:
                for labels in itertools.product(gvals, repeat=n):
                    if (labels, sigma, carets) in class_of:
                        continue
                    cid = len(reps)
                    rep = _class_element(ctx, n, labels, sigma, carets)
                    orbit_keys = []
                    orbit_size = 0
                    for w in wreath_elements(m):
                        img = rep * w
                        tup = _class_tuple(img.diagram)
                        if tup not in class_of:
                            class_of[tup] = cid
                            orbit_size += 1
                        orbit_keys.append(img.diagram.key())
                    if orbit_size != len(wreath_elements(m)):
                        raise AssertionError("right action is not free on classes")
                    reps.append(rep)
                    keys.append(min(orbit_keys))
                    caret_sets.append(carets)

    vertex_class_ids = [cid for cid in range(len(reps)) if len(caret_sets[cid]) == 1]
    vertex_keys = [keys[cid] for cid in vertex_class_ids]
    vindex = {cid: i for i, cid in enumerate(vertex_class_ids)}
    simplex_vertices: dict[int, tuple[int, ...]] = {}
    for cid, carets in enumerate(caret_sets):
        if len(carets) == 1:
            simplex_vertices[cid] = (vindex[cid],)
            continue
        m = n - len(carets)
        found = set()
        for r in carets:
            split = reps[cid] * _splitting(ctx, m, [c for c in carets if c != r])
            found.add(vindex[class_of[_class_tuple(split.diagram)]])
        if len(found) != len(carets):
            raise AssertionError("simplex has wrong number of vertices")
        simplex_vertices[cid] = tuple(sorted(found))

    cx = SimplicialComplex(vertex_keys, simplex_vertices.values())
    # class_of holds every raw tuple here, so no canonical lookup is needed
    return DescendingLink(ctx, n, cx, class_of, vertex_keys, simplex_vertices, None, None)
