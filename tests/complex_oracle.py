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

``dense_smith`` is the dense-only Smith route that ``smith_diagonal`` used
before sparse unit elimination: the whole matrix goes through
``_smith_work``, in int64 while the guard allows and in exact big integers
after that.

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

import itertools

import numpy as np

from labeled_thompson.complexes import (
    DescendingLink,
    SimplicialComplex,
    _class_element,
    _smith_work,
    _splitting,
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


def dense_smith(mat: np.ndarray) -> list[int]:
    if mat.size == 0:
        return []
    try:
        return _smith_work(mat.astype(np.int64, copy=True), guard=True)
    except OverflowError:
        return _smith_work(mat.astype(object, copy=True), guard=False)


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
