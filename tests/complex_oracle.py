"""Reference routines for differential tests of ``labeled_thompson.complexes``.

``maximal_simplices`` is the all-pairs scan that the face-marking pass of
``SimplicialComplex.maximal_simplices`` replaced: a simplex is maximal when
no simplex one dimension up contains it.  Quadratic in the number of
simplices, and it shares nothing with the library's pass.

``dense_smith`` is the dense-only Smith route that ``smith_diagonal`` used
before sparse unit elimination: the whole matrix goes through
``_smith_work``, in int64 while the guard allows and in exact big integers
after that.
"""

from __future__ import annotations

import numpy as np

from labeled_thompson.complexes import SimplicialComplex, _smith_work


def maximal_simplices(cx: SimplicialComplex) -> list[tuple[int, ...]]:
    out = []
    for s in cx.simplices:
        sset = set(s)
        if not any(len(t) == len(s) + 1 and sset < set(t) for t in cx.simplices):
            out.append(s)
    return sorted(out)


def dense_smith(mat: np.ndarray) -> list[int]:
    if mat.size == 0:
        return []
    try:
        return _smith_work(mat.astype(np.int64, copy=True), guard=True)
    except OverflowError:
        return _smith_work(mat.astype(object, copy=True), guard=False)
