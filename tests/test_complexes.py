import dataclasses
import itertools
import math
import random

import complex_oracle as oracle
import numpy as np
import pytest

from labeled_thompson import complexes as C
from labeled_thompson.diagrams import Context
from labeled_thompson.groups import (
    CyclicGroup,
    FiniteTableGroup,
    WreathRecursion,
    symmetric_table,
)


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Row reduction over F_p: an independent rank routine."""
    a = np.array(mat % p, dtype=np.int64)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i, c] % p), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
    return r


# -- smith normal form ---------------------------------------------------------


def test_smith_against_sympy_random(rng):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    for _ in range(25):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = np.array(
            [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        )
        got = C.smith_diagonal(mat)
        want = smith_normal_form(sympy.Matrix(mat.tolist()))
        want_diag = [
            abs(int(want[i, i]))
            for i in range(min(want.shape))
            if want[i, i] != 0
        ]
        assert got == want_diag, (mat, got, want_diag)


def test_smith_known_matrix():
    mat = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert C.smith_diagonal(mat) == [2, 2, 156]
    assert C.smith_diagonal(np.zeros((3, 2), dtype=np.int64)) == []
    assert len(C.smith_diagonal(np.eye(4, dtype=np.int64))) == 4


def test_smith_object_fallback():
    # huge entries push past the int64 guard and must stay exact
    big = 1 << 40
    mat = np.array([[big, 1], [1, big]], dtype=object)
    diag = C.smith_diagonal(np.array([[big, 1], [1, big]], dtype=np.int64))
    assert diag == [1, big * big - 1]


def _sympy_diagonal(mat) -> list[int]:
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix(mat.tolist()))
    return [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]


def _sparse_matrix(rng, big: bool) -> np.ndarray:
    """Mostly 0 and +-1 with some +-2/+-3, so that unit elimination often
    stops early and leaves a residual block (and torsion); with big, a few
    entries near 2^62 push the residual past int64."""
    m, n = rng.randint(1, 30), rng.randint(1, 40)
    density = rng.choice((0.05, 0.1, 0.2, 0.4))
    values = (1, -1, 1, -1, 1, -1, 2, -2, 3, -3)
    mat = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                mat[i, j] = rng.choice(values)
    if big:
        for _ in range(rng.randint(1, 3)):
            big_value = rng.choice((1, -1)) * rng.randint(1 << 40, 1 << 62)
            mat[rng.randrange(m), rng.randrange(n)] = big_value
    return mat


def test_sparse_smith_matches_sympy_and_dense(rng):
    torsion = 0
    for t in range(40):
        mat = _sparse_matrix(rng, big=t % 4 == 3)
        got = C.smith_diagonal(mat)
        assert got == oracle.dense_smith(mat) == _sympy_diagonal(mat), mat
        torsion += any(d > 1 for d in got)
    assert torsion >= 5  # the residual route ran, not only unit pivots


def test_sparse_smith_residual_past_int64():
    # eliminating the unit at (0, 0) leaves 1 - b^2, past int64 and
    # divisible by 3, next to a residual 3
    b = 1 << 40
    mat = np.array([[1, b, 0], [b, 1, 0], [0, 0, 3]], dtype=np.int64)
    assert C.smith_diagonal(mat) == [1, 3, b * b - 1] == _sympy_diagonal(mat)


# -- basic complexes -------------------------------------------------------------


def test_simplicial_complex_closure():
    cx = C.SimplicialComplex(["a", "b", "c"], [(0, 1, 2)])
    assert len(cx.simplices) == 7
    assert cx.dimension() == 2
    assert cx.maximal_simplices() == [(0, 1, 2)]
    assert cx.f_vector() == [3, 3, 1]


def _random_complex(rng) -> C.SimplicialComplex:
    n = rng.randint(1, 8)
    maximal = [
        tuple(rng.sample(range(n), rng.randint(1, min(n, 5))))
        for _ in range(rng.randint(0, 8))
    ]
    return C.SimplicialComplex(list(range(n)), maximal)


def test_maximal_simplices_match_oracle(rng):
    for _ in range(60):
        cx = _random_complex(rng)
        assert cx.maximal_simplices() == oracle.maximal_simplices(cx)
        back = C.SimplicialComplex.from_json(cx.to_json())
        assert back.simplices == cx.simplices


def test_simplex_index_matches_simplex_set(rng):
    for _ in range(30):
        cx = _random_complex(rng)
        top = max(len(s) for s in cx.simplices) - 1
        assert cx.dimension() == top
        for k in range(-1, top + 2):
            want = sorted(s for s in cx.simplices if len(s) == k + 1)
            assert cx.k_simplices(k) == want
        assert cx.f_vector() == [len(cx.k_simplices(k)) for k in range(top + 1)]
    cx.k_simplices(0).clear()  # a fresh list: the index is not exposed
    assert len(cx.k_simplices(0)) == len(cx.vertices)


@pytest.mark.parametrize(
    "simplex", [(0, 5), (0, -1), (0, 1.5), (0, True), ("0", 1)], ids=repr
)
def test_simplex_entries_must_be_vertex_indices(simplex):
    with pytest.raises(ValueError, match="not a vertex index"):
        C.SimplicialComplex(["a", "b"], [simplex])


def test_homology_cone_and_circle():
    solid = C.SimplicialComplex(list("abc"), [(0, 1, 2)])
    res = C.homology(solid, 2)
    assert res.betti == {0: 0, 1: 0, 2: 0}
    assert all(not t for t in res.torsion.values())
    circle = C.SimplicialComplex(list("abc"), [(0, 1), (1, 2), (0, 2)])
    res = C.homology(circle, 1)
    assert res.betti == {0: 0, 1: 1}


def test_homology_projective_plane_torsion():
    # 6-vertex antipodal icosahedron quotient: 10 triangles, 15 edges,
    # every edge shared by exactly two triangles
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
    ]
    edge_count: dict[tuple, int] = {}
    for t in triangles:
        for e in itertools.combinations(t, 2):
            edge_count[e] = edge_count.get(e, 0) + 1
    assert len(edge_count) == 15 and all(c == 2 for c in edge_count.values())
    verts = list(range(1, 7))
    idx = {v: i for i, v in enumerate(verts)}
    cx = C.SimplicialComplex(verts, [tuple(idx[v] for v in t) for t in triangles])
    res = C.homology(cx, 2)
    assert res.betti == {0: 0, 1: 0, 2: 0}
    assert res.torsion[1] == (2,)


def test_euler_consistency_random(rng):
    for _ in range(20):
        n = rng.randrange(4, 7)
        maximal = [
            tuple(sorted(rng.sample(range(n), rng.randrange(1, 4))))
            for _ in range(rng.randrange(2, 6))
        ]
        cx = C.SimplicialComplex(list(range(n)), maximal)
        C.homology(cx, cx.dimension())  # internal Euler check must not raise


# -- matching complexes ----------------------------------------------------------


def test_matching_complex_counts():
    m2 = C.matching_complex(2)
    assert len(m2.vertices) == 1 and m2.dimension() == 0
    m4 = C.matching_complex(4)
    assert len(m4.vertices) == 6
    assert len(m4.k_simplices(1)) == 3
    assert m4.connected_components() == 3
    m5 = C.matching_complex(5)
    assert len(m5.vertices) == 10 and len(m5.k_simplices(1)) == 15
    assert m5.connected_components() == 1
    for n in range(4, 8):
        mn = C.matching_complex(n)
        assert len(mn.vertices) == math.comb(n, 2)
        # k-simplices = matchings of size k+1
        for k in range(mn.dimension() + 1):
            count = _matchings(n, k + 1)
            assert len(mn.k_simplices(k)) == count


def _matchings(n: int, size: int) -> int:
    total = 1
    for i in range(size):
        total *= math.comb(n - 2 * i, 2)
    return total // math.factorial(size)


def test_matching_m4_homology():
    res = C.homology(C.matching_complex(4), 1)
    assert res.betti[0] == 2 and res.torsion[0] == ()


def test_matching_m5_is_petersen():
    res = C.homology(C.matching_complex(5), 1)
    assert res.betti == {0: 0, 1: 6}


def test_matching_m7_torsion_cross_checked():
    m7 = C.matching_complex(7)
    res = C.homology(m7, 1)
    assert res.betti[1] == 0
    assert res.torsion[1] == (3,)
    # independent route: dimensions over F_p via modular row reduction
    d1, d2 = m7.boundary_matrix(1), m7.boundary_matrix(2)
    for p, expected in ((2, 0), (3, 1), (5, 0)):
        dim = (d1.shape[1] - rank_mod_p(d1, p)) - rank_mod_p(d2, p)
        assert dim == expected


def test_matching_connectivity_window():
    for n in range(4, 8):
        bound = C.connectivity_bound(n)
        if bound < 0:
            continue
        res = C.homology(C.matching_complex(n), bound)
        assert res.is_trivial_through(bound), (n, res)


def _assert_boundaries_match_dense(cx: C.SimplicialComplex):
    for k in range(cx.dimension() + 2):
        mat = cx.boundary_matrix(k)
        assert C.smith_diagonal(mat) == oracle.dense_smith(mat), k


def test_sparse_smith_on_matching_boundaries():
    for n in range(4, 9):
        _assert_boundaries_match_dense(C.matching_complex(n))


# -- descending links -------------------------------------------------------------


def test_dlink_trivial_group_counts(trivial_diag):
    for n in (2, 3, 4, 5):
        link = C.dlink_complex(trivial_diag, n)
        assert len(link.complex.vertices) == n * (n - 1)
        assert C.check_complete_join(link)
        _assert_boundaries_match_dense(link.complex)
    link2 = C.dlink_complex(trivial_diag, 2)
    assert link2.complex.dimension() == 0
    assert len(link2.complex.vertices) == 2


def test_dlink_z2_vertex_count(z2_diag):
    link = C.dlink_complex(z2_diag, 4)
    assert len(link.complex.vertices) == 24  # |G| * n * (n-1)
    assert C.check_complete_join(link)
    _assert_boundaries_match_dense(link.complex)


def test_dlink_right_rule(z2_diag):
    z2 = CyclicGroup(2)
    ctx = Context(z2, WreathRecursion(z2, "right"))
    link = C.dlink_complex(ctx, 4)
    assert len(link.complex.vertices) == 24
    assert C.check_complete_join(link)


def test_forgetful_map_examples(trivial_diag):
    link = C.dlink_complex(trivial_diag, 4)
    pairs = [C.forgetful_pi(k) for k in link.vertex_keys]
    # identity permutation, caret at the first root
    for key, pair in zip(link.vertex_keys, pairs):
        _, _, cols = key
        sigma_id = all(
            dom[0] == i for i, (dom, _, _) in enumerate(cols)
        )
        caret_first = cols[0][2][1] != "" and cols[1][2][1] != ""
        if sigma_id and caret_first:
            assert pair == (1, 2)
    assert sorted(set(pairs)) == sorted(
        tuple(p) for p in itertools.combinations(range(1, 5), 2)
    )


def test_forgetful_pi_orbit_invariance(z2_diag):
    link = C.dlink_complex(z2_diag, 3)
    # all raw tuples of one class map to the same pair
    by_class: dict[int, set] = {}
    for labels, sigma, carets in _raw_tuples(z2_diag, 3, 1):
        el = C._class_element(z2_diag, 3, labels, sigma, carets)
        pair = C.forgetful_pi(el.diagram.key())
        by_class.setdefault(link.class_id((labels, sigma, carets)), set()).add(pair)
    assert len(by_class) == len(link.vertex_keys)
    assert all(len(v) == 1 for v in by_class.values())


def test_forgetful_pi_simplicial_surjective(z2_diag):
    link = C.dlink_complex(z2_diag, 4)
    mn = C.matching_complex(4)
    pi = [C.forgetful_pi(k) for k in link.vertex_keys]
    midx = {v: i for i, v in enumerate(mn.vertices)}
    images = set()
    for s in link.complex.simplices:
        img = tuple(sorted(midx[pi[v]] for v in s))
        assert len(set(img)) == len(s)
        assert img in mn.simplices
        images.add(img)
    assert images == mn.simplices


def test_dlink_join_equals_bruteforce(z3_diag):
    for n in (3, 4):
        link = C.dlink_complex(z3_diag, n)
        join = C.dlink_via_join(link)
        assert join.simplices == link.complex.simplices
        _assert_boundaries_match_dense(link.complex)


def _context(backend, rule, **kw):
    return Context(backend, WreathRecursion(backend, rule, **kw))


S3 = symmetric_table(3)
# the sign map: transpositions swap the two halves
SIGN = {v: S3.mul(v, v) == 0 and v != 0 for v in range(6)}
DLINK_CONTEXTS = {
    "trivial": _context(FiniteTableGroup([[0]]), "diagonal"),
    "z2_diag": _context(CyclicGroup(2), "diagonal"),
    "z2_right": _context(CyclicGroup(2), "right"),
    "z3_diag": _context(CyclicGroup(3), "diagonal"),
    "s3_diag": _context(S3, "diagonal"),
    "s3_sign": _context(S3, "kappa", kappa=SIGN),
}


@pytest.mark.parametrize(
    "name, n",
    [("trivial", n) for n in (2, 3, 4, 5)]
    + [(name, n) for name in ("z2_diag", "z2_right", "z3_diag") for n in (2, 3, 4)]
    # non-abelian labels, with and without the swap; the oracle takes ~14 s at n=4
    + [(name, n) for name in ("s3_diag", "s3_sign") for n in (2, 3)],
)
def test_dlink_matches_compose_oracle(name, n):
    ctx = DLINK_CONTEXTS[name]
    link = C.dlink_complex(ctx, n)
    ref = oracle.dlink_complex(ctx, n)
    # the oracle's class_of holds every raw tuple, the library's one
    # representative per class: the first raw tuple of the class met by a
    # walk in (carets, sigma, label indices) order
    for raw, cid in ref.class_of.items():
        assert link.class_id(raw) == cid
    assert len(link.class_of) == len(set(ref.class_of.values()))
    rank = {g: i for i, g in enumerate(ctx.backend.element_values())}
    first: dict[int, tuple] = {}
    for raw, cid in ref.class_of.items():
        labels, sigma, carets = raw
        order = (len(carets), carets, sigma, tuple(rank[g] for g in labels))
        first[cid] = min(first.get(cid, (order, raw)), (order, raw))
    assert {raw: cid for cid, (_, raw) in first.items()} == link.class_of
    assert link.vertex_keys == ref.vertex_keys
    assert link.simplex_vertices == ref.simplex_vertices
    assert link.complex.simplices == ref.complex.simplices


CLASS_COUNT_EXAMPLES = {
    ("z2_diag", 5): {1: 40, 2: 240},
    ("z3_diag", 4): {1: 36, 2: 108},
    ("s3_sign", 4): {1: 72, 2: 432},
    ("z2_diag", 6): {1: 60, 2: 720, 3: 960},
    ("z3_diag", 6): {1: 90, 2: 1620, 3: 3240},
    ("s3_sign", 5): {1: 120, 2: 2160},
    ("z2_diag", 8): {1: 112, 2: 3360, 3: 26880, 4: 26880},
}
# about 30 s each: run with pytest -m slow
SLOW_HEIGHTS = {("z2_diag", 8)}
# heights whose raw tuples (over 500,000 of them) are not walked here
BEYOND_BRUTE_FORCE = {("z2_diag", 6), ("z3_diag", 6), ("s3_sign", 5)} | SLOW_HEIGHTS


def _raw_tuples(ctx, n, j):
    """Every raw (labels, sigma, carets) tuple with j carets at height n."""
    return itertools.product(
        itertools.product(list(ctx.backend.element_values()), repeat=n),
        itertools.permutations(range(n)),
        itertools.combinations(range(n - j), j),
    )


@pytest.mark.parametrize(
    "name, n",
    [("trivial", n) for n in (2, 3, 4, 5)]
    + [("z2_diag", 5), ("z2_right", 5), ("z3_diag", 4), ("s3_diag", 3), ("s3_sign", 4)]
    + sorted(BEYOND_BRUTE_FORCE - SLOW_HEIGHTS)
    + [pytest.param(*case, marks=pytest.mark.slow) for case in sorted(SLOW_HEIGHTS)],
)
def test_dlink_class_counts(name, n):
    """C(m,j) n! |G|^n / (|G|^m m!) classes with j carets, m = n - j: the
    wreath group of order |G|^m m! acts freely on the raw tuples."""
    ctx = DLINK_CONTEXTS[name]
    g = ctx.backend.order()
    link = C.dlink_complex(ctx, n)
    by_carets: dict[int, int] = {}
    for vertices in link.simplex_vertices.values():
        by_carets[len(vertices)] = by_carets.get(len(vertices), 0) + 1
    want = {}
    for j in range(1, n // 2 + 1):
        m = n - j
        tuples = math.comb(m, j) * math.factorial(n) * g ** n
        want[j], rest = divmod(tuples, g ** m * math.factorial(m))
        assert rest == 0
    assert by_carets == want
    assert len(link.class_of) == sum(want.values())
    assert CLASS_COUNT_EXAMPLES.get((name, n), want) == want
    if (name, n) in BEYOND_BRUTE_FORCE:
        assert C.check_complete_join(link)
        return
    # every raw tuple lands in a class with j carets, |G|^m m! in each
    hits: dict[int, int] = {}
    for j in want:
        for raw in _raw_tuples(ctx, n, j):
            cid = link.class_id(raw)
            assert len(link.simplex_vertices[cid]) == j
            hits[cid] = hits.get(cid, 0) + 1
    assert sorted(hits) == list(range(len(link.class_of)))
    for cid, count in hits.items():
        m = n - len(link.simplex_vertices[cid])
        assert count == g ** m * math.factorial(m)


def _refuse_listing(*args):
    raise AssertionError("listed matchings past the size limit")


def test_dlink_cap(z2_diag, trivial_diag, monkeypatch):
    # 328,752 classes at Z/2 diagonal n=9: refused from the count alone
    monkeypatch.setattr(C, "_matchings", _refuse_listing)
    monkeypatch.setattr(C, "CaretOrbits", _refuse_listing)
    assert C._matching_count(9, 4, math.inf) == 328_752
    with pytest.raises(ValueError, match="height 9 has more than MAX_DLINK_CLASSES"):
        C.dlink_complex(z2_diag, 9)
    # trivial n=10 has 133,650 classes; n=9 (26,784) is the largest admitted
    assert C._matching_count(9, 2, math.inf) <= C.MAX_DLINK_CLASSES
    for n in (10, 10**6):
        with pytest.raises(ValueError, match="MAX_DLINK_CLASSES"):
            C.dlink_complex(trivial_diag, n)


def test_matching_size_limit(monkeypatch):
    monkeypatch.setattr(C, "_matchings", _refuse_listing)
    for n in (15, 10**6):
        with pytest.raises(ValueError, match="MAX_MATCHING_SIMPLICES"):
            C.matching_complex(n)
    assert C._matching_count(14, 1, math.inf) == 2_390_479 <= C.MAX_MATCHING_SIMPLICES


def test_matching_count_stops_past_the_limit():
    # the partial sums grow with n, so the first one past the limit suffices
    for weight, stop in ((1, 100), (4, 1000), (2, 26_784)):
        exact = [C._matching_count(n, weight, math.inf) for n in range(30)]
        for n in range(30):
            got = C._matching_count(n, weight, stop)
            assert got == exact[n] if exact[n] <= stop else exact[n] >= got > stop


def test_dlink_checks_the_listing_against_the_count(z2_diag, monkeypatch):
    listing = C._matchings
    monkeypatch.setattr(C, "_matchings", lambda n: itertools.islice(listing(n), 1, None))
    with pytest.raises(AssertionError, match="listed 68 classes, counted 72"):
        C.dlink_complex(z2_diag, 4)


def test_matching_count_matches_the_listing():
    for n in range(10):
        matchings = list(C._matchings(n))
        assert len(set(matchings)) == len(matchings)
        for m in matchings:
            ends = [i for edge in m for i in edge]
            assert len(set(ends)) == len(ends) and all(a < c for a, c in m)
            assert [a for a, _ in m] == sorted(a for a, _ in m)
        for weight in (1, 2, 4, 6):
            want = sum(weight ** len(m) for m in matchings)
            assert C._matching_count(n, weight, math.inf) == want
        by_size = [sum(len(m) == j for m in matchings) for j in range(1, n // 2 + 1)]
        assert by_size == [_matchings(n, j) for j in range(1, n // 2 + 1)]


def test_complete_join_rejects_broken_links(z2_diag):
    link = C.dlink_complex(z2_diag, 4)
    assert C.check_complete_join(link)
    pi = [C.forgetful_pi(k) for k in link.vertex_keys]
    # an edge between two vertices whose pairs meet is not simplicial
    u, v = next(
        (u, v)
        for u, v in itertools.combinations(range(len(pi)), 2)
        if set(pi[u]) & set(pi[v])
    )
    extra = C.SimplicialComplex(link.vertex_keys, list(link.complex.simplices) + [(u, v)])
    assert not C.check_complete_join(dataclasses.replace(link, complex=extra))
    # a missing pair is not surjective
    keep = [w for w in range(len(pi)) if pi[w] != (1, 2)]
    where = {w: i for i, w in enumerate(keep)}
    sub = C.SimplicialComplex(
        [link.vertex_keys[w] for w in keep],
        [
            tuple(where[w] for w in s)
            for s in link.complex.simplices
            if all(w in where for w in s)
        ],
    )
    cut = dataclasses.replace(link, complex=sub, vertex_keys=sub.vertices)
    assert not C.check_complete_join(cut)


def test_connectivity_report_vacuous(trivial_diag):
    link = C.dlink_complex(trivial_diag, 4)
    rep = C.connectivity_report(link.complex, 4)
    assert rep["vacuous"] and rep["consistent"]
    rep5 = C.connectivity_report(C.matching_complex(5), 5)
    assert not rep5["vacuous"] and rep5["consistent"]


def test_complex_json_round_trip(trivial_diag):
    link = C.dlink_complex(trivial_diag, 4)
    data = link.complex.to_json()
    back = C.SimplicialComplex.from_json(data)
    assert back.simplices == link.complex.simplices
    assert back.to_json() == data
