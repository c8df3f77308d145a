import dataclasses
import itertools
import math
import random

import complex_oracle as oracle
import numpy as np
import pytest

from labeled_thompson import complexes as C
from labeled_thompson.diagrams import Context, LabeledDiagram
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


def test_smith_exact_past_int64():
    # big * big - 1 is past int64 and must stay exact
    big = 1 << 40
    diag = C.smith_diagonal(np.array([[big, 1], [1, big]], dtype=np.int64))
    assert diag == [1, big * big - 1]


def _sympy_diagonal(mat) -> list[int]:
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix(mat.tolist()))
    return [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]


def _sparse_matrix(rng, big: bool, shape=None) -> np.ndarray:
    """Mostly 0 and +-1 with some +-2/+-3, so that unit elimination often
    stops early and leaves a residual block (and torsion); with big, a few
    entries near 2^62 push the residual past int64.  The shape is random
    unless given."""
    m, n = shape or (rng.randint(1, 30), rng.randint(1, 40))
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
    assert torsion >= 5  # non-unit pivots ran, not only unit pivots


SHAPES = {
    "wide": lambda rng: (rng.randint(2, 15), rng.randint(16, 40)),
    "tall": lambda rng: (rng.randint(16, 40), rng.randint(2, 15)),
    "square": lambda rng: (rng.randint(1, 25),) * 2,
    "row": lambda rng: (1, rng.randint(1, 40)),
    "column": lambda rng: (rng.randint(1, 40), 1),
}


def test_smith_same_on_either_side(rng):
    """The elimination runs on the side with fewer columns: a wide matrix
    is eliminated transposed, a tall one as given, and both must agree with
    each other, the dense oracle and sympy, torsion included, and stay
    exact where divisors pass int64."""
    seen = set()
    for t in range(100):
        kind = list(SHAPES)[t % len(SHAPES)]
        mat = _sparse_matrix(rng, big=t % 3 == 2, shape=SHAPES[kind](rng))
        got = []
        for side in (mat, mat.T):
            got.append(C.smith_diagonal(side))
            eliminated = "transposed" if side.shape[1] > side.shape[0] else "as given"
            if any(d > 1 for d in got[-1]):
                seen.add(eliminated)
        assert got[0] == got[1] == oracle.dense_smith(mat) == _sympy_diagonal(mat), (
            kind,
            mat,
        )
    assert seen == {"transposed", "as given"}  # torsion on both sides
    # a divisor past int64, after a unit pivot and with no unit at all
    b = 1 << 40
    for wide, want in (
        ([[b, 1, 0], [1, b, 0]], [1, b * b - 1]),
        ([[b, 2, 0], [2, b, 0]], [2, (b * b - 4) // 2]),
    ):
        mat = np.array(wide, dtype=np.int64)
        for side in (mat, mat.T):
            got = C.smith_diagonal(side)
            assert got == want == oracle.dense_smith(side) == _sympy_diagonal(side)
            assert got[-1] > np.iinfo(np.int64).max


def test_nonzeros_read_on_the_short_side():
    # the columns are those of the matrix itself, or of its transpose when
    # that has fewer; a square matrix stays as given
    for mat in (np.array([[2, 3, 0]]), np.array([[2], [3], [0]])):
        assert C._short_side(mat) == ([{0: 2, 1: 3}], {0: {0}, 1: {0}})
    assert C._short_side(np.array([[2, 3], [0, 0]])) == ([{0: 2}, {0: 3}], {0: {0, 1}})


def test_smith_without_units(rng):
    """No entry is a unit, so every pivot is found by the least-absolute-
    value search and its floor-quotient remainders, on either side."""
    small = (0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6)
    # with odd primes a remainder pivot often meets a smaller entry in its
    # row, whose floor quotient is 0
    primes = (0, 0, 2, -2, 3, -3, 5, -5, 7, -7, 9, -9)
    for t in range(150):
        values = small if t % 2 else primes
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        mat = np.array([[rng.choice(values) for _ in range(n)] for _ in range(m)])
        want = oracle.dense_smith(mat)
        assert C.smith_diagonal(mat) == C.smith_diagonal(mat.T) == want, mat
        assert want == _sympy_diagonal(mat), mat
    mat = np.array([[-3, 3, 7, -4, 3], [-3, 4, -3, 0, -6]])
    assert C.smith_diagonal(mat) == C.smith_diagonal(mat.T) == [1, 1] == _sympy_diagonal(mat)
    # gcd 1 from entries none of which is a unit
    assert C.smith_diagonal(np.array([[2, 3], [4, 6]])) == [1]
    assert C.smith_diagonal(np.array([[6, 0], [0, 4]])) == [2, 12]
    # found as 2, 5, 12, 18: the gcd/lcm repair takes several passes
    assert C.smith_diagonal(np.diag([12, 18, 2, 5])) == [1, 2, 6, 180]


def test_smith_non_unit_pivots_on_many_blocks(rng):
    """40 non-unit 2 x 2 blocks on the diagonal: each block needs its own
    least-absolute-value pivots, found among the columns still live."""
    values = (2, -2, 3, -3, 4, -4, 6, -6, 9, -9)
    mat = np.zeros((80, 80), dtype=np.int64)
    for b in range(40):
        scale = (1, 2, 3)[b % 3]  # torsion in two blocks of three
        block = [[scale * rng.choice(values) for _ in range(2)] for _ in range(2)]
        mat[2 * b:2 * b + 2, 2 * b:2 * b + 2] = block
    want = oracle.dense_smith(mat)
    assert want == _sympy_diagonal(mat)
    assert sum(d > 1 for d in want) >= 20
    assert C.smith_diagonal(mat) == C.smith_diagonal(mat.T) == want


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


def _random_input(rng) -> tuple[int, list[tuple[int, ...]]]:
    n = rng.randint(1, 8)
    simplices = [
        tuple(rng.sample(range(n), rng.randint(1, min(n, 5))))
        for _ in range(rng.randint(0, 8))
    ]
    return n, simplices


def _random_complex(rng) -> C.SimplicialComplex:
    n, simplices = _random_input(rng)
    return C.SimplicialComplex(list(range(n)), simplices)


EDGE_INPUTS = [
    (0, []),  # the empty complex: dimension -1, f-vector []
    (0, [()]),
    (3, []),  # vertices only
    (4, [(0, 1, 2), (1, 2), (2,), (2, 3)]),  # faces of other inputs
    (4, [(2, 0, 1), (1, 2, 0), (0, 1, 2), (3, 1), (1, 3)]),  # repeats
    (7, [(0, 1), (5,), (2, 3, 4)]),  # isolated vertices 5 and 6
]


def test_maximal_simplices_match_oracle(rng):
    inputs = EDGE_INPUTS + [_random_input(rng) for _ in range(60)]
    for n, simplices in inputs:
        want = oracle.closure(n, simplices)
        cx = C.SimplicialComplex(list(range(n)), simplices)
        assert cx.simplices == want
        assert cx.dimension() == max(map(len, want), default=0) - 1
        assert cx.f_vector() == [
            sum(len(s) == k + 1 for s in want) for k in range(cx.dimension() + 1)
        ]
        assert cx.maximal_simplices() == oracle.maximal_simplices(cx)
        # JSON that lists the input as given, neither sorted nor closed
        data = {"vertices": list(range(n)), "maximal": [list(s) for s in simplices]}
        assert C.SimplicialComplex.from_json(data).simplices == want
        back = C.SimplicialComplex.from_json(cx.to_json())
        assert back.simplices == want
        assert back.maximal_simplices() == cx.maximal_simplices()


def _largest_matchings(points: tuple) -> list[frozenset]:
    """Every matching of the points with len(points) // 2 edges, by pairing
    off the least point or, for an odd count, leaving it out."""
    if len(points) < 2:
        return [frozenset()]
    a, rest = points[0], points[1:]
    out = [
        m | {(a, b)}
        for b in rest
        for m in _largest_matchings(tuple(p for p in rest if p != b))
    ]
    if len(points) % 2:
        out += _largest_matchings(rest)
    return out


@pytest.mark.parametrize("n", range(2, 11))
def test_matching_complex_maximal_simplices(n):
    cx = C.matching_complex(n)
    got = [frozenset(cx.vertices[v] for v in s) for s in cx.maximal_simplices()]
    want = _largest_matchings(tuple(range(1, n + 1)))
    assert len(got) == len(set(got)) == len(want) == _matchings(n, n // 2)
    assert set(got) == set(want)


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


# the 6-vertex antipodal icosahedron quotient: 10 triangles, 15 edges,
# every edge shared by exactly two triangles
RP2_TRIANGLES = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
]


def _projective_plane() -> C.SimplicialComplex:
    return C.SimplicialComplex(
        list(range(1, 7)), [tuple(v - 1 for v in t) for t in RP2_TRIANGLES]
    )


def test_homology_projective_plane_torsion():
    edge_count: dict[tuple, int] = {}
    for t in RP2_TRIANGLES:
        for e in itertools.combinations(t, 2):
            edge_count[e] = edge_count.get(e, 0) + 1
    assert len(edge_count) == 15 and all(c == 2 for c in edge_count.values())
    res = C.homology(_projective_plane(), 2)
    assert res.betti == {0: 0, 1: 0, 2: 0}
    assert res.torsion[1] == (2,)


def test_homology_of_the_empty_complex():
    """No vertices: the empty simplex is a cycle that bounds nothing, so
    H~_(-1) = Z, which the Euler check counts; every listed group is zero."""
    for simplices in ([], [()]):
        res = C.homology(C.SimplicialComplex([], simplices), 0)
        assert res == C.HomologyResult({0: 0}, {0: ()}, ())
    empty = C.SimplicialComplex([], [])
    with pytest.raises(AssertionError, match="Euler characteristic mismatch"):
        C._check_euler(empty, C.HomologyResult({0: 1}, {0: ()}), 0)
    point = C.SimplicialComplex(["a"], [])
    assert C.homology(point, 0).betti == {0: 0}
    with pytest.raises(AssertionError, match="Euler characteristic mismatch"):
        C._check_euler(point, C.HomologyResult({0: 1}, {0: ()}), 0)


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


def _assert_builder_matches_oracle(cx: C.SimplicialComplex):
    for k in range(cx.dimension() + 3):  # k = 0 and two past the top
        got, want = cx.boundary_matrix(k), oracle.boundary_matrix(cx, k)
        assert type(got) is np.ndarray and got.dtype == want.dtype == np.int8
        assert got.shape == want.shape and np.array_equal(got, want), k


def test_boundary_builder_matches_loop_oracle(rng):
    for n in range(2, 10):
        _assert_builder_matches_oracle(C.matching_complex(n))
    for ctx in DLINK_CONTEXTS.values():
        _assert_builder_matches_oracle(C.dlink_complex(ctx, 4).complex)
    for n, simplices in EDGE_INPUTS + [_random_input(rng) for _ in range(60)]:
        _assert_builder_matches_oracle(C.SimplicialComplex(list(range(n)), simplices))
    empty = C.SimplicialComplex([], [])
    assert empty.boundary_matrix(0).shape == (1, 0)
    assert empty.boundary_matrix(1).shape == (0, 0)


def test_boundary_builder_past_int64_face_codes(rng):
    # base-|V| codes of 11-vertex faces would need 2000^11 > 2^120
    top = [tuple(rng.sample(range(1990), 11)) + (1999 - t,) for t in range(3)]
    cx = C.SimplicialComplex(list(range(2000)), top)
    assert cx.dimension() == 11
    for k in (10, 11):
        got, want = cx.boundary_matrix(k), oracle.boundary_matrix(cx, k)
        assert got.dtype == np.int8 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert (np.count_nonzero(got, axis=0) == k + 1).all()
    assert C.smith_diagonal(cx.boundary_matrix(11)) == [1, 1, 1]


def _assert_boundaries_match_dense(cx: C.SimplicialComplex):
    for k in range(cx.dimension() + 2):
        mat = cx.boundary_matrix(k)
        assert mat.dtype == np.int8  # entries are 0 and +-1
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


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("trivial", "z2_diag", "z3_diag") for n in (2, 3, 4)]
    + [("s3_sign", 2), ("s3_sign", 3)]
    # 124,416 raw tuples, about 5 s
    + [pytest.param("s3_sign", 4, marks=pytest.mark.slow)],
)
def test_class_elements_pass_validation(name, n):
    """`_class_element` builds its diagram unchecked: for every raw tuple
    the validating constructor accepts the columns as they are and gives an
    equal diagram, and the diagram is already reduced."""
    ctx = DLINK_CONTEXTS[name]
    for j in range(1, n // 2 + 1):
        for raw in _raw_tuples(ctx, n, j):
            d = C._class_element(ctx, n, *raw).diagram
            checked = LabeledDiagram(ctx, d.columns, n, n - j)
            assert checked.columns == d.columns and checked == d
            assert d.reduce() is d


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in DLINK_CONTEXTS for n in range(2, 6)] + [("z3_diag", 6)],
)
def test_face_lookup_matches_canonical_route(name, n):
    """Every face's vertex, looked up by its caret edge, is the class that
    `canonical` gives the face's raw tuple, and the vertex sets of the
    link are those faces."""
    ctx = DLINK_CONTEXTS[name]
    link = C.dlink_complex(ctx, n)
    for raw, cid in link.class_of.items():
        labels, sigma, carets = raw
        m = n - len(carets)
        rep = C._class_element(ctx, n, labels, sigma, carets)
        faces = []
        for r in carets:
            split = rep * C._splitting(ctx, m, [c for c in carets if c != r])
            want = link.class_id(oracle._class_tuple(split.diagram))
            assert C._face_vertex(link.orbits, link.vertex_of, split.diagram) == want
            faces.append(want)
        assert link.simplex_vertices[cid] == tuple(sorted(faces))
    assert sorted(link.vertex_of.values()) == list(range(len(link.vertex_keys)))


def test_face_lookup_refuses_unknown_edges(z2_diag):
    link = C.dlink_complex(z2_diag, 4)
    raw = next(raw for raw in link.class_of if len(raw[2]) == 2)
    rep = C._class_element(z2_diag, 4, *raw)
    with pytest.raises(AssertionError, match="not one known caret edge"):
        C._face_vertex(link.orbits, link.vertex_of, rep.diagram)  # two carets
    split = rep * C._splitting(z2_diag, 2, [1])
    with pytest.raises(AssertionError, match="not one known caret edge"):
        C._face_vertex(link.orbits, {}, split.diagram)


@pytest.mark.parametrize(
    "name, n",
    [("trivial", n) for n in (4, 5, 6, 7)]
    + [("z2_diag", n) for n in (4, 5, 6)]
    + [pytest.param("z2_diag", 7, marks=pytest.mark.slow)]
    + [("z3_diag", 4), ("z3_diag", 5)],
)
def test_link_homology_matches_inflation_formula(name, n):
    """Every degree of the link's homology, Betti numbers and torsion, as
    the inflation formula gives it from matching complexes alone."""
    ctx = DLINK_CONTEXTS[name]
    link = C.dlink_complex(ctx, n)
    top = link.complex.dimension()
    res = C.homology(link.complex, top)
    want = oracle.inflation_homology(n, 2 * ctx.backend.order(), top)
    assert (res.betti, res.torsion) == want
    if n == 7:  # the Z/3 of H~_1(M_7)
        assert res.torsion[1] == (3,)


def test_invariant_factors_of_a_direct_sum():
    assert oracle._invariant_factors([]) == ()
    assert oracle._invariant_factors([3, 3]) == (3, 3)
    assert oracle._invariant_factors([2, 3]) == (6,)
    assert oracle._invariant_factors([4, 2, 3, 9, 5]) == (6, 180)


# -- unit pairs across the chain complex -----------------------------------------


@pytest.fixture
def smith_calls(monkeypatch):
    """Every matrix passed to `complexes.smith_diagonal`, as (shape,
    nonzeros), so a test sees which route `homology` and the oracle took."""
    calls = []
    smith = C.smith_diagonal

    def spy(mat):
        calls.append(_seen(mat))
        return smith(mat)

    monkeypatch.setattr(C, "smith_diagonal", spy)
    return calls


def _seen(mat: np.ndarray) -> tuple:
    return mat.shape, int(np.count_nonzero(mat))


def _admitted_bounds(cx: C.SimplicialComplex) -> list[int]:
    """Every up_to from 0 to one past the top whose boundaries
    MAX_BOUNDARY_CELLS admits."""
    f = [1] + cx.f_vector() + [0, 0, 0]
    return [
        up_to
        for up_to in range(cx.dimension() + 2)
        if all(f[k] * f[k + 1] <= C.MAX_BOUNDARY_CELLS for k in range(up_to + 2))
    ]


def _assert_pairs_exact(cx, up_to, smith_calls, full=None) -> list[np.ndarray]:
    """[1] * p_k + the Smith diagonal of d_k's residual is the Smith
    diagonal of the whole d_k, for every k; `homology` eliminates the
    residuals alone and agrees with the per-matrix oracle, which eliminates
    the whole matrices.  `full` caches whole-matrix diagonals by k across
    bounds.  Returns the residuals."""
    full = {} if full is None else full
    mats = [cx.boundary_matrix(k) for k in range(up_to + 2)]
    pairs, live = C._pair_off(mats)
    # a pair inside d_k deletes one cell of level k and one of level k + 1
    sizes = [1] + [mat.shape[1] for mat in mats]
    for level, cells in enumerate(live):
        below = pairs[level - 1] if level else 0
        above = pairs[level] if level < len(pairs) else 0
        assert len(cells) == sizes[level] - below - above
    residuals = [mat[np.ix_(live[k], live[k + 1])] for k, mat in enumerate(mats)]
    for k, mat in enumerate(mats):
        if k not in full:
            full[k] = C.smith_diagonal(mat)
        assert [1] * pairs[k] + C.smith_diagonal(residuals[k]) == full[k], k
    smith_calls.clear()
    got = C.homology(cx, up_to)
    assert smith_calls == [_seen(r) for r in residuals]
    smith_calls.clear()
    assert oracle.homology_by_smith(cx, up_to) == got
    assert smith_calls == [_seen(mat) for mat in mats]
    return residuals


@pytest.mark.parametrize("n", range(2, 11))
def test_pairs_exact_on_matching_complexes(n, smith_calls):
    cx = C.matching_complex(n)
    full: dict = {}
    bounds = _admitted_bounds(cx)
    assert bounds == list(range(cx.dimension() + 2))  # every bound through M_10
    for up_to in bounds:
        _assert_pairs_exact(cx, up_to, smith_calls, full)


def test_pairs_exact_on_random_complexes(rng, smith_calls):
    for _ in range(300):
        cx = _random_complex(rng)
        _assert_pairs_exact(cx, cx.dimension(), smith_calls)


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in DLINK_CONTEXTS for n in (4, 5, 6) if not name.startswith("s3")]
    + [(name, n) for name in ("s3_diag", "s3_sign") for n in (4, 5)]
    # about 4 s to build each S3 link at n=6, and 1 s for Z/2 at n=7
    + [pytest.param(name, 6, marks=pytest.mark.slow) for name in ("s3_diag", "s3_sign")]
    + [pytest.param("z2_diag", 7, marks=pytest.mark.slow)],
)
def test_pairs_exact_on_links(name, n, smith_calls):
    cx = C.dlink_complex(DLINK_CONTEXTS[name], n).complex
    full: dict = {}
    for up_to in _admitted_bounds(cx):
        _assert_pairs_exact(cx, up_to, smith_calls, full)


def test_pair_residuals_of_known_complexes(smith_calls):
    """The residuals left once every pair is deleted, as (shape, nonzeros)
    by k, and the torsion that only they can carry."""
    circles = C.SimplicialComplex(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    tetrahedron = C.SimplicialComplex(range(4), list(itertools.combinations(range(4), 3)))
    cases = [
        # the empty simplex pairs a vertex of the first circle only, so the
        # second keeps its vertices and edges
        (circles, 1, {1: ((3, 4), 6)}, {0: 1, 1: 2}, {}),
        (_projective_plane(), 2, {2: ((5, 5), 10)}, {}, {1: (2,)}),
        (C.matching_complex(7), 1, {2: ((48, 68), 144)}, {}, {1: (3,)}),
        # one top cell survives, with no boundary left: H~_2 = Z
        (tetrahedron, 2, {2: ((0, 1), 0)}, {2: 1}, {}),
    ]
    for cx, up_to, shapes, betti, torsion in cases:
        residuals = _assert_pairs_exact(cx, up_to, smith_calls)
        for k, want in shapes.items():
            assert _seen(residuals[k]) == want, k
        others = [_seen(r) for k, r in enumerate(residuals) if k not in shapes]
        assert all(not nonzeros for _, nonzeros in others)
        res = C.homology(cx, up_to)
        assert {k: b for k, b in res.betti.items() if b} == betti
        assert {k: t for k, t in res.torsion.items() if t} == torsion
    # every cell below the top level pairs off: no residual has a row
    for n in (9, 10):
        residuals = _assert_pairs_exact(C.matching_complex(n), 1, smith_calls)
        assert [r.shape[0] for r in residuals] == [0, 0, 0]


def _unimodular(rng, n: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """A random integer matrix of determinant +-1 and its inverse, as a
    product of row additions and sign flips."""
    p, inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = rng.choice((1, -1, 2, -2, 3))
        p[i] += a * p[j]
        inv[:, j] -= a * inv[:, i]
    if n:
        flip = rng.randrange(n)
        p[flip] *= -1
        inv[:, flip] *= -1
    assert (p @ inv == np.eye(n, dtype=np.int64)).all()
    return p, inv


def test_pairs_exact_on_chain_complexes_with_non_unit_entries(rng):
    """A change of basis P_k in every level keeps a chain complex and its
    Smith forms, d_k -> P_k d_k P_(k+1)^-1, and puts entries other than 0
    and +-1 into it: pairs over them must not be taken."""
    # the cellular chain complex of RP^2, one cell in each dimension with
    # d_2 = 2: its top cell has one face and that face one coface, over the 2
    mats = [np.ones((1, 1), np.int64), np.zeros((1, 1), np.int64), np.array([[2]])]
    pairs, live = C._pair_off(mats)
    assert pairs == [1, 0, 0] and live == [[], [], [0], [0]]
    non_units = 0
    for _ in range(200):
        cx = _random_complex(rng)
        mats = [cx.boundary_matrix(k).astype(np.int64) for k in range(cx.dimension() + 2)]
        sizes = [1] + [mat.shape[1] for mat in mats]
        bases = [_unimodular(rng, n, rng.randint(0, 3)) for n in sizes]
        mats = [bases[k][0] @ mat @ bases[k + 1][1] for k, mat in enumerate(mats)]
        for k in range(len(mats) - 1):
            assert not (mats[k] @ mats[k + 1]).any()
        non_units += sum(int((abs(mat) > 1).sum()) for mat in mats)
        pairs, live = C._pair_off(mats)
        for k, mat in enumerate(mats):
            residual = mat[np.ix_(live[k], live[k + 1])]
            want = C.smith_diagonal(mat)
            assert [1] * pairs[k] + C.smith_diagonal(residual) == want, (k, mat)
            assert want == oracle.dense_smith(mat)
    assert non_units > 200


CLASS_COUNT_EXAMPLES = {
    ("z2_diag", 5): {1: 40, 2: 240},
    ("z3_diag", 4): {1: 36, 2: 108},
    ("s3_sign", 4): {1: 72, 2: 432},
    ("z2_diag", 6): {1: 60, 2: 720, 3: 960},
    ("z3_diag", 6): {1: 90, 2: 1620, 3: 3240},
    ("s3_sign", 5): {1: 120, 2: 2160},
    ("z2_diag", 8): {1: 112, 2: 3360, 3: 26880, 4: 26880},
}
# about 11 s each: run with pytest -m slow
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


def test_homology_boundary_limit(monkeypatch):
    # d_k is f_(k-1) x f_k; d_2 of M_12 (1,485 x 13,860) is admitted and its
    # d_3 (13,860 x 51,975, 720 MB as int8) is not
    assert 1485 * 13860 <= C.MAX_BOUNDARY_CELLS < 13860 * 51975
    cx = C.matching_complex(10)  # f = (45, 630, 3150, 4725, 945)
    monkeypatch.setattr(C, "MAX_BOUNDARY_CELLS", 630 * 3150)
    assert C.homology(cx, 1).is_trivial_through(1)

    def no_matrix(self, k):
        raise AssertionError("a boundary matrix was built")

    monkeypatch.setattr(C.SimplicialComplex, "boundary_matrix", no_matrix)
    monkeypatch.setattr(C, "MAX_BOUNDARY_CELLS", 630 * 3150 - 1)
    with pytest.raises(ValueError, match="d_2 would have 1,984,500 dense cells"):
        C.homology(cx, 1)
    with pytest.raises(ValueError, match="d_2 would have"):
        C.homology(cx, 3)


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


def test_json_face_entries_limit(monkeypatch):
    """A maximal simplex s brings |s| 2^(|s|-1) vertex entries into the
    face pass; JSON past MAX_FACE_ENTRIES of them is refused before any
    face is listed, while complexes built in the library are not checked."""
    # the figures the limit is documented by
    assert 135135 * 7 << 6 <= C.MAX_FACE_ENTRIES  # M_14
    assert 22 << 21 <= C.MAX_FACE_ENTRIES < 23 << 22
    monkeypatch.setattr(C, "MAX_FACE_ENTRIES", 12)

    def no_faces(*args):
        raise AssertionError("a complex was built")

    # a triangle has 3 x 4 = 12 entries, a vertex 1 more
    at = {"vertices": list("abcd"), "maximal": [[0, 1, 2], []]}
    assert C.SimplicialComplex.from_json(at).f_vector() == [4, 3, 1]
    past = {"vertices": list("abcd"), "maximal": [[0, 1, 2], [3]]}
    with monkeypatch.context() as m:
        m.setattr(C.SimplicialComplex, "__init__", no_faces)
        with pytest.raises(ValueError, match="13 vertex entries, more than MAX_FACE_ENTRIES = 12"):
            C.SimplicialComplex.from_json(past)
    m5 = C.matching_complex(5)  # 15 x 2 x 2 = 60 entries
    with pytest.raises(ValueError, match="MAX_FACE_ENTRIES"):
        C.SimplicialComplex.from_json(m5.to_json())
