import itertools
import json
import random

import pytest

from labeled_thompson import serialize
from labeled_thompson.groups import (
    BackendMismatch,
    CyclicGroup,
    FiniteTableGroup,
    FreeGroup,
    ProductGroup,
    SymmetricGroup,
    WreathImage,
    WreathRecursion,
    cyclic_table,
    injectivize,
    symmetric_table,
)


def lsb_increment(word: str) -> str:
    """Independent odometer: binary increment, least-significant bit first."""
    out, carry = [], 1
    for c in word:
        b = int(c) + carry
        out.append(str(b % 2))
        carry = b // 2
    return "".join(out)


# -- backends ----------------------------------------------------------------


def _axiom_check(backend, values):
    e = backend.identity_value()
    for a in values:
        assert backend.mul(a, e) == a and backend.mul(e, a) == a
        assert backend.mul(a, backend.inv(a)) == e
    for a, b, c in itertools.product(values, repeat=3):
        assert backend.mul(backend.mul(a, b), c) == backend.mul(a, backend.mul(b, c))


def test_finite_table_axioms():
    s3 = symmetric_table(3)
    assert s3.n == 6
    assert s3.is_associative()
    _axiom_check(s3, list(s3.element_values()))
    z4 = cyclic_table(4)
    _axiom_check(z4, list(z4.element_values()))


def test_finite_table_validation():
    with pytest.raises(ValueError):
        FiniteTableGroup([[0, 1], [0, 1]])  # not a Latin square
    with pytest.raises(ValueError):
        FiniteTableGroup([[1, 0], [0, 1]])  # identity not at 0
    with pytest.raises(ValueError, match="not associative"):
        FiniteTableGroup(LOOP5)  # a Latin square with identity 0: a loop


# the smallest loop that is not a group
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


# a loop in which x(1y) = (x1)y for all x, y: 1 and 2 generate it, and
# only the check of 2 shows that it is no group
LOOP6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 5, 4, 0, 1],
    [3, 2, 4, 5, 1, 0],
    [4, 5, 1, 0, 2, 3],
    [5, 4, 0, 1, 3, 2],
]


def _associative_by_triples(table) -> bool:
    """The n^3 check over every triple, the reference for Light's test."""
    rng = range(len(table))
    return all(
        table[table[a][b]][c] == table[a][table[b][c]] for a in rng for b in rng for c in rng
    )


def _random_loop(rng, n: int) -> list[list[int]]:
    """A Latin square with identity 0, filled cell by cell in random order
    of values, backtracking on a dead end."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c: int) -> bool:
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            rows[i][j] = v
            if fill(c + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    return rows


def _relabelled(table, rng) -> list[list[int]]:
    """The table under a random relabelling that keeps 0 the identity."""
    perm = [0] + rng.sample(range(1, len(table)), len(table) - 1)
    back = {v: i for i, v in enumerate(perm)}
    return [[perm[table[back[x]][back[y]]] for y in range(len(perm))] for x in range(len(perm))]


def test_light_test_matches_the_triple_check():
    """Light's test in the constructor agrees with the n^3 check on group
    tables, relabelled ones included, and on random loops."""
    rng = random.Random(7)
    groups = [cyclic_table(n).table for n in range(1, 13)]
    groups += [symmetric_table(3).table, symmetric_table(4).table]
    groups += [
        [[i ^ j for j in range(8)] for i in range(8)],  # (Z/2)^3, three generators
        [[(i + j) % 2 + 2 * ((i // 2 + j // 2) % 4) for j in range(8)] for i in range(8)],
    ]
    groups += [_relabelled(t, rng) for t in groups for _ in range(3)]
    for table in groups:
        assert _associative_by_triples(table)
        assert FiniteTableGroup(table).is_associative()
    verdicts = []
    for t in range(300):
        table = LOOP6 if t == 0 else _random_loop(rng, 2 + t % 7)
        verdicts.append(_associative_by_triples(table))
        if verdicts[-1]:
            assert FiniteTableGroup(table).is_associative()
        else:
            with pytest.raises(ValueError, match="not associative"):
                FiniteTableGroup(table)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 10


def test_cyclic_groups():
    z5 = CyclicGroup(5)
    assert (z5.element(3) * z5.element(4)).value == 2
    _axiom_check(z5, list(z5.element_values()))
    z = CyclicGroup(None)
    t = z.element(1)
    assert (t ** 5).value == 5 and (~t).value == -1
    assert z.parse("t") == t


def test_symmetric_group_right_action():
    s3 = SymmetricGroup(3)
    a = s3.element((2, 1, 3))  # transposition
    assert (a * a).is_identity()
    b = s3.element((2, 3, 1))
    # right action: images compose left to right
    ab = a * b
    for i in range(1, 4):
        assert ab.value[i - 1] == b.value[a.value[i - 1] - 1]
    _axiom_check(s3, list(s3.element_values()))


def test_free_group_reduction():
    f2 = FreeGroup(2)
    a, binv = f2.parse("a"), f2.parse("B")
    # ab^-1 * ba = aa after free reduction
    left = f2.parse("aB") * f2.parse("ba")
    assert left == f2.parse("aa")
    assert (a * ~a).is_identity()
    assert f2.parse("abBA").is_identity()
    assert repr(f2.parse("aB")) == "aB"
    _axiom_check(f2, [f2.parse(w).value for w in ["a", "b", "A", "ab", "aB", "1"]])


def test_product_group():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(3)])
    assert g.order() == 6
    x = g.parse("1&2")
    assert (x * x).value == (0, 1)
    _axiom_check(g, list(g.element_values()))


def test_backend_mismatch():
    z2, z3 = CyclicGroup(2), CyclicGroup(3)
    with pytest.raises(BackendMismatch):
        z2.element(1) * z3.element(1)


# -- wreath recursions ---------------------------------------------------------


def test_canonical_rule_images():
    s3 = symmetric_table(3)
    g = s3.element(1)
    one = s3.one()
    assert WreathRecursion(s3, "diagonal").apply(g) == WreathImage(g, g, False)
    assert WreathRecursion(s3, "right").apply(g) == WreathImage(one, g, False)
    assert WreathRecursion(s3, "left").apply(g) == WreathImage(g, one, False)
    assert WreathRecursion(s3, "vanishing").apply(g) == WreathImage(one, one, False)
    z = CyclicGroup(None)
    t = z.element(1)
    assert WreathRecursion(z, "adding").apply(t) == WreathImage(z.one(), t, True)


def test_homomorphism_property_exhaustive():
    s3 = symmetric_table(3)
    z4 = cyclic_table(4)
    recs = [
        WreathRecursion(s3, "diagonal"),
        WreathRecursion(s3, "right"),
        WreathRecursion(s3, "left"),
        WreathRecursion(s3, "vanishing"),
        WreathRecursion(
            z4, "custom", table={v: ((2 * v) % 4, (2 * v) % 4, False) for v in range(4)}
        ),
    ]
    # parity map read off the table: involutions in S3 are the transpositions
    transpositions = [v for v in range(6) if s3.mul(v, v) == 0 and v != 0]
    parity = {0: False}
    for v in range(1, 6):
        parity[v] = v in transpositions
    recs.append(WreathRecursion(s3, "kappa", kappa=parity))
    for rec in recs:
        B = rec.backend
        for a in B.elements():
            for b in B.elements():
                ia, ib = rec.apply(a), rec.apply(b)
                left_slot = ia.left * (ib.right if ia.swap else ib.left)
                right_slot = ia.right * (ib.left if ia.swap else ib.right)
                assert rec.apply(a * b) == WreathImage(
                    left_slot, right_slot, ia.swap ^ ib.swap
                ), rec


def test_adding_machine_homomorphism_sampled():
    z = CyclicGroup(None)
    rec = WreathRecursion(z, "adding")
    for m in range(-6, 7):
        for n in range(-6, 7):
            ia, ib = rec.apply(z.element(m)), rec.apply(z.element(n))
            left_slot = ia.left * (ib.right if ia.swap else ib.left)
            right_slot = ia.right * (ib.left if ia.swap else ib.right)
            assert rec.apply(z.element(m + n)) == WreathImage(
                left_slot, right_slot, ia.swap ^ ib.swap
            )


def test_injectivity_flags():
    z2 = CyclicGroup(2)
    assert WreathRecursion(z2, "vanishing").is_injective() is False
    assert WreathRecursion(z2, "diagonal").is_injective() is True
    assert WreathRecursion(z2, "right").is_injective() is True
    triv = FiniteTableGroup([[0]])
    assert WreathRecursion(triv, "vanishing").is_injective() is True
    # custom table sending everything to the identity image
    table = {0: (0, 0, False), 1: (0, 0, False)}
    rec = WreathRecursion(cyclic_table(2), "custom", table=table)
    assert rec.is_injective() is False


def test_preimage_round_trip():
    s3 = symmetric_table(3)
    for rule in ("diagonal", "right", "left"):
        rec = WreathRecursion(s3, rule)
        for g in s3.elements():
            assert rec.preimage(rec.apply(g)) == g
    rec = WreathRecursion(s3, "diagonal")
    g, h = s3.element(1), s3.element(2)
    assert rec.preimage(WreathImage(g, h, False)) is None
    assert rec.preimage(WreathImage(g, g, True)) is None
    right = WreathRecursion(s3, "right")
    assert right.preimage(WreathImage(h, g, False)) is None
    vanish = WreathRecursion(CyclicGroup(2), "vanishing")
    with pytest.raises(ValueError):
        vanish.preimage(WreathImage(vanish.backend.one(), vanish.backend.one(), False))


def test_adding_machine_preimage_exhaustive_window():
    z = CyclicGroup(None)
    rec = WreathRecursion(z, "adding")
    for m in range(-16, 17):
        img = rec.apply(z.element(m))
        assert rec.preimage(img) == z.element(m)
        # oracle: the preimage is unique in a word-length-bounded window
        matches = [k for k in range(-40, 41) if rec.apply(z.element(k)) == img]
        assert matches == [m]


def _checked_apply(rec, g):
    """The adding and custom images as `apply` built them before it wrapped
    values unchecked: every slot through `backend.element`."""
    B, v = rec.backend, g.value
    if rec.rule == "adding":
        return WreathImage(B.element(v // 2), B.element(-((-v) // 2)), bool(v % 2))
    l, r, s = rec.table[v]
    return WreathImage(B.element(l), B.element(r), s)


def _checked_preimage(rec, w):
    """`preimage` as it was before the closed form: checked values, and the
    adding rule re-applies the recursion to its candidate."""
    B = rec.backend
    l, r, s = w.left.value, w.right.value, w.swap
    e = B.identity_value()
    if rec.rule == "diagonal":
        return B.element(l) if (l == r and not s) else None
    if rec.rule == "right":
        return B.element(r) if (l == e and not s) else None
    if rec.rule == "left":
        return B.element(l) if (r == e and not s) else None
    if rec.rule == "kappa":
        return B.element(l) if (l == r and rec.kappa[l] == s) else None
    if rec.rule == "adding":
        m = 2 * l + 1 if s else 2 * l
        return B.element(m) if _checked_apply(rec, B.element(m)) == w else None
    g = rec._preimage.get((l, r, s))
    return B.element(g) if g is not None else None


def _assert_preimages_match(rec, values):
    B = rec.backend
    for l, r, s in itertools.product(values, values, (False, True)):
        w = WreathImage(B.element(l), B.element(r), s)
        got, want = rec.preimage(w), _checked_preimage(rec, w)
        assert got == want, (l, r, s)
        if got is not None:
            assert B.check_value(got.value) and type(got.value) is int
            assert rec.apply(got) == w


def test_unchecked_images_match_the_checked_route():
    z = CyclicGroup(None)
    adding = WreathRecursion(z, "adding")
    for m in range(-40, 41):
        img = adding.apply(z.element(m))
        assert img == _checked_apply(adding, z.element(m))
        assert all(type(x.value) is int for x in img[:2])
    _assert_preimages_match(adding, range(-12, 13))
    s3 = symmetric_table(3)
    sign = {v: s3.mul(v, v) == 0 and v != 0 for v in range(6)}
    for rec in (
        WreathRecursion(s3, "diagonal"),
        WreathRecursion(s3, "right"),
        WreathRecursion(s3, "left"),
        WreathRecursion(s3, "kappa", kappa=sign),
    ):
        _assert_preimages_match(rec, range(6))
    z4 = cyclic_table(4)
    doubling = WreathRecursion(
        z4, "custom", table={v: ((2 * v) % 4, (2 * v) % 4, False) for v in range(4)}
    )
    customs = [
        WreathRecursion(s3, "custom", table={v: (v, v, sign[v]) for v in range(6)}),
        WreathRecursion(cyclic_table(2), "custom", table={0: (0, 0, False), 1: (0, 0, True)}),
        injectivize(doubling)[2],
    ]
    for rec in customs:
        assert rec.rule == "custom" and rec.is_injective()
        values = list(rec.backend.element_values())
        for g in rec.backend.elements():
            assert rec.apply(g) == _checked_apply(rec, g)
        _assert_preimages_match(rec, values)


# -- tree action ---------------------------------------------------------------


def test_tree_action_examples():
    z = CyclicGroup(None)
    rec = WreathRecursion(z, "adding")
    t = z.element(1)
    assert rec.walk(t, "000")[0] == "100"
    assert rec.walk(t, "100")[0] == "010"
    s3 = symmetric_table(3)
    dia = WreathRecursion(s3, "diagonal")
    for g in s3.elements():
        assert dia.walk(g, "0110")[0] == "0110"


def test_tree_action_is_odometer():
    z = CyclicGroup(None)
    rec = WreathRecursion(z, "adding")
    t = z.element(1)
    rng = random.Random(4)
    for _ in range(200):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 10)))
        assert rec.walk(t, w)[0] == lsb_increment(w)


def test_tree_action_is_right_action():
    s3 = symmetric_table(3)
    parity = {v: s3.mul(v, v) == 0 and v != 0 for v in range(6)}
    rec = WreathRecursion(s3, "kappa", kappa=parity)
    rng = random.Random(11)
    for _ in range(200):
        g = s3.element(rng.randrange(6))
        h = s3.element(rng.randrange(6))
        w = "".join(rng.choice("01") for _ in range(rng.randrange(8)))
        assert rec.walk(g * h, w)[0] == rec.walk(h, rec.walk(g, w)[0])[0]
        assert len(rec.walk(g, w)[0]) == len(w)


# -- injectivization -----------------------------------------------------------


def test_injectivize_vanishing_z2():
    rec = WreathRecursion(CyclicGroup(2), "vanishing")
    hat, pi, hat_rec, steps = injectivize(rec)
    assert steps == 1 and hat.n == 1
    assert hat_rec.is_injective() is True


def test_injectivize_doubling_z4():
    z4 = cyclic_table(4)
    rec = WreathRecursion(
        z4, "custom", table={v: ((2 * v) % 4, (2 * v) % 4, False) for v in range(4)}
    )
    hat, pi, hat_rec, steps = injectivize(rec)
    assert steps == 2 and hat.n == 1


def test_injectivize_already_injective():
    s3 = symmetric_table(3)
    rec = WreathRecursion(s3, "diagonal")
    hat, pi, hat_rec, steps = injectivize(rec)
    assert steps == 0 and hat.n == 6
    # pi is an isomorphism here
    seen = {pi(g).value for g in s3.elements()}
    assert len(seen) == 6


def test_injectivize_commuting_square():
    z4 = cyclic_table(4)
    rec = WreathRecursion(
        z4, "custom", table={v: ((v * 2) % 4, 0, False) for v in range(4)}
    )
    hat, pi, hat_rec, steps = injectivize(rec)
    for g in z4.elements():
        img = rec.apply(g)
        assert hat_rec.apply(pi(g)) == WreathImage(pi(img.left), pi(img.right), img.swap)
    # pi is a surjective homomorphism
    for a in z4.elements():
        for b in z4.elements():
            assert pi(a * b) == pi(a) * pi(b)
    assert {pi(g).value for g in z4.elements()} == set(range(hat.n))


def test_injectivize_refuses_infinite():
    z = CyclicGroup(None)
    for rule in ("adding", "vanishing"):
        with pytest.raises(ValueError, match="stabilize"):
            injectivize(WreathRecursion(z, rule))


# -- JSON ----------------------------------------------------------------------


def _regular_sign(B) -> dict:
    """The sign of right multiplication by g on the elements of a finite B:
    a homomorphism to S2, nontrivial on Z/2, Z/4 and S3."""
    values = list(B.element_values())
    index = {v: i for i, v in enumerate(values)}
    sign = {}
    for g in values:
        perm = [index[B.mul(x, g)] for x in values]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        sign[g] = bool(inversions % 2)
    return sign


def _recursions(B) -> list:
    """Every rule the backend admits: tables only on finite groups, the
    adding machine only on the integers."""
    recs = [WreathRecursion(B, rule) for rule in ("diagonal", "vanishing", "right", "left")]
    if isinstance(B, CyclicGroup) and B.n is None:
        recs.append(WreathRecursion(B, "adding"))
    if B.is_finite():
        sign = _regular_sign(B)
        e = B.identity_value()
        recs += [
            WreathRecursion(B, "kappa", kappa=sign),
            WreathRecursion(B, "custom", table={v: (v, v, s) for v, s in sign.items()}),
            WreathRecursion(B, "custom", table={v: (e, v, False) for v in sign}),
        ]
    return recs


JSON_BACKENDS = {
    "finite": lambda: cyclic_table(4),
    "finite-named": lambda: symmetric_table(3),
    "cyclic": lambda: CyclicGroup(2),
    "integers": lambda: CyclicGroup(None),
    "symmetric": lambda: SymmetricGroup(3),
    "free": lambda: FreeGroup(2),
    "product": lambda: ProductGroup([CyclicGroup(2), SymmetricGroup(3)]),
    "product-infinite": lambda: ProductGroup([FreeGroup(1), CyclicGroup(None)]),
}


@pytest.mark.parametrize("kind", list(JSON_BACKENDS))
def test_group_and_recursion_json_round_trip(kind):
    B = JSON_BACKENDS[kind]()
    for phi in _recursions(B):
        data = {
            "group": serialize.backend_to_json(B),
            "recursion": serialize.recursion_to_json(phi),
        }
        ctx_data = json.loads(json.dumps(data))
        B2 = serialize.backend_from_json(ctx_data["group"])
        phi2 = serialize.recursion_from_json(B2, ctx_data["recursion"])
        again = {
            "group": serialize.backend_to_json(B2),
            "recursion": serialize.recursion_to_json(phi2),
        }
        assert again == ctx_data, phi
        assert phi2.rule == phi.rule
        if B.is_finite():
            for g in B.elements():
                img, img2 = phi.apply(g), phi2.apply(B2.element(g.value))
                assert (img.left.value, img.right.value, img.swap) == (
                    img2.left.value,
                    img2.right.value,
                    img2.swap,
                ), (phi, g)
