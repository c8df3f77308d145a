import random

import pytest

from labeled_thompson import elements as E
from labeled_thompson.diagrams import Context, ContextMismatch
from labeled_thompson.groups import WreathRecursion, cyclic_table
from labeled_thompson.sampling import random_element
from labeled_thompson.serialize import element_from_json, element_to_json
from labeled_thompson.words import OMEGA0, EventuallyPeriodicWord


def lsb_word(k: int, depth: int) -> str:
    return format(k % (1 << depth), f"0{depth}b")[::-1]


def test_identity_and_inverse(s3_diag, rng):
    e = E.identity(s3_diag)
    assert e.is_identity()
    for _ in range(30):
        a = random_element(rng, s3_diag)
        assert (a * ~a).is_identity()
        assert (~a * a).is_identity()
        assert a * e == a and e * a == a


def test_inverse_examples(s3_diag):
    g = s3_diag.source_backend.element(1)
    a = E.element(s3_diag, [""], [g], [""])
    assert ~a == E.element(s3_diag, [""], [~g], [""])
    assert ~E.identity(s3_diag) == E.identity(s3_diag)


def test_context_mismatch(z2_diag, s3_diag):
    with pytest.raises((ContextMismatch, ValueError)):
        E.identity(z2_diag) * E.identity(s3_diag)


def test_power_column_limit(z2_diag, z_adding, monkeypatch):
    # x^k has k + 2 columns; x^8 is built from x^2, x^4 and x^8 only, with
    # no squaring past the last bit
    x = E.element(z2_diag, ["00", "01", "1"], [z2_diag.one()] * 3, ["0", "10", "11"])
    monkeypatch.setattr(E, "MAX_POWER_COLUMNS", 10)
    assert len((x ** 8).diagram.columns) == 10
    assert x ** -8 == ~(x ** 8)
    for k in (9, 16, 1 << 40, -(1 << 40)):
        with pytest.raises(ValueError, match="MAX_POWER_COLUMNS"):
            x ** k
    # an element whose powers stay small is not limited by the exponent
    t = E.element(z_adding, [""], [z_adding.source_backend.element(1)], [""])
    assert (t ** (1 << 40)).act_word(OMEGA0, 45) == lsb_word(1 << 40, 45)


def test_odometer_square(z_adding):
    t = E.element(z_adding, [""], [z_adding.source_backend.element(1)], [""])
    t2 = t * t
    for k in range(1, 9):
        assert (t ** k).act_word(OMEGA0, 8) == lsb_word(k, 8)
    assert t2.act_word(OMEGA0, 8) == lsb_word(2, 8)


def test_act_point_identity(z3_right, rng):
    e = E.identity(z3_right)
    for _ in range(30):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        per = "".join(rng.choice("01") for _ in range(1, 4))
        w = EventuallyPeriodicWord(pre, per)
        assert e.act_word(w, 10) == w.head(10)
        assert e.act_point(w) == w


def test_act_point_diagonal_labels_fix_points(z2_diag):
    g = z2_diag.source_backend.element(1)
    lam = E.lambda_u(z2_diag, "0", g)
    assert lam.act_word(OMEGA0, 4) == "0000"
    assert not lam.is_identity()


def test_nontrivial_sigma_detected_by_action(z2_diag):
    # trivial labels, nontrivial leaf swap: not the identity
    x = E.element(z2_diag, ["0", "1"], [z2_diag.one()] * 2, ["1", "0"])
    assert not x.is_identity()
    assert x.act_word(OMEGA0, 3) != OMEGA0.head(3)


def test_action_compatibility(s3_diag, z_adding, z3_right, rng):
    for ctx in (s3_diag, z_adding, z3_right):
        for _ in range(40):
            a = random_element(rng, ctx, max_splits=2)
            b = random_element(rng, ctx, max_splits=2)
            w = EventuallyPeriodicWord(
                "".join(rng.choice("01") for _ in range(rng.randrange(3))),
                "".join(rng.choice("01") for _ in range(1, 3)),
            )
            mid = a.act_point(w)
            assert mid is not None
            assert (a * b).act_word(w, 12) == b.act_word(mid, 12)


def test_iota_morphism(s3_diag):
    B = s3_diag.source_backend
    for g in B.elements():
        for h in B.elements():
            assert E.iota(s3_diag, g) * E.iota(s3_diag, h) == E.iota(s3_diag, g * h)
    assert E.iota(s3_diag, B.one()).is_identity()
    g = B.element(1)
    assert len(E.iota(s3_diag, g).diagram.columns) == 2


def test_rho_retraction(s3_diag, rng):
    B = s3_diag.source_backend
    for g in B.elements():
        assert E.rho(E.iota(s3_diag, g)) == g
    assert E.rho(E.identity(s3_diag)).is_identity()
    for _ in range(100):
        x = random_element(rng, s3_diag)
        plain = E.v_strip(x)
        assert E.rho(x * plain) == E.rho(x)


def test_rho_diagonal_only(z3_right):
    with pytest.raises(ValueError, match="diagonal"):
        E.rho(E.identity(z3_right))


def test_lambda_examples(s3_diag):
    B = s3_diag.source_backend
    g = B.element(1)
    assert E.lambda_u(s3_diag, "0", g) == E.iota(s3_diag, g)
    assert E.lambda_u(s3_diag, "01", B.one()).is_identity()
    lam = E.lambda_u(s3_diag, "01", g)
    assert [(c[0][1], c[1].value, c[2][1]) for c in lam.diagram.columns] == [
        ("00", 0, "00"),
        ("01", 1, "01"),
        ("1", 0, "1"),
    ]


def test_in_f_in_t(s3_diag):
    one = s3_diag.one()
    e = E.identity(s3_diag)
    assert e.in_f() and e.in_t()
    swap = E.element(s3_diag, ["0", "1"], [one, one], ["1", "0"])
    assert not swap.in_f() and swap.in_t()
    transposed = E.from_parts(
        s3_diag, ["0", "10", "11"], [one] * 3, [1, 0, 2], ["0", "10", "11"]
    )
    assert not transposed.in_f() and not transposed.in_t()
    cycled = E.from_parts(
        s3_diag, ["0", "10", "11"], [one] * 3, [1, 2, 0], ["0", "10", "11"]
    )
    assert not cycled.in_f() and cycled.in_t()


def test_strip_is_multiplicative(z2_diag, rng):
    for _ in range(100):
        a = random_element(rng, z2_diag)
        b = random_element(rng, z2_diag)
        assert E.v_strip(a * b) == E.v_strip(a) * E.v_strip(b)
    assert E.v_strip(E.iota(z2_diag, z2_diag.source_backend.element(1))).is_identity()
    x = random_element(rng, z2_diag)
    plain = E.v_strip(x)
    assert E.v_strip(plain) == plain
    assert E.in_lim_tree(x) == E.v_strip(x).is_identity()


def test_strip_diagonal_only(z3_right):
    with pytest.raises(ValueError):
        E.v_strip(E.identity(z3_right))


def test_functor_examples(z2_diag, rng):
    z4 = cyclic_table(4)
    ctx4 = Context(z4, WreathRecursion(z4, "diagonal"))
    # identity map
    ident = {v: v for v in range(2)}
    z2b = z2_diag.source_backend
    for _ in range(20):
        a = random_element(rng, z2_diag)
        same_ctx = E.v_functor(ident, a, z2_diag)
        assert same_ctx == a
    # trivial map equals stripping
    triv = {v: 0 for v in range(2)}
    for _ in range(20):
        a = random_element(rng, z2_diag)
        assert E.v_functor(triv, a, z2_diag) == E.v_strip(a)
    # injective map preserves and reflects the identity
    inj = {0: 0, 1: 2}
    for _ in range(200):
        a = random_element(rng, z2_diag)
        img = E.v_functor(inj, a, ctx4)
        assert img.is_identity() == a.is_identity()
    # non-homomorphism rejected
    with pytest.raises(ValueError, match="homomorphism"):
        E.v_functor({0: 0, 1: 1}, E.identity(z2_diag), ctx4)


def test_group_axioms_randomized(z2_diag, s3_diag, z3_right, z_adding, rng):
    for ctx in (z2_diag, s3_diag, z3_right, z_adding):
        for _ in range(60):
            a = random_element(rng, ctx, max_splits=2)
            b = random_element(rng, ctx, max_splits=2)
            c = random_element(rng, ctx, max_splits=2)
            assert (a * b) * c == a * (b * c)


def test_groupoid_operations(s3_diag, rng):
    one = s3_diag.one()
    g = s3_diag.source_backend.element(1)
    f = E.forest_element(
        s3_diag,
        [((0, "0"), g, (0, "")), ((0, "1"), one, (1, ""))],
        1,
        2,
    )
    ident2 = E.groupoid_identity(s3_diag, 2)
    assert f * ident2 == f
    assert (f * ~f).is_identity()
    assert ident2.is_identity()
    with pytest.raises(ValueError, match="arity"):
        ident2 * f
    # associativity on composable random triples (tree-level suffices to
    # exercise the same code path, plus forest bookkeeping here)
    chains = [
        (f, ~f, f),
        (~f, f, ~f),
    ]
    for x, y, z in chains:
        assert (x * y) * z == x * (y * z)
    # a group element is the (1,1) case, but never equal to a groupoid element
    d = E.lambda_u(s3_diag, "01", g).diagram
    a, fa = E.VPhiElement(d), E.GroupoidElement(d)
    assert a != fa and fa != a
    assert a.diagram == fa.diagram
    for x in (a * a, ~a, a ** 3, a ** -2):
        assert type(x) is E.VPhiElement and repr(x).startswith("VPhiElement(")
    for x in (fa * fa, ~fa, f * ~f, ~f):
        assert type(x) is E.GroupoidElement and repr(x).startswith("GroupoidElement(")
    assert E.identity(s3_diag).is_identity()
    assert E.groupoid_identity(s3_diag, 1).is_identity()
    swap = E.forest_element(
        s3_diag, [((0, ""), one, (1, "")), ((1, ""), one, (0, ""))], 2, 2
    )
    assert not swap.is_identity()
    assert (swap * swap).is_identity() and swap * swap == ident2


def test_mixed_product_is_a_groupoid_element(z2_diag):
    one = z2_diag.one()
    f = E.forest_element(
        z2_diag, [((0, "0"), one, (0, "")), ((0, "1"), one, (1, ""))], 1, 2
    )
    ident = E.identity(z2_diag)
    for x in (ident * f, ident * E.groupoid_identity(z2_diag, 1)):
        assert type(x) is E.GroupoidElement
        data = element_to_json(x)
        assert data["kind"] == "forest"
        assert element_from_json(z2_diag, data) == x
    assert ident * f == f


def test_generation_rewriting(z2_diag, s3_diag, rng):
    for ctx in (z2_diag, s3_diag):
        for _ in range(40):
            a = random_element(rng, ctx, max_splits=3)
            word = E.generation_word(a)
            assert E.evaluate_generation_word(ctx, word) == a
            for kind, payload in word:
                if kind == "plain":
                    assert all(g.is_identity() for g in payload.diagram.labels())
