import random

import pytest
from diagram_oracle import expand_at

from labeled_thompson import elements as E
from labeled_thompson import splinter as S
from labeled_thompson.groups import (
    CyclicGroup,
    ProductGroup,
    SymmetricGroup,
    symmetric_table,
)
from labeled_thompson.sampling import random_element


def random_point(rng, gset, depth):
    return S.SplinterPoint(
        rng.randrange(gset.size), "".join(rng.choice("01") for _ in range(depth))
    )


def test_gset_regular_and_custom(s3_diag):
    gs = S.GSet.regular(s3_diag.source_backend)
    assert gs.size == 6


@pytest.mark.parametrize(
    "backend",
    [
        symmetric_table(3),
        CyclicGroup(4),
        SymmetricGroup(3),
        ProductGroup([CyclicGroup(2), SymmetricGroup(3)]),
    ],
    ids=["s3-table", "z4", "s3-perm", "z2xs3"],
)
def test_regular_gset_is_a_faithful_right_action(backend):
    # what GSet no longer checks at run time: x.1 = x, (x.g).h = x.(gh), and
    # only the identity fixes every point
    gs = S.GSet.regular(backend)
    elems = list(backend.elements())
    pts = range(gs.size)
    assert gs.size == len(elems)
    assert all(gs.act(x, backend.one()) == x for x in pts)
    for g in elems:
        for h in elems:
            gh = g * h
            assert all(gs.act(gs.act(x, g), h) == gs.act(x, gh) for x in pts)
    for g in elems:
        fixes_all = all(gs.act(x, g) == x for x in pts)
        assert fixes_all == g.is_identity()


def test_gset_refuses_an_infinite_group():
    with pytest.raises(ValueError, match="finite"):
        S.GSet.regular(CyclicGroup(None))


def test_identity_fixes_everything(s3_diag, rng):
    gs = S.GSet.regular(s3_diag.source_backend)
    e = E.identity(s3_diag)
    for _ in range(50):
        p = random_point(rng, gs, 6)
        assert S.splinter_act(gs, e, p) == p


def test_a_g_matches_direct_generator(s3_diag, rng):
    gs = S.GSet.regular(s3_diag.source_backend)
    for g in s3_diag.source_backend.elements():
        ag = S.a_g(s3_diag, g)
        for _ in range(100):
            p = random_point(rng, gs, 8)
            assert S.splinter_act(gs, ag, p) == S.bar_g(gs, g, p)
        # the displayed behaviour on and off the carrier cone
        x = rng.randrange(gs.size)
        on = S.splinter_act(gs, ag, S.SplinterPoint(x, "01101"))
        assert on.w == "01101" and on.x == gs.act(x, g)
        off = S.splinter_act(gs, ag, S.SplinterPoint(x, "00110"))
        assert off == S.SplinterPoint(x, "00110")


def test_a_g_is_morphism(s3_diag):
    B = s3_diag.source_backend
    for g in B.elements():
        for h in B.elements():
            assert S.a_g(s3_diag, g) * S.a_g(s3_diag, h) == S.a_g(s3_diag, g * h)
    assert S.a_g(s3_diag, B.one()).is_identity()


def test_check_hom(s3_diag, rng):
    gs = S.GSet.regular(s3_diag.source_backend)
    e = E.identity(s3_diag)
    assert S.check_hom(gs, e, e, samples=10, depth=6, rng=rng)
    for _ in range(20):
        a = random_element(rng, s3_diag, max_splits=2)
        b = random_element(rng, s3_diag, max_splits=2)
        assert S.check_hom(gs, a, b, samples=30, depth=12, rng=rng)


def test_check_hom_detects_corruption(s3_diag, rng):
    gs = S.GSet.regular(s3_diag.source_backend)
    g = s3_diag.source_backend.element(1)
    a = random_element(rng, s3_diag, max_splits=2)
    b = random_element(rng, s3_diag, max_splits=2)
    ab = a * b

    # corrupt one label of the true product
    cols = list(ab.diagram.columns)
    d0, g0, r0 = cols[0]
    cols[0] = (d0, g0 * s3_diag.label(g), r0)
    from labeled_thompson.diagrams import LabeledDiagram

    bad = E.VPhiElement(LabeledDiagram(s3_diag, cols, 1, 1))
    found_witness = False
    for _ in range(200):
        p = random_point(rng, gs, 12)
        if S.splinter_act(gs, bad, p) != S.splinter_act(
            gs, b, S.splinter_act(gs, a, p)
        ):
            found_witness = True
            break
    assert found_witness


def test_splinter_invariant_under_expansion(s3_diag, rng):
    gs = S.GSet.regular(s3_diag.source_backend)
    for _ in range(30):
        a = random_element(rng, s3_diag, max_splits=2)
        expanded = a.diagram
        for _ in range(2):
            expanded = expand_at(expanded, rng.randrange(len(expanded.columns)))
        for _ in range(20):
            p = random_point(rng, gs, 8)
            direct = S.splinter_act(gs, a, p)
            via = None
            for (_, u), g, (_, v) in expanded.columns:
                if p.w.startswith(u):
                    via = S.SplinterPoint(gs.act(p.x, g), v + p.w[len(u):])
                    break
            assert via == direct


def test_check_faithful_matches_word_problem(s3_diag, rng):
    gs = S.GSet.regular(s3_diag.source_backend)
    assert S.check_faithful(gs, E.identity(s3_diag), 3)
    g = s3_diag.source_backend.element(1)
    assert not S.check_faithful(gs, E.iota(s3_diag, g), 2)
    swap = E.element(s3_diag, ["0", "1"], [s3_diag.one()] * 2, ["1", "0"])
    assert not S.check_faithful(gs, swap, 2)
    for _ in range(40):
        x = random_element(rng, s3_diag, max_splits=2)
        if rng.random() < 0.3:
            x = x * ~x  # make identities appear in the sample
        assert S.check_faithful(gs, x, max(1, S.depth_of(x))) == x.is_identity()


def test_too_short_words_error(s3_diag):
    gs = S.GSet.regular(s3_diag.source_backend)
    g = s3_diag.source_backend.element(1)
    ag = S.a_g(s3_diag, g)
    with pytest.raises(ValueError, match="depth"):
        S.splinter_act(gs, ag, S.SplinterPoint(0, "0"))
    with pytest.raises(ValueError, match="depth"):
        S.check_faithful(gs, ag, 1)


def test_requires_diagonal(z3_right):
    with pytest.raises(ValueError, match="diagonal"):
        S.a_g(z3_right, z3_right.source_backend.element(1))
