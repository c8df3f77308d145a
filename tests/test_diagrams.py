import random

import pytest

from labeled_thompson import diagrams
from labeled_thompson.diagrams import Context, LabeledDiagram, tree_diagram
from labeled_thompson.groups import CyclicGroup, WreathRecursion
from labeled_thompson.sampling import random_diagram
from labeled_thompson.words import is_forest_partition


def cols_of(d):
    return [(c[0][1], c[1].value, c[2][1]) for c in d.columns]


def all_reduced_forms(d):
    """Explore every maximal reduction order; return the set of terminal keys."""
    terminals = set()
    stack = [d]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur.key() in seen:
            continue
        seen.add(cur.key())
        sites = cur.reduction_sites()
        if not sites:
            terminals.add(cur.key())
            continue
        for k in sites:
            stack.append(cur.simple_reduce(k))
    return terminals


def test_simple_expand_diagonal(z2_diag):
    g = z2_diag.source_backend.element(1)
    d = tree_diagram(z2_diag, [""], [g], [""])
    d2 = d.simple_expand(0)
    assert cols_of(d2) == [("0", 1, "0"), ("1", 1, "1")]
    # trivial label expands to identities
    e = tree_diagram(z2_diag, [""], [z2_diag.one()], [""]).simple_expand(0)
    assert cols_of(e) == [("0", 0, "0"), ("1", 0, "1")]


def test_simple_expand_adding(z_adding):
    t = z_adding.source_backend.element(1)
    d = tree_diagram(z_adding, [""], [t], [""])
    d2 = d.simple_expand(0)
    assert cols_of(d2) == [("0", 0, "1"), ("1", 1, "0")]


def test_expand_preserves_partitions(z_adding, rng):
    for _ in range(100):
        d = random_diagram(rng, z_adding)
        k = rng.randrange(len(d.columns))
        d2 = d.simple_expand(k)
        assert is_forest_partition(d2.domain(), 1)
        assert is_forest_partition(d2.range_(), 1)
        assert len(d2.columns) == len(d.columns) + 1


def test_simple_reduce_examples(z2_diag, z_adding):
    g = z2_diag.source_backend.element(1)
    d = tree_diagram(z2_diag, ["0", "1"], [g, g], ["0", "1"])
    merged = d.simple_reduce(0)
    assert merged is not None and cols_of(merged) == [("", 1, "")]
    # different labels have no diagonal preimage
    d2 = tree_diagram(z2_diag, ["0", "1"], [g, z2_diag.one()], ["0", "1"])
    assert d2.simple_reduce(0) is None
    # adding machine: inverse of the expansion rule
    t = z_adding.source_backend.element(1)
    d3 = tree_diagram(z_adding, ["0", "1"], [z_adding.one(), t], ["1", "0"])
    merged3 = d3.simple_reduce(0)
    assert merged3 is not None and cols_of(merged3) == [("", 1, "")]


def test_context_recursion_is_injective_or_raises():
    z2 = CyclicGroup(2)
    ctx = Context(z2, WreathRecursion(z2, "vanishing"))
    assert ctx.recursion.is_injective() is True
    assert ctx.tower_steps >= 1
    d = tree_diagram(ctx, ["0", "1"], [z2.element(1), z2.one()], ["0", "1"])
    assert cols_of(d.reduce()) == [("", 0, "")]
    z = CyclicGroup(None)
    with pytest.raises(ValueError, match="finite group"):
        Context(z, WreathRecursion(z, "vanishing"))


def test_reduce_full_collapse(z2_diag):
    one = z2_diag.one()
    d = tree_diagram(z2_diag, ["0", "10", "11"], [one] * 3, ["0", "10", "11"])
    assert cols_of(d.reduce()) == [("", 0, "")]


def test_reduce_fixed_point(s3_diag, rng):
    for _ in range(50):
        d = random_diagram(rng, s3_diag).reduce()
        assert d.reduce() == d
        assert d.is_reduced()


def test_expand_then_reduce_round_trip(z_adding, s3_diag, z3_right, rng):
    for ctx in (z_adding, s3_diag, z3_right):
        for _ in range(60):
            d = random_diagram(rng, ctx).reduce()
            e = d
            for _ in range(rng.randrange(1, 6)):
                e = e.simple_expand(rng.randrange(len(e.columns)))
            assert e.reduce() == d


def test_confluence_all_orders(z2_diag, s3_diag, z_adding, rng):
    """Every maximal reduction order lands on the same canonical form."""
    for ctx in (z2_diag, s3_diag, z_adding):
        for _ in range(40):
            d = random_diagram(rng, ctx, max_splits=2)
            for _ in range(rng.randrange(3)):
                d = d.simple_expand(rng.randrange(len(d.columns)))
            forms = all_reduced_forms(d)
            assert len(forms) == 1
            assert next(iter(forms)) == d.reduce().key()


def test_expand_to_examples(z2_diag, z_adding):
    g = z2_diag.source_backend.element(1)
    d = tree_diagram(z2_diag, [""], [g], [""])
    target = [(0, "00"), (0, "01"), (0, "1")]
    out = d.expand_to(target)
    assert cols_of(out) == [("00", 1, "00"), ("01", 1, "01"), ("1", 1, "1")]
    # same element under the adding machine, twisted ranges
    t = z_adding.source_backend.element(1)
    dt = tree_diagram(z_adding, [""], [t], [""])
    out_t = dt.expand_to(target)
    assert cols_of(out_t) == [("00", 0, "10"), ("01", 0, "11"), ("1", 1, "0")]
    # target must refine the domain
    with pytest.raises(ValueError, match="refine"):
        out_t.expand_to([(0, "")])
    assert dt.expand_to([(0, "")]) == dt


def test_sigma_derivation(s3_diag):
    one = s3_diag.one()
    d = tree_diagram(s3_diag, ["00", "01", "1"], [one] * 3, ["1", "00", "01"])
    assert d.sigma() == (2, 0, 1)


def test_compose_label_twisting(z_adding):
    # squaring the odometer through the calculus: labels multiply through
    # the common refinement and the result reduces to the +2 machine
    z = z_adding.source_backend
    t = z.element(1)
    d = tree_diagram(z_adding, [""], [t], [""])
    sq = diagrams.compose(d, d)
    assert cols_of(sq) == [("", 2, "")]


def test_forest_columns_and_compose(s3_diag):
    one = s3_diag.one()
    f = LabeledDiagram(
        s3_diag,
        [((0, ""), one, (1, "")), ((1, ""), one, (0, ""))],
        2,
        2,
    )
    assert diagrams.compose(f, f) == diagrams.identity_diagram(s3_diag, 2)
    g = s3_diag.source_backend.element(1)
    tree_to_forest = LabeledDiagram(
        s3_diag,
        [((0, "0"), g, (0, "")), ((0, "1"), one, (1, ""))],
        1,
        2,
    )
    with pytest.raises(ValueError, match="arity"):
        diagrams.compose(f, tree_to_forest)
    back = diagrams.compose(tree_to_forest, diagrams.invert(tree_to_forest))
    assert back == diagrams.identity_diagram(s3_diag, 1)


def test_column_counts(z3_right, rng):
    for _ in range(50):
        d = random_diagram(rng, z3_right)
        assert len(d.columns) >= 1
        k = rng.randrange(len(d.columns))
        assert len(d.simple_expand(k).columns) == len(d.columns) + 1
