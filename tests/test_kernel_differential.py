"""Differential tests: the one-pass diagram kernel against the rescanning
reference in diagram_oracle, the column search of the Cantor action against
a linear scan, and the unchecked results of the one-step moves and of
`compose` against the validating `LabeledDiagram` constructor.  The product
is also held to the oracle's number of column splits: one per internal node
of the common refinement on each side.

Diagrams are random small diagrams expanded at random columns to 16-128
leaves, with a few labels then changed so that only part of the expansion
merges back; forest diagrams have m != n roots.
"""

import json
import random

import diagram_oracle as oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_walk import package_calls

from labeled_thompson import germs, serialize
from labeled_thompson.diagrams import (
    Context,
    LabeledDiagram,
    compose,
    invert,
    tree_diagram,
)
from labeled_thompson.elements import (
    GroupoidElement,
    VPhiElement,
    element,
    forest_element,
    iota,
    lambda_u,
)
from labeled_thompson.groups import CyclicGroup, WreathRecursion, symmetric_table
from labeled_thompson.sampling import random_diagram, random_label, random_partition
from labeled_thompson.words import EventuallyPeriodicWord, complete_to_partition

CHECKS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _context(backend, rule, **kw):
    return Context(backend, WreathRecursion(backend, rule, **kw))


S3 = symmetric_table(3)
S3_DIAG = _context(S3, "diagonal")
# the sign map: transpositions swap the two halves
S3_SIGN = _context(S3, "kappa", kappa={v: S3.mul(v, v) == 0 and v != 0 for v in range(6)})
CONTEXTS = (
    _context(CyclicGroup(2), "diagonal"),
    _context(CyclicGroup(None), "adding"),
    S3_DIAG,
)
CONTEXT_IDS = ("z2_diag", "z_adding", "s3_diag")


def _relabel(d, rng, times):
    cols = list(d.columns)
    for _ in range(times):
        k = rng.randrange(len(cols))
        u, _, v = cols[k]
        cols[k] = (u, random_label(d.context, rng), v)
    return LabeledDiagram(d.context, cols, d.m_roots, d.n_roots)


def _grow(d, rng, leaves):
    while len(d.columns) < leaves:
        d = oracle.expand_at(d, rng.randrange(len(d.columns)))
    return d


@st.composite
def tree_diagrams(draw, ctx, leaves=(16, 128)):
    rng = draw(st.randoms(use_true_random=False))
    d = random_diagram(rng, ctx, max_splits=4)
    d = _grow(d, rng, draw(st.integers(*leaves)))
    return _relabel(d, rng, draw(st.integers(0, 4)))


def _paired(ctx, rng, dom, ran, m=1, n=1):
    """A diagram pairing the leaves dom with ran in random order, with random
    labels."""
    ran = list(ran)
    rng.shuffle(ran)
    cols = [(u, random_label(ctx, rng), v) for u, v in zip(dom, ran)]
    return LabeledDiagram(ctx, cols, m, n)


def _forest(rng, roots, leaves):
    words = [(r, "") for r in range(roots)]
    while len(words) < leaves:
        r, w = words.pop(rng.randrange(len(words)))
        words += [(r, w + "0"), (r, w + "1")]
    return words


@st.composite
def forest_diagrams(draw, ctx, m, n, leaves=(4, 32)):
    rng = draw(st.randoms(use_true_random=False))
    size = max(m, n) + draw(st.integers(0, 4))
    d = _paired(ctx, rng, _forest(rng, m, size), _forest(rng, n, size), m, n)
    d = _grow(d, rng, draw(st.integers(*leaves)))
    return _relabel(d, rng, draw(st.integers(0, 3)))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
@CHECKS
@given(data=st.data())
def test_reduce_matches_oracle(ctx, data):
    d = data.draw(tree_diagrams(ctx))
    assert d.reduce().key() == oracle.reduce(d).key()


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
@settings(CHECKS, max_examples=6)
@given(data=st.data())
def test_compose_matches_oracle(ctx, data):
    a = data.draw(tree_diagrams(ctx))
    b = data.draw(tree_diagrams(ctx))
    assert compose(a, b).key() == oracle.compose(a, b).key()


@pytest.mark.parametrize("m, n, p", [(1, 2, 3), (2, 1, 2), (3, 2, 1)])
@CHECKS
@given(data=st.data())
def test_forest_kernel_matches_oracle(m, n, p, data):
    a = data.draw(forest_diagrams(S3_DIAG, m, n))
    b = data.draw(forest_diagrams(S3_DIAG, n, p))
    assert a.reduce().key() == oracle.reduce(a).key()
    assert compose(a, b).key() == oracle.compose(a, b).key()


def compose_counting_splits(a, b):
    """compose(a, b) and the number of columns it split."""
    split = LabeledDiagram.simple_expand
    calls = []

    def counting(context, column):
        calls.append(column)
        return split(context, column)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LabeledDiagram, "simple_expand", staticmethod(counting))
        c = compose(a, b)
    return c, len(calls)


def _assert_compose_matches_oracle(a, b):
    """The product equals the oracle's, and it splits as many columns as the
    oracle's two expansions to the common refinement: each split adds one
    column, so a's range takes |mid| - |a| of them and b's domain |mid| - |b|.
    A product that re-split a column of b for every leaf it covers, instead
    of keeping the splits, would split more."""
    c, splits = compose_counting_splits(a, b)
    assert c.key() == oracle.compose(a, b).key()
    mid = oracle.forest_refinement(a.range_(), b.domain(), a.n_roots)
    assert splits == 2 * len(mid) - len(a.columns) - len(b.columns)


@CHECKS
@given(data=st.data())
def test_compose_splits_each_refinement_node_once(data):
    """Random trees and forests, against the oracle's common refinement."""
    m, n, p = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 3), (3, 2, 1)]))
    if m == n == p == 1:
        a = data.draw(tree_diagrams(S3_DIAG, leaves=(16, 48)))
        b = data.draw(tree_diagrams(S3_DIAG, leaves=(16, 48)))
    else:
        a = data.draw(forest_diagrams(S3_DIAG, m, n))
        b = data.draw(forest_diagrams(S3_DIAG, n, p))
    _assert_compose_matches_oracle(a, b)


# -- the product's shapes: which factor is coarser where ---------------------

SHAPE_CONTEXTS = (
    _context(CyclicGroup(None), "adding"),
    _context(CyclicGroup(2), "right"),
    S3_DIAG,
)
SHAPE_IDS = ("z_adding", "z2_right", "s3_diag")


def _refine(rng, leaves, splits):
    """leaves with `splits` random leaves split into their two children."""
    leaves = list(leaves)
    for _ in range(splits):
        r, w = leaves.pop(rng.randrange(len(leaves)))
        leaves += [(r, w + "0"), (r, w + "1")]
    return sorted(leaves)


def _covers(coarse, fine):
    """For each leaf of `coarse` that is a proper prefix of leaves of `fine`,
    the indices of those leaves in `fine`."""
    out = {}
    for r, u in coarse:
        under = [i for i, (s, w) in enumerate(fine) if s == r and w != u and w.startswith(u)]
        if under:
            out[r, u] = under
    return out


@pytest.mark.parametrize("ctx", SHAPE_CONTEXTS, ids=SHAPE_IDS)
def test_compose_when_b_is_coarser(ctx):
    """Every range leaf of a extends one of b's domain leaves, and the a
    columns under one b column are scattered in a's domain order, so the
    product comes back to a b column it split before."""
    rng = random.Random(71)
    scattered = 0
    for _ in range(25):
        bdom = _forest(rng, 1, rng.randint(2, 6))
        b = _paired(ctx, rng, bdom, _forest(rng, 1, len(bdom)))
        aran = _refine(rng, bdom, rng.randint(3, 12))
        a = _paired(ctx, rng, _forest(rng, 1, len(aran)), aran)
        under = _covers(bdom, a.range_()).values()
        scattered += any(max(ks) - min(ks) >= len(ks) for ks in under)
        _assert_compose_matches_oracle(a, b)
    assert scattered >= 10


@pytest.mark.parametrize("ctx", SHAPE_CONTEXTS, ids=SHAPE_IDS)
def test_compose_when_a_is_coarser(ctx):
    """Every domain leaf of b extends one of a's range leaves."""
    rng = random.Random(72)
    for _ in range(25):
        aran = _forest(rng, 1, rng.randint(2, 6))
        a = _paired(ctx, rng, _forest(rng, 1, len(aran)), aran)
        bdom = _refine(rng, aran, rng.randint(3, 12))
        b = _paired(ctx, rng, bdom, _forest(rng, 1, len(bdom)))
        assert _covers(aran, bdom)
        _assert_compose_matches_oracle(a, b)


@pytest.mark.parametrize("ctx", SHAPE_CONTEXTS, ids=SHAPE_IDS)
def test_compose_when_each_is_coarser_somewhere(ctx):
    rng = random.Random(73)
    both = 0
    for _ in range(40):
        a = _paired(ctx, rng, _forest(rng, 1, 9), _forest(rng, 1, 9))
        b = _paired(ctx, rng, _forest(rng, 1, 9), _forest(rng, 1, 9))
        aran, bdom = a.range_(), b.domain()
        both += bool(_covers(aran, bdom) and _covers(bdom, aran))
        _assert_compose_matches_oracle(a, b)
    assert both >= 20


@pytest.mark.parametrize("ctx", SHAPE_CONTEXTS, ids=SHAPE_IDS)
def test_compose_next_to_a_bare_root(ctx):
    """A bare root (0, "") sorts directly before the leaves of root 1, whose
    words all extend the empty word: the product must not take it for their
    cover, nor take root 1's bare root for a cover of root 0's leaves."""
    rng = random.Random(74)
    sides = [
        [(0, ""), (1, "")],
        [(0, ""), (1, "0"), (1, "1")],
        [(0, ""), (1, "0"), (1, "10"), (1, "11")],
        [(0, "0"), (0, "1"), (1, "")],
        [(0, "00"), (0, "01"), (0, "1"), (1, "")],
    ]
    for aran in sides:
        for bdom in sides:
            for _ in range(3):
                a = _paired(ctx, rng, _forest(rng, 2, len(aran)), aran, 2, 2)
                b = _paired(ctx, rng, bdom, _forest(rng, 2, len(bdom)), 2, 2)
                _assert_compose_matches_oracle(a, b)


def _outcome(f, words):
    try:
        return f(words)
    except (ValueError, AssertionError) as exc:
        return type(exc)


@CHECKS
@given(st.randoms(use_true_random=False))
def test_complete_to_partition_matches_oracle(rng):
    for _ in range(50):
        part = random_partition(rng, max_splits=20)
        family = rng.sample(part, rng.randint(0, len(part)))
        if family and rng.random() < 0.2:
            # an extension of a chosen word makes the family comparable
            family.append(rng.choice(family) + rng.choice(["0", "1", "01"]))
        assert _outcome(complete_to_partition, family) == _outcome(
            oracle.complete_to_partition, family
        )


def _partition_of_size(rng, leaves):
    words = [""]
    while len(words) < leaves:
        w = words.pop(rng.randrange(len(words)))
        words += [w + "0", w + "1"]
    return sorted(words)


def _bits(rng, most):
    return "".join(rng.choice("01") for _ in range(rng.randint(0, most)))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
def test_column_search_matches_scan(ctx):
    """The bisection over domain words finds the column a linear scan finds,
    for words (None when the word is shorter than its column) and points."""
    rng = random.Random(41)
    sizes = []
    for leaves in (1, 2, 3, 8, 60, 400, 1024):
        dom = _partition_of_size(rng, leaves)
        ran = _partition_of_size(rng, leaves)
        rng.shuffle(ran)
        a = element(ctx, dom, [random_label(ctx, rng) for _ in dom], ran)
        sizes.append(len(a.diagram.columns))
        words = [u for (_, u), _, _ in a.diagram.columns]
        for _ in range(150):
            u = rng.choice(words)
            # a prefix of a domain word, extended by a few random letters
            w = u[: rng.randint(0, len(u))] + _bits(rng, 3)
            col = oracle.column_at(a, w)
            assert a._column(w) == col
            if col is None:
                with pytest.raises(germs.LabelUndefined):
                    germs.cone_data(a, w)
            else:
                (_, d), g, (_, v) = col
                image, label = ctx.recursion.walk(g, w[len(d):])
                assert germs.cone_data(a, w) == (label, v + image)
            point = EventuallyPeriodicWord(w, rng.choice("01") + _bits(rng, 2))
            (_, d), g, (_, v) = oracle.locate(a, point)
            assert a._locate(point) == (d, g, v)
    assert max(sizes) > 512


def _assert_inverse_reduced(x, cls):
    """invert leaves the inverse of a reduced diagram as it is; that is
    already reduced, and equals what the reducing public constructor
    builds from the inverse columns."""
    d = x.diagram
    inv = invert(d)
    assert inv.reduce().key() == inv.key()
    built = LabeledDiagram(d.context, d.inverse_columns(), d.n_roots, d.m_roots)
    assert ~x == cls(built)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
@CHECKS
@given(data=st.data())
def test_inverse_of_reduced_is_reduced(ctx, data):
    _assert_inverse_reduced(VPhiElement(data.draw(tree_diagrams(ctx))), VPhiElement)


@pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (3, 2)])
@CHECKS
@given(data=st.data())
def test_forest_inverse_of_reduced_is_reduced(m, n, data):
    x = GroupoidElement(data.draw(forest_diagrams(S3_DIAG, m, n)))
    _assert_inverse_reduced(x, GroupoidElement)


# -- the trusted builders against the validating constructor ----------------


def _assert_valid(d):
    """d's columns pass the validating constructor, which re-sorts them, and
    give the same diagram."""
    checked = LabeledDiagram(d.context, d.columns, d.m_roots, d.n_roots)
    assert checked.key() == d.key()


def _identity_on(ctx, leaves, roots):
    """The unreduced identity diagram whose leaves on both sides are `leaves`."""
    return LabeledDiagram(ctx, [(u, ctx.one(), u) for u in leaves], roots, roots)


def _unreduced_product(a, b):
    """compose(a, b) before its reduction."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LabeledDiagram, "reduce", lambda d: d)
        return compose(a, b)


def _assert_moves_valid(d, rng):
    """Every one-step move and every pass from d yields a valid diagram; the
    oracle's moves rebuild through the validating constructor.  A product
    with an identity on finer leaves, before its reduction, is d expanded
    to those leaves: the split moves of `compose` on either factor."""
    for k in range(len(d.columns)):
        oracle.expand_at(d, k)
        oracle.merge_at(d, k)
    finer = _grow(d, rng, len(d.columns) + rng.randint(1, 8))
    on_domain = _unreduced_product(_identity_on(d.context, finer.domain(), d.m_roots), d)
    _assert_valid(on_domain)
    assert on_domain.key() == oracle.expand_to(d, finer.domain(), 0).key()
    on_range = _unreduced_product(d, _identity_on(d.context, finer.range_(), d.n_roots))
    _assert_valid(on_range)
    assert on_range.key() == oracle.expand_to(d, finer.range_(), 2).key()
    _assert_valid(d.reduce())
    _assert_valid(invert(d))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
@settings(CHECKS, max_examples=6)
@given(data=st.data())
def test_trusted_moves_pass_validation(ctx, data):
    rng = data.draw(st.randoms(use_true_random=False))
    a = data.draw(tree_diagrams(ctx, leaves=(16, 64)))
    b = data.draw(tree_diagrams(ctx, leaves=(16, 64)))
    _assert_moves_valid(a, rng)
    _assert_valid(compose(a, b))


@pytest.mark.parametrize("m, n, p", [(1, 2, 3), (2, 1, 2), (3, 2, 1)])
@settings(CHECKS, max_examples=6)
@given(data=st.data())
def test_trusted_forest_moves_pass_validation(m, n, p, data):
    rng = data.draw(st.randoms(use_true_random=False))
    a = data.draw(forest_diagrams(S3_DIAG, m, n))
    b = data.draw(forest_diagrams(S3_DIAG, n, p))
    _assert_moves_valid(a, rng)
    _assert_valid(compose(a, b))


@pytest.mark.parametrize(
    "ctx", (CONTEXTS[0], S3_SIGN, CONTEXTS[1]), ids=("z2_diag", "s3_sign", "z_adding")
)
@CHECKS
@given(data=st.data())
def test_trusted_products_pass_validation(ctx, data):
    """`compose` builds its product unchecked: the validating constructor
    accepts the product's columns as they are and gives an equal diagram."""
    m, n, p = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 3), (3, 2, 1), (2, 2, 2)]))
    if m == n == p == 1:
        a = data.draw(tree_diagrams(ctx, leaves=(16, 64)))
        b = data.draw(tree_diagrams(ctx, leaves=(16, 64)))
    else:
        a = data.draw(forest_diagrams(ctx, m, n))
        b = data.draw(forest_diagrams(ctx, n, p))
    c = compose(a, b)
    checked = LabeledDiagram(ctx, c.columns, c.m_roots, c.n_roots)
    assert checked.columns == c.columns
    assert checked == c


def test_trusted_constructor_only_in_one_step_moves():
    """The reduction pass, `compose` and the descending-link class
    representatives are the only unchecked diagram builders, and
    `injectivize` the only unchecked recursion builder."""
    assert set(package_calls({"_trusted"})) == {
        ("diagrams.py", "LabeledDiagram.reduce"),
        ("diagrams.py", "compose"),
        ("complexes.py", "_class_element"),
        ("groups.py", "injectivize"),
    }


def test_public_constructors_reject_non_partitions():
    ctx = S3_DIAG
    one = ctx.one()
    with pytest.raises(ValueError, match="domain leaves"):
        tree_diagram(ctx, ["0", "0"], [one, one], ["0", "1"])
    with pytest.raises(ValueError, match="range leaves"):
        tree_diagram(ctx, ["0", "1"], [one, one], ["0", "10"])
    with pytest.raises(ValueError, match="range leaves"):
        forest_element(ctx, [((0, "0"), one, (0, "")), ((0, "1"), one, (1, "0"))], 1, 2)
    with pytest.raises(ValueError, match="domain leaves"):
        LabeledDiagram(ctx, [((0, ""), one, (0, "0")), ((0, "0"), one, (0, "1"))])
    # words that are not binary: their cones would still measure 1
    with pytest.raises(ValueError, match="domain leaves"):
        LabeledDiagram(ctx, [((0, "0"), one, (0, "0")), ((0, "2"), one, (0, "1"))])
    with pytest.raises(ValueError, match="range leaves"):
        tree_diagram(ctx, ["0", "1"], [one, one], ["a", "b"])
    with pytest.raises(ValueError, match="domain leaves"):
        forest_element(ctx, [((0, "0"), one, (0, "0")), ((0, "2"), one, (0, "1"))], 1, 1)


def test_cone_words_that_are_not_binary_are_refused():
    ctx = S3_DIAG
    g = ctx.source_backend.element(1)
    with pytest.raises(ValueError, match="not a binary word") as exc:
        lambda_u(ctx, "2", g)
    assert exc.type is ValueError
    with pytest.raises(ValueError, match="not a binary word") as exc:
        germs.label_at(iota(ctx, g), "2")
    assert not isinstance(exc.value, germs.LabelUndefined)


def _round_trip(x):
    text = json.dumps(serialize.element_to_json(x))
    return serialize.element_from_json(x.context, json.loads(text))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
@settings(CHECKS, max_examples=6)
@given(data=st.data())
def test_serialize_round_trip(ctx, data):
    a = VPhiElement(data.draw(tree_diagrams(ctx, leaves=(4, 32))))
    b = VPhiElement(data.draw(tree_diagrams(ctx, leaves=(4, 32))))
    for x in (a, a * b, ~a):
        assert x.diagram.is_reduced()
        assert _round_trip(x) == x


@pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (3, 2)])
@settings(CHECKS, max_examples=6)
@given(data=st.data())
def test_serialize_forest_round_trip(m, n, data):
    a = GroupoidElement(data.draw(forest_diagrams(S3_DIAG, m, n)))
    b = GroupoidElement(data.draw(forest_diagrams(S3_DIAG, n, m)))
    for x in (a, a * b, ~a):
        assert x.diagram.is_reduced()
        assert _round_trip(x) == x
