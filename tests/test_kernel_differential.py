"""Differential tests: the one-pass diagram kernel against the rescanning
reference in diagram_oracle, the column search of the Cantor action against
a linear scan, and the unchecked results of the one-step moves and of
`compose` against the validating `LabeledDiagram` constructor.

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
    forest_refinement,
    invert,
    tree_diagram,
)
from labeled_thompson.elements import (
    GroupoidElement,
    VPhiElement,
    element,
    forest_element,
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
        d = d.simple_expand(rng.randrange(len(d.columns)))
    return d


@st.composite
def tree_diagrams(draw, ctx, leaves=(16, 128)):
    rng = draw(st.randoms(use_true_random=False))
    d = random_diagram(rng, ctx, max_splits=4)
    d = _grow(d, rng, draw(st.integers(*leaves)))
    return _relabel(d, rng, draw(st.integers(0, 4)))


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
    dom, ran = _forest(rng, m, size), _forest(rng, n, size)
    rng.shuffle(ran)
    cols = [(u, random_label(ctx, rng), v) for u, v in zip(dom, ran)]
    d = _grow(LabeledDiagram(ctx, cols, m, n), rng, draw(st.integers(*leaves)))
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


@CHECKS
@given(st.randoms(use_true_random=False))
def test_common_refinement_matches_oracle(rng):
    p = [(0, w) for w in random_partition(rng, max_splits=40)]
    q = [(0, w) for w in random_partition(rng, max_splits=40)]
    assert forest_refinement(p, q) == oracle.forest_refinement(p, q, 1)
    roots = rng.randint(2, 5)
    p = [(r, w) for r in range(roots) for w in random_partition(rng, max_splits=12)]
    q = [(r, w) for r in range(roots) for w in random_partition(rng, max_splits=12)]
    assert forest_refinement(p, q) == oracle.forest_refinement(p, q, roots)


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


def _assert_moves_valid(d, rng):
    """Every one-step move and every walk from d yields a valid diagram."""
    for k in range(len(d.columns)):
        _assert_valid(d.simple_expand(k))
        merged = d.simple_reduce(k)
        if merged is not None:
            _assert_valid(merged)
    finer = _grow(d, rng, len(d.columns) + rng.randint(1, 8))
    _assert_valid(d.expand_to(finer.domain()))
    _assert_valid(d.expand_to(finer.range_(), on_range=True))
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
    """The one-step moves, `compose` and the descending-link class
    representatives are the only unchecked builders."""
    assert set(package_calls({"_trusted"})) == {
        ("diagrams.py", "LabeledDiagram.simple_expand"),
        ("diagrams.py", "LabeledDiagram.simple_reduce"),
        ("diagrams.py", "compose"),
        ("complexes.py", "_class_element"),
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
