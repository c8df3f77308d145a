"""Differential tests: the one-pass diagram kernel against the rescanning
reference in diagram_oracle.

Diagrams are random small diagrams expanded at random columns to 16-128
leaves, with a few labels then changed so that only part of the expansion
merges back; forest diagrams have m != n roots.
"""

import diagram_oracle as oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from labeled_thompson.diagrams import Context, LabeledDiagram, compose
from labeled_thompson.groups import CyclicGroup, WreathRecursion, symmetric_table
from labeled_thompson.sampling import random_diagram, random_label, random_partition
from labeled_thompson.words import common_refinement

CHECKS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _context(backend, rule):
    return Context(backend, WreathRecursion(backend, rule))


S3_DIAG = _context(symmetric_table(3), "diagonal")
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
    p = random_partition(rng, max_splits=40)
    q = random_partition(rng, max_splits=40)
    assert common_refinement(p, q) == oracle.common_refinement(p, q)
