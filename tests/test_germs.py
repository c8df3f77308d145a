import operator
import random
import time

import diagram_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labeled_thompson import elements as E
from labeled_thompson import germs as G
from labeled_thompson.diagrams import Context
from labeled_thompson.groups import (
    CyclicGroup,
    FiniteTableGroup,
    WreathRecursion,
    symmetric_table,
)
from labeled_thompson.sampling import random_element, random_label


def localized(ctx, rng, cone, max_splits=2):
    """Random element supported inside one cone: trivial identity columns
    outside, shuffled labeled columns inside."""
    from labeled_thompson.sampling import random_partition
    from labeled_thompson.words import complete_to_partition

    inner = random_partition(rng, max_splits)
    dom = [cone + w for w in inner]
    ran = dom[:]
    rng.shuffle(ran)
    values = list(ctx.backend.element_values()) if ctx.backend.is_finite() else None
    labels = [
        ctx.backend.element(rng.choice(values))
        if values
        else ctx.backend.element(rng.randint(-2, 2))
        for _ in dom
    ]
    outside = [w for w in complete_to_partition([cone]) if w != cone]
    dom += outside
    ran += outside
    labels += [ctx.one()] * len(outside)
    return E.element(ctx, dom, labels, ran)


def test_label_at_examples(z2_diag, z3_right):
    g = z2_diag.source_backend.element(1)
    lam = E.lambda_u(z2_diag, "0", g)
    assert G.label_at(lam, "00") == z2_diag.label(g)
    assert G.label_at(lam, "0") == z2_diag.label(g)
    assert G.label_at(lam, "1").is_identity()
    g3 = z3_right.source_backend.element(1)
    lam_r = E.lambda_u(z3_right, "0", g3)
    assert G.label_at(lam_r, "00").is_identity()
    assert G.label_at(lam_r, "01") == z3_right.label(g3)
    e = E.identity(z2_diag)
    for u in ("", "0", "101"):
        assert G.label_at(e, u).is_identity()


def test_label_at_coarse_cone_errors(z2_diag):
    g = z2_diag.source_backend.element(1)
    lam = E.lambda_u(z2_diag, "0", g)
    with pytest.raises(G.LabelUndefined):
        G.label_at(lam, "")


def test_label_multiplicativity(z2_diag, rng):
    # l(u | ab) = l(u | a) * l(image cone | b)
    for _ in range(60):
        a = random_element(rng, z2_diag, max_splits=2)
        b = random_element(rng, z2_diag, max_splits=2)
        u = "".join(rng.choice("01") for _ in range(4))
        ga, va = G.cone_data(a, u)
        gb, _ = G.cone_data(b, va)
        assert G.label_at(a * b, u) == ga * gb


def test_lsupp_known_examples(z2_diag, z3_right):
    g = z2_diag.source_backend.element(1)
    lam = E.lambda_u(z2_diag, "0", g)
    assert sorted(G.lsupp_approx(lam, 3).included) == ["000", "001", "010", "011"]
    g3 = z3_right.source_backend.element(1)
    lam_r = E.lambda_u(z3_right, "0", g3)
    assert sorted(G.lsupp_approx(lam_r, 3).included) == ["011"]
    assert G.lsupp_approx(E.identity(z2_diag), 2).included == frozenset()


def test_lsupp_soundness_and_monotonicity(s3_diag, z3_right, rng):
    for ctx in (s3_diag, z3_right):
        for _ in range(30):
            a = random_element(rng, ctx, max_splits=2)
            d = max(len(u) for (_, u), _, _ in a.diagram.columns)
            approx = G.lsupp_approx(a, d)
            # soundness: excluded cones are fixed pointwise with no label
            for i in range(1 << d):
                u = format(i, f"0{d}b") if d else ""
                if u not in approx.included:
                    g, v = G.cone_data(a, u)
                    assert g.is_identity() and v == u
            # monotone cone measure as depth refines
            finer = G.lsupp_approx(a, d + 1)
            measure = sum(2 ** -len(u) for u in approx.included)
            finer_measure = sum(2 ** -len(u) for u in finer.included)
            assert finer_measure <= measure + 1e-12


def _context(backend, rule, **kw):
    return Context(backend, WreathRecursion(backend, rule, **kw))


S3 = symmetric_table(3)
# the sign map: transpositions swap the two halves
SIGN = {v: S3.mul(v, v) == 0 and v != 0 for v in range(6)}
# Klein four-group {0, a=1, b=2, ab=3} with a -> (b, b), b -> (a, 1): below
# a fixed cone labeled a, trivially labeled cones first appear two levels
# down, and from there on no block holds more than two cones
V4 = FiniteTableGroup([[i ^ j for j in range(4)] for i in range(4)])
V4_TABLE = {0: (0, 0, False), 1: (2, 2, False), 2: (1, 0, False), 3: (3, 2, False)}
LSUPP_CONTEXTS = (
    _context(CyclicGroup(2), "right"),
    _context(CyclicGroup(3), "right"),
    _context(CyclicGroup(None), "adding"),
    _context(S3, "kappa", kappa=SIGN),
    _context(CyclicGroup(2), "diagonal"),
    _context(S3, "diagonal"),
    _context(V4, "custom", table=V4_TABLE),
)
LSUPP_IDS = ("z2_right", "z3_right", "z_adding", "s3_kappa", "z2_diag", "s3_diag", "v4_custom")


def lsupp_inputs(ctx, rng):
    """Elements with (u, g, v) columns of every kind: localized ones with
    fixed and moved columns inside one cone, random ones, a product, a
    lambda and one whose moved columns change length (v != u, |v| != |u|)."""
    cone = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
    if ctx.rule == "adding":
        label = ctx.backend.element(rng.randint(-9, 9))
    else:
        label = random_label(ctx, rng)
    a = localized(ctx, rng, cone)
    b = random_element(rng, ctx, max_splits=3)
    labels = [random_label(ctx, rng) for _ in range(3)]
    shift = E.element(ctx, ["0", "10", "11"], labels, ["00", "01", "1"])
    return (a, b, a * b, E.lambda_u(ctx, cone, label), shift, ~shift, shift * a)


@pytest.mark.parametrize("ctx", LSUPP_CONTEXTS, ids=LSUPP_IDS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_lsupp_matches_per_cone_oracle(ctx, rng):
    for x in lsupp_inputs(ctx, rng):
        top = max(len(u) for (_, u), _, _ in x.diagram.columns)
        if top <= 8:
            depth = rng.randint(top, 8)
            assert G.lsupp_approx(x, depth) == oracle.lsupp_approx(x, depth)


@pytest.mark.parametrize("ctx", LSUPP_CONTEXTS, ids=LSUPP_IDS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_lsupp_count_matches_set(ctx, rng):
    for x in lsupp_inputs(ctx, rng):
        top = max(len(u) for (_, u), _, _ in x.diagram.columns)
        depth = rng.randint(top, top + 6)
        size = len(G.lsupp_approx(x, depth).included)
        assert G.lsupp_count(x, depth) == size
        limit = rng.randrange(size + 2)
        capped = G.lsupp_count(x, depth, limit)
        assert capped == size if size <= limit else capped > limit


@pytest.mark.parametrize("ctx", LSUPP_CONTEXTS, ids=LSUPP_IDS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_cone_set_matches_frozenset_oracle(ctx, rng):
    # the lazy view against the per-cone frozenset: order, size, hash,
    # equality, membership, set algebra and the block-merge disjointness
    cone = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
    xs = lsupp_inputs(ctx, rng) + (
        localized(ctx, rng, cone + "0"),
        localized(ctx, rng, cone + "1"),
        E.identity(ctx),
    )
    depth = rng.randint(5, 8)
    xs = [x for x in xs if max(len(u) for (_, u), _, _ in x.diagram.columns) <= depth]
    words = [format(i, f"0{depth}b") for i in range(1 << depth)]
    other = frozenset(w for w in words if rng.random() < 0.5)
    pairs = []
    for x in xs:
        approx = G.lsupp_approx(x, depth)
        view, want = approx.included, oracle.lsupp_approx(x, depth).included
        assert list(view) == sorted(want)
        assert len(view) == len(want) and hash(view) == hash(want)
        assert view == want and want == view
        assert all((w in view) == (w in want) for w in words)
        for stranger in ("0" * (depth + 1), "0" * (depth - 1), "2" * depth, 0, None):
            assert stranger not in view
        for got, expected in (
            (view & other, want & other),
            (other & view, other & want),
            (view | other, want | other),
            (view - other, want - other),
            (other - view, other - want),
        ):
            assert type(got) is frozenset and got == expected
        pairs.append((approx, want))
    for sa, wa in pairs:
        for sb, wb in pairs:
            assert sa.disjoint(sb) == (not (wa & wb))


def test_lsupp_approx_builds_no_cone(z2_diag):
    g = z2_diag.source_backend.element(1)
    a, b = E.lambda_u(z2_diag, "0", g), E.lambda_u(z2_diag, "1", g)
    start = time.perf_counter()
    left, right = G.lsupp_approx(a, 200), G.lsupp_approx(b, 200)
    # len() stops at sys.maxsize, so the size is read from __len__ itself
    assert left.included.__len__() == 1 << 199
    assert "0" * 200 in left.included and "1" * 200 not in left.included
    assert left.disjoint(right) and not left.disjoint(left)
    assert G.disjoint_supports_commute(a, b, 200)
    assert time.perf_counter() - start < 1.0
    assert repr(left.included) == "ConeSet(depth=200, blocks=1)"


def test_cone_set_compares_past_maxsize(z2_diag):
    # 2^199 cones: every comparison reads __len__ and the blocks, not len()
    g = z2_diag.source_backend.element(1)
    x = G.lsupp_approx(E.lambda_u(z2_diag, "0", g), 200).included
    y = G.lsupp_approx(E.lambda_u(z2_diag, "1", g), 200).included
    halves = G.ConeSet(200, [("00", 198), ("01", 198)])
    quarter = G.ConeSet(200, [("01", 198)])
    point = G.ConeSet(200, [("0" * 200, 0)])
    start = time.perf_counter()
    assert not x == frozenset() and not frozenset() == x
    assert x != frozenset() and frozenset() != x
    assert x == x and not x != x and x == halves and halves == x
    assert x <= halves <= x and x >= halves >= x
    assert not x < halves and not x > halves
    assert quarter < x and x > quarter and quarter <= x and not x <= quarter
    assert not quarter >= x and quarter != x
    assert x != y and not x <= y and not y <= x and not x >= y
    assert frozenset() <= x and frozenset() < x and x > frozenset() and x >= frozenset()
    assert not x <= frozenset() and not x < frozenset()
    assert point == frozenset({"0" * 200}) == point and point <= x and point < x
    assert frozenset({"0" * 200}) <= x and frozenset({"0" * 200}) < x
    assert x >= frozenset({"0" * 200}) and not x >= frozenset({"1" * 200})
    assert not frozenset({"1" * 200}) <= x
    assert x != G.ConeSet(199, [("0", 198)]) and not x <= G.ConeSet(199, [("", 199)])
    assert G.ConeSet(199, []) <= x and G.ConeSet(199, []) == frozenset()
    assert x != "0" and x != None  # noqa: E711
    assert time.perf_counter() - start < 1.0


def test_cone_set_hash_refuses_large_sets(z2_diag, monkeypatch):
    # 2^199 cones: the hash would read every one, and Set._hash would
    # overflow on len(); it raises a named ValueError instead, at once
    g = z2_diag.source_backend.element(1)
    approx = G.lsupp_approx(E.lambda_u(z2_diag, "0", g), 200)
    start = time.perf_counter()
    for big in (approx, approx.included, G.ConeSet(21, [("", 21)])):
        with pytest.raises(G.ConeSetTooLarge, match="MAX_HASHED_CONES"):
            hash(big)
    assert time.perf_counter() - start < 1.0
    assert issubclass(G.ConeSetTooLarge, ValueError)
    # the limit itself is admitted and hashes like the frozenset
    monkeypatch.setattr(G, "MAX_HASHED_CONES", 16)
    full = G.ConeSet(4, [("", 4)])
    assert hash(full) == hash(frozenset(full))
    with pytest.raises(G.ConeSetTooLarge):
        hash(G.ConeSet(5, [("0", 4), ("10", 3)]))


def _random_blocks(rng, depth, cone=""):
    """Disjoint blocks (cone, r) under `cone`, split at random."""
    pick = rng.random()
    if pick < 0.3:
        return []
    if pick < 0.6 or len(cone) == depth:
        return [(cone, depth - len(cone))]
    return _random_blocks(rng, depth, cone + "0") + _random_blocks(rng, depth, cone + "1")


def test_cone_set_comparisons_match_frozensets(rng):
    depth = 5
    sets = [G.ConeSet(depth, _random_blocks(rng, depth)) for _ in range(40)]
    sets.append(G.ConeSet(depth, [(format(i, "05b"), 0) for i in range(32)]))
    plain = [frozenset(s) for s in sets]
    ops = (operator.eq, operator.ne, operator.le, operator.lt, operator.ge, operator.gt)
    for a, fa in zip(sets, plain):
        for b, fb in zip(sets, plain):
            for op in ops:
                want = op(fa, fb)
                assert op(a, b) == op(a, fb) == op(fa, b) == want, (a.cones, b.cones, op)
    assert any(a == b and a.cones != b.cones for a in sets for b in sets)
    assert any(a < b for a in sets for b in sets)


def test_lsupp_count_builds_no_cone(z2_diag, z3_right):
    # whole blocks are counted by their size: 2^199 cones, read off at once
    g = z2_diag.source_backend.element(1)
    assert G.lsupp_count(E.lambda_u(z2_diag, "0", g), 200) == 1 << 199
    assert G.lsupp_count(E.lambda_u(z2_diag, "0", g), 200, limit=5) > 5
    # under the right rule one cone per fixed column stays labeled
    g3 = z3_right.source_backend.element(1)
    assert G.lsupp_count(E.lambda_u(z3_right, "0", g3), 200) == 1
    assert G.lsupp_count(E.identity(z2_diag), 10**6) == 0


def test_lsupp_depth_guard(z2_diag):
    g = z2_diag.source_backend.element(1)
    lam = E.lambda_u(z2_diag, "01", g)
    with pytest.raises(ValueError, match="shallow"):
        G.lsupp_approx(lam, 1)
    with pytest.raises(ValueError, match="shallow"):
        G.lsupp_count(lam, 1)


def test_disjoint_supports_commute_examples(z2_diag):
    g = z2_diag.source_backend.element(1)
    a = E.lambda_u(z2_diag, "0", g)
    b = E.lambda_u(z2_diag, "1", g)
    assert G.disjoint_supports_commute(a, b, 2)
    assert G.disjoint_supports_commute(E.identity(z2_diag), a, 1)
    with pytest.raises(ValueError, match="certified"):
        G.disjoint_supports_commute(a, a, 2)


def test_disjoint_supports_commute_randomized(z2_diag, z3_right, z_adding, rng):
    for ctx in (z2_diag, z3_right, z_adding):
        for _ in range(30):
            a = localized(ctx, rng, "0" + rng.choice("01"))
            b = localized(ctx, rng, "1" + rng.choice("01"))
            depth = max(
                [len(u) for (_, u), _, _ in a.diagram.columns]
                + [len(u) for (_, u), _, _ in b.diagram.columns]
            )
            assert G.disjoint_supports_commute(a, b, depth)


def test_germ_compare_examples(z2_diag, z3_right):
    g = z2_diag.source_backend.element(1)
    lam = E.lambda_u(z2_diag, "0", g)
    assert G.germ_compare(lam, lam) == G.GermAnswer("equivalent", 0)
    ans = G.germ_compare(lam, E.identity(z2_diag))
    assert ans.kind == "distinct"
    g3 = z3_right.source_backend.element(1)
    lam_r = E.lambda_u(z3_right, "0", g3)
    ans_r = G.germ_compare(lam_r, E.identity(z3_right))
    assert ans_r.kind == "equivalent" and ans_r.depth == 2


def test_germ_compare_symmetry_transitivity(z2_diag, rng):
    els = [random_element(rng, z2_diag, max_splits=2) for _ in range(12)]
    for a in els:
        for b in els:
            ab = G.germ_compare(a, b)
            ba = G.germ_compare(b, a)
            assert ab.kind == ba.kind
    for a in els:
        for b in els:
            for c in els:
                if (
                    G.germ_compare(a, b).kind == "equivalent"
                    and G.germ_compare(b, c).kind == "equivalent"
                ):
                    assert G.germ_compare(a, c).kind == "equivalent"


def test_germ_compare_exact_for_finite(z2_diag, s3_diag, rng):
    for ctx in (z2_diag, s3_diag):
        for _ in range(60):
            a = random_element(rng, ctx, max_splits=2)
            b = random_element(rng, ctx, max_splits=2)
            assert G.germ_compare(a, b).kind != "unknown"


def test_germ_budget_binds_only_infinite_groups(z2_diag, s3_diag, rng):
    for ctx in (z2_diag, s3_diag):
        for _ in range(30):
            a = random_element(rng, ctx, max_splits=2)
            b = random_element(rng, ctx, max_splits=2)
            assert G.germ_compare(a, b, budget=0) == G.germ_compare(a, b)
            assert G.perp(a, b, budget=0) == G.perp(a, b)
    z = CyclicGroup(None)
    ctx = Context(z, WreathRecursion(z, "diagonal"))
    # the labels t and t^2 ride down the zero spine unchanged
    a, b = (E.lambda_u(ctx, "0", z.element(k)) for k in (1, 2))
    assert G.germ_compare(a, b, budget=5).kind == "unknown"


def test_perp_examples(z2_diag, z_adding):
    g = z2_diag.source_backend.element(1)
    lam = E.lambda_u(z2_diag, "0", g)
    assert G.perp(lam, lam).kind == "false"
    swap = E.element(z2_diag, ["0", "1"], [z2_diag.one()] * 2, ["1", "0"])
    ans = G.perp(E.identity(z2_diag), swap)
    assert ans.kind == "true" and ans.depth == 1
    t = E.element(z_adding, [""], [z_adding.source_backend.element(1)], [""])
    ans_t = G.perp(t, t * t)
    assert ans_t.kind == "true" and ans_t.depth == 1
    assert G.perp(t, t).kind == "false"


def test_perp_symmetric_irreflexive(z2_diag, rng):
    for _ in range(40):
        a = random_element(rng, z2_diag, max_splits=2)
        b = random_element(rng, z2_diag, max_splits=2)
        assert G.perp(a, a).kind == "false"
        assert G.perp(a, b).kind == G.perp(b, a).kind


def generic_tuple(ctx, rng, size=3, max_splits=2):
    while True:
        xs = [random_element(rng, ctx, max_splits=max_splits) for _ in range(size)]
        if G.is_generic_tuple(xs):
            return xs


def test_transitivity_witness_identity_case(z2_diag, rng):
    a = generic_tuple(z2_diag, rng)
    gamma = G.transitivity_witness(a, a)
    for ai in a:
        assert G.germ_compare(ai * gamma, ai).kind == "equivalent"


def test_transitivity_witness_singletons(z2_diag, rng):
    for _ in range(20):
        a = [random_element(rng, z2_diag, max_splits=2)]
        b = [random_element(rng, z2_diag, max_splits=2)]
        gamma = G.transitivity_witness(a, b)
        assert G.germ_compare(b[0] * gamma, a[0]).kind == "equivalent"


def test_transitivity_witness_triples(z2_diag, s3_diag, rng):
    for ctx in (z2_diag, s3_diag):
        for _ in range(10):
            a = generic_tuple(ctx, rng)
            b = generic_tuple(ctx, rng)
            gamma = G.transitivity_witness(a, b)
            for ai, bi in zip(a, b):
                assert G.germ_compare(bi * gamma, ai).kind == "equivalent"


def test_transitivity_witness_rejects_non_generic(z2_diag, rng):
    x = random_element(rng, z2_diag, max_splits=2)
    with pytest.raises(ValueError, match="generic"):
        G.transitivity_witness([x, x], [x, x])

