"""Acceptance suite: one test per criterion, at its stated tolerance.

Every check is exact (integer/word equality); the only tolerances are the
stated runtime budgets.  Each test prints a single PASS line on success.
"""

import random
import time

from diagram_oracle import expand_at, merge_at, reduction_sites

from labeled_thompson import complexes as CX
from labeled_thompson import elements as E
from labeled_thompson import germs as G
from labeled_thompson import perfection as P
from labeled_thompson import splinter as S
from labeled_thompson.diagrams import Context
from labeled_thompson.groups import (
    CyclicGroup,
    FiniteTableGroup,
    WreathRecursion,
    cyclic_table,
    injectivize,
    symmetric_table,
)
from labeled_thompson.sampling import random_diagram, random_element
from labeled_thompson.words import OMEGA0, EventuallyPeriodicWord


def _contexts():
    z2 = CyclicGroup(2)
    s3 = symmetric_table(3)
    z3 = CyclicGroup(3)
    z = CyclicGroup(None)
    return {
        "V_diag(Z/2)": Context(z2, WreathRecursion(z2, "diagonal")),
        "V_diag(S3)": Context(s3, WreathRecursion(s3, "diagonal")),
        "V_right(Z/3)": Context(z3, WreathRecursion(z3, "right")),
        "V_adding(Z)": Context(z, WreathRecursion(z, "adding")),
    }


def _passed(num, text):
    print(f"[ACCEPT] criterion {num:2d}: PASS - {text}")


def _depth_capped_partition(rng, max_depth=3, max_leaves=8):
    words = [""]
    for _ in range(rng.randrange(max_leaves)):
        splittable = [w for w in words if len(w) < max_depth]
        if not splittable or len(words) >= max_leaves:
            break
        w = rng.choice(splittable)
        words.remove(w)
        words.extend([w + "0", w + "1"])
    words.sort()
    return words


def test_criterion_1_group_axioms():
    start = time.time()
    rng = random.Random(101)
    for name, ctx in _contexts().items():
        for _ in range(1000):
            a = random_element(rng, ctx, max_splits=2)
            b = random_element(rng, ctx, max_splits=2)
            c = random_element(rng, ctx, max_splits=2)
            assert (a * b) * c == a * (b * c)
            assert (a * ~a).is_identity() and (~a * a).is_identity()
            e = E.identity(ctx)
            assert a * e == a and e * a == a
    elapsed = time.time() - start
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    _passed(1, f"group axioms, 1000 triples x 4 contexts ({elapsed:.1f}s)")


def test_criterion_2_confluence():
    rng = random.Random(102)
    ctxs = list(_contexts().values())
    for i in range(500):
        ctx = ctxs[i % len(ctxs)]
        d = random_diagram(rng, ctx, max_splits=7)
        assert len(d.columns) <= 8
        canonical = d.reduce()
        e = d
        for _ in range(rng.randrange(11)):
            e = expand_at(e, rng.randrange(len(e.columns)))
        assert e.reduce() == canonical
    # exhaustive all-orders agreement
    for i in range(100):
        ctx = ctxs[i % len(ctxs)]
        d = random_diagram(rng, ctx, max_splits=4)
        assert len(d.columns) <= 5
        terminals = set()
        stack, seen = [d], set()
        while stack:
            cur = stack.pop()
            if cur.key() in seen:
                continue
            seen.add(cur.key())
            sites = reduction_sites(cur)
            if not sites:
                terminals.add(cur.key())
            for k in sites:
                stack.append(merge_at(cur, k))
        assert terminals == {d.reduce().key()}
    _passed(2, "canonical-form confluence, 500 + 100 diagrams")


def test_criterion_3_action_diagram_consistency():
    rng = random.Random(103)
    ctxs = list(_contexts().values())
    for i in range(200):
        ctx = ctxs[i % len(ctxs)]
        a = random_element(rng, ctx, max_splits=2)
        b = random_element(rng, ctx, max_splits=2)
        ab = a * b
        for _ in range(20):
            w = EventuallyPeriodicWord(
                "".join(rng.choice("01") for _ in range(rng.randrange(4))),
                "".join(rng.choice("01") for _ in range(1, 4)),
            )
            mid = a.act_point(w)
            assert mid is not None
            assert ab.act_word(w, 12) == b.act_word(mid, 12)
    _passed(3, "Cantor action matches diagram composition, 200 pairs x 20 points")


def test_criterion_4_quasi_retract_identities():
    rng = random.Random(104)
    z2 = CyclicGroup(2)
    s3 = symmetric_table(3)
    contexts = [
        Context(z2, WreathRecursion(z2, "diagonal")),
        Context(s3, WreathRecursion(s3, "diagonal")),
    ]
    for ctx in contexts:
        for g in ctx.source_backend.elements():
            assert E.rho(E.iota(ctx, g)) == ctx.label(g)
    for i in range(500):
        ctx = contexts[i % 2]
        B = ctx.source_backend
        x = random_element(rng, ctx, max_splits=2)
        s = B.element(rng.randrange(B.order()))
        got = E.rho(x * E.iota(ctx, s))
        assert got in (E.rho(x), E.rho(x) * ctx.label(s))
        y = E.v_strip(random_element(rng, ctx, max_splits=2))
        assert E.rho(x * y) == E.rho(x)
    _passed(4, "retraction identities, all generators + 500 samples")


def test_criterion_5_injectivization():
    rng = random.Random(105)
    z2 = CyclicGroup(2)
    vanish = WreathRecursion(z2, "vanishing")
    z4 = cyclic_table(4)
    doubling = WreathRecursion(
        z4, "custom", table={v: ((2 * v) % 4, (2 * v) % 4, False) for v in range(4)}
    )
    hat1, pi1, phi1, steps1 = injectivize(vanish)
    assert steps1 == 1 and hat1.n == 1
    hat2, pi2, phi2, steps2 = injectivize(doubling)
    assert steps2 == 2 and hat2.n == 1

    for (backend, rec, pi, hat_ctx) in [
        (z2, vanish, pi1, Context(hat1, phi1)),
        (z4, doubling, pi2, Context(hat2, phi2)),
    ]:
        auto_ctx = Context(backend, rec)
        for i in range(200):
            dom = _depth_capped_partition(rng)
            ran = dom[:]
            rng.shuffle(ran)
            labels = [
                backend.element(rng.randrange(backend.order())) for _ in dom
            ]
            via_auto = E.element(auto_ctx, dom, labels, ran)
            if i % 3 == 0:
                via_auto = via_auto * ~via_auto
            # independent route: map labels through the tower by hand
            manual = E.element(
                hat_ctx,
                dom,
                [pi(g) for g in labels],
                ran,
            )
            if i % 3 == 0:
                manual = manual * ~manual
            assert via_auto.is_identity() == manual.is_identity()
    _passed(5, "quotient towers stabilize (1, 2 steps); word problem agrees x200")


def test_criterion_6_commutator_certificates():
    start = time.time()
    rng = random.Random(106)
    s3 = symmetric_table(3)
    ctx = Context(s3, WreathRecursion(s3, "diagonal"))
    for _ in range(200):
        dom = _depth_capped_partition(rng)
        while len(dom) < 2:
            dom = _depth_capped_partition(rng)
        labels = [ctx.one()] + [
            s3.element(rng.randrange(6)) for _ in dom[1:]
        ]
        v = E.element(ctx, dom, labels, dom)
        p, q = P.commutator_witness(v)
        assert p * q * ~p * ~q == v
    for _ in range(200):
        dom = _depth_capped_partition(rng)
        ran = dom[:]
        rng.shuffle(ran)
        a = E.element(
            ctx, dom, [s3.element(rng.randrange(6)) for _ in dom], ran
        )
        cert = P.decompose(a)
        assert cert.verify() and len(cert.factors) <= 2
    elapsed = time.time() - start
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    _passed(6, f"200 witnesses + 200 certificates over S3 ({elapsed:.1f}s)")


def test_criterion_7_splinter_oracle():
    rng = random.Random(107)
    s3 = symmetric_table(3)
    ctx = Context(s3, WreathRecursion(s3, "diagonal"))
    gset = S.GSet.regular(s3)
    for _ in range(100):
        a = random_element(rng, ctx, max_splits=2)
        b = random_element(rng, ctx, max_splits=2)
        assert S.check_hom(gset, a, b, samples=50, depth=10, rng=rng)
    agree = 0
    for i in range(200):
        x = random_element(rng, ctx, max_splits=2)
        if i % 4 == 0:
            x = x * ~x
        depth = max(S.depth_of(x), 1)
        assert S.check_faithful(gset, x, depth) == x.is_identity()
        agree += 1
    assert agree == 200
    _passed(7, "permutation model: 100 pairs x 50 points; word problem x200")


def test_criterion_8_matching_connectivity():
    start = time.time()
    for n in range(4, 10):
        bound = CX.connectivity_bound(n)
        mn = CX.matching_complex(n)
        if bound >= 0:
            res = CX.homology(mn, bound)
            assert res.is_trivial_through(bound), (n, res.betti, res.torsion)
    m4 = CX.homology(CX.matching_complex(4), 0)
    assert m4.betti[0] == 2 and m4.torsion[0] == ()
    elapsed = time.time() - start
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    _passed(8, f"matching complexes n=4..9 vanish through the bound ({elapsed:.1f}s)")


def test_criterion_9_descending_links():
    start = time.time()
    triv = FiniteTableGroup([[0]])
    z2a = CyclicGroup(2)
    z3a = CyclicGroup(3)
    z2b = CyclicGroup(2)
    setups = [
        ("trivial", Context(triv, WreathRecursion(triv, "diagonal")), True),
        ("Z/2 diagonal", Context(z2a, WreathRecursion(z2a, "diagonal")), False),
        ("Z/3 diagonal", Context(z3a, WreathRecursion(z3a, "diagonal")), False),
        ("Z/2 right", Context(z2b, WreathRecursion(z2b, "right")), False),
    ]
    for name, ctx, is_trivial in setups:
        for n in range(2, 6):
            link = CX.dlink_complex(ctx, n)
            join = CX.dlink_via_join(link)
            assert join.simplices == link.complex.simplices, (name, n)
            assert CX.check_complete_join(link), (name, n)
            if is_trivial:
                assert len(link.complex.vertices) == n * (n - 1)
            report = CX.connectivity_report(link.complex, n)
            assert report["consistent"], (name, n, report)
    elapsed = time.time() - start
    assert elapsed < 600, f"budget exceeded: {elapsed:.1f}s"
    _passed(9, f"descending links, 4 recursions x n<=5 ({elapsed:.1f}s)")


def test_criterion_10_labeled_support_examples():
    z2 = CyclicGroup(2)
    z3 = CyclicGroup(3)
    diag = Context(z2, WreathRecursion(z2, "diagonal"))
    right = Context(z3, WreathRecursion(z3, "right"))
    for u in ("0", "01", "110"):
        lam = E.lambda_u(diag, u, z2.element(1))
        for d in range(len(u), len(u) + 5):
            got = G.lsupp_approx(lam, d).included
            want = {
                u + format(i, f"0{d - len(u)}b") if d > len(u) else u
                for i in range(1 << (d - len(u)))
            }
            assert got == want, (u, d)
        lam_r = E.lambda_u(right, u, z3.element(1))
        for d in range(len(u), len(u) + 5):
            got = G.lsupp_approx(lam_r, d).included
            assert got == {u + "1" * (d - len(u))}, (u, d)
    _passed(10, "support approximations match both splitting rules")


def test_criterion_11_disjoint_supports_commute():
    rng = random.Random(111)
    z2 = CyclicGroup(2)
    z3 = CyclicGroup(3)
    z = CyclicGroup(None)
    ctxs = [
        Context(z2, WreathRecursion(z2, "diagonal")),
        Context(z3, WreathRecursion(z3, "right")),
        Context(z, WreathRecursion(z, "adding")),
    ]
    checked = 0
    while checked < 200:
        ctx = ctxs[checked % 3]
        cone_a = "0" + rng.choice("01")
        cone_b = "1" + rng.choice("01")
        a = _localized(ctx, rng, cone_a)
        b = _localized(ctx, rng, cone_b)
        depth = max(
            [len(u) for (_, u), _, _ in a.diagram.columns]
            + [len(u) for (_, u), _, _ in b.diagram.columns]
        )
        assert G.disjoint_supports_commute(a, b, depth)
        checked += 1
    _passed(11, "200 certified-disjoint pairs commute across 3 recursions")


def _localized(ctx, rng, cone):
    from labeled_thompson.sampling import random_partition
    from labeled_thompson.words import complete_to_partition

    inner = random_partition(rng, 2)
    dom = [cone + w for w in inner]
    ran = dom[:]
    rng.shuffle(ran)
    if ctx.backend.is_finite():
        values = list(ctx.backend.element_values())
        labels = [ctx.backend.element(rng.choice(values)) for _ in dom]
    else:
        labels = [ctx.backend.element(rng.randint(-2, 2)) for _ in dom]
    outside = [w for w in complete_to_partition([cone]) if w != cone]
    return E.element(
        ctx, dom + outside, labels + [ctx.one()] * len(outside), ran + outside
    )


def test_criterion_12_germ_transitivity():
    rng = random.Random(112)
    z2 = CyclicGroup(2)
    s3 = symmetric_table(3)
    ctxs = [
        Context(z2, WreathRecursion(z2, "diagonal")),
        Context(s3, WreathRecursion(s3, "diagonal")),
    ]

    def generic_triple(ctx):
        while True:
            xs = [random_element(rng, ctx, max_splits=2) for _ in range(3)]
            if G.is_generic_tuple(xs):
                return xs

    for i in range(100):
        ctx = ctxs[i % 2]
        a = generic_triple(ctx)
        b = generic_triple(ctx)
        gamma = G.transitivity_witness(a, b)
        for ai, bi in zip(a, b):
            assert G.germ_compare(bi * gamma, ai).kind == "equivalent"
    _passed(12, "100 generic 3-tuple pairs with verified witnesses")


def test_criterion_13_odometer():
    z = CyclicGroup(None)
    ctx = Context(z, WreathRecursion(z, "adding"))
    t = E.element(ctx, [""], [z.element(1)], [""])
    for k in range(1025):
        want = format(k % 1024, "010b")[::-1]
        assert (t ** k).act_word(OMEGA0, 10) == want, k
    _passed(13, "adding machine realizes the odometer for k <= 1024")
