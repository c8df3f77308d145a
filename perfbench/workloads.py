"""The four benchmark workloads: fixed inputs, operations and answers.

Each workload runs a fixed job.  Input item ``i`` of a kind is generated
from its own random stream, named by the workload, profile, kind and
``i``, so an item never changes when another item changes.  That lets
``expected.json`` hold one recorded answer digest per item, and every
operation of every run is checked against it.  The run seed shuffles the
order of the operations of products-large and certify-small; the inputs
of dlink and matching-homology are fixed by their definition.  The seed
does not choose the inputs themselves: on a host whose speed drifts by
10 to 50 percent, input-to-input cost differences would otherwise add
their own spread to every figure.

The generators here are the benchmark's own: ``labeled_thompson.sampling``
is not used, so an edit to that module cannot change a workload.

An operation returns ``(ok, answer)``.  ``ok`` is the operation's own
answer check; ``answer`` is a canonical, hashable description of what the
library computed (reduced diagram keys, certificate factors, cone sets,
odometer words, f-vectors, Betti numbers and torsion).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from labeled_thompson import complexes as CX
from labeled_thompson import elements as E
from labeled_thompson import germs as GE
from labeled_thompson import perfection as P
from labeled_thompson import splinter as S
from labeled_thompson.diagrams import Context
from labeled_thompson.groups import (
    CyclicGroup,
    FiniteTableGroup,
    WreathRecursion,
    symmetric_table,
)
from labeled_thompson.words import OMEGA0, EventuallyPeriodicWord

INPUT_SEED = "perfbench-inputs-v1"


def digest(obj) -> str:
    """Short stable hash of a canonical (repr-able) value."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def item_rng(*parts) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random("/".join(str(p) for p in (INPUT_SEED,) + parts))


@dataclass
class Op:
    """One operation of a job: ``run(*args)`` returns ``(ok, answer)``."""

    kind: str
    item: str  # input item id, the key of its recorded answer digest
    run: Callable
    args: tuple
    raw: object  # the generated input data, hashed into the input digest


# -- generators ---------------------------------------------------------------


def random_partition(rng: random.Random, leaves: int) -> list[str]:
    """Leaf set of a random binary tree with the given number of leaves."""
    words = [""]
    while len(words) < leaves:
        w = words.pop(rng.randrange(len(words)))
        words += [w + "0", w + "1"]
    return sorted(words)


def capped_partition(rng: random.Random, max_leaves: int, max_depth: int) -> list[str]:
    """Random leaf set with at most max_leaves leaves and depth max_depth."""
    words = [""]
    for _ in range(rng.randrange(max_leaves)):
        splittable = [w for w in words if len(w) < max_depth]
        if not splittable or len(words) >= max_leaves:
            break
        w = rng.choice(splittable)
        words.remove(w)
        words += [w + "0", w + "1"]
    return sorted(words)


def leaves_exactly(rng: random.Random, leaves: int, max_depth: int) -> list[str]:
    while True:
        words = capped_partition(rng, leaves, max_depth)
        if len(words) == leaves:
            return words


def random_point(rng: random.Random) -> tuple[str, str]:
    prefix = "".join(rng.choice("01") for _ in range(rng.randrange(5)))
    period = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
    return prefix, period


# -- contexts -----------------------------------------------------------------


def make_context(name: str) -> Context:
    backend = {
        "Z/2": lambda: CyclicGroup(2),
        "Z/3": lambda: CyclicGroup(3),
        "Z": lambda: CyclicGroup(None),
        "S3-table": lambda: symmetric_table(3),
        "trivial": lambda: FiniteTableGroup([[0]]),
    }[name.split(" ")[0]]()
    return Context(backend, WreathRecursion(backend, name.split(" ")[1]))


def element_from_raw(ctx: Context, raw) -> E.VPhiElement:
    dom, labels, ran = raw
    backend = ctx.backend
    return E.element(ctx, dom, [backend.element(v) for v in labels], ran)


def raw_element(rng, ctx_name: str, dom: list[str], ran: list[str]):
    """(domain, label values, range) with ranges shuffled and random labels."""
    ran = list(ran)
    rng.shuffle(ran)
    if ctx_name.startswith("Z "):
        labels = [rng.randint(-3, 3) for _ in dom]
    else:
        order = {"Z/2": 2, "Z/3": 3, "S3-table": 6}[ctx_name.split(" ")[0]]
        labels = [rng.randrange(order) for _ in dom]
    return dom, labels, ran


# -- products-large -----------------------------------------------------------

PRODUCT_CONTEXTS = ("Z/2 diagonal", "Z adding")
# (leaves, pairs per context per job).  The class shares put the 50th
# percentile of op latency in the middle of the 48-leaf class and the 90th
# in the middle of the 96-leaf class.
PRODUCT_CLASSES = {
    "full": ((32, 5), (48, 8), (64, 3), (96, 2), (128, 1)),
    "smoke": ((8, 3), (12, 2), (16, 1)),
}
ACT_DEPTH = 24


def product_item(profile, ctx_name, leaves, i):
    rng = item_rng("products-large", profile, ctx_name, leaves, i)
    a = raw_element(rng, ctx_name, random_partition(rng, leaves), random_partition(rng, leaves))
    b = raw_element(rng, ctx_name, random_partition(rng, leaves), random_partition(rng, leaves))
    points = [random_point(rng) for _ in range(3)]
    return a, b, points


def op_product(a, b, points):
    c = a * b
    ok = c * ~b == a and ~a * c == b
    words = []
    for p in points:
        mid = a.act_point(p)
        w = c.act_word(p, ACT_DEPTH)
        ok = ok and mid is not None and w == b.act_word(mid, ACT_DEPTH)
        words.append(w)
    return ok, (c.diagram.key(), words)


def product_op(profile, ctx_name, ctx, leaves, i):
    raw = product_item(profile, ctx_name, leaves, i)
    a_raw, b_raw, points = raw
    args = (
        element_from_raw(ctx, a_raw),
        element_from_raw(ctx, b_raw),
        [EventuallyPeriodicWord(*p) for p in points],
    )
    return Op("product", f"{ctx_name}/{leaves}/{i}", op_product, args, (ctx_name, raw))


def products_ops(profile, contexts):
    return [
        product_op(profile, ctx_name, contexts[ctx_name], leaves, i)
        for leaves, count in PRODUCT_CLASSES[profile]
        for ctx_name in PRODUCT_CONTEXTS
        for i in range(count)
    ]


# -- certify-small ------------------------------------------------------------

CERTIFY_CONTEXT = "S3-table diagonal"
ODOMETER_CONTEXT = "Z adding"
# ops per job.  Ranked by latency the kinds are: odometer, faithful and
# hom (about 1 ms), witness (2 ms), decompose (1 to 30 ms) and lsupp (about
# 0.25 s at depth 14).  The 50th percentile falls inside decompose and the
# 90th in the middle of lsupp.  Both fall where neighbouring ops take about
# the same time: with 20 lsupp ops the 50th fell on a 30% step between two
# decompose ops, and noise picked one side or the other.
CERTIFY_MIX = {
    "full": {"decompose": 40, "lsupp": 26, "witness": 10, "hom": 10, "faithful": 10, "odometer": 10},
    "smoke": {"decompose": 6, "lsupp": 2, "witness": 2, "hom": 2, "faithful": 2, "odometer": 2},
}
LSUPP_DEPTH = {"full": 14, "smoke": 8}
MAX_LEAVES, MAX_DEPTH = 8, 3
HOM_DEPTH = 16
ODOMETER_DEPTH = 20


def small_raw(rng, leaves=None):
    dom = (
        leaves_exactly(rng, leaves, MAX_DEPTH)
        if leaves
        else capped_partition(rng, MAX_LEAVES, MAX_DEPTH)
    )
    return raw_element(rng, CERTIFY_CONTEXT, dom, dom)


def zero_image(raw) -> str:
    """Image of the all-zero point, read from the raw columns: the diagonal
    rule never moves points, so it is v(0) for the column (0^k, g, v)."""
    dom, _, ran = raw
    k = next(i for i, u in enumerate(dom) if u == "0" * len(u))
    return ran[k].rstrip("0")


def generic_triple(rng):
    while True:
        triple = [small_raw(rng) for _ in range(3)]
        if len({zero_image(x) for x in triple}) == 3:
            return triple


def certify_item(profile, kind, i):
    rng = item_rng("certify-small", profile, kind, i)
    if kind == "decompose":
        return small_raw(rng)
    if kind == "lsupp":
        return small_raw(rng, MAX_LEAVES)
    if kind == "witness":
        return generic_triple(rng), generic_triple(rng)
    if kind == "hom":
        return small_raw(rng), small_raw(rng), rng.randrange(1 << 30)
    if kind == "faithful":
        return small_raw(rng)
    return rng.randrange(1, 1 << 16)  # odometer exponent


def op_decompose(a):
    cert = P.decompose(a)
    ok = len(cert.factors) <= 2 and all(
        g.is_identity() for g in cert.tail.diagram.labels()
    )
    return ok, (
        [(p.diagram.key(), q.diagram.key()) for p, q in cert.factors],
        cert.tail.diagram.key(),
    )


def op_lsupp(a, depth):
    approx = GE.lsupp_approx(a, depth)
    # cones outside the support are exactly those under (u, 1, u) columns
    want = sum(
        1 << (depth - len(u))
        for (_, u), g, (_, v) in a.diagram.columns
        if not (g.is_identity() and u == v)
    )
    return len(approx.included) == want, sorted(approx.included)


def op_witness(a_tuple, b_tuple):
    gamma = GE.transitivity_witness(a_tuple, b_tuple)
    ok = all(
        (b * gamma).act_point(OMEGA0) == a.act_point(OMEGA0)
        for a, b in zip(a_tuple, b_tuple)
    )
    return ok, gamma.diagram.key()


def op_hom(gset, a, b, sample_seed):
    ok = S.check_hom(gset, a, b, samples=50, depth=HOM_DEPTH, rng=random.Random(sample_seed))
    return ok, ok


def op_faithful(gset, x):
    moved = S.check_faithful(gset, x, max(S.depth_of(x), 1))
    y = x * ~x
    fixed = S.check_faithful(gset, y, 4)
    ok = moved == x.is_identity() and fixed and y.is_identity()
    return ok, (moved, fixed)


def op_odometer(t, k):
    word = (t ** k).act_word(OMEGA0, ODOMETER_DEPTH)
    return word == format(k % (1 << ODOMETER_DEPTH), f"0{ODOMETER_DEPTH}b")[::-1], word


def certify_op(profile, kind, i, contexts, gset, t):
    raw = certify_item(profile, kind, i)
    ctx = contexts[CERTIFY_CONTEXT]
    el = lambda r: element_from_raw(ctx, r)  # noqa: E731
    if kind == "decompose":
        run, args = op_decompose, (el(raw),)
    elif kind == "lsupp":
        run, args = op_lsupp, (el(raw), LSUPP_DEPTH[profile])
    elif kind == "witness":
        run, args = op_witness, ([el(r) for r in raw[0]], [el(r) for r in raw[1]])
    elif kind == "hom":
        run, args = op_hom, (gset, el(raw[0]), el(raw[1]), raw[2])
    elif kind == "faithful":
        run, args = op_faithful, (gset, el(raw))
    else:
        run, args = op_odometer, (t, raw)
    return Op(kind, f"{kind}/{i}", run, args, raw)


def certify_fixtures(contexts):
    ctx = contexts[CERTIFY_CONTEXT]
    z = contexts[ODOMETER_CONTEXT]
    gset = S.GSet.regular(ctx.backend)
    t = E.element(z, [""], [z.backend.element(1)], [""])
    return gset, t


def certify_ops(profile, contexts):
    gset, t = certify_fixtures(contexts)
    return [
        certify_op(profile, kind, i, contexts, gset, t)
        for kind, count in CERTIFY_MIX[profile].items()
        for i in range(count)
    ]


# -- dlink --------------------------------------------------------------------

DLINK_ITEMS = {
    "full": (("trivial diagonal", 5), ("Z/2 diagonal", 5), ("Z/2 right", 5), ("Z/3 diagonal", 4)),
    "smoke": (("trivial diagonal", 4), ("Z/2 diagonal", 3), ("Z/2 right", 3), ("Z/3 diagonal", 3)),
}


def op_dlink(ctx, n, trivial):
    link = CX.dlink_complex(ctx, n)
    ok = CX.check_complete_join(link)
    report = CX.connectivity_report(link.complex, n)
    ok = ok and report["consistent"]
    if trivial:
        ok = ok and len(link.complex.vertices) == n * (n - 1)
    return ok, (
        link.complex.f_vector(),
        len(link.simplex_vertices),
        digest(sorted(link.vertex_keys)),
        digest(sorted(link.complex.simplices)),
        report["homology"],
    )


def dlink_ops(profile, contexts):
    return [
        Op("dlink", f"{name}/{n}", op_dlink, (contexts[name], n, name.startswith("trivial")), (name, n))
        for name, n in DLINK_ITEMS[profile]
    ]


# -- matching-homology ----------------------------------------------------------

MATCHING_NS = {"full": (9, 10), "smoke": (6, 7)}


def matchings_count(n: int, k: int) -> int:
    """Number of k-edge matchings of K_n: n! / (k! 2^k (n - 2k)!)."""
    out = 1
    for i in range(2 * k):
        out *= n - i
    for i in range(1, k + 1):
        out //= 2 * i
    return out


def op_matching(cx, n):
    text = json.dumps(cx.to_json())
    back = CX.SimplicialComplex.from_json(json.loads(text))
    bound = CX.connectivity_bound(n)
    res = CX.homology(back, bound)
    want_f = tuple(matchings_count(n, k) for k in range(1, n // 2 + 1))
    ok = (
        back.simplices == cx.simplices
        and res.is_trivial_through(bound)
        and res.f_vector == want_f
    )
    return ok, (res.f_vector, sorted(res.betti.items()), sorted(res.torsion.items()))


def matching_ops(profile, contexts):
    return [
        Op("matching", str(n), op_matching, (CX.matching_complex(n), n), n)
        for n in MATCHING_NS[profile]
    ]


# -- assembly -------------------------------------------------------------------

CONTEXTS = {
    "products-large": PRODUCT_CONTEXTS,
    "certify-small": (CERTIFY_CONTEXT, ODOMETER_CONTEXT),
    "dlink": tuple(name for name, _ in DLINK_ITEMS["full"]),
    "matching-homology": (),
}
BUILDERS = {
    "products-large": products_ops,
    "certify-small": certify_ops,
    "dlink": dlink_ops,
    "matching-homology": matching_ops,
}
SHUFFLED = ("products-large", "certify-small")


def build_ops(workload: str, profile: str, seed=None) -> list[Op]:
    """The fixed job of a workload, its ops in the order the seed gives
    (in canonical order when seed is None)."""
    contexts = {name: make_context(name) for name in CONTEXTS[workload]}
    ops = BUILDERS[workload](profile, contexts)
    if seed is not None and workload in SHUFFLED:
        random.Random(f"{workload}/{seed}").shuffle(ops)
    return ops


def input_digest(ops: list[Op]) -> str:
    return digest([(op.kind, op.item, op.raw) for op in ops])
