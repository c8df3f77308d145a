"""Labels at dyadic cones, support approximation and germs at the all-zero
point.

The label of an element at a cone is read off the unique column covering
the cone, expanding as needed; coarser cones than the reduced diagram
carry no label.  Supports are reported as depth-indexed sound
over-approximations, since the true labeled support may be a single
irrational point; they are kept as blocks, counted without forming a
block's size once it is past a limit, and two of them are disjoint when
`words._overlap` finds no block of one under a block of the other.  Germ
comparison walks the all-zero spine; for finite label groups the walk's
state space is finite, so answers are exact.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections.abc import Set
from dataclasses import dataclass
from itertools import chain, product
from typing import Optional, Sequence

from .elements import VPhiElement, commutator, element
from .groups import GroupElement
from .words import OMEGA0, _cone_excess, _overlap, is_bitword, padded_complements


class LabelUndefined(ValueError):
    pass


# a ConeSet hashes like the frozenset of its cones, which reads every cone
# (2^20 take about a second); hashing more raises ConeSetTooLarge
MAX_HASHED_CONES = 1 << 20


class ConeSetTooLarge(ValueError):
    pass


# the last min(depth, CONE_CHUNK_BITS) letters of a cone come from kept
# tables of the binary words of each length up to CONE_CHUNK_BITS, one chunk
# of at most 2^CONE_CHUNK_BITS cones at a time, so a support of depth at
# most CONE_CHUNK_BITS is read off the tables with no string built; 2^16
# cones is also the most that `ltg lsupp` prints
CONE_CHUNK_BITS = 16
_SUFFIX_TABLES = {0: ("",)}  # r -> the 2^r words of length r, in lex order


def _suffix_table(r: int) -> tuple:
    """The binary words of length r in lex order, kept once built; a
    table is only ever stored under its own length, so two threads
    building one at once keep the same table."""
    table = _SUFFIX_TABLES.get(r)
    if table is None:
        shorter = _suffix_table(r - 1)
        table = _SUFFIX_TABLES.setdefault(r, tuple([s + bit for s in shorter for bit in "01"]))
    return table


def _spelled(cone: str, r: int):
    """Yield the 2^r cones below `cone` at r more letters, in lex order, in
    chunks of at most 2^CONE_CHUNK_BITS.  The last c = min(depth,
    CONE_CHUNK_BITS) letters of each cone come from the table of length c.
    A block with r <= c is one run of that table, the slice at the value of
    its letters inside the table, headed by its first depth - c letters
    when there are any; at depth <= CONE_CHUNK_BITS the slice is the chunk,
    and its cones are the kept strings themselves.  A larger block takes
    the whole table once per head word, and its head words run through the
    other tables, last one fastest."""
    depth = len(cone) + r
    c = min(depth, CONE_CHUNK_BITS)
    table = _suffix_table(c)
    if r <= c:
        cut = depth - c
        i = int(cone[cut:], 2) if cut < len(cone) else 0
        run = table[i << r : (i + 1) << r]
        yield [cone[:cut] + s for s in run] if cut else run
        return
    full, rest = divmod(r - c, CONE_CHUNK_BITS)
    pools = [_suffix_table(rest)] + [_suffix_table(CONE_CHUNK_BITS)] * full
    for words in product(*pools):
        head = cone + "".join(words)
        yield [head + s for s in table]


def label_at(a: VPhiElement, u: str) -> GroupElement:
    """Label of a at the cone of u.

    Defined when u extends a domain word of the reduced diagram; strictly
    coarser cones have no representative exhibiting them, so they error.
    """
    return cone_data(a, u)[0]


def cone_data(a: VPhiElement, u: str) -> tuple[GroupElement, str]:
    """(label, image word) of the cone of u: a maps u-cone onto the image
    cone through the tree action of the label."""
    if not is_bitword(u):
        raise ValueError(f"not a binary word: {u!r}")
    col = a._column(u)
    if col is None:
        raise LabelUndefined(f"label undefined at this interval: {u!r}")
    (_, d), g, (_, v) = col
    image, label = a.context.recursion.walk(g, u[len(d):])
    return label, v + image


def _cone_count(rs, limit: Optional[int] = None) -> int:
    """sum(2^r for r in rs).  With a limit, counting stops at the first
    block or partial sum past it, and some number above the limit is
    returned; no 2^r past the limit is formed, so a block at depth 10^12
    costs what one at depth 1 does."""
    if limit is None:
        return sum(1 << r for r in rs)
    count = 0
    for r in rs:
        if r >= limit.bit_length():
            return limit + 1
        count += 1 << r
        if count > limit:
            break
    return count


class ConeSet(Set):
    """Read-only set of the depth-`depth` cones under disjoint blocks.

    A block is a cone of length at most `depth` standing for its 2^r
    descendants at that depth (r = depth - its length); no cone is built
    until asked for.  Equal to, and hashed like, the frozenset of those
    cones; `&`, `|` and `-` return frozensets.  Iteration is in lex order:
    each block is read from kept word tables in chunks of at most
    2^CONE_CHUNK_BITS cones, so the first cone comes at once at any depth,
    and at depth <= CONE_CHUNK_BITS every cone is a kept string, the same
    object on every pass, whose hash is computed once.
    Comparisons read sizes from `__len__()`, since `len()` refuses sizes
    past sys.maxsize, and decide containment between two ConeSets on
    their blocks.  Hashing refuses sets of more than MAX_HASHED_CONES cones.
    """

    def __init__(self, depth: int, blocks):
        self.depth = depth
        self.cones = sorted(cone for cone, _ in blocks)

    def __len__(self):
        return _cone_count(self.depth - len(cone) for cone in self.cones)

    def __contains__(self, word):
        if not isinstance(word, str) or len(word) != self.depth or not is_bitword(word):
            return False
        # the block holding a word is the last one sorting at or before it
        i = bisect_right(self.cones, word)
        return i > 0 and word.startswith(self.cones[i - 1])

    def __iter__(self):
        # blocks are sorted and none is a prefix of another, so each
        # block's cones follow one another in lex order
        depth = self.depth
        return chain.from_iterable(
            chunk for cone in self.cones for chunk in _spelled(cone, depth - len(cone))
        )

    def _inside(self, other: "ConeSet") -> bool:
        """Every cone of self lies in other, decided in one merge pass over
        the sorted blocks: a block u of self lies in the block of other
        that is a prefix of it, which is the last one sorting before u, or
        else it must be filled by the run of blocks of other that extend u,
        which sort right after u."""
        if self.depth != other.depth:
            return not self.cones
        theirs = other.cones
        j = 0
        for u in self.cones:
            while j < len(theirs) and theirs[j] < u:
                j += 1
            if j and u.startswith(theirs[j - 1]):
                continue
            missing = 1 << (self.depth - len(u))
            while j < len(theirs) and theirs[j].startswith(u):
                missing -= 1 << (self.depth - len(theirs[j]))
                j += 1
            if missing:
                return False
        return True

    def __le__(self, other):
        if not isinstance(other, Set):
            return NotImplemented
        if isinstance(other, ConeSet):
            return self._inside(other)
        return self.__len__() <= other.__len__() and all(map(other.__contains__, self))

    def __ge__(self, other):
        if not isinstance(other, Set):
            return NotImplemented
        if isinstance(other, ConeSet):
            return other._inside(self)
        return self.__len__() >= other.__len__() and all(map(self.__contains__, other))

    def __lt__(self, other):
        if not isinstance(other, Set):
            return NotImplemented
        return self.__len__() < other.__len__() and self.__le__(other)

    def __gt__(self, other):
        if not isinstance(other, Set):
            return NotImplemented
        return self.__len__() > other.__len__() and self.__ge__(other)

    def __eq__(self, other):
        if not isinstance(other, Set):
            return NotImplemented
        return self.__len__() == other.__len__() and self.__le__(other)

    def __hash__(self):
        rs = (self.depth - len(cone) for cone in self.cones)
        if _cone_count(rs, MAX_HASHED_CONES) > MAX_HASHED_CONES:
            raise ConeSetTooLarge(
                f"a ConeSet of more than MAX_HASHED_CONES = {MAX_HASHED_CONES:,} "
                "cones is not hashed"
            )
        return Set._hash(self)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __repr__(self):
        return f"ConeSet(depth={self.depth}, blocks={len(self.cones)})"


@dataclass(frozen=True)
class SupportApprox:
    """Depth-d certificate: cones outside `included` are provably outside
    the labeled support."""

    depth: int
    included: ConeSet

    def disjoint(self, other: "SupportApprox") -> bool:
        """No common cone, decided on the blocks: the blocks of each side
        are disjoint, so the two sides meet exactly when a block of one is
        a prefix of a block of the other, which `words._overlap` finds
        among neighbours of the merged, sorted blocks."""
        if self.depth != other.depth:
            raise ValueError("compare approximations at equal depth")
        return _overlap(heapq.merge(self.included.cones, other.included.cones)) is None

    def to_json(self) -> dict:
        return {"depth": self.depth, "cones": list(self.included)}


def _support_blocks(a: VPhiElement, depth: int):
    """Yield disjoint blocks (cone, r) whose 2^r depth-`depth` cones make up
    the labeled support approximation.

    A column (u, g, v) with v != u is a block: the image of u·s is v·s' with
    |s'| = |s|, so lengths or prefixes differ below u.  A fixed column with
    trivial label holds no included cone: a recursion is a homomorphism, so
    it splits 1 into (1, 1) without a swap.  A fixed cone with nontrivial
    label is a block when no trivial label lies within r fixed steps below
    it (`_span`); otherwise it is split by one transducer step into moved
    children, which are blocks, and fixed children, which are skipped when
    trivially labeled and handled the same way when not.  Steps and spans
    are tabulated per call and per label; no cone string is kept.
    """
    if depth < max(len(u) for (_, u), _, _ in a.diagram.columns):
        raise ValueError("depth too shallow: refine past the domain tree first")
    walk = a.context.recursion.walk
    steps = {}  # label -> (walk(g, "0"), walk(g, "1"))
    spans = {}  # label -> largest r at which a fixed cone with it is whole

    def step(g):
        if g not in steps:
            steps[g] = (walk(g, "0"), walk(g, "1"))
        return steps[g]

    fixed = []
    for (_, u), g, (_, v) in a.diagram.columns:
        if v != u:
            yield u, depth - len(u)
        elif not g.is_identity():
            fixed.append((u, g))
    while fixed:
        u, g = fixed.pop()
        r = depth - len(u)
        if g not in spans:
            spans[g] = _span(step, g, depth)
        if r <= spans[g]:
            yield u, r
            continue
        for bit, (image, h) in zip("01", step(g)):
            if image != bit:
                yield u + bit, r - 1
            elif not h.is_identity():
                fixed.append((u + bit, h))


def _span(step, g, depth: int) -> int:
    """Largest r <= depth such that every depth-r cone under a fixed cone
    labeled g (nontrivial) is included: one less than the number of fixed
    steps from g to the nearest fixed child with trivial label."""
    level, seen = [g], {g}
    for r in range(depth):
        below = []
        for h in level:
            for bit, (image, k) in zip("01", step(h)):
                if image == bit and k not in seen:
                    if k.is_identity():
                        return r
                    seen.add(k)
                    below.append(k)
        if not below:
            break
        level = below
    return depth


def lsupp_approx(a: VPhiElement, depth: int) -> SupportApprox:
    """Sound over-approximation of the labeled support at a given depth.

    A depth-d cone is excluded exactly when its column reads (u, 1, u): the
    element then fixes the cone pointwise with trivial label.

    Moved cones are emitted whole, with no transducer step: below a column
    (u, g, v) with v != u no cone reads (w, 1, w).  Transducer steps happen
    only under fixed cones, and only while a trivial label may still turn
    up below them; a fixed cone whose label stays nontrivial down to depth
    d is emitted whole too (`_support_blocks`).  The blocks are kept as
    they are: `included` is a `ConeSet` over them, which spells out a cone
    only when iterated, so the cost here is the block walk alone and does
    not grow with the number of cones.
    """
    return SupportApprox(depth, ConeSet(depth, _support_blocks(a, depth)))


def lsupp_count(a: VPhiElement, depth: int, limit: Optional[int] = None) -> int:
    """len(lsupp_approx(a, depth).included), without building any cone.

    With a limit, counting stops as soon as the count would exceed it, and
    some number above the limit is returned (`_cone_count`).
    """
    return _cone_count((r for _, r in _support_blocks(a, depth)), limit)


def disjoint_supports_commute(a: VPhiElement, b: VPhiElement, depth: int) -> bool:
    """Commutator triviality for a pair with certified-disjoint supports."""
    sa = lsupp_approx(a, depth)
    sb = lsupp_approx(b, depth)
    if not sa.disjoint(sb):
        raise ValueError("precondition not certified: supports overlap at this depth")
    return commutator(a, b).is_identity()


@dataclass(frozen=True)
class GermAnswer:
    kind: str  # "equivalent" | "distinct" | "unknown"
    depth: Optional[int] = None

    def __repr__(self):
        if self.kind == "unknown":
            return "Unknown"
        return f"{self.kind.capitalize()}({self.depth})"


def _spine_states(a: VPhiElement):
    """Infinite iterator of (depth, label, range word) down the zero spine."""
    d, g, v = a.spine()
    walk = a.context.recursion.walk
    while True:
        yield d, g, v
        bit, g = walk(g, "0")
        v += bit
        d += 1


def germ_compare(a: VPhiElement, b: VPhiElement, budget: int = 4096) -> GermAnswer:
    """Compare the germs of two elements at the all-zero point.

    Equivalent(d): identical spine columns at depth d (same label, same
    image cone, hence equal maps near the point).  Distinct(d): certified
    at depth d that no neighborhood can ever agree, either because the
    image words disagree (appends never heal a mismatch) or because the
    finite label-pair orbit closed without agreeing.  Unknown only for
    infinite label groups past the budget.
    """
    if a.context is not b.context:
        raise ValueError("elements must share a context")
    if a == b:
        return GermAnswer("equivalent", 0)
    sa = _spine_states(a)
    sb = _spine_states(b)
    da, ga, va = next(sa)
    db, gb, vb = next(sb)
    while da < db:
        da, ga, va = next(sa)
    while db < da:
        db, gb, vb = next(sb)
    finite = a.context.backend.is_finite()
    seen = set()
    steps = 0
    while True:
        if va != vb:
            # divergent image words never re-agree: both sides only append
            # one letter per step, so a mismatch or length gap is permanent
            return GermAnswer("distinct", da)
        if ga == gb:
            return GermAnswer("equivalent", da)
        if finite:
            state = (ga.value, gb.value)
            if state in seen:
                return GermAnswer("distinct", da)
            seen.add(state)
        steps += 1
        # a finite walk ends within |G|^2 steps, when a label pair repeats
        if not finite and steps > budget:
            return GermAnswer("unknown")
        da, ga, va = next(sa)
        db, gb, vb = next(sb)


@dataclass(frozen=True)
class PerpAnswer:
    kind: str  # "true" | "false" | "unknown"
    depth: Optional[int] = None

    def __bool__(self):
        return self.kind == "true"

    def __repr__(self):
        return f"True({self.depth})" if self.kind == "true" else self.kind.capitalize()


def perp(a: VPhiElement, b: VPhiElement, budget: int = 4096) -> PerpAnswer:
    """Transversality: do the two images of the all-zero point differ?

    Exact both ways for finite label groups (images are eventually periodic
    via cycle detection); otherwise letter comparison up to the budget.
    """
    ia = a.act_point(OMEGA0, state_budget=budget)
    ib = b.act_point(OMEGA0, state_budget=budget)
    if ia is not None and ib is not None:
        if ia == ib:
            return PerpAnswer("false")
        bound = (
            len(ia.prefix) + len(ib.prefix) + len(ia.period) * len(ib.period) + 1
        )
        for i in range(bound):
            if ia.letter(i) != ib.letter(i):
                return PerpAnswer("true", i + 1)
        raise AssertionError("distinct periodic words must differ within the bound")
    wa = a.act_word(OMEGA0, budget)
    wb = b.act_word(OMEGA0, budget)
    for i, (la, lb) in enumerate(zip(wa, wb)):
        if la != lb:
            return PerpAnswer("true", i + 1)
    return PerpAnswer("unknown")


def is_generic_tuple(xs: Sequence[VPhiElement], budget: int = 4096) -> bool:
    """Pairwise transversality, certified."""
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            ans = perp(xs[i], xs[j], budget)
            if ans.kind != "true":
                return False
    return True


def transitivity_witness(
    a_tuple: Sequence[VPhiElement],
    b_tuple: Sequence[VPhiElement],
    budget: int = 4096,
) -> VPhiElement:
    """An element carrying each germ of b_tuple onto the matching germ of
    a_tuple.

    Picks a zero-cone neighborhood small enough that both image families
    consist of pairwise disjoint cones, then maps image cone to image cone
    with the label correction (label of b)^-1 (label of a); the leftover
    cones pair off trivially.  The postcondition is re-verified through
    germ comparison.
    """
    if len(a_tuple) != len(b_tuple) or not a_tuple:
        raise ValueError("need nonempty tuples of equal length")
    ctx = a_tuple[0].context
    if any(x.context is not ctx for x in list(a_tuple) + list(b_tuple)):
        raise ValueError("elements must share a context")
    if not (is_generic_tuple(a_tuple, budget) and is_generic_tuple(b_tuple, budget)):
        raise ValueError("tuples not certified generic within budget")

    k = max(x.spine()[0] for x in list(a_tuple) + list(b_tuple))
    while True:
        a_data = [cone_data(x, "0" * k) for x in a_tuple]
        b_data = [cone_data(x, "0" * k) for x in b_tuple]
        families = ([v for _, v in a_data], [v for _, v in b_data])
        # image cones must be pairwise disjoint and leave room for the
        # leftover cones to pair off
        if all(_overlap(sorted(f)) is None and _cone_excess(f) < 0 for f in families):
            break
        k += 1
        if k > budget:
            raise ValueError("no disjoint image cones within budget")

    sources = [v for _, v in b_data]
    targets = [v for _, v in a_data]
    labels = [~gb * ga for (ga, _), (gb, _) in zip(a_data, b_data)]
    rest_src, rest_dst = padded_complements(sources, targets)
    one = ctx.one()
    gamma = element(
        ctx,
        sources + rest_src,
        labels + [one] * len(rest_src),
        targets + rest_dst,
    )
    for ai, bi in zip(a_tuple, b_tuple):
        ans = germ_compare(bi * gamma, ai, budget)
        if ans.kind != "equivalent":
            raise AssertionError("witness failed germ verification")
    return gamma
