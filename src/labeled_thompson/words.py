"""Finite binary words, dyadic partition sets and eventually periodic points.

Words are plain strings over the alphabet {'0', '1'}; the empty string is
the root of the infinite binary tree.  Leaf addresses of forests are pairs
``(root_index, word)`` so that one calculus covers trees (single root 0)
and forests alike.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

ALPHABET = ("0", "1")

# A leaf address: (root index, binary word below that root).
Leaf = tuple[int, str]


def is_bitword(w: str) -> bool:
    return all(c in "01" for c in w)


def sibling(u: str) -> str:
    """The word differing from u in its last letter.  u must be nonempty."""
    if not u:
        raise ValueError("the root has no sibling")
    return u[:-1] + ("1" if u[-1] == "0" else "0")


def _cone_excess(words: Sequence[str]) -> int:
    """(Total measure of the cones of `words`) - 1, times 2^(longest word
    length): an exact integer, 0 when the cones can tile the Cantor set and
    negative when they leave room.  Package-internal: the hot step of
    is_partition_set, also used by germs."""
    depth = max(map(len, words), default=0)
    return sum(1 << (depth - len(u)) for u in words) - (1 << depth)


def is_partition_set(words: Sequence[str]) -> bool:
    """Decide whether a family of words cuts the boundary into disjoint cones.

    Checks the two defining properties directly: pairwise prefix
    incomparability, and completeness via the exact cone-measure identity
    sum(2^-len(u)) == 1.
    """
    if len(words) == 0:
        return False
    ordered = sorted(words)
    for a, b in zip(ordered, ordered[1:]):
        # in lexicographic order a prefix sorts immediately before its
        # extensions, so adjacent checks suffice; a repeated word is its
        # own prefix, so this also rejects duplicates
        if b.startswith(a):
            return False
    return _cone_excess(ordered) == 0


def is_forest_partition(leaves: Sequence[Leaf], roots: int) -> bool:
    """Partition-set check per root of an indexed forest."""
    by_root: dict[int, list[str]] = {r: [] for r in range(roots)}
    for r, w in leaves:
        if r not in by_root:
            return False
        by_root[r].append(w)
    return all(is_partition_set(ws) for ws in by_root.values())


def complete_to_partition(words: Iterable[str]) -> list[str]:
    """Extend pairwise incomparable words to the smallest partition set.

    Adds the sibling of every strict prefix path step that is not already
    covered; the result contains the input words.
    """
    chosen = sorted(set(words))
    if chosen == [""]:
        return [""]
    for a, b in zip(chosen, chosen[1:]):
        if b.startswith(a):
            raise ValueError(f"cones of {a!r} and {b!r} intersect")
    needed: set[str] = set(chosen)
    covered: set[str] = set()
    for w in chosen:
        for i in range(len(w)):
            covered.add(w[: i + 1])
    for w in chosen:
        for i in range(len(w)):
            sib = sibling(w[: i + 1])
            if sib not in covered and not any(sib.startswith(c) for c in needed):
                needed.add(sib)
    out = sorted(needed)
    assert is_partition_set(out)
    return out


def common_refinement(p: Sequence[str], q: Sequence[str]) -> list[str]:
    """Coarsest partition set refining both p and q.

    Precondition: p and q are partition sets.  They are not checked again:
    the library passes leaves of diagrams its constructor has validated.
    It keeps the words of p and q that are no strict prefix of another;
    in lex order a word's extensions sort directly after it, so only its
    successor needs checking.
    """
    pool = sorted(set(p) | set(q))
    out = [w for w, nxt in zip(pool, pool[1:]) if not nxt.startswith(w)]
    out.append(pool[-1])
    assert is_partition_set(out)
    return out


def refines(fine: Sequence[str], coarse: Sequence[str]) -> bool:
    """True when every cone of `fine` sits inside a cone of `coarse`."""
    return all(any(w.startswith(u) for u in coarse) for w in fine)


def _primitive_root(period: str) -> str:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


class EventuallyPeriodicWord:
    """A point of the Cantor set given by a finite prefix and repeating block.

    Stored in canonical form (shortest period, then shortest prefix) so that
    equality of points is literal equality of the two fields.
    """

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: str, period: str):
        if not period or not is_bitword(prefix) or not is_bitword(period):
            raise ValueError("need binary prefix and nonempty binary period")
        period = _primitive_root(period)
        # roll trailing letters of the prefix into the cycle
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = period[-1] + period[:-1]
        self.prefix = prefix
        self.period = period

    def letter(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def letters(self) -> Iterator[str]:
        i = 0
        while True:
            yield self.letter(i)
            i += 1

    def head(self, n: int) -> str:
        return "".join(self.letter(i) for i in range(n))

    def drop(self, n: int) -> "EventuallyPeriodicWord":
        """The point obtained by removing the first n letters."""
        if n <= len(self.prefix):
            return EventuallyPeriodicWord(self.prefix[n:], self.period)
        k = (n - len(self.prefix)) % len(self.period)
        return EventuallyPeriodicWord("", self.period[k:] + self.period[:k])

    def prepend(self, w: str) -> "EventuallyPeriodicWord":
        return EventuallyPeriodicWord(w + self.prefix, self.period)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EventuallyPeriodicWord)
            and self.prefix == other.prefix
            and self.period == other.period
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.period))

    def __repr__(self) -> str:
        return f"{self.prefix}({self.period})"

    @classmethod
    def parse(cls, text: str) -> "EventuallyPeriodicWord":
        """Parse "prefix(period)" notation; a bare word w means w(0)."""
        text = text.strip()
        if "(" in text:
            if not text.endswith(")"):
                raise ValueError(f"malformed point {text!r}")
            pre, per = text[:-1].split("(", 1)
            return cls(pre, per)
        return cls(text, "0")


OMEGA0 = EventuallyPeriodicWord("", "0")
