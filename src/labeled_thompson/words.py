"""Finite binary words, dyadic partition sets and eventually periodic points.

Words are plain strings over the alphabet {'0', '1'}; the empty string is
the root of the infinite binary tree.  Leaf addresses of forests are pairs
``(root_index, word)`` so that one calculus covers trees (single root 0)
and forests alike.

Whether the cones of some words meet is decided in one place, `_overlap`,
on the words in lex order: partition sets, completions, the disjointness of
labeled supports and the image cones of germ witnesses all ask it there.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

# A leaf address: (root index, binary word below that root).
Leaf = tuple[int, str]


def is_bitword(w: str) -> bool:
    """The one test that a string is a binary word."""
    return not w.strip("01")


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


def _overlap(ordered: Iterable[str]) -> Optional[tuple[str, str]]:
    """The first neighbours (a, b) of lex-sorted words where b extends a, so
    that their cones meet, or None when the cones are pairwise disjoint.
    Neighbours suffice: the words extending a word sort directly after it,
    and a repeated word is its own prefix."""
    ordered = iter(ordered)
    a = next(ordered, None)
    for b in ordered:
        if b.startswith(a):
            return a, b
        a = b
    return None


def is_partition_set(words: Sequence[str]) -> bool:
    """Decide whether a family of words cuts the boundary into disjoint cones.

    Checks that every word is binary, then the two defining properties
    directly: pairwise prefix incomparability, and completeness via the
    exact cone-measure identity sum(2^-len(u)) == 1.
    """
    if len(words) == 0 or not is_bitword("".join(words)):
        return False
    ordered = sorted(words)
    return _overlap(ordered) is None and _cone_excess(ordered) == 0


def is_forest_partition(leaves: Sequence[Leaf], roots: int) -> bool:
    """Partition-set check per root of an indexed forest.  Every root has a
    leaf, so more roots than leaves fail before a list is made per root."""
    if roots > len(leaves):
        return False
    by_root: dict[int, list[str]] = {r: [] for r in range(roots)}
    for r, w in leaves:
        if r not in by_root:
            return False
        by_root[r].append(w)
    return all(is_partition_set(ws) for ws in by_root.values())


def complete_to_partition(words: Iterable[str]) -> list[str]:
    """Extend pairwise incomparable words to the smallest partition set: the
    words and the siblings of their nonempty prefixes that are no prefix
    themselves.  None of those siblings extends another word of the result,
    since every shorter word it extends is a prefix of an input word."""
    chosen = sorted(set(words))
    for w in chosen:
        if not is_bitword(w):
            raise ValueError(f"not a binary word: {w!r}")
    if chosen == [""]:
        return [""]
    overlap = _overlap(chosen)
    if overlap is not None:
        raise ValueError("cones of {!r} and {!r} intersect".format(*overlap))
    prefixes = {w[:i] for w in chosen for i in range(1, len(w) + 1)}
    out = sorted(set(chosen) | ({sibling(u) for u in prefixes} - prefixes))
    assert is_partition_set(out)
    return out


def padded_complements(p: Sequence[str], q: Sequence[str]) -> tuple[list[str], list[str]]:
    """The sorted rests that complete two families of disjoint cones to
    partition sets, both nonempty, with the last cone of the shorter rest
    split until the two have the same size."""
    rests = [sorted(set(complete_to_partition(f)) - set(f)) for f in (p, q)]
    short, other = sorted(rests, key=len)
    while len(short) < len(other):
        # the last word of a sorted rest stays last when it is split
        short[-1:] = [short[-1] + "0", short[-1] + "1"]
    return rests[0], rests[1]


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

    def head(self, n: int) -> str:
        """The first n letters."""
        return (self.prefix + self.period * (n // len(self.period) + 1))[:n]

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
