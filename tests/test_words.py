import random

import pytest

from labeled_thompson.diagrams import forest_refinement
from labeled_thompson.words import (
    EventuallyPeriodicWord,
    OMEGA0,
    _cone_excess,
    complete_to_partition,
    is_forest_partition,
    is_partition_set,
    padded_complements,
    sibling,
)


def test_partition_set_basics():
    assert is_partition_set([""])
    assert is_partition_set(["0", "10", "11"])
    assert is_partition_set(["00", "01", "10", "11"])
    assert not is_partition_set(["0", "01"])  # cones intersect
    assert not is_partition_set(["0", "10"])  # incomplete
    assert not is_partition_set([])
    assert not is_partition_set(["0", "0", "1"])


def test_cone_excess_is_exact():
    # 60 disjoint cones of measure 1 - 2^-60, which a float sum rounds to 1;
    # germs.transitivity_witness needs them to leave room
    cones = ["1" * i + "0" for i in range(60)]
    assert sum(2 ** -len(v) for v in cones) == 1
    assert _cone_excess(cones) == -1
    assert not is_partition_set(cones)
    assert _cone_excess(cones + ["1" * 60]) == 0
    assert is_partition_set(cones + ["1" * 60])
    assert _cone_excess([""]) == 0


def _tree(words):
    return [(0, w) for w in words]


def test_common_refinement_examples():
    assert forest_refinement(_tree([""]), _tree(["0", "10", "11"])) == _tree(
        ["0", "10", "11"]
    )
    assert forest_refinement(_tree(["0", "1"]), _tree(["00", "01", "1"])) == _tree(
        ["00", "01", "1"]
    )
    assert forest_refinement(_tree(["0", "10", "11"]), _tree(["00", "01", "1"])) == _tree(
        ["00", "01", "10", "11"]
    )
    # a bare root (0, "") sorts directly before the leaves of root 1, whose
    # words all extend the empty word; it stays, since they are another root's
    p = [(0, ""), (1, "0"), (1, "1")]
    q = [(0, ""), (1, "")]
    assert forest_refinement(p, q) == [(0, ""), (1, "0"), (1, "1")]
    p = [(0, "0"), (0, "1"), (1, "")]
    q = [(0, ""), (1, "0"), (1, "10"), (1, "11")]
    assert forest_refinement(p, q) == [(0, "0"), (0, "1"), (1, "0"), (1, "10"), (1, "11")]


def test_common_refinement_is_coarsest():
    rng = random.Random(5)
    for _ in range(100):
        roots = rng.randint(1, 3)
        p = [(r, w) for r in range(roots) for w in _random_partition(rng)]
        q = [(r, w) for r in range(roots) for w in _random_partition(rng)]
        out = forest_refinement(p, q)
        assert is_forest_partition(out, roots)
        # refines both
        for r, w in out:
            assert any(s == r and w.startswith(u) for s, u in p)
            assert any(s == r and w.startswith(u) for s, u in q)
        # coarsest: every leaf is demanded by one of the inputs
        for leaf in out:
            assert leaf in p or leaf in q


def _random_partition(rng, max_splits=4):
    words = [""]
    for _ in range(rng.randrange(max_splits + 1)):
        w = rng.choice(words)
        words.remove(w)
        words.extend([w + "0", w + "1"])
    return sorted(words)


def test_complete_to_partition():
    assert complete_to_partition(["01"]) == ["00", "01", "1"]
    assert complete_to_partition([""]) == [""]
    assert complete_to_partition(["00", "1"]) == ["00", "01", "1"]
    with pytest.raises(ValueError):
        complete_to_partition(["0", "01"])


def test_padded_complements():
    assert padded_complements(["0"], ["01"]) == (["10", "11"], ["00", "1"])
    assert padded_complements(["00", "1"], ["0"]) == (["01"], ["1"])
    # the last cone of the shorter rest is split, as the witnesses always did
    assert padded_complements(["00"], ["000"]) == (["01", "10", "11"], ["001", "01", "1"])
    rng = random.Random(6)
    for _ in range(200):
        families = []
        for _ in range(2):
            part = _random_partition(rng, max_splits=6)
            if len(part) < 2:
                part = ["0", "1"]
            families.append(rng.sample(part, rng.randint(1, len(part) - 1)))
        p, q = families
        rest_p, rest_q = padded_complements(p, q)
        assert len(rest_p) == len(rest_q)
        for family, rest in ((p, rest_p), (q, rest_q)):
            assert rest == sorted(rest)
            assert not set(rest) & set(family)
            assert is_partition_set(list(family) + rest)


def test_sibling():
    assert sibling("0") == "1"
    assert sibling("010") == "011"
    with pytest.raises(ValueError):
        sibling("")


def test_eventually_periodic_canonical():
    assert OMEGA0.prefix == "" and OMEGA0.period == "0"
    assert EventuallyPeriodicWord("00", "0") == OMEGA0
    assert EventuallyPeriodicWord("0", "10") == EventuallyPeriodicWord("", "01")
    assert EventuallyPeriodicWord("", "0101") == EventuallyPeriodicWord("", "01")
    w = EventuallyPeriodicWord("01", "10")
    assert w.head(6) == "011010"
    assert w != EventuallyPeriodicWord("", "01")


def test_eventually_periodic_drop_and_parse():
    w = EventuallyPeriodicWord.parse("011(10)")
    assert w.drop(2).head(5) == "11010"
    assert w.drop(3) == EventuallyPeriodicWord("", "10")
    assert EventuallyPeriodicWord.parse("(0)") == OMEGA0
    assert EventuallyPeriodicWord.parse("101") == EventuallyPeriodicWord("101", "0")
    assert w.prepend("1").head(4) == "1011"


def test_head_matches_letter():
    rng = random.Random(8)
    for _ in range(200):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(6)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        w = EventuallyPeriodicWord(pre, per)
        n = rng.randrange(20)
        assert w.head(n) == "".join(w.letter(i) for i in range(n))


def test_drop_matches_letters():
    rng = random.Random(9)
    for _ in range(200):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        per = "".join(rng.choice("01") for _ in range(1, 4))
        w = EventuallyPeriodicWord(pre, per)
        n = rng.randrange(8)
        assert w.drop(n).head(10) == w.head(10 + n)[n:]
