import random

import pytest

from labeled_thompson.words import (
    EventuallyPeriodicWord,
    OMEGA0,
    _cone_excess,
    common_refinement,
    complete_to_partition,
    is_partition_set,
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


def test_common_refinement_examples():
    assert common_refinement([""], ["0", "10", "11"]) == ["0", "10", "11"]
    assert common_refinement(["0", "1"], ["00", "01", "1"]) == ["00", "01", "1"]
    assert common_refinement(["0", "10", "11"], ["00", "01", "1"]) == [
        "00",
        "01",
        "10",
        "11",
    ]


def test_common_refinement_is_coarsest():
    rng = random.Random(5)
    for _ in range(100):
        p = _random_partition(rng)
        q = _random_partition(rng)
        r = common_refinement(p, q)
        assert is_partition_set(r)
        # refines both
        for w in r:
            assert any(w.startswith(u) for u in p)
            assert any(w.startswith(u) for u in q)
        # coarsest: every word is demanded by one of the inputs
        for w in r:
            assert w in p or w in q


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


def test_drop_matches_letters():
    rng = random.Random(9)
    for _ in range(200):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        per = "".join(rng.choice("01") for _ in range(1, 4))
        w = EventuallyPeriodicWord(pre, per)
        n = rng.randrange(8)
        assert w.drop(n).head(10) == w.head(10 + n)[n:]
