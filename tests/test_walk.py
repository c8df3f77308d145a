"""The label transducer `WreathRecursion.walk` and the walks built on it.

`cone_data` is checked against diagram expansion, which splits columns with
`simple_expand` and never calls `walk`; `act_point`'s per-period cycle
detection is checked against the letter-by-letter `act_word`.  The last test
keeps transducer steps inside `walk` and `simple_expand`.
"""

import ast
import itertools
import random
from pathlib import Path

import pytest

from labeled_thompson import germs
from labeled_thompson.diagrams import Context, forest_refinement
from labeled_thompson.elements import element
from labeled_thompson.groups import CyclicGroup, WreathRecursion, symmetric_table
from labeled_thompson.sampling import random_element
from labeled_thompson.words import OMEGA0, EventuallyPeriodicWord, complete_to_partition


def _context(backend, rule, **kw):
    return Context(backend, WreathRecursion(backend, rule, **kw))


S3 = symmetric_table(3)
SIGN = {v: S3.mul(v, v) == 0 and v != 0 for v in range(6)}
CONTEXTS = (
    _context(CyclicGroup(2), "diagonal"),
    _context(CyclicGroup(None), "adding"),
    _context(CyclicGroup(3), "right"),
    _context(S3, "kappa", kappa=SIGN),
)
CONTEXT_IDS = ("z2_diag", "z_adding", "z3_right", "s3_kappa")


def _words(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
def test_cone_data_matches_expansion(ctx):
    rng = random.Random(31)
    for _ in range(8):
        a = random_element(rng, ctx, max_splits=4)
        dom = [u for (_, u), _, _ in a.diagram.columns]
        for u in _words(4):
            if any(d.startswith(u) and d != u for d in dom):
                with pytest.raises(germs.LabelUndefined):
                    germs.cone_data(a, u)
                with pytest.raises(germs.LabelUndefined):
                    germs.label_at(a, u)
                continue
            cone = [(0, w) for w in complete_to_partition([u])]
            expanded = a.diagram.expand_to(forest_refinement(a.diagram.domain(), cone))
            [(g, (_, v))] = [(g, r) for (_, d), g, r in expanded.columns if d == u]
            assert germs.cone_data(a, u) == (g, v)
            assert germs.label_at(a, u) == g


@pytest.mark.parametrize("ctx", CONTEXTS, ids=CONTEXT_IDS)
def test_act_point_agrees_with_act_word(ctx):
    rng = random.Random(32)
    for _ in range(40):
        a = random_element(rng, ctx, max_splits=4)
        prefix = "".join(rng.choice("01") for _ in range(rng.randrange(5)))
        period = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        point = EventuallyPeriodicWord(prefix, period)
        image = a.act_point(point)
        assert image is not None
        n = len(image.prefix) + 3 * len(image.period) + 12
        assert image.head(n) == a.act_word(point, n)


def test_act_point_budget_bounds_transducer_steps():
    ctx = CONTEXTS[1]
    t = element(ctx, [""], [ctx.backend.element(1 << 12)], [""])
    # labels t^4096, t^2048, ..., t, 1 along the zero spine: 14 steps
    assert t.act_point(OMEGA0, state_budget=13) is None
    assert t.act_point(OMEGA0, state_budget=14) == EventuallyPeriodicWord(
        "0" * 12 + "1", "0"
    )


# transducer steps may only be taken by the walk and by column expansion
ALLOWED_STEPS = {
    ("groups.py", "WreathRecursion.walk"),
    ("diagrams.py", "LabeledDiagram.simple_expand"),
}


def package_calls(names):
    """(file name, qualified name) of every call, anywhere in the package, of
    a function or method whose name is in `names`."""
    found = []

    def visit(path, node, scope):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(path, sub, scope + (sub.name,))
                continue
            if isinstance(sub, ast.Call):
                func = sub.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in names:
                    found.append((path.name, ".".join(scope)))
            visit(path, sub, scope)

    for path in sorted(Path(germs.__file__).parent.glob("*.py")):
        visit(path, ast.parse(path.read_text()), ())
    return found


def test_transducer_steps_only_in_walk_and_expand():
    steps = package_calls({"apply_bit", "child"})
    assert {s for s in steps if s not in ALLOWED_STEPS} == set()
    assert set(steps) == ALLOWED_STEPS
