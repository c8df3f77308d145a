import random

import pytest

from labeled_thompson.diagrams import Context
from labeled_thompson.groups import (
    CyclicGroup,
    FiniteTableGroup,
    WreathRecursion,
    symmetric_table,
)


@pytest.fixture(autouse=True)
def pushed_recursions(monkeypatch):
    """Every recursion that `injectivize` builds unchecked, one per tower
    (its last quotient's), each run through the homomorphism check that it
    skips."""
    built = []
    trusted = WreathRecursion._trusted.__func__

    def checked(cls, backend, table):
        phi = trusted(cls, backend, table)
        phi._validate_custom()
        built.append(phi)
        return phi

    monkeypatch.setattr(WreathRecursion, "_trusted", classmethod(checked))
    return built


def make_context(backend, rule, **kw) -> Context:
    return Context(backend, WreathRecursion(backend, rule, **kw))


@pytest.fixture(scope="session")
def z2_diag():
    return make_context(CyclicGroup(2), "diagonal")


@pytest.fixture(scope="session")
def z3_diag():
    return make_context(CyclicGroup(3), "diagonal")


@pytest.fixture(scope="session")
def s3_diag():
    return make_context(symmetric_table(3), "diagonal")


@pytest.fixture(scope="session")
def z3_right():
    return make_context(CyclicGroup(3), "right")


@pytest.fixture(scope="session")
def z_adding():
    return make_context(CyclicGroup(None), "adding")


@pytest.fixture(scope="session")
def trivial_diag():
    return make_context(FiniteTableGroup([[0]]), "diagonal")


@pytest.fixture()
def rng():
    return random.Random(20240901)
