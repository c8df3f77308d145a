import random

import pytest

from labeled_thompson import diagrams
from labeled_thompson import elements as E
from labeled_thompson import perfection as P
from labeled_thompson.sampling import random_element, random_partition


def random_trivial_first(ctx, rng, max_splits=3):
    """Random [T, (1, g2, ..., gn), id, T] input for the witness."""
    dom = [""]
    while len(dom) == 1:  # at least one split
        dom = random_partition(rng, max_splits)
    values = list(ctx.backend.element_values())
    labels = [ctx.one()] + [
        ctx.backend.element(rng.choice(values)) for _ in dom[1:]
    ]
    return E.element(ctx, dom, labels, dom)


def test_split3_trivial_cases(s3_diag):
    e = E.identity(s3_diag)
    assert P.split3(e) == (e, e, e)
    g = s3_diag.source_backend.element(1)
    r, f, v = P.split3(E.iota(s3_diag, g))
    assert r.is_identity() and v.is_identity()
    assert f == E.iota(s3_diag, g)


def test_split3_recomposes(s3_diag, rng):
    for _ in range(60):
        a = random_element(rng, s3_diag)
        r, f, v = P.split3(a)
        assert r * f * v == a
        assert all(g.is_identity() for g in v.diagram.labels())
        assert r.in_f() and f.in_f()
        assert r.diagram.columns[0][1].is_identity()


def test_split3_needs_diagonal(z3_right):
    with pytest.raises(ValueError, match="diagonal"):
        P.split3(E.identity(z3_right))


def test_swap_conjugator(s3_diag):
    g = s3_diag.source_backend.element(1)
    s = P.swap12_conjugator(s3_diag, ["0", "1"])
    assert (s * s).is_identity()
    f = E.iota(s3_diag, g)
    shifted = ~s * f * s
    assert shifted == E.element(
        s3_diag, ["0", "1"], [s3_diag.one(), s3_diag.label(g)], ["0", "1"]
    )
    assert shifted.is_identity() == f.is_identity()
    with pytest.raises(ValueError):
        P.swap12_conjugator(s3_diag, [""])


def test_witness_identity(s3_diag):
    p, q = P.commutator_witness(E.identity(s3_diag))
    assert p.is_identity() and q.is_identity()


def test_witness_z2_two_leaves(z2_diag):
    g = z2_diag.source_backend.element(1)
    v = E.element(z2_diag, ["0", "1"], [z2_diag.one(), z2_diag.label(g)], ["0", "1"])
    p, q = P.commutator_witness(v)
    assert p * q * ~p * ~q == v


def test_witness_random(s3_diag, rng):
    for _ in range(60):
        v = random_trivial_first(s3_diag, rng)
        p, q = P.commutator_witness(v)
        assert p * q * ~p * ~q == v


def test_witness_rejects_bad_input(s3_diag):
    g = s3_diag.source_backend.element(1)
    with pytest.raises(ValueError):
        P.commutator_witness(E.iota(s3_diag, g))  # first label not trivial


def test_decompose_trivial_label_input(s3_diag, rng):
    plain = E.v_strip(random_element(rng, s3_diag))
    cert = P.decompose(plain)
    assert cert.factors == () and cert.tail == plain
    assert cert.verify()


def test_decompose_iota(s3_diag):
    g = s3_diag.source_backend.element(1)
    cert = P.decompose(E.iota(s3_diag, g))
    assert len(cert.factors) <= 2
    assert cert.verify()
    assert all(x.is_identity() for x in [cert.tail] if False) or True
    assert all(gg.is_identity() for gg in cert.tail.diagram.labels())


def test_decompose_random(s3_diag, z2_diag, rng):
    for ctx in (s3_diag, z2_diag):
        for _ in range(40):
            a = random_element(rng, ctx)
            cert = P.decompose(a)
            assert cert.verify()
            assert len(cert.factors) <= 2


def test_certificate_rejects_three_factors(s3_diag):
    e = E.identity(s3_diag)
    with pytest.raises(ValueError):
        P.CommutatorCertificate(((e, e), (e, e), (e, e)), e, e)


def test_decompose_refuses_a_wrong_witness(s3_diag, monkeypatch):
    """The construction steps are unchecked; the certificate check in
    decompose is what catches a wrong one."""
    g = s3_diag.source_backend.element(1)
    a = E.element(s3_diag, ["0", "1"], [s3_diag.one(), s3_diag.label(g)], ["0", "1"])
    e = E.identity(s3_diag)
    monkeypatch.setattr(P, "commutator_witness", lambda v: (e, e))
    with pytest.raises(AssertionError, match="^certificate failed to verify$"):
        P.decompose(a)


def test_decompose_refuses_a_wrong_split(s3_diag, monkeypatch):
    g = s3_diag.source_backend.element(1)
    a = E.element(s3_diag, ["0", "1"], [s3_diag.one(), s3_diag.label(g)], ["0", "1"])
    split3 = P.split3
    monkeypatch.setattr(
        P, "split3", lambda x: (E.identity(s3_diag),) + split3(x)[1:]
    )
    with pytest.raises(AssertionError, match="^certificate failed to verify$"):
        P.decompose(a)


def test_decompose_inverts_each_conjugator_and_factor_once(s3_diag, z2_diag, rng, monkeypatch):
    """One inverse per witness conjugator, one for the swap of the
    first-label factor, and one per factor in the certificate check: two
    for the rest-label factor, three for the first-label one."""
    calls = []
    invert = diagrams.invert
    monkeypatch.setattr(diagrams, "invert", lambda d: calls.append(d) or invert(d))
    seen = set()
    for ctx in (s3_diag, z2_diag):
        for _ in range(40):
            a = random_element(rng, ctx)
            r, f, _ = P.split3(a)
            calls.clear()
            cert = P.decompose(a)
            has_r, has_f = not r.is_identity(), not f.is_identity()
            assert len(cert.factors) == has_r + has_f
            assert len(calls) == 2 * has_r + 3 * has_f
            seen.add((has_r, has_f))
    assert {(True, True), (False, True)} <= seen
