"""Constructive commutator certificates for diagonal-labeled elements.

Every element splits exactly into (rest-labels) * (first-label) * (label-free)
factors; the first two become explicit commutators via caret re-splitting
and label-free permutation conjugators, and the label-free tail is left
opaque.  Certificates verify themselves by exact multiplication.

`split3` and `commutator_witness` are unchecked constructions.  Each answer
the library hands out is checked once: `decompose` verifies its certificate
before it returns it, and `ltg witness-commutator` checks its pair before
it prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagrams, elements
from .diagrams import Context, LabeledDiagram, _require_diagonal
from .elements import VPhiElement, identity


def _tree_parts(a: VPhiElement) -> tuple[list[str], list, list[str]]:
    """(domain words, labels, paired range words) of a representative with
    at least two leaves."""
    cols = a.diagram.columns
    if len(cols) == 1:
        cols = LabeledDiagram.simple_expand(a.context, cols[0])
    dom = [w for (_, w), _, _ in cols]
    labels = [g for _, g, _ in cols]
    rans = [w for _, _, (_, w) in cols]
    return dom, labels, rans


def split3(a: VPhiElement) -> tuple[VPhiElement, VPhiElement, VPhiElement]:
    """Write a = r * f * v with r carrying all labels but the first, f only
    the first label (both with identity permutation and domain = range) and
    v label-free.  The product is not checked here; `decompose` checks the
    certificate built from it."""
    _require_diagonal(a.context, "the commutator machinery")
    ctx = a.context
    if a.is_identity():
        e = identity(ctx)
        return e, e, e
    dom, labels, rans = _tree_parts(a)
    one = ctx.one()
    r_labels = [one] + labels[1:]
    f_labels = [labels[0]] + [one] * (len(labels) - 1)
    r = elements.element(ctx, dom, r_labels, dom)
    f = elements.element(ctx, dom, f_labels, dom)
    v = elements.element(ctx, dom, [one] * len(dom), rans)
    return r, f, v


def swap12_conjugator(ctx: Context, partition: list[str]) -> VPhiElement:
    """Label-free element exchanging the two lex-least cones of a partition."""
    if len(partition) < 2:
        raise ValueError("need at least two cones to swap")
    part = sorted(partition)
    dst = [part[1], part[0]] + part[2:]
    return elements.element(ctx, part, [ctx.one()] * len(part), dst)


def commutator_witness(v: VPhiElement) -> tuple[VPhiElement, VPhiElement]:
    """Exhibit v = p * q * p^-1 * q^-1 for v with trivial first label,
    identity permutation and domain = range.

    Builds the two re-splittings of the support tree: one stacking all new
    carets on the leftmost leaf, one adding a caret on every other leaf.
    Conjugating between them interleaves the labels with trivial slots, and
    the commutator with the label-free shuffle restores v exactly.  The
    pair is not checked here: `decompose` verifies the certificate that
    holds it, and `ltg witness-commutator` checks it before printing.
    """
    ctx = v.context
    _require_diagonal(ctx, "the commutator machinery")
    if v.is_identity():
        return identity(ctx), identity(ctx)
    dom, labels, rans = _tree_parts(v)
    n = len(dom)
    if rans != dom or not labels[0].is_identity() or not v.in_f():
        raise ValueError("witness needs trivial first label, id permutation, domain = range")

    one = ctx.one()
    # T': n-1 carets stacked on the leftmost leaf
    u1 = dom[0]
    left_pile = [u1 + "0" * (n - 1)] + [
        u1 + "0" * (n - 1 - k) + "1" for k in range(1, n)
    ]
    t_prime = sorted(left_pile) + dom[1:]
    # T'': one caret on every non-leftmost leaf
    t_second = [dom[0]]
    for w in dom[1:]:
        t_second.extend([w + "0", w + "1"])

    m = 2 * n - 1
    # alpha: conjugation pulls source slot (i)alpha into slot i; evens go to
    # the stacked labels, odds keep their order
    alpha = [0] * m
    for j in range(n):
        alpha[2 * j] = j
    for k in range(2, n + 1):
        alpha[2 * k - 3] = n + k - 2
    # beta: sends the interleaved layout back to the left-pile layout; the
    # unconstrained slots take the remaining images in increasing order
    beta = [0] * m
    taken = [False] * m
    for k in range(2, n + 1):
        beta[n + k - 2] = 2 * k - 2
        taken[2 * k - 2] = True
    free = [i for i in range(m) if not taken[i]]
    for j, slot in enumerate(free):
        beta[j] = slot

    ones = [one] * m
    a = elements.from_parts(ctx, t_second, ones, alpha, t_prime)
    b = elements.from_parts(ctx, t_prime, ones, beta, t_second)
    b_inv = ~b
    return b * v * b_inv, b * a * b_inv


@dataclass(frozen=True)
class CommutatorCertificate:
    """target = product of [p, q] factors times a label-free tail."""

    factors: tuple[tuple[VPhiElement, VPhiElement], ...]
    tail: VPhiElement
    target: VPhiElement

    def verify(self) -> bool:
        """Multiply out from the tail up, each factor as p q (q p)^-1: one
        inverse per factor and no product with the identity."""
        if not _label_free(self.tail):
            return False
        prod = self.tail
        for p, q in reversed(self.factors):
            prod = p * q * ~(q * p) * prod
        return prod == self.target

    def __post_init__(self):
        if len(self.factors) > 2:
            raise ValueError("certificates carry at most two commutator factors")


def _label_free(x: VPhiElement) -> bool:
    return all(g.is_identity() for g in x.diagram.labels())


def decompose(a: VPhiElement) -> CommutatorCertificate:
    """Certificate a = [p1,q1] * [p2,q2] * tail with a label-free tail.

    The rest-label factor is a commutator by the witness construction; the
    first-label factor becomes one after swapping it into the second slot.
    """
    ctx = a.context
    _require_diagonal(ctx, "the commutator machinery")
    r, f, v = split3(a)
    factors: list[tuple[VPhiElement, VPhiElement]] = []
    if not r.is_identity():
        factors.append(commutator_witness(r))
    if not f.is_identity():
        dom, _, _ = _tree_parts(f)
        s = swap12_conjugator(ctx, dom)
        s_inv = ~s
        p0, q0 = commutator_witness(s_inv * f * s)
        factors.append((s * p0 * s_inv, s * q0 * s_inv))
    cert = CommutatorCertificate(tuple(factors), v, a)
    if not cert.verify():
        raise AssertionError("certificate failed to verify")
    return cert
