"""Reference injectivization: the quotient tower as a chain of table groups.

Each step materializes the current quotient as a `FiniteTableGroup`, finds
the kernel of the induced recursion on it, and pushes the recursion down to
the next quotient, with every table re-checked by the validating
constructors.  The library reaches the same tower as a chain of normal
subgroups of G itself; tests compare the two on every element.
"""

from __future__ import annotations

from typing import Callable

from labeled_thompson.groups import (
    BackendMismatch,
    FiniteTableGroup,
    GroupBackend,
    GroupElement,
    WreathImage,
    WreathRecursion,
)


def rebased(G: GroupBackend) -> tuple[dict, list[list[int]]]:
    """The index of each value of a finite G, sorted with the identity
    first, and the Cayley table of G on those indices."""
    values = sorted(G.element_values(), key=G.sort_key)
    values.remove(G.identity_value())
    values.insert(0, G.identity_value())
    index = {v: i for i, v in enumerate(values)}
    return index, [[index[G.mul(a, b)] for b in values] for a in values]


def injectivize(
    phi: WreathRecursion,
) -> tuple[FiniteTableGroup, Callable[[GroupElement], GroupElement], WreathRecursion, int]:
    """(hat_G, pi_hat, hat_phi, steps), as `groups.injectivize` returns them."""
    G = phi.backend
    if not G.is_finite():
        raise ValueError("tower may not stabilize: injectivize needs a finite group")

    proj, table = rebased(G)  # original value -> current index
    cur = FiniteTableGroup(table)
    cur_phi = push_recursion(phi, cur, proj, list(proj))

    steps = 0
    while not cur_phi.is_injective():
        kernel = {
            v
            for v in range(cur.n)
            if cur_phi.apply(cur.element(v))
            == WreathImage(cur.one(), cur.one(), False)
        }
        nxt, qmap = quotient(cur, kernel)
        nxt_phi = push_recursion(cur_phi, nxt, qmap, list(range(cur.n)))
        proj = {v: qmap[i] for v, i in proj.items()}
        cur, cur_phi = nxt, nxt_phi
        steps += 1

    def pi_hat(g: GroupElement) -> GroupElement:
        if g.backend is not G:
            raise BackendMismatch("element is not in the recursion's source group")
        return cur.element(proj[g.value])

    return cur, pi_hat, cur_phi, steps


def push_recursion(phi, target: FiniteTableGroup, qmap: dict, source_values) -> WreathRecursion:
    """The recursion that phi induces on target along the surjective
    homomorphism qmap, built through the checking constructor."""
    table = {}
    for v in source_values:
        img = phi.apply(phi.backend.element(v))
        entry = (qmap[img.left.value], qmap[img.right.value], img.swap)
        prev = table.get(qmap[v])
        if prev is not None and prev != entry:
            raise ValueError("map does not descend to the quotient")
        table[qmap[v]] = entry
    return WreathRecursion(target, "custom", table=table)


def quotient(G: FiniteTableGroup, kernel: set) -> tuple[FiniteTableGroup, dict]:
    """Quotient of a table group by a normal subgroup given as a value set.

    v = 0 is visited first, so the kernel, which holds 0, is coset 0: the
    quotient's identity sits where FiniteTableGroup wants it."""
    cosets: list[frozenset] = []
    where: dict[int, int] = {}
    for v in range(G.n):
        if v in where:
            continue
        coset = frozenset(G.mul(v, k) for k in kernel)
        idx = len(cosets)
        cosets.append(coset)
        for u in coset:
            where[u] = idx
    reps = [min(c) for c in cosets]
    table = [[where[G.mul(a, b)] for b in reps] for a in reps]
    return FiniteTableGroup(table), where
