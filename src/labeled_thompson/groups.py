"""Exact group backends and wreath recursions.

Backends provide decidable equality: finite groups are Cayley tables
indexed 0..n-1 with 0 as identity, cyclic groups are integers, symmetric
groups are image tuples acting on the right, free groups are freely
reduced words, products are tuples of the factors' values.

A wreath recursion splits a label g into a pair of child labels and a
swap flag; it drives the expansion rule of the diagram calculus, and its
label transducer `WreathRecursion.walk` gives the induced action on the
infinite binary tree, the labels at cones and the images of points.
Whether a recursion is injective (so that sibling columns can merge back)
is decided when it is built.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple, Optional


class BackendMismatch(ValueError):
    pass


class GroupElement:
    """A backend-tagged canonical value with exact arithmetic."""

    __slots__ = ("backend", "value")

    def __init__(self, backend: "GroupBackend", value):
        self.backend = backend
        self.value = value

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.backend is not other.backend:
            raise BackendMismatch("elements belong to different backends")
        return GroupElement(self.backend, self.backend.mul(self.value, other.value))

    def __invert__(self) -> "GroupElement":
        return GroupElement(self.backend, self.backend.inv(self.value))

    def __pow__(self, n: int) -> "GroupElement":
        if n < 0:
            return (~self) ** (-n)
        out = self.backend.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_identity(self) -> bool:
        return self.value == self.backend.identity_value()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.backend is other.backend
            and self.value == other.value
        )

    def __lt__(self, other: "GroupElement") -> bool:
        return self.backend.sort_key(self.value) < other.backend.sort_key(other.value)

    def __hash__(self) -> int:
        return hash((id(self.backend), self.value))

    def __repr__(self) -> str:
        return self.backend.format_element(self.value)


class GroupBackend:
    """Base class: exact arithmetic on canonical values."""

    kind = "abstract"

    def identity_value(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def check_value(self, v) -> bool:
        raise NotImplementedError

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        return None

    def element_values(self) -> Iterator:
        raise NotImplementedError("backend is not enumerable")

    def sort_key(self, v):
        return v

    def format_element(self, v) -> str:
        return str(v)

    def parse_element(self, token: str):
        raise NotImplementedError

    # -- conveniences ------------------------------------------------

    def one(self) -> GroupElement:
        return GroupElement(self, self.identity_value())

    def element(self, v) -> GroupElement:
        if not self.check_value(v):
            raise ValueError(f"{v!r} is not a canonical value for {self!r}")
        return GroupElement(self, v)

    def elements(self) -> Iterator[GroupElement]:
        for v in self.element_values():
            yield GroupElement(self, v)

    def parse(self, token: str) -> GroupElement:
        return self.element(self.parse_element(token))

    def is_finite(self) -> bool:
        return self.order() is not None

    def describe(self) -> dict:
        raise NotImplementedError


class FiniteTableGroup(GroupBackend):
    """Cayley-table group on indices 0..n-1 with 0 the identity.

    The constructor checks the group axioms: a Latin square with identity
    0 is a loop, and it is a group when it is associative (n^3 lookups).
    """

    kind = "finite-table"

    def __init__(self, table, names: Optional[dict[str, int]] = None):
        n = len(table)
        self.table = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in self.table):
            raise ValueError("Cayley table must be square")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("row/column 0 must realize the identity")
            if sorted(self.table[i]) != list(range(n)) or sorted(
                row[i] for row in self.table
            ) != list(range(n)):
                raise ValueError("Cayley table is not a Latin square")
        self.n = n
        if not self.is_associative():
            raise ValueError("Cayley table is not associative")
        self._inv = [0] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == 0:
                    self._inv[i] = j
        self.names = dict(names or {})
        self._name_of = {v: k for k, v in self.names.items()}

    def identity_value(self):
        return 0

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def check_value(self, v) -> bool:
        return isinstance(v, int) and 0 <= v < self.n

    def order(self):
        return self.n

    def element_values(self):
        return iter(range(self.n))

    def is_associative(self) -> bool:
        rng = range(self.n)
        return all(
            self.table[self.table[a][b]][c] == self.table[a][self.table[b][c]]
            for a in rng
            for b in rng
            for c in rng
        )

    def format_element(self, v) -> str:
        return self._name_of.get(v, str(v))

    def parse_element(self, token: str):
        token = token.strip()
        if token in self.names:
            return self.names[token]
        return int(token)

    def describe(self) -> dict:
        d = {"kind": "finite", "table": [list(r) for r in self.table]}
        if self.names:
            d["names"] = dict(self.names)
        return d

    def __repr__(self):
        return f"FiniteTableGroup(order={self.n})"


class CyclicGroup(GroupBackend):
    """Z/n for finite n, or the infinite cyclic group when n is None."""

    kind = "cyclic"

    def __init__(self, n: Optional[int] = None):
        if n is not None and n < 1:
            raise ValueError("cyclic order must be positive")
        self.n = n

    def identity_value(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.n if self.n else a + b

    def inv(self, a):
        return (-a) % self.n if self.n else -a

    def check_value(self, v) -> bool:
        if not isinstance(v, int):
            return False
        return self.n is None or 0 <= v < self.n

    def order(self):
        return self.n

    def element_values(self):
        if self.n is None:
            raise NotImplementedError("infinite cyclic group is not enumerable")
        return iter(range(self.n))

    def parse_element(self, token: str):
        token = token.strip()
        if self.n is None:
            if token == "t":
                return 1
            if token.startswith("t^"):
                return int(token[2:])
        k = int(token)
        return k % self.n if self.n else k

    def format_element(self, v) -> str:
        if self.n is None:
            if v == 0:
                return "0"
            return "t" if v == 1 else f"t^{v}"
        return str(v)

    def describe(self) -> dict:
        return {"kind": "cyclic", "n": self.n}

    def __repr__(self):
        return f"CyclicGroup({'Z' if self.n is None else self.n})"


class SymmetricGroup(GroupBackend):
    """S_m on {1..m}; values are image tuples p with (i)p = p[i-1], acting
    on the right: (i)(pq) = ((i)p)q."""

    kind = "symmetric"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("need m >= 1")
        self.m = m

    def identity_value(self):
        return tuple(range(1, self.m + 1))

    def mul(self, a, b):
        return tuple(b[a[i] - 1] for i in range(self.m))

    def inv(self, a):
        out = [0] * self.m
        for i, img in enumerate(a):
            out[img - 1] = i + 1
        return tuple(out)

    def check_value(self, v) -> bool:
        return isinstance(v, tuple) and sorted(v) == list(range(1, self.m + 1))

    def order(self):
        return math.factorial(self.m)

    def element_values(self):
        return itertools.permutations(range(1, self.m + 1))

    def parse_element(self, token: str):
        token = token.strip()
        if token == "1":
            return self.identity_value()
        if self.m > 9:
            raise ValueError("one-line tokens only supported for m <= 9")
        return tuple(int(c) for c in token)

    def format_element(self, v) -> str:
        return "".join(str(i) for i in v)

    def describe(self) -> dict:
        return {"kind": "symmetric", "m": self.m}

    def __repr__(self):
        return f"SymmetricGroup({self.m})"


class FreeGroup(GroupBackend):
    """Free group of finite rank; values are freely reduced tuples of
    nonzero ints, +k for the k-th generator and -k for its inverse."""

    kind = "free"
    LETTERS = "abcdefghijklmnopqrstuvwxyz"

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise ValueError("rank must be between 1 and 26")
        self.rank = rank

    def identity_value(self):
        return ()

    def mul(self, a, b):
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def check_value(self, v) -> bool:
        if not isinstance(v, tuple):
            return False
        if any(not isinstance(x, int) or x == 0 or abs(x) > self.rank for x in v):
            return False
        return all(v[i] != -v[i + 1] for i in range(len(v) - 1))

    def parse_element(self, token: str):
        token = token.strip()
        if token in ("1", ""):
            return ()
        out: list[int] = []
        for c in token:
            low = c.lower()
            if low not in self.LETTERS[: self.rank]:
                raise ValueError(f"unknown generator {c!r}")
            k = self.LETTERS.index(low) + 1
            x = k if c.islower() else -k
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def format_element(self, v) -> str:
        if not v:
            return "1"
        return "".join(
            self.LETTERS[x - 1] if x > 0 else self.LETTERS[-x - 1].upper() for x in v
        )

    def sort_key(self, v):
        return (len(v), v)

    def describe(self) -> dict:
        return {"kind": "free", "rank": self.rank}

    def __repr__(self):
        return f"FreeGroup(rank={self.rank})"


class ProductGroup(GroupBackend):
    kind = "product"

    def __init__(self, factors: list[GroupBackend]):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)

    def identity_value(self):
        return tuple(f.identity_value() for f in self.factors)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def check_value(self, v) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == len(self.factors)
            and all(f.check_value(x) for f, x in zip(self.factors, v))
        )

    def order(self):
        out = 1
        for f in self.factors:
            o = f.order()
            if o is None:
                return None
            out *= o
        return out

    def element_values(self):
        return itertools.product(*(f.element_values() for f in self.factors))

    def parse_element(self, token: str):
        parts = token.strip().split("&")
        if len(parts) != len(self.factors):
            raise ValueError("wrong number of product components")
        return tuple(f.parse_element(p) for f, p in zip(self.factors, parts))

    def format_element(self, v) -> str:
        return "&".join(f.format_element(x) for f, x in zip(self.factors, v))

    def sort_key(self, v):
        return tuple(f.sort_key(x) for f, x in zip(self.factors, v))

    def describe(self) -> dict:
        return {"kind": "product", "factors": [f.describe() for f in self.factors]}

    def __repr__(self):
        return f"ProductGroup({self.factors!r})"


def symmetric_table(m: int, names: bool = True) -> FiniteTableGroup:
    """S_m as a Cayley table backend (identity at index 0)."""
    sym = SymmetricGroup(m)
    values = sorted(sym.element_values())
    values.remove(sym.identity_value())
    values.insert(0, sym.identity_value())
    index = {v: i for i, v in enumerate(values)}
    table = [[index[sym.mul(a, b)] for b in values] for a in values]
    name_map = {sym.format_element(v): i for v, i in index.items()} if names else None
    return FiniteTableGroup(table, names=name_map)


def cyclic_table(n: int) -> FiniteTableGroup:
    return FiniteTableGroup([[(i + j) % n for j in range(n)] for i in range(n)])


class WreathImage(NamedTuple):
    """Image ((g0, g1), swap) of a label under a wreath recursion."""

    left: GroupElement
    right: GroupElement
    swap: bool

    def apply_bit(self, bit: str) -> str:
        if bit not in ("0", "1"):
            raise ValueError("bit must be '0' or '1'")
        return ("1" if bit == "0" else "0") if self.swap else bit

    def child(self, bit: str) -> GroupElement:
        return self.left if bit == "0" else self.right


_RULES = ("diagonal", "vanishing", "right", "left", "kappa", "adding", "custom")


class WreathRecursion:
    """A splitting rule g -> ((g0, g1), swap) on a fixed backend.

    Canonical rules carry closed-form injectivity; custom finite rules are
    validated to be homomorphisms and carry a precomputed inverse table.
    """

    def __init__(
        self,
        backend: GroupBackend,
        rule: str,
        table: Optional[dict] = None,
        kappa: Optional[dict] = None,
    ):
        if rule not in _RULES:
            raise ValueError(f"unknown rule {rule!r}")
        self.backend = backend
        self.rule = rule
        self.table = None
        self.kappa = None
        self._injective = True
        if rule == "adding":
            if not (isinstance(backend, CyclicGroup) and backend.n is None):
                raise ValueError("adding machine lives on the infinite cyclic group")
        elif rule == "vanishing":
            self._injective = backend.order() == 1
        elif rule == "kappa":
            if kappa is None:
                raise ValueError("kappa rule needs the map to S2")
            self.kappa = dict(kappa)
            self._validate_kappa()
        elif rule == "custom":
            if table is None:
                raise ValueError("custom rule needs a lookup table")
            if not backend.is_finite():
                raise ValueError("custom tables require a finite backend")
            self.table = {
                v: (img[0], img[1], bool(img[2])) for v, img in table.items()
            }
            self._validate_custom()
            self._preimage = {img: v for v, img in self.table.items()}
            self._injective = len(self._preimage) == len(self.table)

    # -- validation ---------------------------------------------------

    def _validate_kappa(self):
        if not self.backend.is_finite():
            raise ValueError("kappa maps are validated exhaustively; need finite G")
        vals = list(self.backend.element_values())
        if set(self.kappa) != set(vals):
            raise ValueError("kappa must be defined on every element")
        if self.kappa[self.backend.identity_value()]:
            raise ValueError("kappa must send the identity to the identity")
        for a in vals:
            for b in vals:
                if self.kappa[self.backend.mul(a, b)] != (
                    self.kappa[a] ^ self.kappa[b]
                ):
                    raise ValueError("kappa is not a homomorphism to S2")

    def _validate_custom(self):
        vals = list(self.backend.element_values())
        if set(self.table) != set(vals):
            raise ValueError("custom table must cover every element")
        e = self.backend.identity_value()
        if self.table[e] != (e, e, False):
            raise ValueError("custom table must fix the identity")
        for v in vals:
            l, r, _ = self.table[v]
            if not (self.backend.check_value(l) and self.backend.check_value(r)):
                raise ValueError("custom table values must live in the backend")
        for a in vals:
            for b in vals:
                la, ra, sa = self.table[a]
                lb, rb, sb = self.table[b]
                # wreath law: slots of b are twisted by a's swap before multiplying
                lb_t, rb_t = (rb, lb) if sa else (lb, rb)
                want = (self.backend.mul(la, lb_t), self.backend.mul(ra, rb_t), sa ^ sb)
                if self.table[self.backend.mul(a, b)] != want:
                    raise ValueError("custom table is not a homomorphism")

    # -- evaluation ---------------------------------------------------

    def apply(self, g: GroupElement) -> WreathImage:
        if g.backend is not self.backend:
            raise BackendMismatch("label does not belong to this recursion's group")
        B = self.backend
        v = g.value
        if self.rule == "diagonal":
            return WreathImage(g, g, False)
        if self.rule == "vanishing":
            return WreathImage(B.one(), B.one(), False)
        if self.rule == "right":
            return WreathImage(B.one(), g, False)
        if self.rule == "left":
            return WreathImage(g, B.one(), False)
        if self.rule == "kappa":
            return WreathImage(g, g, self.kappa[v])
        if self.rule == "adding":
            # t^m -> ((t^floor(m/2), t^ceil(m/2)), swap when m is odd)
            return WreathImage(
                B.element(v // 2), B.element(-((-v) // 2)), bool(v % 2)
            )
        l, r, s = self.table[v]
        return WreathImage(B.element(l), B.element(r), s)

    def preimage(self, w: WreathImage) -> Optional[GroupElement]:
        """The unique g with apply(g) == w, or None; defined only for
        recursions proven injective."""
        if not self._injective:
            raise ValueError("preimage undefined for non-injective recursion")
        B = self.backend
        if w.left.backend is not B or w.right.backend is not B:
            raise BackendMismatch("image slots live in the wrong group")
        l, r, s = w.left.value, w.right.value, w.swap
        e = B.identity_value()
        if self.rule == "diagonal":
            return B.element(l) if (l == r and not s) else None
        if self.rule == "vanishing":
            return B.one() if (l == e and r == e and not s) else None
        if self.rule == "right":
            return B.element(r) if (l == e and not s) else None
        if self.rule == "left":
            return B.element(l) if (r == e and not s) else None
        if self.rule == "kappa":
            if l == r and self.kappa[l] == s:
                return B.element(l)
            return None
        if self.rule == "adding":
            m = 2 * l + 1 if s else 2 * l
            return B.element(m) if self.apply(B.element(m)) == w else None
        g = self._preimage.get((l, r, s))
        return B.element(g) if g is not None else None

    def walk(self, g: GroupElement, word: str) -> tuple[str, GroupElement]:
        """Run the label transducer from g along a finite binary word.

        Returns (image_word, final_label): the image of the vertex `word`
        under the tree action of g, and the label g carries at the cone of
        `word`.  Each letter moves by the swap part of the current label's
        image, and the walk descends to the child that the original letter
        selects.
        """
        out = []
        for bit in word:
            img = self.apply(g)
            out.append(img.apply_bit(bit))
            g = img.child(bit)
        return "".join(out), g

    def is_injective(self) -> bool:
        return self._injective

    def describe(self) -> dict:
        d = {"rule": self.rule}
        if self.table is not None:
            d["table"] = {
                str(v): [l, r, int(s)] for v, (l, r, s) in self.table.items()
            }
        if self.kappa is not None:
            d["kappa"] = {str(v): int(s) for v, s in self.kappa.items()}
        return d

    def __repr__(self):
        return f"WreathRecursion({self.rule!r} on {self.backend!r})"


def injectivize(
    phi: WreathRecursion,
) -> tuple[FiniteTableGroup, Callable[[GroupElement], GroupElement], WreathRecursion, int]:
    """Quotient a finite recursion until it becomes injective.

    Returns (hat_G, pi_hat, hat_phi, steps) where pi_hat maps elements of
    the original backend onto the quotient and the square
    hat_phi(pi(g)) == pi_w(phi(g)) commutes.  Refuses infinite backends,
    where the quotient tower need not stabilize.
    """
    G = phi.backend
    if not G.is_finite():
        raise ValueError("tower may not stabilize: injectivize needs a finite group")

    # rebase onto a table backend, keeping the element correspondence
    values = list(G.element_values())
    values.sort(key=G.sort_key)
    values.remove(G.identity_value())
    values.insert(0, G.identity_value())
    index = {v: i for i, v in enumerate(values)}
    table = [[index[G.mul(a, b)] for b in values] for a in values]
    cur = FiniteTableGroup(table)
    proj = {v: index[v] for v in values}  # original value -> current index
    cur_phi = _push_recursion(phi, cur, {v: index[v] for v in values}, values)

    steps = 0
    while not cur_phi.is_injective():
        kernel = {
            v
            for v in range(cur.n)
            if cur_phi.apply(cur.element(v))
            == WreathImage(cur.one(), cur.one(), False)
        }
        nxt, qmap = _quotient(cur, kernel)
        nxt_phi = _push_recursion(cur_phi, nxt, qmap, list(range(cur.n)))
        proj = {v: qmap[i] for v, i in proj.items()}
        cur, cur_phi = nxt, nxt_phi
        steps += 1

    def pi_hat(g: GroupElement) -> GroupElement:
        if g.backend is not G:
            raise BackendMismatch("element is not in the recursion's source group")
        return cur.element(proj[g.value])

    return cur, pi_hat, cur_phi, steps


def _push_recursion(phi, target: FiniteTableGroup, qmap: dict, source_values) -> WreathRecursion:
    """Induce a recursion on a quotient/copy along value map qmap."""
    table = {}
    for v in source_values:
        img = phi.apply(phi.backend.element(v))
        entry = (qmap[img.left.value], qmap[img.right.value], img.swap)
        prev = table.get(qmap[v])
        if prev is not None and prev != entry:
            raise ValueError("map does not descend to the quotient")
        table[qmap[v]] = entry
    return WreathRecursion(target, "custom", table=table)


def _quotient(G: FiniteTableGroup, kernel: set) -> tuple[FiniteTableGroup, dict]:
    """Quotient of a table group by a normal subgroup given as a value set."""
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
    # re-seat so that the kernel coset is index 0
    id_at = where[0]
    if id_at != 0:
        order = list(range(len(cosets)))
        order[0], order[id_at] = order[id_at], order[0]
        cosets = [cosets[i] for i in order]
        where = {u: order.index(w) for u, w in where.items()}
    reps = [min(c) for c in cosets]
    table = [
        [where[G.mul(a, b)] for b in reps]
        for a in reps
    ]
    return FiniteTableGroup(table), where
