"""Finite groups as validated Cayley tables, with the standard constructors
and the character table of an abelian group.

Elements are the indices 0..n-1; the multiplication table, inverse table and
identity index carry the whole structure.  Built-in constructors are capped at
order 24 so that dense n^2 x n^2 operators stay small; tables loaded from
files may have any order at the caller's risk.

Finite groups are unimodular: the modular function is identically 1, so the
involutions and antipodes of the group models carry no modular factor.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

MAX_BUILTIN_ORDER = 24


class CayleyTableError(ValueError):
    """A Cayley table failed group-axiom validation."""

    def __init__(self, message: str, coords: tuple | None = None):
        super().__init__(message if coords is None else f"{message} (at {coords})")
        self.coords = coords


class NotLatinSquare(CayleyTableError):
    pass


class NoIdentity(CayleyTableError):
    pass


class MissingInverse(CayleyTableError):
    pass


class NotAssociative(CayleyTableError):
    pass


class NonAbelianInput(ValueError):
    """An operation requiring an abelian group received a non-abelian one."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on {0..n-1} given by its multiplication table."""

    order: int
    mult: np.ndarray
    inv: np.ndarray
    identity: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mult", np.asarray(self.mult, dtype=np.intp))
        object.__setattr__(self, "inv", np.asarray(self.inv, dtype=np.intp))
        self.mult.setflags(write=False)
        self.inv.setflags(write=False)

    def multiply(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = int(self.mult[x, a])
            k += 1
        return k


def from_cayley_table(raw, name: str = "") -> FiniteGroup:
    """Validate a square table over {0..n-1} and build the group.

    The identity is discovered, not declared.  Raises NotLatinSquare,
    NoIdentity, MissingInverse or NotAssociative with the offending
    row/column coordinates.
    """
    table = np.asarray(raw)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"Cayley table must be square, got shape {table.shape}")
    if not np.issubdtype(table.dtype, np.integer):
        raise ValueError("Cayley table entries must be integers")
    n = table.shape[0]
    if n == 0:
        raise ValueError("Cayley table must be nonempty")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise ValueError(f"table entry out of range 0..{n - 1} at {tuple(bad)}")
    table = table.astype(np.intp)

    full = np.arange(n)
    for r in range(n):
        if not np.array_equal(np.sort(table[r]), full):
            raise NotLatinSquare(f"row {r} is not a permutation", (r,))
    for c in range(n):
        if not np.array_equal(np.sort(table[:, c]), full):
            raise NotLatinSquare(f"column {c} is not a permutation", (c,))

    identity = -1
    for e in range(n):
        if np.array_equal(table[e], full) and np.array_equal(table[:, e], full):
            identity = e
            break
    if identity < 0:
        raise NoIdentity("no two-sided identity element")

    inv = np.empty(n, dtype=np.intp)
    for a in range(n):
        b = int(np.where(table[a] == identity)[0][0])
        if table[b, a] != identity:
            raise MissingInverse(f"element {a} has no two-sided inverse", (a, b))
        inv[a] = b

    left = table[table]        # [a,b,c] = (a*b)*c
    right = table[:, table]    # [a,b,c] = a*(b*c)
    if not np.array_equal(left, right):
        a, b, c = np.argwhere(left != right)[0]
        raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})", (int(a), int(b), int(c)))

    return FiniteGroup(n, table, inv, identity, name=name or f"table:{n}")


def _check_builtin_order(n: int, what: str):
    if n > MAX_BUILTIN_ORDER:
        raise ValueError(f"{what} exceeds the built-in order cap {MAX_BUILTIN_ORDER}")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    _check_builtin_order(n, f"cyclic({n})")
    a = np.arange(n)
    return from_cayley_table((a[:, None] + a[None, :]) % n, name=f"cyclic:{n}")


def dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m; element i + m*j is rotation^i reflection^j."""
    if m < 1:
        raise ValueError("dihedral parameter must be >= 1")
    _check_builtin_order(2 * m, f"dihedral({m})")
    n = 2 * m
    table = np.empty((n, n), dtype=np.intp)
    for i, jj in itertools.product(range(m), range(2)):
        for k, ll in itertools.product(range(m), range(2)):
            rot = (i + (k if jj == 0 else -k)) % m
            table[i + m * jj, k + m * ll] = rot + m * ((jj + ll) % 2)
    return from_cayley_table(table, name=f"dihedral:{m}")


def symmetric(k: int) -> FiniteGroup:
    """Symmetric group on k letters, k <= 4, in lexicographic permutation order."""
    if k < 1 or k > 4:
        raise ValueError("symmetric(k) supports 1 <= k <= 4")
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.empty((n, n), dtype=np.intp)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[t]] for t in range(k))]
    return from_cayley_table(table, name=f"s{k}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) is indexed as a*|H| + b."""
    n, m = g.order, h.order
    _check_builtin_order(n * m, f"product of orders {n} and {m}")
    a = np.arange(n * m)
    ga, hb = np.divmod(a, m)
    table = g.mult[ga[:, None], ga[None, :]] * m + h.mult[hb[:, None], hb[None, :]]
    return from_cayley_table(table, name=f"product:{g.name}x{h.name}")


def is_abelian(group: FiniteGroup) -> bool:
    return bool(np.array_equal(group.mult, group.mult.T))


def _generating_set(group: FiniteGroup) -> list[int]:
    """Greedy generators, preferring large element order."""
    n = group.order
    order_of = [group.element_order(a) for a in range(n)]
    candidates = sorted(range(n), key=lambda a: (-order_of[a], a))
    gens: list[int] = []
    generated = {group.identity}
    for a in candidates:
        if a in generated:
            continue
        gens.append(a)
        frontier = list(generated | {a})
        closure = set(frontier)
        while frontier:
            x = frontier.pop()
            for y in gens:
                z = int(group.mult[x, y])
                if z not in closure:
                    closure.add(z)
                    frontier.append(z)
        generated = closure
        if len(generated) == n:
            break
    return gens


def characters(group: FiniteGroup) -> np.ndarray:
    """Character table of an abelian group: n rows chi with chi(xy) = chi(x)chi(y),
    |chi(x)| = 1, pairwise orthogonal under the counting inner product.

    Characters are enumerated as homomorphisms determined by root-of-unity
    values on a generating set; rows are sorted lexicographically.
    """
    if not is_abelian(group):
        raise NonAbelianInput(f"characters require an abelian group, got {group.name}")
    n = group.order
    gens = _generating_set(group)
    if not gens:  # trivial group
        return np.ones((1, 1), dtype=complex)

    # Exponent vector of each element over the generators, via BFS.
    expo = {group.identity: np.zeros(len(gens), dtype=int)}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for i, g in enumerate(gens):
            y = int(group.mult[x, g])
            if y not in expo:
                vec = expo[x].copy()
                vec[i] += 1
                expo[y] = vec
                frontier.append(y)
    expo_arr = np.stack([expo[x] for x in range(n)])

    gen_orders = [group.element_order(g) for g in gens]
    rows = []
    seen = set()
    for choice in itertools.product(*(range(o) for o in gen_orders)):
        angles = expo_arr @ (np.array(choice) / np.array(gen_orders))
        chi = np.exp(2j * np.pi * angles)
        if not np.allclose(chi[group.mult], chi[:, None] * chi[None, :], atol=1e-9):
            continue
        key = tuple(np.round(chi, 9).tolist())
        if key not in seen:
            seen.add(key)
            rows.append(chi)
    if len(rows) != n:
        raise RuntimeError(f"character enumeration found {len(rows)} of {n} characters")
    rows.sort(key=lambda chi: tuple((round(z.real, 9), round(z.imag, 9)) for z in chi))
    return np.stack(rows)


def load_group(path) -> FiniteGroup:
    """Read a Cayley-table JSON file: { "order": n, "table": [[...]] }."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "table" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'table' field")
    table = np.asarray(data["table"])
    if "order" in data and table.shape != (data["order"], data["order"]):
        raise ValueError(f"{path}: declared order {data['order']} does not match "
                         f"table shape {table.shape}")
    return from_cayley_table(table, name=str(path))
