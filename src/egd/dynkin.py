"""Dynkin diagrams of finite type and the integer matrices derived from them.

Nodes are numbered 1..rank following the usual textbook conventions: the
A/B/C chains run 1,...,n with the multiple bond of B/C at the far end
(n-1, n); the D fork hangs nodes n-1 and n off node n-2; the E branch node
is node 2, attached to node 4 of the chain 1,3,4,5,...; F4 is the chain
1-2=3-4; G2 is the triple bond 1=2.

Families B and C have transposed Cartan matrices but identical Coxeter
matrices, so they generate the same abstract group with the same Bruhat
order.  Since nothing in this package depends on root lengths, both
families are built from one shared table and the resulting contexts are
bit-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial

from .errors import EgdError, InvalidRank

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_EXCEPTIONAL_ORDER = {
    ("G", 2): 12,
    ("F", 4): 1152,
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
}


@dataclass(frozen=True)
class DynkinSpec:
    """A diagram family letter plus a rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidRank(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise InvalidRank(f"family {self.family} needs rank {bound}, got {self.rank}")

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "DynkinSpec":
        """Parse a diagram string such as ``D5`` or ``F4``."""
        m = re.fullmatch(r"([A-G])([0-9]+)", text.strip())
        if m is None:
            raise InvalidRank(f"cannot parse diagram {text!r}")
        return cls(m.group(1), int(m.group(2)))

    def parse_nodes(self, text: str) -> frozenset[int]:
        """Parse a node set: ``all``, ``none``, or comma-separated indices 1..rank."""
        key = text.strip().lower()
        if key == "all":
            return frozenset(self.nodes)
        if key == "none":
            return frozenset()
        try:
            nodes = frozenset(int(p) for p in key.split(","))
        except ValueError as exc:
            raise EgdError(f"cannot parse node set {text!r}") from exc
        bad = sorted(i for i in nodes if i < 1 or i > self.rank)
        if bad:
            raise EgdError(f"nodes {bad} outside diagram {self}")
        return nodes


def bonds(spec: DynkinSpec) -> list[tuple[int, int, int]]:
    """Edges of the diagram as (i, j, m) with m the Coxeter exponent 3, 4 or 6."""
    n = spec.rank
    fam = spec.family
    if fam == "A":
        return [(i, i + 1, 3) for i in range(1, n)]
    if fam in ("B", "C"):
        return [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 1, n, 4)]
    if fam == "D":
        chain = [(i, i + 1, 3) for i in range(1, n - 2)]
        return chain + [(n - 2, n - 1, 3), (n - 2, n, 3)]
    if fam == "E":
        chain = [(1, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3)]
        if n >= 7:
            chain.append((6, 7, 3))
        if n == 8:
            chain.append((7, 8, 3))
        return chain + [(2, 4, 3)]
    if fam == "F":
        return [(1, 2, 3), (2, 3, 4), (3, 4, 3)]
    return [(1, 2, 6)]  # G2


def cartan_matrix(spec: DynkinSpec) -> tuple[tuple[int, ...], ...]:
    """Integer Cartan matrix, entry [i][j] = <alpha_i, alpha_j^v>.

    Family C is served the B table: the two groups are identical and only
    the group structure matters here.
    """
    if spec.family == "C":
        spec = DynkinSpec("B", spec.rank)
    n = spec.rank
    cart = [[0] * n for _ in range(n)]
    for i in range(n):
        cart[i][i] = 2
    for i, j, mult in bonds(spec):
        a, b = i - 1, j - 1
        if mult == 3:
            cart[a][b] = cart[b][a] = -1
        elif mult == 4:
            # double bond points from the long root i to the short root j
            cart[a][b] = -2
            cart[b][a] = -1
        else:  # G2: alpha_1 short, alpha_2 long
            cart[a][b] = -1
            cart[b][a] = -3
    return tuple(tuple(row) for row in cart)


def group_order(spec: DynkinSpec) -> int:
    """Order of the Weyl group."""
    n = spec.rank
    if spec.family == "A":
        return factorial(n + 1)
    if spec.family in ("B", "C"):
        return 2**n * factorial(n)
    if spec.family == "D":
        return 2 ** (n - 1) * factorial(n)
    return _EXCEPTIONAL_ORDER[(spec.family, n)]


def num_positive_roots(spec: DynkinSpec) -> int:
    n = spec.rank
    counts = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}
    if spec.family in counts:
        return counts[spec.family]
    return {("G", 2): 6, ("F", 4): 24, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120}[
        (spec.family, n)
    ]


def _component_order(nodes: list[int], comp_bonds: list[tuple[int, int, int]]) -> int:
    """Weyl group order of one connected subdiagram, classified by shape."""
    k = len(nodes)
    if k == 1:
        return 2
    mults = [m for _, _, m in comp_bonds]
    if 6 in mults:
        return 12
    degree = {v: 0 for v in nodes}
    for i, j, _ in comp_bonds:
        degree[i] += 1
        degree[j] += 1
    if 4 in mults:
        di, dj = next((degree[i], degree[j]) for i, j, m in comp_bonds if m == 4)
        if di == 2 and dj == 2:  # double bond in the interior: F4 itself
            return 1152
        return 2**k * factorial(k)
    branch = [v for v in nodes if degree[v] == 3]
    if not branch:
        return factorial(k + 1)  # type A chain
    # legs of the unique branch node, by length
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for i, j, _ in comp_bonds:
        adj[i].append(j)
        adj[j].append(i)
    legs = []
    for start in adj[branch[0]]:
        leg, prev, cur = 1, branch[0], start
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            leg += 1
        legs.append(leg)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return 2 ** (k - 1) * factorial(k)  # type D
    return _EXCEPTIONAL_ORDER[("E", k)]


def parabolic_order(spec: DynkinSpec, subset) -> int:
    """Order of the parabolic subgroup generated by the reflections in ``subset``."""
    subset = frozenset(subset)
    for i in subset:
        if i < 1 or i > spec.rank:
            raise EgdError(f"node {i} outside diagram {spec}")
    all_bonds = [(i, j, m) for i, j, m in bonds(spec) if i in subset and j in subset]
    adj: dict[int, list[int]] = {v: [] for v in subset}
    for i, j, _ in all_bonds:
        adj[i].append(j)
        adj[j].append(i)
    order = 1
    todo = set(subset)
    while todo:
        seed = min(todo)
        comp = {seed}
        queue = [seed]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        todo -= comp
        comp_bonds = [(i, j, m) for i, j, m in all_bonds if i in comp]
        order *= _component_order(sorted(comp), comp_bonds)
    return order


def quotient_size(spec: DynkinSpec, parabolic_set) -> int:
    """Number of minimal coset representatives |W| / |W_J|."""
    return group_order(spec) // parabolic_order(spec, parabolic_set)


def is_proper_subdiagram(sub: DynkinSpec, sup: DynkinSpec) -> bool:
    """Whether ``sub`` occurs as an induced subdiagram of ``sup`` on a proper node subset.

    B2 and C2 denote the same diagram, so each embeds in larger B or C chains.
    """
    sf, m = sub.family, sub.rank
    tf, n = sup.family, sup.rank
    if sf == "A":
        if tf == "A":
            return m < n
        if tf in ("B", "C", "D", "E"):
            return m <= n - 1
        if tf == "F":
            return m <= 2
        return m == 1  # G2
    if sf in ("B", "C"):
        if tf == sf:
            return m < n
        if tf in ("B", "C"):
            return m == 2 and n >= 3
        if tf == "F":
            return m <= 3
        return False
    if sf == "D":
        if tf == "D":
            return m < n
        return tf == "E" and m <= n - 1
    if sf == "E":
        return tf == "E" and m < n
    return False  # F4 and G2 embed in nothing larger here
