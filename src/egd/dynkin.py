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

Every count comes from one table of degrees per irreducible type
(Humphreys, Reflection Groups and Coxeter Groups, 3.7): A_k 2..k+1, B_k and
C_k 2, 4, ..., 2k, D_k 2, 4, ..., 2k-2, k; G2, F4, E6, E7 and E8 listed.
|W| is their product, N = l(w_0) the sum of d - 1, the Poincare polynomial
the product of [d]_q = 1 + q + ... + q^(d-1).  W reads its degrees off its
own type, and N of W has a closed form by type (A_k k(k+1)/2, B_k and C_k
k^2, D_k k(k-1)), so counting N walks no diagram and lists no degrees; W_J
takes the degrees of its components.  A fork is E_k only in an E diagram
holding nodes 1 and 6: without either, two of its legs have one node, and
it is D_k.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate
from math import prod

from .errors import BadLetter, EgdError, InvalidRank, LengthOutOfRange, NotTypeD

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

_EXCEPTIONAL_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


class DynkinSpec(namedtuple("DynkinSpec", "family rank")):
    """A diagram family letter plus a rank, checked when constructed (not by ``_replace``)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in FAMILIES:
            raise InvalidRank(f"unknown family {family!r}")
        lo, hi = _RANK_BOUNDS[family]
        if rank < lo or (hi is not None and rank > hi):
            bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise InvalidRank(f"family {family} needs rank {bound}, got {rank}")
        return super().__new__(cls, family, rank)

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
        return self.check_nodes(nodes)

    def check_nodes(self, nodes, what: str = "nodes") -> frozenset[int]:
        """``nodes`` as a frozenset; EgdError listing, sorted, those outside 1..rank."""
        nodes = frozenset(nodes)
        if bad := sorted(i for i in nodes if not 1 <= i <= self.rank):
            raise EgdError(f"{what} {bad} outside diagram {self}")
        return nodes

    def check_word(self, word) -> tuple[int, ...]:
        """``word`` as a tuple; BadLetter at its first letter outside 1..rank."""
        word = tuple(word)
        for letter in word:
            if not 1 <= letter <= self.rank:
                raise BadLetter(f"letter {letter} outside 1..{self.rank}")
        return word


def parse_word(text: str) -> tuple[int, ...]:
    """Parse comma-separated generator indices; empty or 'e' is the empty word."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BadLetter(f"cannot parse word {text!r}") from exc


def format_word(word) -> str:
    """Serialize a word as comma-separated indices ('e' for the identity)."""
    return ",".join(map(str, word)) if word else "e"


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


def cartan_rows(spec: DynkinSpec) -> list[list[tuple[int, int]]]:
    """The nonzero entries of the Cartan matrix, row by row, from the bonds in O(rank).

    ``rows[i]`` lists (j, [i][j]) by ascending j, both indices 0-based.  The
    bonds and the nodes are read in one merged order; no row is sorted.
    Family C is served the B table: the two groups are identical and only
    the group structure matters here.
    """
    if spec.family == "C":
        spec = DynkinSpec("B", spec.rank)
    # ([i][j], [j][i]) of a bond (i, j, m): a double bond points from the
    # long root i to the short root j; in G2 alpha_1 is short
    entries = {2: (2, 2), 3: (-1, -1), 4: (-2, -1), 6: (-1, -3)}
    rows: list[list[tuple[int, int]]] = [[] for _ in range(spec.rank)]
    # the diagonal entry of node k is a bond (k, k, 2).  Bond (i, j), i <= j,
    # appends [i][j] to row i and [j][i] to row j; read by (i, j), it comes
    # after every entry left of either, so each row ascends unsorted
    for i, j, mult in sorted(bonds(spec) + [(k, k, 2) for k in spec.nodes]):
        ij, ji = entries[mult]
        rows[i - 1].append((j - 1, ij))
        if i < j:
            rows[j - 1].append((i - 1, ji))
    return rows


def cartan_matrix(spec: DynkinSpec) -> tuple[tuple[int, ...], ...]:
    """Integer Cartan matrix, entry [i][j] = <alpha_i, alpha_j^v>: the dense view of cartan_rows."""
    rows = [dict(row) for row in cartan_rows(spec)]
    return tuple(tuple(row.get(j, 0) for j in range(len(rows))) for row in rows)


def opposition(spec: DynkinSpec) -> tuple[int, ...]:
    """sigma = -w_0 on nodes: w_0 alpha_k = -alpha_sigma(k), ``sigma[k - 1]`` for node k.

    A_n reverses the chain, D_n with n odd swaps n-1 and n, E6 swaps 1, 6
    and 3, 5; w_0 = -1 on every other irreducible type (Humphreys, Reflection
    Groups and Coxeter Groups, 1.12; Bourbaki, Lie Groups, Plates I-IX).
    """
    n, fam = spec.rank, spec.family
    sigma = list(spec.nodes)
    if fam == "A":
        sigma.reverse()
    elif fam == "D" and n % 2:
        sigma[n - 2], sigma[n - 1] = n, n - 1
    elif fam == "E" and n == 6:
        sigma = [6, 2, 5, 4, 3, 1]
    return tuple(sigma)


def _type_degrees(family: str, k: int) -> tuple[int, ...]:
    """Degrees of the irreducible Weyl group of type family_k."""
    if family == "A":
        return tuple(range(2, k + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * k + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * k - 1, 2)) + (k,)
    return _EXCEPTIONAL_DEGREES[(family, k)]


def _type_roots(family: str, k: int) -> int:
    """N of the irreducible type family_k, the sum of d - 1 over its degrees, in closed form."""
    if family == "A":
        return k * (k + 1) // 2
    if family in ("B", "C"):
        return k * k
    if family == "D":
        return k * (k - 1)
    return sum(_EXCEPTIONAL_DEGREES[(family, k)]) - k


def _component_type(spec: DynkinSpec, comp: set[int], comp_bonds) -> tuple[str, int]:
    """(family, k) of the connected subdiagram of ``spec`` on ``comp``."""
    k = len(comp)
    mults = {m for _, _, m in comp_bonds}
    if 6 in mults:
        return "G", 2
    if 4 in mults:
        return ("F", 4) if spec.family == "F" and k == 4 else ("B", k)
    if 3 not in Counter(v for i, j, _ in comp_bonds for v in (i, j)).values():
        return "A", k
    return ("E", k) if spec.family == "E" and {1, 6} <= comp else ("D", k)


def degrees(spec: DynkinSpec, subset=None) -> tuple[int, ...]:
    """Degrees of W from its type, or of W_subset by component from the lowest node (memoised)."""
    if subset is None:
        return _type_degrees(spec.family, spec.rank)
    return _degrees(spec, frozenset(subset))


@lru_cache(maxsize=None)
def _degrees(spec: DynkinSpec, nodes: frozenset[int]) -> tuple[int, ...]:
    spec.check_nodes(nodes)
    # fewer than two nodes hold no bond: a huge rank lists none of its bonds
    inner = [] if len(nodes) < 2 else [
        (i, j, m) for i, j, m in bonds(spec) if i in nodes and j in nodes
    ]
    adjacent: dict[int, list[int]] = {v: [] for v in nodes}
    for i, j, _ in inner:
        adjacent[i].append(j)
        adjacent[j].append(i)
    owner: dict[int, int] = {}  # node -> lowest node of its component
    comps: dict[int, list[int]] = {}
    for root in sorted(nodes):
        if root not in owner:
            owner[root], queue = root, [root]
            for v in queue:  # grows while read
                for w in adjacent[v]:
                    if w not in owner:
                        owner[w] = root
                        queue.append(w)
            comps[root] = queue
    comp_bonds: dict[int, list] = {root: [] for root in comps}
    for bond in inner:
        comp_bonds[owner[bond[0]]].append(bond)
    out: list[int] = []
    for root, comp in comps.items():
        out += _type_degrees(*_component_type(spec, set(comp), comp_bonds[root]))
    return tuple(out)


def dimension(spec: DynkinSpec, parabolic_set) -> int:
    """dim G/P_J = l(w_0^J) = N - N_J."""
    return num_positive_roots(spec) - num_positive_roots(spec, parabolic_set)


def check_length(l: int, dim: int) -> None:
    """LengthOutOfRange unless a W^J with dim G/P_J = dim has a stratum of length l."""
    if not 0 <= l <= dim:
        raise LengthOutOfRange(f"no stratum of length {l}; W^J has lengths 0..{dim}")


def require_type_d(spec: DynkinSpec) -> int:
    """The rank of a family-D diagram; NotTypeD for any other family."""
    if spec.family != "D":
        raise NotTypeD(f"operation needs family D, got {spec}")
    return spec.rank


def group_order(spec: DynkinSpec) -> int:
    """Order of the Weyl group, the product of its degrees."""
    return prod(degrees(spec))


def num_positive_roots(spec: DynkinSpec, subset=None) -> int:
    """N = l(w_0) = sum of (d - 1) over the degrees of W, or N_J for W_subset.

    N of W comes from its type alone, so a huge rank is counted without
    listing its degrees.
    """
    if subset is None:
        return _type_roots(spec.family, spec.rank)
    ds = degrees(spec, subset)
    return sum(ds) - len(ds)


def parabolic_order(spec: DynkinSpec, subset) -> int:
    """Order of the parabolic subgroup generated by the reflections in ``subset``."""
    return prod(degrees(spec, subset))


def quotient_size(spec: DynkinSpec, parabolic_set) -> int:
    """Number of minimal coset representatives |W| / |W_J|."""
    return group_order(spec) // parabolic_order(spec, parabolic_set)


def stratum_size(spec: DynkinSpec, parabolic_set, l: int) -> int:
    """|{x in W^J : l(x) = l}|, the q^l coefficient of prod [d]_q / prod [d^J]_q.

    [d]_q = (1 - q^d)/(1 - q), so the series is truncated after q^l: O(l * rank).
    """
    if not 0 <= l <= dimension(spec, parabolic_set):
        return 0
    sub = degrees(spec, parabolic_set)
    poly = [1] + [0] * l
    for d in degrees(spec):
        for k in range(l, d - 1, -1):
            poly[k] -= poly[k - d]
    for d in sub:
        for k in range(d, l + 1):
            poly[k] += poly[k - d]
    for _ in range(spec.rank - len(sub)):
        poly = list(accumulate(poly))
    return poly[l]


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
