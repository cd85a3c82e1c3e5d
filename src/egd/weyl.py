"""Exact Weyl groups of all finite types.

An element is stored as its action on the roots: positive roots are indexed
1..N (simple roots first), the negative of root k is -k, and ``perm[k-1]``
is the signed index of the image of positive root k.  This representation
is uniform across all families, multiplication is signed-permutation
composition, and the length of an element is the number of positive roots
it sends negative.  All arithmetic is over plain integers.

Every interned element carries a dense integer ``id`` (0, 1, 2, ... in
order of first construction within its context), so hot loops can key
memos by ints instead of element pairs.  Left products s_i * w by simple
generators are cached on w itself, one entry per generator, allocated on
first use and filled one entry at a time: walks that step along s_i * w
(the Bruhat descent recursion, canonical words) compute each such product
at most once per element.

Roots live in the simple-root basis; the reflection in alpha_j maps a root
with coordinates c to c', where c'_j = c_j - sum_i c_i * cartan[i][j] and
all other coordinates are unchanged.  One pass closes the simple roots
under the reflections (s_j permutes the positive roots other than
alpha_j, which it negates).  Each root carries its pairings with all
generators, so only the few reflections that move it are applied, and the
pass records the pairs of roots each s_j exchanges.  Right multiplication
by s_j is then those swaps plus a sign flip at alpha_j, done in place on a
plain list: that builds the generators, the longest parabolic elements
w_{0J} and the value of any word, and only the results are interned, so a
fresh context holds the identity, the generators and w_0.

A product x * y is a table lookup: with table = [0, x(1), ..., x(N),
-x(N), ..., -x(1)], the image of root k under x * y is table[y(k)], a
negative index reading -x(|k|).  The tables of the identity and the
generators are built once per context.
"""

from __future__ import annotations

from itertools import compress
from operator import neg

from .dynkin import DynkinSpec, cartan_matrix
from .errors import BadLetter, ContextMismatch, InvalidRank

Word = tuple[int, ...]


def _table(perm: tuple[int, ...]) -> list[int]:
    """Lookup table of ``perm``: entry k, k negative too, is the image of root k."""
    return [0, *perm, *map(neg, reversed(perm))]


class WeylElement:
    """A group element in canonical form (signed permutation of the roots).

    Elements are interned per context, hashable, and totally ordered by
    (length, canonical word); the order is arbitrary but fixed, so sorted
    output is reproducible.  ``id`` is the element's dense index within its
    context; ``_left[i - 1]`` caches s_i * self (None until first needed).
    """

    __slots__ = ("perm", "length", "ctx", "id", "_hash", "_min_left", "_word", "_left")

    def __init__(self, ctx: "WeylGroupContext", perm: tuple[int, ...], elem_id: int):
        self.ctx = ctx
        self.perm = perm
        self.id = elem_id
        self.length = sum(map((0).__gt__, perm))
        self._hash = hash(perm)
        self._min_left = -1  # not yet computed
        self._word: Word | None = None
        self._left: list[WeylElement | None] | None = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other: "WeylElement") -> bool:
        if self.length != other.length:
            return self.length < other.length
        return self.word() < other.word()

    def __le__(self, other: "WeylElement") -> bool:
        return self == other or self < other

    def word(self) -> Word:
        """Canonical reduced word (the lexicographically smallest one)."""
        if self._word is None:
            self._word = self.ctx.canonical_word(self)
        return self._word

    def min_left_descent(self) -> int:
        """Smallest i with l(s_i w) < l(w), or 0 for the identity."""
        if self._min_left < 0:
            self._min_left = min(self.ctx.descents(self, "left"), default=0)
        return self._min_left

    def __repr__(self) -> str:
        return f"<{self.ctx.spec} element {','.join(map(str, self.word())) or 'e'}>"


class WeylGroupContext:
    """Immutable environment for one Weyl group: roots, generator actions, caches.

    Construction is deterministic; contexts built twice from the same spec
    are identical.  The memo dictionaries and the per-element left-product
    caches are pure memos: an entry only ever holds the value it would be
    recomputed as, so no cache changes an answer and sharing a context
    across threads is safe.
    """

    def __init__(self, spec: DynkinSpec):
        self.spec = spec
        self.rank = spec.rank
        self.cartan = cartan_matrix(spec)
        self.positive_roots, self._swaps = self._close_roots()
        self.num_positive_roots = len(self.positive_roots)
        self._negated_simple = frozenset(range(-self.rank, 0))
        self._intern: dict[tuple[int, ...], WeylElement] = {}
        self.identity = self._make(tuple(range(1, self.num_positive_roots + 1)))
        gens = []
        for i in range(1, self.rank + 1):
            perm = list(self.identity.perm)
            self._times_generator(perm, i)
            gens.append(self._make(tuple(perm)))
        self.simple_reflections = tuple(gens)
        # tables of ids 0..rank, the identity and the generators (see multiply);
        # the generators' entries are the identity table's int objects
        ident = _table(self.identity.perm)
        self._tables = [ident] + [list(map(ident.__getitem__, _table(s.perm))) for s in gens]
        # keyed by (v.id << 32) | u.id (ids stay below 2**32), see bruhat_leq
        self.bruhat_cache: dict[int, bool] = {}
        # J -> stratum l of W^J as elements at [l], None until built; the
        # weights and coset orders are per spec (bruhat.quotient_stratum)
        self._strata: dict[frozenset[int], list] = {}
        self._longest_parabolic: dict[frozenset[int], WeylElement] = {}
        self.longest_element = self.longest_in_parabolic(frozenset(spec.nodes))
        if self.longest_element.length != self.num_positive_roots:
            raise InvalidRank(
                f"internal inconsistency building {spec}: "
                f"l(w0)={self.longest_element.length} != {self.num_positive_roots} roots"
            )

    # -- construction ------------------------------------------------------

    def _close_roots(self):
        """Positive roots in order, and the pairs of root positions each s_j swaps.

        Simple roots come first, then the rest by (height, coordinates).
        ``swaps[j - 1]`` lists the 0-based positions (k, t), k < t, of the
        roots s_j exchanges; s_j also negates alpha_j and fixes the rest.

        Each root carries its pairings p_k = sum_i c_i * cartan[i][k] with
        all generators, so only the s_j with p_j != 0 are applied; the
        pairings of s_j(c) are p_k - p_j * cartan[j][k], which changes only
        the few k with cartan[j][k] != 0.
        """
        n = self.rank
        cart = self.cartan
        rows = [[(k, a) for k, a in enumerate(row) if a] for row in cart]
        simple = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        pairings = {r: list(cart[j]) for j, r in enumerate(simple)}
        moved = [[] for _ in range(n)]  # j -> (root, s_{j+1} root) per root it moves
        queue = list(simple)
        while queue:
            vec = queue.pop()
            pairing = pairings[vec]
            for j in compress(range(n), pairing):
                p = pairing[j]
                if vec[j] < p:  # vec is alpha_j
                    continue
                img = list(vec)
                img[j] -= p
                img = tuple(img)
                moved[j].append((vec, img))
                if img not in pairings:
                    new = pairings[img] = pairing.copy()
                    for k, a in rows[j]:
                        new[k] -= p * a
                    queue.append(img)
        rest = sorted(pairings.keys() - set(simple), key=lambda r: (sum(r), r))
        roots = tuple(simple + rest)
        index = {r: k for k, r in enumerate(roots)}
        swaps = [
            [(index[a], index[b]) for a, b in pairs if index[a] < index[b]]
            for pairs in moved
        ]
        return roots, swaps

    def _times_generator(self, perm: list[int], i: int) -> None:
        """perm <- perm * s_i, in place."""
        for k, t in self._swaps[i - 1]:
            perm[k], perm[t] = perm[t], perm[k]
        perm[i - 1] = -perm[i - 1]

    def _make(self, perm: tuple[int, ...]) -> WeylElement:
        elem = self._intern.get(perm)
        if elem is None:
            elem = WeylElement(self, perm, len(self._intern))
            self._intern[perm] = elem
        return elem

    # -- group operations --------------------------------------------------

    def multiply(self, x: WeylElement, y: WeylElement) -> WeylElement:
        """Product x*y in canonical form."""
        if x.ctx is not self or y.ctx is not self:
            raise ContextMismatch("elements do not belong to this context")
        table = self._tables[x.id] if x.id <= self.rank else _table(x.perm)
        return self._make(tuple(map(table.__getitem__, y.perm)))

    def left_multiply(self, i: int, x: WeylElement) -> WeylElement:
        """Product s_i * x, computed once per (i, x) and cached on x."""
        if x.ctx is not self:
            raise ContextMismatch("element does not belong to this context")
        left = x._left
        if left is None:
            left = x._left = [None] * self.rank
        y = left[i - 1]
        if y is None:
            y = left[i - 1] = self.multiply(self.simple_reflections[i - 1], x)
        return y

    def inverse(self, x: WeylElement) -> WeylElement:
        if x.ctx is not self:
            raise ContextMismatch("element does not belong to this context")
        out = [0] * self.num_positive_roots
        for k, v in enumerate(x.perm, start=1):
            if v > 0:
                out[v - 1] = k
            else:
                out[-v - 1] = -k
        return self._make(tuple(out))

    def descents(self, x: WeylElement, side: str = "right") -> frozenset[int]:
        """Generators i with l(x s_i) < l(x) (right) or l(s_i x) < l(x) (left)."""
        if side == "right":
            return frozenset(i for i in range(1, self.rank + 1) if x.perm[i - 1] < 0)
        if side == "left":  # s_i x < x iff x sends some positive root to -alpha_i
            return frozenset(-k for k in self._negated_simple.intersection(x.perm))
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def from_word(self, word) -> WeylElement:
        """Evaluate a word (any sequence of generator indices, not necessarily reduced).

        Every letter is checked first (DynkinSpec.check_word); the word is
        then composed in place on a plain list, as in longest_in_parabolic,
        so only the result is interned.
        """
        word = self.spec.check_word(word)
        perm = list(self.identity.perm)
        for letter in word:
            self._times_generator(perm, letter)
        return self._make(tuple(perm))

    def canonical_word(self, x: WeylElement) -> Word:
        """Lexicographically smallest reduced word, by peeling smallest left descents."""
        letters = []
        while True:
            i = x.min_left_descent()
            if i == 0:
                return tuple(letters)
            letters.append(i)
            x = self.left_multiply(i, x)

    def longest_in_parabolic(self, subset) -> WeylElement:
        """Longest element of the subgroup generated by the reflections in ``subset``.

        Built by right-multiplying the smallest non-descent generator until
        every generator in the subset is a descent, on a plain list: only
        the result is interned.
        """
        key = frozenset(subset)
        cached = self._longest_parabolic.get(key)
        if cached is not None:
            return cached
        perm = list(self.identity.perm)
        ordered = sorted(self.spec.check_nodes(key))
        while True:
            i = next((i for i in ordered if perm[i - 1] > 0), None)
            if i is None:
                break
            self._times_generator(perm, i)
        x = self._longest_parabolic[key] = self._make(tuple(perm))
        return x

    def coxeter_number(self) -> int:
        """Multiplicative order of the product of all simple reflections."""
        c = self.from_word(range(1, self.rank + 1))
        power, order = c, 1
        while power is not self.identity:
            power = self.multiply(power, c)
            order += 1
        return order


def build_group(spec: DynkinSpec) -> WeylGroupContext:
    """Construct the full group environment for a diagram."""
    return WeylGroupContext(spec)


def parse_word(text: str) -> Word:
    """Parse comma-separated generator indices; empty or 'e' is the empty word."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BadLetter(f"cannot parse word {text!r}") from exc


def format_word(word: Word) -> str:
    """Serialize a word as comma-separated indices ('e' for the identity)."""
    return ",".join(map(str, word)) if word else "e"
