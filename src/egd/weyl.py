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
under the reflections that raise them (s_j permutes the positive roots
other than alpha_j, which it negates).  A root is packed into one int, a
byte per coordinate, and carries only its nonzero pairings with the
generators, so a reflection is one subtraction and touches only the
pairings its sparse Cartan row (dynkin.cartan_rows) changes; the pass
records the pairs of roots each s_j exchanges.  Right multiplication by s_j
is then those swaps plus a sign flip at alpha_j, done in place on a plain
list.  One walk of such steps (coset_end) climbs to the longest element of
a coset x W_J or strips x to the shortest, so it builds the longest
parabolic elements w_{0J} and the minimal coset representatives w^J, and
the same steps give the value of any word; only the results are
interned.  w_0 needs no product: it is -sigma on the roots, sigma the
opposition involution of the diagram, a table by type.  So a fresh context
holds the identity, the generators and w_0; the identity and the
generators are interned with their known lengths 0 and 1, and any other
element's length is counted once, when it is interned.

A product x * y is a table lookup: with table = [0, x(1), ..., x(N),
-x(N), ..., -x(1)], the image of root k under x * y is table[y(k)], a
negative index reading -x(|k|).  The tables of the identity and the
generators are built once per context, a generator's as the identity's
with its swaps applied at k and -k; its perm is read off its table.
"""

from __future__ import annotations

from operator import itemgetter, neg

from .dynkin import DynkinSpec, cartan_rows, num_positive_roots, opposition
from .errors import ContextMismatch, InvalidRank

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

    def __init__(
        self, ctx: "WeylGroupContext", perm: tuple[int, ...], elem_id: int, length: int
    ):
        self.ctx = ctx
        self.perm = perm
        self.id = elem_id
        self.length = length
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
        self.positive_roots, self._swaps, w0 = self._close_roots()
        self.num_positive_roots = len(self.positive_roots)
        self._negated_simple = frozenset(range(-self.rank, 0))
        self._intern: dict[tuple[int, ...], WeylElement] = {}
        self.identity = self._new(tuple(range(1, self.num_positive_roots + 1)), 0)
        # tables of ids 0..rank, the identity and the generators (see multiply);
        # a generator's table is the identity's, its swaps applied at k and -k,
        # so its entries are the identity table's int objects
        ident = _table(self.identity.perm)
        self._tables = [ident]
        gens = []
        for j, swaps in enumerate(self._swaps, start=1):
            table = ident.copy()
            for k, t in swaps:
                k += 1
                t += 1
                table[k], table[t] = table[t], table[k]
                table[-k], table[-t] = table[-t], table[-k]
            table[j], table[-j] = table[-j], table[j]
            self._tables.append(table)
            gens.append(self._new(tuple(table[1 : self.num_positive_roots + 1]), 1))
        self.simple_reflections = tuple(gens)
        # keyed by (v.id << 32) | u.id (ids stay below 2**32), see bruhat_leq
        self.bruhat_cache: dict[int, bool] = {}
        # J -> {l: stratum l of W^J as elements}, the strata built so far; the
        # weights and coset orders are per spec (bruhat.quotient_stratum)
        self._strata: dict[frozenset[int], dict[int, list]] = {}
        self.longest_element = self._make(w0)
        self._longest_parabolic = {frozenset(spec.nodes): self.longest_element}

    # -- construction ------------------------------------------------------

    def _close_roots(self):
        """Positive roots in order, the pairs of root positions each s_j swaps, and w_0.

        Simple roots come first, then the rest by (height, coordinates).
        ``swaps[j - 1]`` lists the 0-based positions (k, t), k < t, of the
        roots s_j exchanges; s_j also negates alpha_j and fixes the rest.

        A root is packed into one int, a byte per coordinate with alpha_1 in
        the top byte, so int order is coordinate order and s_j adds
        -p_j << shift[j] (coefficients are at most 6, in E8).  Each root
        carries its nonzero pairings p_k = sum_i c_i * cartan[i][k] as a
        dict; those of s_j(c) are p_k - p_j * cartan[j][k], which changes
        only the few k of row j of dynkin.cartan_rows, the same sparse rows
        the weight layer reads (a simple root's pairings are its row).  The
        closure climbs by height, applying only the s_j with p_j < 0: every
        positive root is reached from a simple one that way, and each pair
        s_j exchanges is met once, from its lower root.  The climb stops
        when no height above is left, or once it has passed the expected
        number of roots.

        w_0 = -sigma on the roots, sigma the opposition involution of the
        diagram (dynkin.opposition): w_0 sends root k to minus the position
        of sigma(root k), so to -k when sigma is the identity.

        Raises InvalidRank unless the closure finds as many roots as the
        closed form by type, and sigma maps every root to a root.
        """
        spec, n = self.spec, self.rank
        expected = num_positive_roots(spec)
        shift = [8 * (n - 1 - j) for j in range(n)]
        rows = cartan_rows(spec)
        codes = [1 << b for b in shift]  # the simple roots; then each height, sorted
        # levels[h] maps the code of each root of height h to its pairings
        levels = {1: {c: dict(row) for c, row in zip(codes, rows)}}
        climbs = [[] for _ in range(n)]  # j -> (root, s_{j+1} root), lower root first
        h = 1
        while levels:
            level = levels.pop(h, {})
            if h > 1:
                codes += sorted(level)
                if len(codes) > expected:
                    break
            for code, pairing in level.items():
                for j, p in pairing.items():
                    if p < 0:
                        img = code - (p << shift[j])
                        climbs[j].append((code, img))
                        above = levels.setdefault(h - p, {})
                        if img not in above:
                            new = above[img] = pairing.copy()
                            for k, a in rows[j]:
                                v = new.get(k, 0) - p * a
                                if v:
                                    new[k] = v
                                else:
                                    del new[k]
            h += 1
        if len(codes) != expected:
            raise InvalidRank(
                f"internal inconsistency building {spec}: "
                f"{len(codes)} positive roots closed, {expected} expected"
            )
        index = {c: k for k, c in enumerate(codes)}
        swaps = [[(index[a], index[b]) for a, b in pairs] for pairs in climbs]
        roots = tuple(tuple(c.to_bytes(n, "big")) for c in codes)
        sigma = opposition(spec)
        if sigma == spec.nodes:
            return roots, swaps, tuple(range(-1, -expected - 1, -1))
        image = itemgetter(*(i - 1 for i in sigma))
        try:
            w0 = tuple([-1 - index[int.from_bytes(bytes(image(r)), "big")] for r in roots])
        except KeyError:
            raise InvalidRank(
                f"internal inconsistency building {spec}: "
                f"the opposition {sigma} maps a positive root outside the roots"
            ) from None
        return roots, swaps, w0

    def _times_generator(self, perm: list[int], i: int) -> None:
        """perm <- perm * s_i, in place."""
        for k, t in self._swaps[i - 1]:
            perm[k], perm[t] = perm[t], perm[k]
        perm[i - 1] = -perm[i - 1]

    def _new(self, perm: tuple[int, ...], length: int) -> WeylElement:
        """Intern a perm not interned yet, of known length, under the next id."""
        elem = self._intern[perm] = WeylElement(self, perm, len(self._intern), length)
        return elem

    def _make(self, perm: tuple[int, ...]) -> WeylElement:
        """The interned element of ``perm``; its length is counted only when it is new."""
        elem = self._intern.get(perm)
        if elem is None:
            elem = self._new(perm, sum(map((0).__gt__, perm)))
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
        then composed in place on a plain list by _times_generator, the
        right-product step of coset_end, so only the result is interned.
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

    def coset_end(self, x: WeylElement, subset, *, top=False) -> tuple[WeylElement, Word]:
        """The shortest element of x W_J, J = ``subset``, or with ``top`` the longest.

        Right-multiplies a copy of x's perm in place by the smallest s_j,
        j in J, that is a descent of it (a strip) or with ``top`` an ascent
        (a climb), until none is left; only the end is interned.  Returns
        the end and the letters used, in order: a reduced word of the W_J
        factor between x and the end, read right to left for a strip.
        """
        if x.ctx is not self:
            raise ContextMismatch("element does not belong to this context")
        ordered = sorted(self.spec.check_nodes(subset))
        perm, letters = list(x.perm), []
        while i := next((j for j in ordered if (perm[j - 1] > 0) == top), 0):
            self._times_generator(perm, i)
            letters.append(i)
        return self._make(tuple(perm)), tuple(letters)

    def longest_in_parabolic(self, subset) -> WeylElement:
        """Longest element w_{0J} of the subgroup W_J generated by ``subset``.

        The climb of coset_end from the identity, cached per subset.
        """
        key = frozenset(subset)
        if key not in self._longest_parabolic:
            self._longest_parabolic[key] = self.coset_end(self.identity, key, top=True)[0]
        return self._longest_parabolic[key]

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
