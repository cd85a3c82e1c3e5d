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
(the Bruhat descent recursion, the strata BFS, canonical words) compute
each such product at most once per element.

Roots live in the simple-root basis; the reflection in alpha_j maps a root
with coordinates c to c', where c'_j = c_j - sum_i c_i * cartan[i][j] and
all other coordinates are unchanged.
"""

from __future__ import annotations

from .dynkin import DynkinSpec, cartan_matrix
from .errors import BadLetter, ContextMismatch, InvalidRank

Word = tuple[int, ...]


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
        self.length = sum(1 for v in perm if v < 0)
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
            rank = self.ctx.rank
            best = 0
            for v in self.perm:
                if -rank <= v < 0 and (best == 0 or -v < best):
                    best = -v
            self._min_left = best
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
        self.positive_roots = self._close_roots()
        self.num_positive_roots = len(self.positive_roots)
        self._root_index = {r: k + 1 for k, r in enumerate(self.positive_roots)}
        self._intern: dict[tuple[int, ...], WeylElement] = {}
        self.identity = self._make(tuple(range(1, self.num_positive_roots + 1)))
        self.simple_reflections = tuple(
            self._make(self._reflection_perm(i)) for i in range(1, self.rank + 1)
        )
        # keyed by (v.id << 32) | u.id (ids stay below 2**32), see bruhat_leq
        self.bruhat_cache: dict[int, bool] = {}
        # J -> strata of W^J by length 0..dim, None until built (quotient_stratum)
        self._strata: dict[frozenset[int], list[list[WeylElement] | None]] = {}
        self._longest_parabolic: dict[frozenset[int], WeylElement] = {}
        self.longest_element = self.longest_in_parabolic(frozenset(spec.nodes))
        if self.longest_element.length != self.num_positive_roots:
            raise InvalidRank(
                f"internal inconsistency building {spec}: "
                f"l(w0)={self.longest_element.length} != {self.num_positive_roots} roots"
            )

    # -- construction ------------------------------------------------------

    def _reflect_vector(self, vec: tuple[int, ...], j: int) -> tuple[int, ...]:
        cart = self.cartan
        pairing = sum(c * cart[i][j - 1] for i, c in enumerate(vec))
        out = list(vec)
        out[j - 1] -= pairing
        return tuple(out)

    def _close_roots(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        simple = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        seen = set(simple)
        queue = list(simple)
        while queue:
            vec = queue.pop()
            for j in range(1, n + 1):
                img = self._reflect_vector(vec, j)
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        positive = [r for r in seen if all(c >= 0 for c in r)]
        rest = sorted(
            (r for r in positive if r not in simple), key=lambda r: (sum(r), r)
        )
        return tuple(simple + rest)

    def _reflection_perm(self, i: int) -> tuple[int, ...]:
        out = []
        for root in self.positive_roots:
            img = self._reflect_vector(root, i)
            if min(img) >= 0:
                out.append(self._root_index[img])
            else:
                out.append(-self._root_index[tuple(-c for c in img)])
        return tuple(out)

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
        xp = x.perm
        return self._make(
            tuple(xp[v - 1] if v > 0 else -xp[-v - 1] for v in y.perm)
        )

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
        if side == "left":
            return self.descents(self.inverse(x), "right")
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def from_word(self, word) -> WeylElement:
        """Evaluate a word (any sequence of generator indices, not necessarily reduced)."""
        out = self.identity
        for letter in word:
            if not 1 <= letter <= self.rank:
                raise BadLetter(f"letter {letter} outside 1..{self.rank}")
            out = self.multiply(out, self.simple_reflections[letter - 1])
        return out

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
        every generator in the subset is a descent.
        """
        key = frozenset(subset)
        cached = self._longest_parabolic.get(key)
        if cached is not None:
            return cached
        for i in key:
            if not 1 <= i <= self.rank:
                raise BadLetter(f"node {i} outside 1..{self.rank}")
        x = self.identity
        ordered = sorted(key)
        while True:
            i = next((i for i in ordered if x.perm[i - 1] > 0), None)
            if i is None:
                break
            x = self.multiply(x, self.simple_reflections[i - 1])
        self._longest_parabolic[key] = x
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
