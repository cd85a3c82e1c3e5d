"""Bruhat order and length-stratified enumeration of W and its quotients W^J.

The comparison v <= u peels the smallest left descent s of u: if s is also
a left descent of v the pair becomes (sv, su), otherwise (v, su).  Every
pair on the chain has the same answer, so the whole chain is memoized in
the context cache under the int key (v.id << 32) | u.id.  Each step reads
su and sv from the elements' left-product caches, so a product s_i * w is
computed once per element however many comparisons pass through it.  It
is the library comparison and the tests' reference; no sweep calls it,
and an exhaustive subword scan is kept as an independent test oracle.

The weight layer needs no root system.  One Orbits object per spec, built
from the nonzero Cartan entries (dynkin.cartan_rows, O(rank)) and
sigma = -w_0 on nodes (dynkin), holds a strata store per J (_Strata) in
one registry; the sweep reads it directly, and every context of the spec
reads the same one.  A store holds only the strata it has grown and the
per-stratum tables it has filled: no table of dim G/P_J + 1 slots, and
no rank x rank matrix.  x -> x(lambda_R), lambda_R the sum of the
fundamental weights omega_i of the nodes i outside J, maps W^J onto the
orbit W lambda_R: its stabiliser is W_J (Humphreys, Reflection Groups and
Coxeter Groups, 1.12).  Strata up to dim/2 grow breadth first
on these rank-wide weights: for mu = x(lambda_R), s_j x is in W^J one level
up iff mu_j > 0, and in x W_J iff mu_j = 0; s_j is a left descent iff
mu_j < 0.  Each grown weight keeps a record (parent, j).  Stratum l > dim/2
is the image of stratum dim - l under x -> w_0 x w_{0J}, which reverses the
Bruhat order on W^J (Bjorner-Brenti, GTM 231, ch. 2); the weight of the
image is w_0 mu = -sigma(mu).  That mirror is the one mechanism for the
upper half: words, coset rows, coset bitsets and coset ids above dim/2
are read off the strata below, and nothing walks down from w_0 w_{0J}.
A canonical word is peeled off a weight (Orbits.peel), and so is the
shortest element of x W_{S - R} for any word of x, off x(lambda_R)
(Orbits.project): the projection P_r(x) to a maximal quotient, the factor
x^J of x = x^J x_J, and with lambda = rho the word of x itself.
Root permutations are built only by quotient_stratum, each evaluated from
its canonical word, and kept on the context.

Coset orders decide the sweep's comparisons by Deodhar's criterion
(Bjorner-Brenti, GTM 231, section 2.6): for v, u in W^J, v <= u iff
P_i(v) <= P_i(u) in the maximal quotient Q_i = W^{S - {i}} for every node
i outside J.
- The coset order of node i is the strata store of Q_i, the W-orbit of
  omega_i (_Strata.order): its strata read top down number the cosets
  from the top (0) to the identity coset (|Q_i| - 1), the strata above
  dim/2 read as w_0 of the weights below; ``mirror`` maps each coset a
  to that of w_0 a w_{0,S - {i}}.
- Lower covers come from the lifting property: for a left descent s of
  b, they are s*b and s*c for each lower cover c of s*b with s*c > c.
- Up-sets are int bitsets, OR-ed top down; no bit of the up-set of coset
  a lies above a.
- Coset rows (P_i(x), i outside J) are filled and kept up to dim/2 from
  the records, the row of s_j x being act_j of the row of x; above, the
  row of w_0 x w_{0J} is the mirror of the row of x, since
  P_i(w_0 x w_{0J}) = w_0 P_i(x) w_{0,S - {i}}.  No upper row is kept:
  the sweep's coset bitsets and decoded u above dim/2 are read through
  the mirrors off the rows below.
Coset orders are built only when a sweep asks for coset rows, each
once, on the store that Orbits.strata already holds.  The store
of W^J answers the sweep's comparisons: _Strata.violations yields, per
failing v of a stratum, the indices of the u it is not below, and the
store alone knows the coset-row layout (one coset id per node outside J,
ascending).  A quotient too large for coset orders is compared pair by
pair by _Strata.lifting, a method of the same shape: the lifting property
on canonical words and weights, with no coset order and no root system.
A windowed or threshold comparison would be one more store method of
this shape.
"""

from __future__ import annotations

from functools import lru_cache
from operator import getitem

from .dynkin import DynkinSpec, cartan_rows, check_length, dimension, opposition
from .errors import ContextMismatch, NonReducedInput

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing
if TYPE_CHECKING:  # the weight layer loads no root system: weyl is imported where used
    from .weyl import WeylElement, WeylGroupContext, Word


def bruhat_leq(ctx: WeylGroupContext, v: WeylElement, u: WeylElement) -> bool:
    """True iff v <= u in the Bruhat order."""
    if v.ctx is not ctx or u.ctx is not ctx:
        raise ContextMismatch("elements do not belong to this context")
    cache = ctx.bruhat_cache
    left = ctx.left_multiply
    chain = []
    while True:
        if v.length == 0:
            answer = True
            break
        if v.length > u.length:
            answer = False
            break
        if v is u:
            answer = True
            break
        key = (v.id << 32) | u.id
        hit = cache.get(key)
        if hit is not None:
            answer = hit
            break
        chain.append(key)
        i = u.min_left_descent()
        u = left(i, u)
        sv = left(i, v)
        if sv.length < v.length:
            v = sv
    for key in chain:
        cache[key] = answer
    return answer


def subword_oracle(ctx: WeylGroupContext, v_word, u_word) -> bool:
    """Exhaustive subsequence test: does some subsequence of u_word give v?

    u_word must be reduced; v_word may be any word.  A subsequence counts
    when it has exactly l(v) letters and evaluates to v, i.e. it is a
    reduced word for v.  Exponential in the worst case; testing use only.
    """
    u_word = tuple(u_word)
    u_elem = ctx.from_word(u_word)
    if u_elem.length != len(u_word):
        raise NonReducedInput(f"u_word {u_word} is not reduced")
    target = ctx.from_word(v_word)
    need = target.length
    if need == 0:
        return True
    if need > len(u_word):
        return False
    gens = ctx.simple_reflections
    seen: set[tuple[int, WeylElement]] = set()

    def scan(pos: int, cur: WeylElement, picked: int) -> bool:
        if picked == need:
            return cur is target
        if need - picked > len(u_word) - pos:
            return False
        state = (pos, cur)
        if state in seen:
            return False
        seen.add(state)
        nxt = ctx.multiply(cur, gens[u_word[pos] - 1])
        if nxt.length == picked + 1 and scan(pos + 1, nxt, picked + 1):
            return True
        return scan(pos + 1, cur, picked)

    return scan(0, ctx.identity, 0)


def quotient_dimension(ctx: WeylGroupContext, jset) -> int:
    """l(w_0^J) = N - N_J = dim G/P_J, counted from the degrees: no element is built."""
    return dimension(ctx.spec, jset)


class _Strata:
    """One W^J by length 0..dim, grown on the weights x(lambda_R), with its comparisons.

    The store holds only what it has grown.  ``weights`` and ``parents``
    grow by appending, one entry per stratum l <= dim/2 grown so far:
    ``weights[l]`` lists stratum l's weights in stratum order, and weight k
    is s_j of weight b of stratum l - 1 for ``parents[l][k] = (b, j)``.
    Element k of stratum l > dim/2 is w_0 x w_{0J}, x element k of stratum
    dim - l, of weight w_0 mu = -sigma(mu) (``antipode``): its word and
    coset row are read off x's (``word``, ``cosets``).  ``marked`` lists
    the nodes outside J, ascending: a coset row holds one coset id per
    marked node, in that order.  Masks of a stratum and its sorted
    reversed words (``_suffixes``, which ``lifting`` reads) are filled on
    first use into dicts keyed by the stratum.  Coset rows (``_rows``) are
    kept for strata l <= dim/2 only; the strata above are read off them
    through ``mirrors``, the marked nodes' coset mirrors.

    The store of a maximal quotient W^{S - {i}} is also the coset order of
    node i once ``order`` has filled ``act``, ``up`` and ``mirror``; it has
    len(up) cosets.
    """

    __slots__ = ("dim", "layer", "marked", "weights", "parents", "_rows", "_masks", "_suffixes",
                 "ups", "mirrors", "act", "up", "mirror")

    def __init__(self, layer: "Orbits", jset: frozenset[int]):
        self.dim = dimension(layer.spec, jset)
        self.layer = layer
        self.marked = [i for i in layer.spec.nodes if i not in jset]
        self.weights = [[tuple(int(i not in jset) for i in layer.spec.nodes)]]
        self.parents = [None]
        self._rows, self._masks, self._suffixes = {}, {}, {}
        self.ups = self.mirrors = self.act = self.up = self.mirror = None

    def grow(self, l: int) -> None:
        """Grow strata up to min(l, dim - l): mu has the children s_j(mu), mu_j > 0."""
        weights, reflect = self.weights, self.layer.reflect
        for _ in range(len(weights), min(l, self.dim - l) + 1):
            children: dict = {}
            for b, mu in enumerate(weights[-1]):
                for j, p in enumerate(mu):
                    if p > 0:
                        children.setdefault(reflect(mu, j), (b, j))
            self.parents.append(list(children.values()))
            weights.append(list(children))

    def word(self, l: int, k: int) -> Word:
        """Canonical word of element k of stratum l, peeled off its weight; builds nothing."""
        dual = 2 * l > self.dim
        mu = self.weights[self.dim - l if dual else l][k]
        return self.layer.peel(self.layer.antipode(mu) if dual else mu)

    def order(self) -> "_Strata":
        """The store as the coset order of a maximal quotient Q_i = W^{S - {i}}, filled once.

        Cosets are numbered by the strata read top down: element k of
        stratum l is coset k plus the number of cosets longer than l, so the
        top coset is 0, the identity coset len(up) - 1, and lengths do not
        increase.  ``act[j - 1][c]`` is the coset of s_j * c (c when s_j
        fixes it), bit b of ``up[c]`` is set iff coset b >= c, and
        ``mirror[c]`` is the coset of w_0 c w_{0,S - {i}}, whose weight is
        the antipode of c's.
        """
        if self.up is not None:
            return self
        n, dim, antipode = self.layer.spec.rank, self.dim, self.layer.antipode
        self.grow(dim // 2)
        weights = [  # by coset id: the strata top down
            antipode(mu) if 2 * l > dim else mu
            for l in range(dim, -1, -1) for mu in self.weights[min(l, dim - l)]
        ]
        index = {mu: c for c, mu in enumerate(weights)}
        self.mirror = [index[antipode(mu)] for mu in weights]
        reflect = self.layer.reflect
        size = len(weights)
        self.act = act = [  # ids from index: every table shares its int objects
            [index[reflect(mu, j)] if mu[j] else c for mu, c in index.items()]
            for j in range(n)
        ]
        # lower covers, shortest cosets first: for a left descent s_j of b
        # (mu_j < 0), covers(b) = {s_j b} + {s_j c : c in covers(s_j b), s_j c > c}
        covers: list[list[int]] = [[] for _ in range(size)]
        for b in range(size - 2, -1, -1):  # the identity coset size - 1 has none
            mu = weights[b]
            j = next(j for j in range(n) if mu[j] < 0)
            sj = act[j]
            down = sj[b]
            covers[b] = [down] + [sj[c] for c in covers[down] if weights[c][j] > 0]
        up = [1 << c for c in range(size)]
        for b in range(size):
            above = up[b]
            for c in covers[b]:
                up[c] |= above
        self.up = up
        return self

    def cosets(self, l: int) -> list[tuple[int, ...]]:
        """Coset rows of stratum l, in stratum order (see quotient_cosets).

        Up to dim/2 the row of s_j x_b, by the record (b, j), is act_j of
        the row of x_b, filled up from the identity row and kept.  Above,
        element k of stratum l is w_0 x w_{0J}, x element k of stratum
        dim - l, and P_i(w_0 x w_{0J}) = w_0 P_i(x) w_{0,S - {i}}: its row
        is the mirror of the row of x, built on each call and not kept.
        The first fill also sets ``ups`` and ``mirrors``, the up-set and
        mirror tables of the marked nodes' coset orders.
        """
        rows, low = self._rows, (l if 2 * l <= self.dim else self.dim - l)
        if low not in rows:  # acts cost a pass per call: only when a stratum is missing
            orders = [self.layer.coset_order(i) for i in self.marked]
            self.ups, self.mirrors = [o.up for o in orders], [o.mirror for o in orders]
            self.grow(low)
            acts = [[o.act[j] for o in orders] for j in range(self.layer.spec.rank)]
            rows.setdefault(0, [tuple(len(o.up) - 1 for o in orders)])
            for m in range(len(rows), low + 1):  # the kept strata are 0 .. len(rows) - 1
                above = rows[m - 1]
                rows[m] = [tuple(map(getitem, acts[j], above[b])) for b, j in self.parents[m]]
        return rows[l] if l == low else [tuple(map(getitem, self.mirrors, r)) for r in rows[low]]

    def masks(self, l: int) -> list[int]:
        """Per marked node, the bitset of the cosets of stratum l.

        Above dim/2, node i's bitset holds mirror_i[c] for each coset c of
        column i of stratum dim - l, so no upper row is built.
        """
        if l not in self._masks:
            low = min(l, self.dim - l)
            columns = [set(column) for column in zip(*self.cosets(low))]
            if l != low:
                columns = [[m[c] for c in column] for m, column in zip(self.mirrors, columns)]
            self._masks[l] = [sum(1 << c for c in column) for column in columns]
        return self._masks[l]

    def violations(self, len_v: int, len_u: int):
        """(k_v, sorted k_u) for each v of stratum len_v not below some u of stratum len_u.

        By Deodhar's criterion each v costs one AND per marked node against
        the u-stratum's coset bitsets (_misses); the u of a failing v are
        decoded from its missed cosets.  Above dim/2 the holders of a coset
        are those of its mirror in stratum dim - len_u (the mirror is an
        involution), so no upper row is built.  Indices are stratum order.
        """
        masks, ups = self.masks(len_u), self.ups
        holders = None  # per marked node: coset -> indices of the u in it
        for k_v, row in enumerate(self.cosets(len_v)):
            misses = _misses(row, masks, ups)
            if not any(misses):
                continue
            if holders is None:
                holders, low = [{} for _ in ups], min(len_u, self.dim - len_u)
                for k, u_row in enumerate(self.cosets(low)):
                    for held, c in zip(holders, u_row):
                        held.setdefault(c, []).append(k)
                if low != len_u:  # u_k above mirrors u_k below: coset c turns mirror[c]
                    holders = [{m[c]: h[c] for c in h} for m, h in zip(self.mirrors, holders)]
            hit = set()
            for held, miss in zip(holders, misses):
                while miss:
                    bit = miss & -miss
                    hit.update(held[bit.bit_length() - 1])
                    miss ^= bit
            yield k_v, sorted(hit)

    def lifting(self, len_v: int, len_u: int):
        """The (k_v, sorted k_u) pairs of violations, in its order, decided on words alone.

        By the lifting property (Bjorner-Brenti, GTM 231, section 2.2), for
        a right descent s of u, v <= u iff min(v, vs) <= us.  So a reduced
        word of u is read from its last letter, v becomes vs at each letter
        s that is a right descent of v, and v <= u iff all l(v) descents get
        used.  The right descents of v are the left descents of v^-1: s_j is
        one iff coordinate j of v^-1(rho) is negative, and v -> v s_j
        reflects it.  The reversed canonical words of the u-stratum, sorted,
        share long prefixes (``_suffixes``: word, k_u, letters shared with
        the word before).  The scan of a v keeps a stack of (position,
        v^-1(rho), descents still needed), pushed at each descent, and
        resumes each u where its word leaves the one before.  Nothing is
        memoised: a scan holds the u words and one stack of l(v) weights.
        """
        for l in (len_v, len_u):
            self.grow(l)
        if len_u not in self._suffixes:
            words = sorted(
                (tuple(j - 1 for j in reversed(self.word(len_u, k))), k)
                for k in range(len(self.weights[min(len_u, self.dim - len_u)]))
            )
            self._suffixes[len_u] = [  # letters shared with the word before: 0 for the first
                (word, k, next((t for t, (a, b) in enumerate(zip(word, prev)) if a != b), len(prev)))
                for (word, k), (prev, _) in zip(words, [((), 0)] + words)
            ]
        image, reflect, rho = self.layer.image, self.layer.reflect, (1,) * len(self.layer.sigma)
        for k_v in range(len(self.weights[min(len_v, self.dim - len_v)])):
            stack = [(0, image(self.word(len_v, k_v)[::-1], rho), len_v)]
            t, hit = 0, []
            for word, k_u, shared in self._suffixes[len_u]:
                t = min(t, shared)
                while stack[-1][0] > t:
                    stack.pop()
                _, mu, need = stack[-1]
                while 0 < need <= len_u - t:
                    j, t = word[t], t + 1
                    if mu[j] < 0:
                        mu, need = reflect(mu, j), need - 1
                        stack.append((t, mu, need))
                if need:
                    hit.append(k_u)
            if hit:
                yield k_v, sorted(hit)


def _misses(row, masks, ups) -> list[int]:
    """Per marked node, the cosets of a u-stratum not above v's coset.

    ``row`` is v's coset row, ``masks`` the u-stratum's coset bitsets and
    ``ups`` the up-set tables, one per node: one AND per node.
    """
    return [mask & ~up[c] for mask, up, c in zip(masks, ups, row)]


class Orbits:
    """The weight layer of one diagram: a strata store per J.

    It needs only the nonzero Cartan entries and sigma = -w_0 on nodes
    (dynkin), so the degree sweep runs on it without a WeylGroupContext,
    and it holds O(rank) of them.  There is one per spec (``orbits``),
    which every context of that spec reads too.  Weights are in
    fundamental-weight coordinates; ``alphas[j]`` lists the nonzero (k, a)
    of alpha_j, row j of the Cartan matrix, by ascending k (cartan_rows),
    and s_j(mu) = mu - mu_j * alpha_j.  ``sigma[j]`` is sigma(j + 1) - 1,
    and w_0 alpha_k = -alpha_sigma(k), so w_0(mu) = -sigma(mu), the
    ``antipode``.  ``strata`` maps each J whose store was asked for to it,
    and is the only registry: the coset order of node i is the store of
    W^{S - {i}}.
    """

    __slots__ = ("spec", "alphas", "sigma", "reflect", "antipode", "strata")

    def __init__(self, spec: DynkinSpec):
        self.spec = spec
        self.alphas = alphas = cartan_rows(spec)
        self.sigma = sigma = [k - 1 for k in opposition(spec)]

        def reflect(mu, j):
            nu, p = list(mu), mu[j]
            for k, a in alphas[j]:
                nu[k] -= p * a
            return tuple(nu)

        self.reflect = reflect
        self.antipode = lambda mu: tuple([-mu[k] for k in sigma])
        self.strata: dict[frozenset[int], _Strata] = {}

    def peel(self, mu) -> Word:
        """Canonical word of the shortest x with x(lambda) = mu, lambda dominant.

        The smallest left descent s_j of x is the first j with mu_j < 0;
        peeling it leaves s_j(mu), until mu is dominant.
        """
        mu, alphas = list(mu), self.alphas
        word, j = [], 0
        while j < len(mu):
            p = mu[j]
            if p < 0:
                word.append(j + 1)
                for t, a in alphas[j]:
                    mu[t] -= p * a
                j = alphas[j][0][0]  # the lowest coordinate s_j changed
            else:
                j += 1
        return tuple(word)

    def project(self, word: Word, nodes) -> Word:
        """Canonical word of the shortest element of x W_{S - nodes}, x the product of ``word``.

        It is peeled off x(lambda), lambda the sum of omega_i over ``nodes``,
        whose stabiliser is W_{S - nodes}; ``word`` need not be reduced, and
        nothing is built.  With nodes {r} it is P_r(x); with all nodes
        (lambda = rho, trivial stabiliser) it is x itself.
        """
        return self.peel(self.image(word, tuple(int(k in nodes) for k in self.spec.nodes)))

    def image(self, word: Word, mu):
        """x(mu), x the product of ``word``: its letters act last to first."""
        for j in reversed(word):
            mu = self.reflect(mu, j - 1)
        return mu

    def store(self, jset: frozenset[int], l: int) -> _Strata:
        """The strata store of W^J, grown for stratum l."""
        store = self.strata.get(jset)
        if store is None:
            store = self.strata[jset] = _Strata(self, jset)
        check_length(l, store.dim)
        store.grow(l)
        return store

    def coset_order(self, node: int) -> _Strata:
        """The coset order of ``node``, the store of W^{S - {node}}: built once per spec."""
        return self.store(frozenset(self.spec.nodes) - {node}, 0).order()


@lru_cache(maxsize=None)
def orbits(spec: DynkinSpec) -> Orbits:
    """The weight layer of ``spec``, shared by the sweep and every context of spec."""
    return Orbits(spec)


def quotient_stratum(ctx: WeylGroupContext, jset, l: int) -> list[WeylElement]:
    """Elements of W^J of length exactly l, in the internal deterministic order.

    Element k is evaluated from its canonical word (_Strata.word), which it
    keeps, so neither w_{0J} nor w_0 w_{0J} is built.  Built strata stay on
    the context, which owns their elements.
    """
    jset = frozenset(jset)
    store = orbits(ctx.spec).store(jset, l)
    levels = ctx._strata.setdefault(jset, {})
    if l not in levels:
        words = [store.word(l, k) for k in range(len(store.weights[min(l, store.dim - l)]))]
        levels[l] = [ctx.from_word(word) for word in words]
        for x, word in zip(levels[l], words):
            x._word = word
    return levels[l]


def coset_order(ctx: WeylGroupContext, node: int) -> _Strata:
    """The coset order of ``node``, the store of W^{S - {node}}: built once per spec."""
    return orbits(ctx.spec).coset_order(node)


def quotient_cosets(ctx: WeylGroupContext, jset, l: int) -> list[tuple[int, ...]]:
    """Coset rows of stratum l of W^J, in stratum order.

    The row of x holds P_i(x), a coset id of coset_order(ctx, i), for each
    node i outside J in ascending order; those orders are built on first
    use.  By Deodhar's criterion v <= u in W^J iff, at every position k,
    bit row_u[k] of that order's up[row_v[k]] is set; so the row also
    determines the element.  Rows above dim/2 are mirrored off the kept
    rows below on each call (_Strata.cosets).
    """
    return orbits(ctx.spec).store(frozenset(jset), l).cosets(l)


def elements_of_length(ctx: WeylGroupContext, l: int) -> list[WeylElement]:
    """All elements of length exactly l, sorted by canonical word."""
    return quotient_elements_of_length(ctx, frozenset(), l)


def quotient_elements_of_length(ctx: WeylGroupContext, jset, l: int) -> list[WeylElement]:
    """Elements of W^J of length exactly l, sorted by canonical word peeled off the weights."""
    return sorted(quotient_stratum(ctx, jset, l))
