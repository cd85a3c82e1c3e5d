"""Bruhat order and length-stratified enumeration of W and its quotients W^J.

The comparison v <= u peels the smallest left descent s of u: if s is also
a left descent of v the pair becomes (sv, su), otherwise (v, su).  Every
pair on the chain has the same answer, so the whole chain is memoized in
the context cache under the int key (v.id << 32) | u.id.  Each step reads
su and sv from the elements' left-product caches, so a product s_i * w is
computed once per element however many comparisons pass through it.  It
is the library comparison; the degree sweep uses the coset orders below,
and an exhaustive subword scan is kept as an independent test oracle.

Strata of W^J (minimal coset representatives, no right descent in J) live
in one store per J on the context: a list indexed by length 0..dim, each
entry filled on first use.  W^J is graded with every length 0..dim
occupied.  Strata up to dim/2 are grown level by level: the successors of
w in W^J are the products s_i * w (read from the same left-product cache)
that land in W^J with length l(w) + 1.  Higher strata are the images of
lower ones under the length-reversing bijection x -> w_0 * x * w_{0J}.

Coset orders decide the sweep's comparisons by Deodhar's criterion
(Bjorner-Brenti, GTM 231, section 2.6): for v, u in W^J, v <= u iff
P_i(v) <= P_i(u) in the maximal quotient Q_i = W^{S - {i}} for every node
i outside J.
- Q_i is the W-orbit of the fundamental weight omega_i, with
  s_j(mu) = mu - mu_j * alpha_j in fundamental-weight coordinates.  A
  breadth-first search from the lowest weight w_0 omega_i numbers the
  cosets from the top (0) down to the identity coset (|Q_i| - 1).
- Lower covers come from the lifting property: for a left descent s of
  b, they are s*b and s*c for each lower cover c of s*b with s*c > c.
- Up-sets are int bitsets, OR-ed top down; no bit of the up-set of coset
  a lies above a.
- Coset rows (P_i(x) for the nodes i outside J) ride on the strata store
  and need no products.  A grown element takes act_i[s] of its parent's
  coset, the parent found through its cached left products.  A dual
  element w_0 x w_{0J} takes the antipode w_0 mu = -sigma(mu) of x's coset.
Coset orders are built only when a sweep asks for coset rows.
"""

from __future__ import annotations

from .errors import ContextMismatch, LengthOutOfRange, NonReducedInput
from .weyl import WeylElement, WeylGroupContext


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


def _is_min_rep(elem: WeylElement, jset: frozenset[int]) -> bool:
    perm = elem.perm
    return all(perm[j - 1] > 0 for j in jset)


def quotient_dimension(ctx: WeylGroupContext, jset) -> int:
    """l(w_0^J), the dimension of the corresponding homogeneous variety."""
    w0j = ctx.longest_in_parabolic(frozenset(jset))
    return ctx.longest_element.length - w0j.length


class _Strata:
    """One W^J's strata by length 0..dim, each filled on first use.

    ``preimage[l]`` of a dual level lists, per element, the index of its
    preimage in level dim - l; ``rows`` and ``masks`` are the coset rows
    and the per-node coset bitsets of a level (see quotient_cosets).
    """

    __slots__ = ("levels", "preimage", "rows", "masks")

    def __init__(self, ctx: WeylGroupContext, dim: int):
        self.levels: list[list[WeylElement] | None] = [[ctx.identity]] + [None] * dim
        self.preimage: list[list[int] | None] = [None] * (dim + 1)
        self.rows: list[list[tuple[int, ...]] | None] = [None] * (dim + 1)
        self.masks: list[list[int] | None] = [None] * (dim + 1)


def quotient_stratum(ctx: WeylGroupContext, jset, l: int) -> list[WeylElement]:
    """Elements of W^J of length exactly l, in the internal deterministic order.

    Every length 0..dim is occupied, so each J has one store of dim + 1
    strata.  Lengths up to dim/2 are grown level by level from the identity;
    a longer stratum is the image of stratum dim - l under
    x -> w_0 x w_{0J}, which reverses lengths along W^J.
    """
    jset = frozenset(jset)
    store = ctx._strata.get(jset)
    if store is not None and 0 <= l < len(store.levels) and store.levels[l] is not None:
        return store.levels[l]
    dim = quotient_dimension(ctx, jset)
    if l < 0 or l > dim:
        raise LengthOutOfRange(f"no stratum of length {l}; W^J has lengths 0..{dim}")
    if store is None:
        store = ctx._strata[jset] = _Strata(ctx, dim)
    levels = store.levels
    left = ctx.left_multiply
    gens = range(1, ctx.rank + 1)
    for depth in range(1, min(l, dim - l) + 1):
        if levels[depth] is None:
            grown = {left(i, w) for w in levels[depth - 1] for i in gens}
            levels[depth] = sorted(
                (x for x in grown if x.length == depth and _is_min_rep(x, jset)),
                key=lambda e: e.perm,
            )
    if levels[l] is None:
        w0, w0j = ctx.longest_element, ctx.longest_in_parabolic(jset)
        images = [ctx.multiply(ctx.multiply(w0, x), w0j) for x in levels[dim - l]]
        order = sorted(range(len(images)), key=lambda k: images[k].perm)
        levels[l] = [images[k] for k in order]
        store.preimage[l] = order
    return levels[l]


class CosetOrder:
    """The Bruhat order on the cosets Q_i = W^{S - {i}} of one node i.

    Cosets are ids 0..size-1, the top coset first and the identity coset
    last, lengths non-increasing.  ``act[j - 1][c]`` is the coset of
    s_j * c (c itself when s_j fixes it), ``antipode[c]`` the coset of
    w_0 * c, and bit b of ``up[c]`` is set iff coset b >= c.
    """

    __slots__ = ("size", "act", "antipode", "up")

    def __init__(self, ctx: WeylGroupContext, node: int):
        n = ctx.rank
        # w_0 alpha_k = -alpha_sigma(k), so w_0 omega_k = -omega_sigma(k);
        # sigma is an involution
        sigma = [-ctx.longest_element.perm[k] - 1 for k in range(n)]
        alphas = [[(k, a) for k, a in enumerate(row) if a] for row in ctx.cartan]
        lowest = [0] * n
        lowest[sigma[node - 1]] = -1
        weights = [tuple(lowest)]
        index = {weights[0]: 0}
        act = [[] for _ in range(n)]
        for b, mu in enumerate(weights):  # grows while read: breadth first, downwards
            for j in range(n):
                p = mu[j]
                c = b
                if p:
                    nu = list(mu)
                    for k, a in alphas[j]:
                        nu[k] -= p * a
                    nu = tuple(nu)
                    c = index.get(nu)
                    if c is None:
                        c = index[nu] = len(weights)
                        weights.append(nu)
                act[j].append(c)
        self.size = size = len(weights)
        self.act = act
        self.antipode = [index[tuple([-mu[k] for k in sigma])] for mu in weights]
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


def coset_order(ctx: WeylGroupContext, node: int) -> CosetOrder:
    """The coset order of ``node``, built once per context on first use."""
    order = ctx._coset_orders.get(node)
    if order is None:
        order = ctx._coset_orders[node] = CosetOrder(ctx, node)
    return order


def quotient_cosets(ctx: WeylGroupContext, jset, l: int) -> list[tuple[int, ...]]:
    """Coset rows of stratum l of W^J, in stratum order.

    The row of x holds P_i(x), a coset id of coset_order(ctx, i), for each
    node i outside J in ascending order; those orders are built on first
    use.  By Deodhar's criterion v <= u in W^J iff, at every position k,
    bit row_u[k] of that order's up[row_v[k]] is set; so the row also
    determines the element.
    """
    jset = frozenset(jset)
    quotient_stratum(ctx, jset, l)
    store = ctx._strata[jset]
    rows = store.rows
    if rows[l] is not None:
        return rows[l]
    orders = [coset_order(ctx, i) for i in ctx.spec.nodes if i not in jset]
    dim = len(rows) - 1
    if 2 * l > dim:
        source = quotient_cosets(ctx, jset, dim - l)
        rows[l] = [
            tuple([o.antipode[a] for o, a in zip(orders, source[k])])
            for k in store.preimage[l]
        ]
        return rows[l]
    if rows[0] is None:
        rows[0] = [tuple(o.size - 1 for o in orders)]
    acts = [[o.act[j] for o in orders] for j in range(ctx.rank)]
    for depth in range(1, l + 1):
        if rows[depth] is not None:
            continue
        level = store.levels[depth]
        position = {x.id: k for k, x in enumerate(level)}
        grown: list = [None] * len(level)
        for w, row in zip(store.levels[depth - 1], rows[depth - 1]):
            # w._left holds every s_i * w: the growth of this level computed them
            for y, act in zip(w._left, acts):
                k = position.get(y.id)
                if k is not None and grown[k] is None:
                    grown[k] = tuple([a[c] for a, c in zip(act, row)])
        rows[depth] = grown
    return rows[l]


def coset_masks(ctx: WeylGroupContext, jset, l: int) -> list[int]:
    """Per node outside J (ascending), the bitset of the cosets of stratum l."""
    jset = frozenset(jset)
    rows = quotient_cosets(ctx, jset, l)
    masks = ctx._strata[jset].masks
    if masks[l] is None:
        masks[l] = []
        for column in zip(*rows):
            mask = 0
            for c in set(column):
                mask |= 1 << c
            masks[l].append(mask)
    return masks[l]


def elements_of_length(ctx: WeylGroupContext, l: int) -> list[WeylElement]:
    """All elements of length exactly l, sorted by canonical word."""
    if l < 0 or l > ctx.longest_element.length:
        raise LengthOutOfRange(
            f"length {l} outside 0..{ctx.longest_element.length}"
        )
    return sorted(quotient_stratum(ctx, frozenset(), l), key=lambda e: e.word())


def quotient_elements_of_length(ctx: WeylGroupContext, jset, l: int) -> list[WeylElement]:
    """Elements of W^J of length exactly l, sorted by canonical word."""
    return sorted(quotient_stratum(ctx, frozenset(jset), l), key=lambda e: e.word())
