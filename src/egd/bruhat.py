"""Bruhat order and length-stratified enumeration of W and its quotients W^J.

The comparison v <= u peels the smallest left descent s of u: if s is also
a left descent of v the pair becomes (sv, su), otherwise (v, su).  Every
pair on the chain has the same answer, so the whole chain is memoized in
the context cache under the int key (v.id << 32) | u.id.  Each step reads
su and sv from the elements' left-product caches, so a product s_i * w is
computed once per element however many comparisons pass through it.  An
exhaustive subword scan is kept as an independent test oracle.

Strata of W^J (minimal coset representatives, no right descent in J) live
in one store per J on the context: a list indexed by length 0..dim, each
entry filled on first use.  W^J is graded with every length 0..dim
occupied.  Strata up to dim/2 are grown level by level: the successors of
w in W^J are the products s_i * w (read from the same left-product cache)
that land in W^J with length l(w) + 1.  Higher strata are the images of
lower ones under the length-reversing bijection x -> w_0 * x * w_{0J}.
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


def quotient_stratum(ctx: WeylGroupContext, jset, l: int) -> list[WeylElement]:
    """Elements of W^J of length exactly l, in the internal deterministic order.

    Every length 0..dim is occupied, so each J has one store of dim + 1
    strata.  Lengths up to dim/2 are grown level by level from the identity;
    a longer stratum is the image of stratum dim - l under
    x -> w_0 x w_{0J}, which reverses lengths along W^J.
    """
    jset = frozenset(jset)
    dim = quotient_dimension(ctx, jset)
    if l < 0 or l > dim:
        raise LengthOutOfRange(f"no stratum of length {l}; W^J has lengths 0..{dim}")
    levels = ctx._strata.get(jset)
    if levels is None:
        levels = ctx._strata[jset] = [[ctx.identity]] + [None] * dim
    if levels[l] is not None:
        return levels[l]
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
        levels[l] = sorted(
            (ctx.multiply(ctx.multiply(w0, x), w0j) for x in levels[dim - l]),
            key=lambda e: e.perm,
        )
    return levels[l]


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
