"""Parabolic decomposition w = w^J * w_J and the distinguished type-D elements.

For a set J of nodes, W_J is the subgroup generated by {s_j : j in J} and
W^J the set of elements with no right descent in J; every w factors
uniquely as w^J * w_J with additive lengths, w^J in W^J minimal in w W_J.
The decomposition strips w to w^J by the in-place walk of
WeylGroupContext.coset_end: right descents lying in J are removed, the
smallest first (the result is order-independent), and only w^J and w_J are
interned.

The type-D section provides the maximal-quadric-plane elements w_alpha and
w_beta, their inverses theta_alpha/theta_beta, the self-disjoint spinor
class sigma_beta, and Stumbo's suffix parametrization of the spinor coset
space W^{Delta \\ {n}} by nondecreasing integer sequences.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .dynkin import DynkinSpec, dimension, num_positive_roots, require_type_d
from .errors import NotClassical
from .weyl import WeylElement, WeylGroupContext, Word


Decomposition = namedtuple("Decomposition", "up down strip")
Decomposition.__doc__ = """The unique factorization w = up * down, up in W^J, down in W_J.

``strip`` is the sequence of right descents removed while peeling off
the W_J part; it is a reduced word for ``down`` read right to left.
"""

CodimData = namedtuple("CodimData", "cJ_up cJ_down c_total")
CodimData.__doc__ = "Codimension bookkeeping: c_total = cJ_up + cJ_down."


def decompose(ctx: WeylGroupContext, w: WeylElement, jset) -> Decomposition:
    """Split w into its minimal coset representative and its W_J part.

    w^J is the strip of w (WeylGroupContext.coset_end), and w_J the value of
    the stripped letters read right to left.  Raises ContextMismatch if w
    belongs to another context.
    """
    up, stripped = ctx.coset_end(w, jset)
    return Decomposition(up, ctx.from_word(reversed(stripped)), stripped)


def longest_in_WJ(ctx: WeylGroupContext, jset) -> WeylElement:
    """Longest element w_{0J} of the parabolic subgroup W_J."""
    return ctx.longest_in_parabolic(frozenset(jset))


def longest_in_quotient(ctx: WeylGroupContext, jset) -> WeylElement:
    """The unique maximal element w_0^J of W^J; its length is dim G/P_J.

    It is the strip of w_0 (WeylGroupContext.coset_end); w_{0J} is not built.
    """
    return ctx.coset_end(ctx.longest_element, jset)[0]


def codims(ctx: WeylGroupContext, u: WeylElement, jset) -> CodimData:
    """c^J, c_J and c of u; l(w_0^J) = N - N_J and l(w_{0J}) = N_J are counted, not built."""
    dec = decompose(ctx, u, jset)
    return CodimData(
        cJ_up=dimension(ctx.spec, jset) - dec.up.length,
        cJ_down=num_positive_roots(ctx.spec, jset) - dec.down.length,
        c_total=ctx.longest_element.length - u.length,
    )


def stumbo_word(spec: DynkinSpec) -> Word:
    """Stumbo's reduced expression for w_0^J with J = all nodes but 1.

    A_n: n,...,1.  B_n/C_n: 1,...,n,...,1.  D_n: 1,...,n-2,n,n-1,n-2,...,1.
    """
    n = spec.rank
    if spec.family == "A":
        return tuple(range(n, 0, -1))
    if spec.family in ("B", "C"):
        return tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))
    if spec.family == "D":
        return tuple(range(1, n - 1)) + (n, n - 1) + tuple(range(n - 2, 0, -1))
    raise NotClassical(f"no Stumbo expression for family {spec.family}")


def is_schubert_pullback(ctx: WeylGroupContext, u: WeylElement, jset) -> bool:
    """True iff the Schubert class of u on the flag comes from G/P_J (u_J = w_{0J}).

    For j in J, u s_j < u iff u_J s_j < u_J, and w_{0J} is the one element
    of W_J with every j in J as a right descent.
    """
    return all(u.perm[j - 1] < 0 for j in ctx.spec.check_nodes(jset))


def is_opposite_pullback(ctx: WeylGroupContext, v: WeylElement, jset) -> bool:
    """True iff the opposite class of v comes from G/P_J (v in W^J: no right descent in J)."""
    return not any(v.perm[j - 1] < 0 for j in ctx.spec.check_nodes(jset))


# -- distinguished elements in type D ---------------------------------------


def spinor_sequences(n: int) -> list[tuple[int, ...]]:
    """Admissible (n-1)-tuples indexing W^I, I = all nodes but n, in increasing order.

    Either (1,2,...,n-1), for the top element, or zeros followed by a
    strictly increasing tail with values <= n-1.  One sequence per subset
    of {1,...,n-1}: the sorted subset, left-padded with zeros.  More zeros
    sort first, so the subsets come by size, each size in lexicographic order.
    """
    return [(0,) * (n - 1 - k) + tail for k in range(n) for tail in combinations(range(1, n), k)]


def spinor_word(n: int, seq: tuple[int, ...]) -> Word:
    """The word theta_gamma(l_1)...theta_alpha(l_{n-2})theta_beta(l_{n-1}).

    theta_alpha = 1..n-2, n-1 and theta_beta = 1..n-2, n; factor j is the
    length-l_j right suffix of theta_alpha when j = n mod 2 and of
    theta_beta otherwise, so the last factor (j = n-1) is always beta.
    """
    out: list[int] = []
    for j, l in enumerate(seq, start=1):
        theta = (*range(1, n - 1), n - 1 if (j - n) % 2 == 0 else n)
        out.extend(theta[n - 1 - l :])
    return tuple(out)


def spinor_coset_words(ctx: WeylGroupContext) -> list[tuple[tuple[int, ...], Word]]:
    """All (sequence, word) pairs of the spinor parametrization of W^{Delta\\{n}}."""
    n = require_type_d(ctx.spec)
    return [(seq, spinor_word(n, seq)) for seq in spinor_sequences(n)]


DnDistinguished = namedtuple(
    "DnDistinguished", "w_alpha w_beta theta_alpha theta_beta sigma_beta"
)


def dn_distinguished(ctx: WeylGroupContext) -> DnDistinguished:
    """The five named D_n elements of the md-pair classification.

    w_alpha = s_{n-1}s_{n-2}...s_1 and w_beta = s_n s_{n-2}...s_1 are the
    two middle classes of the even quadric; theta_* are their inverses;
    sigma_beta is the spinor element of the sequence (0, 1, ..., n-2),
    whose opposite class is its own disjoint partner.  The paper's quadric
    criterion {v^I, (u w_{0J})^I} = {w_alpha, w_beta}, I = S - {1}, is the
    test reference of engine.classify_md_pairs at node 1.
    """
    n = require_type_d(ctx.spec)
    w_alpha = ctx.from_word((n - 1,) + tuple(range(n - 2, 0, -1)))
    w_beta = ctx.from_word((n,) + tuple(range(n - 2, 0, -1)))
    sigma = ctx.from_word(spinor_word(n, (0,) + tuple(range(1, n - 1))))
    return DnDistinguished(
        w_alpha=w_alpha,
        w_beta=w_beta,
        theta_alpha=ctx.inverse(w_alpha),
        theta_beta=ctx.inverse(w_beta),
        sigma_beta=sigma,
    )
