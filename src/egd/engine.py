"""Effective good divisibility sweeps, md-pair listings, and the morphism test.

A marked diagram D(R) is the homogeneous variety G/P_J with J the
complement of R.  Its effective good divisibility is the largest s such
that every pair u, v in W^J with l(v) + c^J(u) = s satisfies v <= u in the
Bruhat order.  Degrees are swept increasing, each once (divisibility up
to s implies it up to every r <= s), and the sweep stops at the first
failing degree: its violating pairs are the maximal disjoint pairs, so
one pass gives both the value and the md-pair listing.  The value never
exceeds the dimension l(w_0^J): in larger total codimension every product
lands in a zero group.  Degree dim + 1 always fails, so a sweep with no
violation up to the dimension is capped there and lists the pairs of
degree dim + 1.

The sweep of a degree is one loop over its buckets l(v); each bucket is
compared by one generator of (v index, [u index, ...]) pairs, and the
loop peels the words of what it yields.  The generator is a method of
the strata store of W^J (bruhat._Strata), never the descent recursion.
Its violations method uses Deodhar's criterion: v <= u in W^J iff
P_i(v) <= P_i(u) in the maximal quotient W^{S - {i}} for every marked
node i, so each v costs one bitset AND per marked node against the
cosets of the u-stratum, and the u of a violation are decoded only
where a v fails.  A marked node whose maximal quotient exceeds
MAX_COSETS gets no coset order: such a marked set is compared pair by
pair by the store's lifting method, which walks v down a reduced word
of each u by the lifting property, on canonical words and weights; its
full sweep is refused before anything is built when no closed form
bounds where it stops.  The strata are weights, coset rows and words
(one store per J, on bruhat.orbits, one per spec) and a listed pair
holds the canonical words of v and u, peeled off their weights, so no
sweep builds a root system.  Type-D tags are read off weights too: a
pair pulls back from D(r) by a length test on x(omega_r)
(classify_md_pairs).  A WeylGroupContext is built only for MdPair.u and
MdPair.v, and weyl is imported only where one is built (build_group).
`strata` lists the sorted words of a store (stratum), and `decompose`
peels w^J and w_J off weights (decomposition, by Orbits.project).  So
every command loads this module, bruhat, dynkin and errors alone.

Maximal quotients suffice: with Q_r = W^{S - {r}}, ed(D(R)) is the
minimum of ed(D(r)) over r in R, and the md pairs of D(R) are lifts of
single-node md pairs.
- Upper bound: a violating pair (v, u) of Q_r at degree s lifts to
  (v, u w_{0,S-{r}} w_{0J}) in W^J, which keeps l(v) and the codimension;
  it still violates, because P_r preserves the order (Bjorner-Brenti,
  GTM 231, section 2.5) and maps the lift back to (v, u).
- Lower bound: for a violating pair (v, u) of W^J at degree s, Deodhar's
  criterion gives a marked node i with P_i(v) not<= P_i(u).  Also
  l(P_i v) <= l(v), and c_i(P_i u) <= c^J(u) since the fibre
  W_{S-{i}} meet W^J has longest length dim_J - dim_i; so D(i) fails at a
  degree <= s.
- Equality: where the bounds meet, v lies in Q_i and u is the lift, so
  the listing at ed + 1 is the union of the lifted listings of the
  minimising nodes; and as ed(D(r)) <= dim_r < dim_J, a set with |R| >= 2
  is never capped.
The sweep does not use this (a multi-node set is swept on its own
strata); the tests check every multi-node set of the small types against
it, a second derivation that shares no strata with the first.

Admission: every refusal is decided before any context is built, from the
spec and the degree table alone.  dynkin checks node ranges, letters and
stratum lengths and counts |W|, N and dim G/P_J; the size limits below
(roots, budget, cosets, stratum entries) are checked here, in a fixed
order, so an input bad in two ways always gets the same refusal.  A
refusal raises Infeasible (_roots, _infeasibility).  The root count
comes first, so neither J nor |W^J| is formed past it; a closed-form
request consults no limit, and "both" catches the sweep's refusal and
falls back to the closed form where there is one.

Closed forms: A_n(R) = n, B_n(R) = C_n(R) = 2n-1, D_n(R) = 2n-3 when R
meets {1, n-1, n} and 2n-2 otherwise; complete flags of G2, F4, E6 give
5, 12, 12.  Brute force cross-validates the closed forms and is the only
route for the remaining exceptional quotients.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .bruhat import bruhat_leq, orbits, quotient_dimension, quotient_stratum
from .dynkin import (
    DynkinSpec,
    check_length,
    dimension,
    is_proper_subdiagram,
    num_positive_roots,
    parse_word,
    quotient_size,
    require_type_d,
    stratum_size,
)
from .errors import DegreeOutOfRange, EgdError, EmptyMarkedSet, Infeasible

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing
if TYPE_CHECKING:
    from .weyl import WeylElement, WeylGroupContext, Word

DEFAULT_BUDGET = 10**6
# Largest group any command admits.  No command builds its context, only
# `MdPair.u` / `.v` and the library: A100 (5,050 positive roots) builds in
# about 0.12 s, B71, C71 and D71 in about 0.09-0.13 s.  The commands, on
# weights alone, keep the limit: `decompose A100 1,2,3,4,5,6,7 1` runs
# in about 0.11 s and `ed A100 1` in about 0.16 s, each at 15 MB peak RSS.
# (Python 3.11 on 2 cores.)
MAX_POSITIVE_ROOTS = 5050
# Largest stratum `egd strata` lists, in entries: the rank-wide weights of
# the strata it grows plus the letters of its words (stratum); 10**8
# entries hold about 0.8 GB of pointers.  `strata A100 3 2`, 166,649 words
# within 6.7 * 10**7 entries, runs in about 3.5 s at 0.19 GB peak RSS.
MAX_STRATUM_ENTRIES = 10**8
# Largest maximal quotient W^{S - {i}} of a marked node i whose coset order
# is built: its up-sets take |Q_i|^2 / 16 bytes.  E8 node 3 (69,120
# cosets) gets one, and `ed E8 3 --mode brute` runs in about 2 s at 0.35 GB
# peak RSS; a marked set with a larger quotient, such as A19(10) (184,756)
# or B17(17) (131,072), is compared pair by pair on words instead
# (_Strata.lifting): `ed A19 10` runs in about 0.2 s at 16 MB.
MAX_COSETS = 100_000

_context_cache: dict[DynkinSpec, WeylGroupContext] = {}


# build_group is a module global that imports weyl when called, so no
# sweep loads a root system, and a tracer or a test can still replace it
# here (get_context calls it).  Nothing here calls decompose, bruhat_leq or
# quotient_stratum: they are kept because perfbench/trace_cmd.py wraps each
# of them on this module (and the export test reads decompose).
def build_group(spec: DynkinSpec) -> WeylGroupContext:
    """weyl.build_group: the root system of spec, built from scratch."""
    from .weyl import build_group

    return build_group(spec)


def decompose(ctx: WeylGroupContext, w: WeylElement, jset):
    """parabolic.decompose: w = w^J * w_J."""
    from .parabolic import decompose

    return decompose(ctx, w, jset)


def _roots(spec: DynkinSpec) -> int:
    """N of spec, from the degrees alone; Infeasible over MAX_POSITIVE_ROOTS."""
    roots = num_positive_roots(spec)
    if roots > MAX_POSITIVE_ROOTS:
        raise Infeasible(
            f"{spec} has {roots} positive roots, over the limit of {MAX_POSITIVE_ROOTS}"
        )
    return roots


def get_context(spec: DynkinSpec) -> WeylGroupContext:
    """Shared per-spec context; construction is deterministic so sharing is safe.

    Raises Infeasible, before building anything, for a group with more than
    MAX_POSITIVE_ROOTS positive roots.
    """
    ctx = _context_cache.get(spec)
    if ctx is None:
        _roots(spec)
        ctx = build_group(spec)
        _context_cache[spec] = ctx
    return ctx


class MarkedDiagram(namedtuple("MarkedDiagram", "spec marked")):
    """A diagram with a marked node set R; J = complement(R) is the parabolic set."""

    __slots__ = ()

    def __new__(cls, spec: DynkinSpec, marked: frozenset[int]):
        return super().__new__(cls, spec, spec.check_nodes(marked, "marked nodes"))

    @property
    def parabolic_set(self) -> frozenset[int]:
        return frozenset(self.spec.nodes) - self.marked

    def label(self) -> str:
        inner = ",".join(map(str, sorted(self.marked)))
        return f"{self.spec}({inner})"

    @classmethod
    def parse(cls, diagram: str, marked: str) -> "MarkedDiagram":
        spec = DynkinSpec.parse(diagram)
        return cls(spec, spec.parse_nodes(marked))


class MdPair(
    namedtuple(
        "MdPair",
        "spec word_v word_u len_v codim_u degree tags",
        defaults=(frozenset(),),
    )
):
    """A violating pair at some degree: v not<= u with l(v) + c^J(u) = degree.

    The pair holds the canonical words of v and u; ``v`` and ``u`` build
    the elements in the shared context of ``spec`` when asked for.
    """

    __slots__ = ()

    @property
    def v(self) -> WeylElement:
        return get_context(self.spec).from_word(self.word_v)

    @property
    def u(self) -> WeylElement:
        return get_context(self.spec).from_word(self.word_u)

    def record(self) -> dict:
        return {
            "v": ",".join(map(str, self.word_v)),
            "u": ",".join(map(str, self.word_u)),
            "len_v": self.len_v,
            "codim_u": self.codim_u,
            "tags": sorted(self.tags),
        }


# method: closed_form | brute_force | both; witness: an MdPair or None
EdResult = namedtuple("EdResult", "value method witness closed_form brute_force capped")

# verdict: constant | inconclusive
MorphismVerdict = namedtuple(
    "MorphismVerdict",
    "verdict source_label target_label source_ed target_ed subdiagram_rule",
)


def closed_form_ed(md: MarkedDiagram) -> int | None:
    """Table value, or None where only brute force is known."""
    fam, n = md.spec.family, md.spec.rank
    if fam == "A":
        return n
    if fam in ("B", "C"):
        return 2 * n - 1
    if fam == "D":
        return 2 * n - 3 if md.marked & {1, n - 1, n} else 2 * n - 2
    if md.marked == frozenset(md.spec.nodes):
        return {"G": 5, "F": 12, "E": 12 if n == 6 else None}[fam]
    return None


@lru_cache(maxsize=None)
def _oversize_cosets(spec: DynkinSpec, jset: frozenset[int]) -> str | None:
    """Why some node outside J gets no coset order, if one does."""
    nodes = frozenset(spec.nodes)
    for i in sorted(nodes - jset):
        cosets = quotient_size(spec, nodes - {i})
        if cosets > MAX_COSETS:
            return (
                f"node {i} of {spec} has {cosets} cosets, over the coset-order "
                f"limit of {MAX_COSETS}"
            )
    return None


def _infeasibility(md: MarkedDiagram, budget: int) -> None:
    """Infeasible, before anything is built, if the full sweep of md is refused.

    The root count comes first: it bounds |W^J|, which is not counted past
    it.  A marked set with a node over MAX_COSETS is swept pair by pair,
    which is cheap only when the sweep fails early.  A closed form says
    where it fails; without one the sweep may run through the middle
    strata (E8(4) runs through degree 52 in about 2 minutes), so such a
    set is refused.  J is formed only once the root count is admitted.
    """
    spec = md.spec
    _roots(spec)
    jset = md.parabolic_set
    size = quotient_size(spec, jset)
    if size > budget:
        raise Infeasible(f"W^J of {spec} has {size} elements, over the budget of {budget}")
    if closed_form_ed(md) is None and (refusal := _oversize_cosets(spec, jset)):
        raise Infeasible(refusal)


def _require_marked(md: MarkedDiagram) -> None:
    """EmptyMarkedSet for an empty R, which has no divisibility to compute."""
    if not md.marked:
        raise EmptyMarkedSet(f"{md.spec} needs at least one marked node")


# -- degree sweep ------------------------------------------------------------


def _sweep_degree(
    spec: DynkinSpec, jset: frozenset[int], s: int
) -> list[tuple[int, Word, Word]]:
    """(l(v), word of v, word of u) of each violating pair at degree s, 0 < l(v) <= c^J(u).

    x -> w_0 x w_{0J} reverses the Bruhat order on W^J and swaps l(v) with
    c^J(u), so (v, u) violates iff (w_0 u w_{0J}, w_0 v w_{0J}) does: the
    half l(v) <= c^J(u) holds a violation of degree s whenever one exists,
    for every J.  The sweep holds one strata store of W^J, and each bucket
    l(v) is compared by one generator of (k_v, [k_u, ...]) pairs: the
    store's violations on coset orders, or its lifting on words for a
    marked set with a node over MAX_COSETS (_oversize_cosets).  The
    canonical words of the pairs it yields are peeled off the store's
    weights, each u once per bucket.  Pairs come in bucket order: l(v)
    ascending, then stratum order of v and of u.
    """
    store = orbits(spec).store(jset, 0)
    compare = store.lifting if _oversize_cosets(spec, jset) else store.violations
    out: list[tuple[int, Word, Word]] = []
    for len_v in range(max(1, s - store.dim), s // 2 + 1):
        len_u = store.dim - (s - len_v)
        words_u: dict[int, Word] = {}
        for k_v, hit in compare(len_v, len_u):
            word_v = store.word(len_v, k_v)
            for k in hit:
                if k not in words_u:
                    words_u[k] = store.word(len_u, k)
                out.append((len_v, word_v, words_u[k]))
    return out


def has_egd_up_to(ctx: WeylGroupContext, jset, s: int) -> bool:
    """Whether every pair at total degree s satisfies the Bruhat condition.

    Only pairs with l(v) <= c^J(u) are compared: the two classes of a
    violating pair swap under x -> w_0 x w_{0J}, so that half of the pairs
    holds a violation whenever one exists, for every parabolic set J, flags
    and proper quotients alike.
    """
    jset = frozenset(jset)
    dim = quotient_dimension(ctx, jset)
    if s < 0 or s > dim:
        raise DegreeOutOfRange(f"degree {s} outside 0..{dim}")
    return not _sweep_degree(ctx.spec, jset, s)


def _listing(spec: DynkinSpec, jset: frozenset[int], degree: int) -> list[MdPair]:
    """Violating pairs at a degree with 0 < l(v) <= c^J(u), deterministically sorted."""
    return [
        MdPair(spec, word_v, word_u, len_v=len_v, codim_u=degree - len_v, degree=degree)
        for len_v, word_v, word_u in sorted(_sweep_degree(spec, jset, degree))
    ]


def _brute_ed(spec: DynkinSpec, jset: frozenset[int]) -> tuple[int, bool, list[MdPair]]:
    """Sweep degrees 1..dim + 1 once each, up to the first failing degree s.

    Returns (s - 1, whether s = dim + 1, the sorted violating pairs of
    degree s).  Degree dim + 1 always fails (l(v) = l(u) + 1), so for
    dim >= 1 the listing is never empty.
    """
    dim = dimension(spec, jset)
    for s in range(1, dim + 2):
        pairs = _listing(spec, jset, s)
        if pairs:
            break
    return s - 1, s > dim, pairs


def effective_divisibility(
    md: MarkedDiagram,
    mode: str = "both",
    *,
    budget: int = DEFAULT_BUDGET,
) -> EdResult:
    """Effective good divisibility of the marked diagram.

    mode picks the computation path: "closed_form", "brute_force", or
    "both" (the default: run whichever are available and cross-check;
    a refused sweep leaves the closed form where there is one).  The
    witness is the first pair of the failing degree's listing.
    """
    if mode not in ("closed_form", "brute_force", "both"):
        raise EgdError(f"unknown mode {mode!r}")
    _require_marked(md)
    cf = closed_form_ed(md)
    if mode == "closed_form":
        if cf is None:
            raise Infeasible(f"no closed form for {md.label()}")
        return EdResult(cf, "closed_form", None, cf, None, False)

    try:
        _infeasibility(md, budget)
    except Infeasible:
        if mode == "brute_force" or cf is None:
            raise
        return EdResult(cf, "closed_form", None, cf, None, False)

    bf, capped, pairs = _brute_ed(md.spec, md.parabolic_set)
    witness = pairs[0]

    if mode == "brute_force" or cf is None:
        return EdResult(bf, "brute_force", witness, None, bf, capped)
    if cf != bf:
        raise EgdError(
            f"closed form {cf} and brute force {bf} disagree on {md.label()}"
        )
    return EdResult(bf, "both", witness, cf, bf, capped)


def md_pairs(
    md: MarkedDiagram,
    *,
    degree: int | None = None,
    classify: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> list[MdPair]:
    """All maximal disjoint pairs of md (or the violating pairs at ``degree``).

    Pairs are listed with l(v) <= c^J(u); the dual of each pair is
    recoverable through x -> w_0 x w_{0J}.  With ``classify`` (family D
    flags and their quotients) each pair is tagged with the marked nodes r
    such that the pair pulls back from D(r).  Without ``degree`` the pairs
    are the ones the degree sweep found at its failing degree ed + 1.
    """
    _require_marked(md)
    _infeasibility(md, budget)
    jset = md.parabolic_set
    dim = dimension(md.spec, jset)
    if degree is not None and not 0 <= degree <= dim + 1:
        raise DegreeOutOfRange(f"degree {degree} outside 0..{dim + 1}")
    if classify:
        require_type_d(md.spec)
    pairs = _brute_ed(md.spec, jset)[2] if degree is None else _listing(md.spec, jset, degree)
    if classify:
        pairs = classify_md_pairs(md.spec, pairs, jset=jset)
    return pairs


def classify_md_pairs(spec: DynkinSpec, pairs, *, jset=frozenset()) -> list[MdPair]:
    """Tag each D_n pair with the nodes r in {1, n-1, n} whose quotient D(r) it pulls back from.

    A pair (v, u) of W^J lifts to the flag as (v, u w_{0J}) and comes from
    D(r) iff v is in W^{S - {r}} and u w_{0J} is the longest element of its
    coset modulo W_{S - {r}} (Bjorner-Brenti, GTM 231, section 2.4).  With
    l_r(x) = l(P_r(x)) peeled off x(omega_r) (Orbits.project), that reads
    l_r(v) = l(v) and l_r(u) + N_{S - {r}} = l(u) + N_J.  No r in J passes
    the first test, as listed pairs have v != e: W^J and W^{S - {r}} then
    meet only in the identity.
    """
    n = require_type_d(spec)
    jset, nodes, orbs = frozenset(jset), frozenset(spec.nodes), orbits(spec)
    lift = num_positive_roots(spec, jset)
    fibres = {r: num_positive_roots(spec, nodes - {r}) for r in (1, n - 1, n)}
    return [
        pair._replace(tags=frozenset(
            r for r, fibre in fibres.items()
            if len(orbs.project(pair.word_v, {r})) == len(pair.word_v)
            and len(orbs.project(pair.word_u, {r})) + fibre == len(pair.word_u) + lift
        ))
        for pair in pairs
    ]


def _resolve_ed(side, *, budget: int):
    """A callable giving (ed value, display label) of a marked diagram or an int.

    Every refusal of the side is raised here, not by the callable, so both
    sides of a morphism are checked before either builds a context.
    """
    if isinstance(side, int):
        if side < 0:
            raise EgdError(f"an ed value must be at least 0, got {side}")
        return lambda: (side, f"ed={side}")
    _require_marked(side)
    cf = closed_form_ed(side)
    if cf is not None:
        return lambda: (cf, side.label())
    _infeasibility(side, budget)
    return lambda: (
        effective_divisibility(side, "brute_force", budget=budget).value,
        side.label(),
    )


def morphism_constancy(
    source,
    target: MarkedDiagram,
    *,
    budget: int = DEFAULT_BUDGET,
) -> MorphismVerdict:
    """Decide constancy of morphisms source -> target from divisibility alone.

    "constant" when ed(source) > ed(target): pulled-back disjoint effective
    cycles would otherwise contradict the source's divisibility.  Anything
    else is "inconclusive" (never a claim that a nonconstant map exists).
    The proper-subdiagram rule is reported when it applies; in that case
    the ed comparison always lands on "constant" as well.
    """
    src, tgt = [_resolve_ed(side, budget=budget) for side in (source, target)]
    (src_ed, src_label), (tgt_ed, tgt_label) = src(), tgt()
    rule = (
        isinstance(source, MarkedDiagram)
        and isinstance(target, MarkedDiagram)
        and is_proper_subdiagram(target.spec, source.spec)
    )
    verdict = "constant" if src_ed > tgt_ed else "inconclusive"
    return MorphismVerdict(verdict, src_label, tgt_label, src_ed, tgt_ed, rule)


def stratum(spec: DynkinSpec, jset, l: int) -> list[Word]:
    """The canonical words of stratum l of W^J, sorted, peeled off the strata store.

    A length outside 0..dim G/P_J raises LengthOutOfRange; a group over
    MAX_POSITIVE_ROOTS, or a stratum whose growth and words may exceed
    MAX_STRATUM_ENTRIES, raises Infeasible, before anything is grown.  The
    store grows the rank-wide weights of strata 0..m, m = min(l, dim - l);
    the strata sizes of W^J are symmetric and unimodal (Stanley 1980), so
    none of them exceeds stratum l, and (m + 1) * rank + l entries per
    element of stratum l bound the weights and the words.  Sizes come from
    the degree table.
    """
    dim = dimension(spec, jset)
    check_length(l, dim)
    _roots(spec)
    m = min(l, dim - l)
    size = stratum_size(spec, jset, m)
    entries = size * ((m + 1) * spec.rank + l)
    if entries > MAX_STRATUM_ENTRIES:
        raise Infeasible(
            f"stratum {l} of {spec} has {size} elements, whose weights and words take up to "
            f"{entries} entries, over the limit of {MAX_STRATUM_ENTRIES}"
        )
    store = orbits(spec).store(frozenset(jset), l)
    return sorted(store.word(l, k) for k in range(len(store.weights[m])))


def decomposition(spec: DynkinSpec, text: str, jset) -> tuple[Word, Word]:
    """The canonical words of w^J and w_J, w = w^J w_J the value of a comma-separated word.

    A group over MAX_POSITIVE_ROOTS, then a word that does not parse or has a
    letter outside 1..rank, is refused before anything is evaluated.  w^J is
    peeled off w(lambda_R), R the complement of J, and w_J = (w^J)^-1 w off
    its value at rho (Orbits.project); no root system is built.
    """
    _roots(spec)
    word = spec.check_word(parse_word(text))
    orbs, nodes = orbits(spec), frozenset(spec.nodes)
    up = orbs.project(word, nodes - frozenset(jset))
    return up, orbs.project(up[::-1] + word, nodes)
