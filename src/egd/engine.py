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

Closed forms: A_n(R) = n, B_n(R) = C_n(R) = 2n-1, D_n(R) = 2n-3 when R
meets {1, n-1, n} and 2n-2 otherwise; complete flags of G2, F4, E6 give
5, 12, 12.  Brute force cross-validates the closed forms and is the only
route for the remaining exceptional quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bruhat import bruhat_leq, quotient_dimension, quotient_stratum
from .dynkin import DynkinSpec, is_proper_subdiagram, quotient_size
from .errors import DegreeOutOfRange, EgdError, EmptyMarkedSet, Infeasible
from .parabolic import (
    decompose,
    dn_distinguished,
    is_opposite_pullback,
    is_schubert_pullback,
    longest_in_WJ,
)
from .weyl import WeylElement, WeylGroupContext, build_group

DEFAULT_BUDGET = 10**6

_context_cache: dict[DynkinSpec, WeylGroupContext] = {}


def get_context(spec: DynkinSpec) -> WeylGroupContext:
    """Shared per-spec context; construction is deterministic so sharing is safe."""
    ctx = _context_cache.get(spec)
    if ctx is None:
        ctx = build_group(spec)
        _context_cache[spec] = ctx
    return ctx


@dataclass(frozen=True)
class MarkedDiagram:
    """A diagram with a marked node set R; J = complement(R) is the parabolic set."""

    spec: DynkinSpec
    marked: frozenset[int]

    def __post_init__(self):
        bad = sorted(i for i in self.marked if i < 1 or i > self.spec.rank)
        if bad:
            raise EgdError(f"marked nodes {bad} outside diagram {self.spec}")

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


@dataclass(frozen=True)
class MdPair:
    """A violating pair at some degree: v not<= u with l(v) + c^J(u) = degree."""

    u: WeylElement
    v: WeylElement
    len_v: int
    codim_u: int
    degree: int
    tags: frozenset[int] = frozenset()

    def record(self) -> dict:
        return {
            "v": ",".join(map(str, self.v.word())),
            "u": ",".join(map(str, self.u.word())),
            "len_v": self.len_v,
            "codim_u": self.codim_u,
            "tags": sorted(self.tags),
        }


@dataclass(frozen=True)
class EdResult:
    value: int
    method: str  # closed_form | brute_force | both
    witness: MdPair | None
    closed_form: int | None
    brute_force: int | None
    capped: bool


@dataclass(frozen=True)
class MorphismVerdict:
    verdict: str  # constant | inconclusive
    source_label: str
    target_label: str
    source_ed: int
    target_ed: int
    subdiagram_rule: bool


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


def _infeasibility(spec: DynkinSpec, jset: frozenset[int], budget: int, extended: bool) -> str | None:
    size = quotient_size(spec, jset)
    if size > budget:
        return f"W^J of {spec} has {size} elements, over the budget of {budget}"
    if spec.family == "E" and spec.rank == 6 and not jset and not extended:
        return "the E6 complete-flag sweep runs only with the extended flag"
    return None


def _parabolic_set(md: MarkedDiagram) -> frozenset[int]:
    """J = complement(R); an empty R has no divisibility to compute."""
    if not md.marked:
        raise EmptyMarkedSet(f"{md.spec} needs at least one marked node")
    return md.parabolic_set


# -- degree sweep ------------------------------------------------------------


def _sweep_degree(
    ctx: WeylGroupContext, jset: frozenset[int], s: int
) -> list[tuple[WeylElement, WeylElement]]:
    """Violating pairs (v, u) at degree s with 0 < l(v) <= c^J(u).

    x -> w_0 x w_{0J} reverses the Bruhat order on W^J and swaps l(v) with
    c^J(u), so (v, u) violates iff (w_0 u w_{0J}, w_0 v w_{0J}) does: the
    half l(v) <= c^J(u) holds a violation of degree s whenever one exists,
    for every J.  Pairs come in bucket order: l(v) ascending, then stratum
    order of v and of u.
    """
    dim = quotient_dimension(ctx, jset)
    out: list[tuple[WeylElement, WeylElement]] = []
    for len_v in range(max(1, s - dim), s // 2 + 1):
        vs = quotient_stratum(ctx, jset, len_v)
        us = quotient_stratum(ctx, jset, dim - (s - len_v))
        out.extend((v, u) for v in vs for u in us if not bruhat_leq(ctx, v, u))
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
    return not _sweep_degree(ctx, jset, s)


def _listing(ctx: WeylGroupContext, jset: frozenset[int], degree: int) -> list[MdPair]:
    """Violating pairs at a degree with 0 < l(v) <= c^J(u), deterministically sorted."""
    hits = _sweep_degree(ctx, jset, degree)
    hits.sort(key=lambda pair: (pair[0].length, pair[0].word(), pair[1].word()))
    return [
        MdPair(u=u, v=v, len_v=v.length, codim_u=degree - v.length, degree=degree)
        for v, u in hits
    ]


def _brute_ed(
    ctx: WeylGroupContext, jset: frozenset[int]
) -> tuple[int, bool, list[MdPair]]:
    """Sweep degrees 1..dim + 1 once each, up to the first failing degree s.

    Returns (s - 1, whether s = dim + 1, the sorted violating pairs of
    degree s).  Degree dim + 1 always fails (l(v) = l(u) + 1), so for
    dim >= 1 the listing is never empty.
    """
    dim = quotient_dimension(ctx, jset)
    for s in range(1, dim + 2):
        pairs = _listing(ctx, jset, s)
        if pairs:
            break
    return s - 1, s > dim, pairs


def effective_divisibility(
    md: MarkedDiagram,
    mode: str = "both",
    *,
    budget: int = DEFAULT_BUDGET,
    extended: bool = False,
) -> EdResult:
    """Effective good divisibility of the marked diagram.

    mode picks the computation path: "closed_form", "brute_force", or
    "both" (the default: run whichever are available and cross-check).
    The witness is the first pair of the failing degree's listing.
    """
    if mode not in ("closed_form", "brute_force", "both"):
        raise EgdError(f"unknown mode {mode!r}")
    jset = _parabolic_set(md)
    cf = closed_form_ed(md)
    blocked = _infeasibility(md.spec, jset, budget, extended)

    if mode == "closed_form":
        if cf is None:
            raise Infeasible(f"no closed form for {md.label()}")
        return EdResult(cf, "closed_form", None, cf, None, False)

    if mode == "brute_force" and blocked:
        raise Infeasible(blocked)
    if mode == "both" and blocked and cf is None:
        raise Infeasible(blocked)

    if blocked:
        return EdResult(cf, "closed_form", None, cf, None, False)

    ctx = get_context(md.spec)
    bf, capped, pairs = _brute_ed(ctx, jset)
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
    extended: bool = False,
) -> list[MdPair]:
    """All maximal disjoint pairs of md (or the violating pairs at ``degree``).

    Pairs are listed with l(v) <= c^J(u); the dual of each pair is
    recoverable through x -> w_0 x w_{0J}.  With ``classify`` (family D
    flags and their quotients) each pair is tagged with the marked nodes r
    such that the pair pulls back from D(r).  Without ``degree`` the pairs
    are the ones the degree sweep found at its failing degree ed + 1.
    """
    jset = _parabolic_set(md)
    blocked = _infeasibility(md.spec, jset, budget, extended)
    if blocked:
        raise Infeasible(blocked)
    ctx = get_context(md.spec)
    if degree is None:
        pairs = _brute_ed(ctx, jset)[2]
    else:
        dim = quotient_dimension(ctx, jset)
        if degree < 0 or degree > dim + 1:
            raise DegreeOutOfRange(f"degree {degree} outside 0..{dim + 1}")
        pairs = _listing(ctx, jset, degree)
    if classify:
        pairs = classify_md_pairs(ctx, pairs, jset=jset)
    return pairs


def classify_md_pairs(
    ctx: WeylGroupContext, pairs, *, jset=frozenset()
) -> list[MdPair]:
    """Tag each D_n pair with the quotient nodes {1, n-1, n} it pulls back from.

    Pairs from a proper quotient are first lifted to the flag: the Schubert
    side picks up the fiber class (u -> u w_{0J}), the opposite side is
    already a flag class.  Node 1 is recognized by the quadric criterion
    {v^J, u^J} = {w_alpha, w_beta}; the spinor nodes by the pullback tests
    on the corresponding quotients.
    """
    n = ctx.rank
    dist = dn_distinguished(ctx)  # raises NotTypeD off family D
    jset = frozenset(jset)
    w0j = longest_in_WJ(ctx, jset)
    quadric_j = frozenset(ctx.spec.nodes) - {1}
    middle = {dist.w_alpha, dist.w_beta}
    out = []
    for pair in pairs:
        u = ctx.multiply(pair.u, w0j)
        v = pair.v
        tags = set()
        if {decompose(ctx, v, quadric_j).up, decompose(ctx, u, quadric_j).up} == middle:
            tags.add(1)
        for r in (n - 1, n):
            jr = frozenset(ctx.spec.nodes) - {r}
            if is_schubert_pullback(ctx, u, jr) and is_opposite_pullback(ctx, v, jr):
                tags.add(r)
        out.append(replace(pair, tags=frozenset(tags)))
    return out


def _resolve_ed(side, *, budget: int, extended: bool) -> tuple[int, str]:
    """(ed value, display label) for a marked diagram or a user-supplied value."""
    if isinstance(side, int):
        return side, f"ed={side}"
    _parabolic_set(side)
    cf = closed_form_ed(side)
    if cf is not None:
        return cf, side.label()
    result = effective_divisibility(
        side, "brute_force", budget=budget, extended=extended
    )
    return result.value, side.label()


def morphism_constancy(
    source,
    target: MarkedDiagram,
    *,
    budget: int = DEFAULT_BUDGET,
    extended: bool = False,
) -> MorphismVerdict:
    """Decide constancy of morphisms source -> target from divisibility alone.

    "constant" when ed(source) > ed(target): pulled-back disjoint effective
    cycles would otherwise contradict the source's divisibility.  Anything
    else is "inconclusive" (never a claim that a nonconstant map exists).
    The proper-subdiagram rule is reported when it applies; in that case
    the ed comparison always lands on "constant" as well.
    """
    src_ed, src_label = _resolve_ed(source, budget=budget, extended=extended)
    tgt_ed, tgt_label = _resolve_ed(target, budget=budget, extended=extended)
    rule = (
        isinstance(source, MarkedDiagram)
        and isinstance(target, MarkedDiagram)
        and is_proper_subdiagram(target.spec, source.spec)
    )
    verdict = "constant" if src_ed > tgt_ed else "inconclusive"
    return MorphismVerdict(verdict, src_label, tgt_label, src_ed, tgt_ed, rule)
