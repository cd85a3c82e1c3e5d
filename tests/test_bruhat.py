"""Bruhat order: descent recursion vs subword scan, strata, quotients."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egd import (
    DynkinSpec,
    MarkedDiagram,
    WeylGroupContext,
    bruhat_leq,
    build_group,
    dn_distinguished,
    effective_divisibility,
    elements_of_length,
    get_context,
    group_order,
    longest_in_quotient,
    parabolic_order,
    quotient_dimension,
    quotient_elements_of_length,
    subword_oracle,
)
from egd.dynkin import bonds
from egd.errors import ContextMismatch, LengthOutOfRange, NonReducedInput


def all_elements(ctx):
    return [
        e
        for l in range(ctx.longest_element.length + 1)
        for e in elements_of_length(ctx, l)
    ]


def test_identity_below_everything():
    ctx = get_context(DynkinSpec("B", 3))
    for u in all_elements(ctx):
        assert bruhat_leq(ctx, ctx.identity, u)


def test_d4_violating_pair():
    ctx = get_context(DynkinSpec("D", 4))
    v = ctx.from_word([1, 2, 3])
    u = ctx.from_word([4, 2, 3, 1, 2, 4, 1, 2, 1])
    assert not bruhat_leq(ctx, v, u)
    assert not subword_oracle(ctx, (1, 2, 3), (4, 2, 3, 1, 2, 4, 1, 2, 1))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 4), ("D", 5)])
def test_simple_reflection_below_quotient_top(family, rank):
    spec = DynkinSpec(family, rank)
    ctx = get_context(spec)
    w0j = longest_in_quotient(ctx, frozenset(spec.nodes) - {1})
    assert bruhat_leq(ctx, ctx.simple_reflections[0], w0j)


def test_poset_axioms_exhaustive_a3():
    ctx = get_context(DynkinSpec("A", 3))
    elems = all_elements(ctx)
    leq = {(v, u): bruhat_leq(ctx, v, u) for v in elems for u in elems}
    for v in elems:
        assert leq[(v, v)]
    for v in elems:
        for u in elems:
            if leq[(v, u)] and leq[(u, v)]:
                assert v == u
            for w in elems:
                if leq[(v, u)] and leq[(u, w)]:
                    assert leq[(v, w)]


def test_antiautomorphism_exhaustive_a3():
    ctx = get_context(DynkinSpec("A", 3))
    elems = all_elements(ctx)
    w0 = ctx.longest_element
    for v in elems:
        for u in elems:
            assert bruhat_leq(ctx, v, u) == bruhat_leq(
                ctx, ctx.multiply(w0, u), ctx.multiply(w0, v)
            )


def test_oracle_agreement_a3_exhaustive():
    ctx = get_context(DynkinSpec("A", 3))
    elems = all_elements(ctx)
    for v in elems:
        for u in elems:
            assert bruhat_leq(ctx, v, u) == subword_oracle(ctx, v.word(), u.word())


def test_oracle_agreement_d4_sampled():
    ctx = get_context(DynkinSpec("D", 4))
    elems = all_elements(ctx)
    rng = random.Random(987654321)
    for _ in range(2000):
        v, u = rng.choice(elems), rng.choice(elems)
        assert bruhat_leq(ctx, v, u) == subword_oracle(ctx, v.word(), u.word())


# Every type A-G of rank at most 5 (E starts at rank 6).
SMALL_SPECS = [
    DynkinSpec(family, rank)
    for family, ranks in [
        ("A", range(1, 6)),
        ("B", range(2, 6)),
        ("C", range(2, 6)),
        ("D", range(4, 6)),
        ("F", [4]),
        ("G", [2]),
    ]
    for rank in ranks
]


@st.composite
def spec_and_words(draw):
    spec = draw(st.sampled_from(SMALL_SPECS))
    letter = st.integers(1, spec.rank)
    return spec, draw(st.lists(letter, max_size=8)), draw(st.lists(letter, max_size=12))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spec_and_words())
def test_recursion_matches_oracle_on_fresh_and_warm_contexts(case):
    spec, v_word, u_word = case
    fresh = build_group(spec)
    v, u = fresh.from_word(v_word), fresh.from_word(u_word)
    expected = subword_oracle(fresh, v.word(), u.word())
    assert bruhat_leq(fresh, v, u) == expected

    warm = get_context(spec)
    wv, wu = warm.from_word(v_word), warm.from_word(u_word)
    # fill the shared memo and left-product caches around the pair first
    near = [wv, wu] + [warm.left_multiply(i, x) for x in (wv, wu) for i in spec.nodes]
    for x, y in itertools.product(near, repeat=2):
        bruhat_leq(warm, x, y)
    assert bruhat_leq(warm, wv, wu) == expected

    with pytest.raises(ContextMismatch):
        bruhat_leq(warm, v, wu)
    with pytest.raises(ContextMismatch):
        bruhat_leq(fresh, v, wu)
    with pytest.raises(ContextMismatch):
        fresh.left_multiply(1, wv)


def test_sweep_computes_each_left_product_once(monkeypatch):
    import egd.engine

    monkeypatch.setattr(egd.engine, "_context_cache", {})
    md = MarkedDiagram.parse("D5", "all")
    get_context(md.spec)  # fresh context; its construction is not counted
    products = Counter()
    pairs = Counter()
    multiply = WeylGroupContext.multiply
    leq = egd.engine.bruhat_leq

    def counting(self, x, y):
        if x.length == 1:  # x is a simple reflection: a left product s_i * y
            products[x, y] += 1
        return multiply(self, x, y)

    def counting_leq(ctx, v, u):
        pairs[v, u] += 1
        return leq(ctx, v, u)

    monkeypatch.setattr(WeylGroupContext, "multiply", counting)
    # the engine's module global, the name the sweep (and a tracer) goes through
    monkeypatch.setattr(egd.engine, "bruhat_leq", counting_leq)
    result = effective_divisibility(md, "brute_force")
    assert result.value == 7
    assert len(products) > 1000
    assert max(products.values()) == 1
    # one pass: the failing degree is swept once, its pairs are the witness list
    assert len(pairs) > 0
    assert max(pairs.values()) == 1

    pairs.clear()
    listing = egd.engine.md_pairs(md)
    assert listing and listing[0] == result.witness
    assert len(pairs) > 0
    assert max(pairs.values()) == 1


def test_subword_oracle_examples():
    a2 = get_context(DynkinSpec("A", 2))
    assert subword_oracle(a2, (), (2, 1))
    assert not subword_oracle(a2, (1, 2), (2, 1))
    d4 = get_context(DynkinSpec("D", 4))
    assert subword_oracle(d4, (2,), (4, 2, 3, 1, 2, 4, 1, 2, 1))
    with pytest.raises(NonReducedInput):
        subword_oracle(a2, (1,), (1, 1))


def test_subword_oracle_accepts_non_reduced_v():
    a2 = get_context(DynkinSpec("A", 2))
    # v-word [1,1,2] evaluates to s2, which is a subword of [2,1]
    assert subword_oracle(a2, (1, 1, 2), (2, 1))


# -- strata --------------------------------------------------------------------


def test_elements_of_length_basics():
    ctx = get_context(DynkinSpec("D", 4))
    assert elements_of_length(ctx, 0) == [ctx.identity]
    assert set(elements_of_length(ctx, 1)) == set(ctx.simple_reflections)
    assert elements_of_length(ctx, 12) == [ctx.longest_element]
    with pytest.raises(LengthOutOfRange):
        elements_of_length(ctx, 13)
    with pytest.raises(LengthOutOfRange):
        elements_of_length(ctx, -1)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_strata_palindromic_and_complete(family, rank):
    spec = DynkinSpec(family, rank)
    ctx = get_context(spec)
    top = ctx.longest_element.length
    sizes = [len(elements_of_length(ctx, l)) for l in range(top + 1)]
    assert sizes == sizes[::-1]
    assert sum(sizes) == group_order(spec)


def test_quotient_empty_set_matches_full_group():
    ctx = get_context(DynkinSpec("B", 3))
    for l in range(10):
        assert quotient_elements_of_length(ctx, frozenset(), l) == elements_of_length(ctx, l)


def test_d4_quadric_quotient_shape():
    ctx = get_context(DynkinSpec("D", 4))
    jset = frozenset({2, 3, 4})
    sizes = [
        len(quotient_elements_of_length(ctx, jset, l))
        for l in range(quotient_dimension(ctx, jset) + 1)
    ]
    assert sizes == [1, 1, 1, 2, 1, 1, 1]
    dist = dn_distinguished(ctx)
    assert set(quotient_elements_of_length(ctx, jset, 3)) == {dist.w_alpha, dist.w_beta}


def test_d4_spinor_quotient_size():
    ctx = get_context(DynkinSpec("D", 4))
    jset = frozenset({1, 2, 3})
    total = sum(
        len(quotient_elements_of_length(ctx, jset, l))
        for l in range(quotient_dimension(ctx, jset) + 1)
    )
    assert total == 8


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_quotient_strata_counts_every_parabolic(family, rank):
    import itertools

    spec = DynkinSpec(family, rank)
    ctx = get_context(spec)
    for k in range(rank + 1):
        for jset in itertools.combinations(spec.nodes, k):
            jset = frozenset(jset)
            dim = quotient_dimension(ctx, jset)
            sizes = [
                len(quotient_elements_of_length(ctx, jset, l)) for l in range(dim + 1)
            ]
            assert sum(sizes) == group_order(spec) // parabolic_order(spec, jset)
            assert sizes[-1] == 1  # the unique maximal element w_0^J
            top = quotient_elements_of_length(ctx, jset, dim)[0]
            assert top == longest_in_quotient(ctx, jset)


def test_quotient_degenerate_full_parabolic():
    ctx = get_context(DynkinSpec("A", 3))
    jset = frozenset({1, 2, 3})
    assert quotient_dimension(ctx, jset) == 0
    assert quotient_elements_of_length(ctx, jset, 0) == [ctx.identity]
    with pytest.raises(LengthOutOfRange):
        quotient_elements_of_length(ctx, jset, 1)


def _component_degrees(spec, comp):
    """Degrees of the irreducible Weyl group on a connected node set, by shape."""
    k = len(comp)
    inner = [(i, j, m) for i, j, m in bonds(spec) if i in comp and j in comp]
    if any(m == 6 for *_, m in inner):
        return [2, 6]
    if any(m == 4 for *_, m in inner):
        return [2, 6, 8, 12] if spec.family == "F" and k == 4 else [2 * i for i in range(1, k + 1)]
    valence = Counter(v for i, j, _ in inner for v in (i, j))
    if 3 in valence.values():  # the D fork; no E subdiagram is covered here
        return [2 * i for i in range(1, k)] + [k]
    return list(range(2, k + 2))


def _poincare(spec, nodes):
    """Product of [d]_q = 1 + q + ... + q^(d-1) over the degrees of W_nodes."""
    adj = {v: set() for v in nodes}
    for i, j, _ in bonds(spec):
        if i in adj and j in adj:
            adj[i].add(j)
            adj[j].add(i)
    poly, todo = [1], set(nodes)
    while todo:
        comp, queue = set(), [min(todo)]
        while queue:
            v = queue.pop()
            if v not in comp:
                comp.add(v)
                queue.extend(adj[v])
        todo -= comp
        for d in _component_degrees(spec, comp):
            poly = [sum(poly[max(0, k - d + 1) : k + 1]) for k in range(len(poly) + d - 1)]
    return poly


def _divide(num, den):
    """Exact quotient of integer polynomials, den having constant term 1."""
    num, out = list(num), []
    for k in range(len(num) - len(den) + 1):
        out.append(num[k])
        for j, c in enumerate(den):
            num[k + j] -= out[k] * c
    assert not any(num)
    return out


@pytest.mark.parametrize("diagram", ["A4", "B4", "D5", "F4", "G2"])
def test_quotient_strata_match_poincare_polynomial(diagram):
    spec = DynkinSpec.parse(diagram)
    ctx = get_context(spec)
    full = _poincare(spec, spec.nodes)
    assert sum(full) == group_order(spec)
    for k in range(spec.rank + 1):
        for jset in map(frozenset, itertools.combinations(spec.nodes, k)):
            expected = _divide(full, _poincare(spec, jset))
            sizes = [
                len(quotient_elements_of_length(ctx, jset, l))
                for l in range(quotient_dimension(ctx, jset) + 1)
            ]
            assert sizes == expected, sorted(jset)
