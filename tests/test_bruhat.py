"""Bruhat order: descent recursion vs subword scan, strata, quotients."""

import itertools
import os
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
    codims,
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
from egd.bruhat import coset_order, orbits, quotient_cosets, quotient_stratum
from egd.dynkin import bonds, num_positive_roots, quotient_size, stratum_size
from egd.engine import stratum as stratum_words
from egd.errors import ContextMismatch, LengthOutOfRange, NonReducedInput

EXTENDED = bool(os.environ.get("EGD_EXTENDED"))


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
    import egd.bruhat
    import egd.engine

    monkeypatch.setattr(egd.engine, "_context_cache", {})
    md = MarkedDiagram.parse("D5", "all")
    ctx = get_context(md.spec)  # fresh context; its construction is not counted
    calls = Counter()  # "multiply" -> products, "from_word" -> elements built
    tests = Counter()  # (degree, coset row of v, marked node) -> up-set tests
    sweeps = Counter()  # degree -> sweeps
    multiply, from_word = WeylGroupContext.multiply, WeylGroupContext.from_word
    sweep, misses = egd.engine._sweep_degree, egd.bruhat._misses
    degree = [None]

    def counting_multiply(self, x, y):
        calls["multiply"] += 1
        return multiply(self, x, y)

    def counting_from_word(self, word):
        calls["from_word"] += 1
        return from_word(self, word)

    def counting_sweep(ctx, jset, s):
        sweeps[s] += 1
        degree[0] = s
        return sweep(ctx, jset, s)

    def counting_misses(row, masks, ups):
        # a coset row determines its element of W^J (Deodhar's criterion)
        for k in range(len(row)):
            tests[degree[0], row, k] += 1
        return misses(row, masks, ups)

    monkeypatch.setattr(WeylGroupContext, "multiply", counting_multiply)
    monkeypatch.setattr(WeylGroupContext, "from_word", counting_from_word)
    # the module globals the sweep goes through: the engine's loop and the
    # comparison method's per-v test in bruhat
    monkeypatch.setattr(egd.engine, "_sweep_degree", counting_sweep)
    monkeypatch.setattr(egd.bruhat, "_misses", counting_misses)
    result = effective_divisibility(md, "brute_force")
    assert result.value == 7
    # strata grow on weights and pairs are decided on coset rows: no product
    # is taken, and only the v and u of violating pairs are built
    ed_calls = calls.copy()
    assert ed_calls["multiply"] == 0
    # one pass: each degree 1..8 is swept once, the failing degree 8 included,
    # and its pairs are the witness list
    assert sweeps == Counter(range(1, 9))
    assert max(tests.values()) == 1
    # every v of every bucket is tested once against each of the 5 marked nodes
    dim = quotient_dimension(ctx, frozenset())
    for s in range(1, 9):
        buckets = range(max(1, s - dim), s // 2 + 1)
        size = sum(len(elements_of_length(ctx, l)) for l in buckets)
        assert sum(n for (d, _, _), n in tests.items() if d == s) == 5 * size

    calls.clear()
    tests.clear()
    sweeps.clear()
    listing = egd.engine.md_pairs(md)
    assert listing and listing[0] == result.witness
    assert calls["multiply"] == 0
    # the pairs hold words peeled off the weights: no element is built
    assert ed_calls["from_word"] == 0
    assert sweeps == Counter(range(1, 9))
    assert len(tests) > 0
    assert max(tests.values()) == 1


@pytest.mark.parametrize(
    "diagram", ["A3", "A4", "A5", "B3", "B4", "C4", "D4", "D5", "F4", "G2", "E6"]
)
def test_coset_orders_match_recursion(diagram):
    # second derivation of the sweep's comparisons: the up-set bitsets of
    # every maximal quotient W^{S - {i}} against the descent recursion.  The
    # order numbers its cosets by the strata store of W^{S - {i}} read top
    # down, so the coset rows of a stratum are its consecutive ids
    spec = DynkinSpec.parse(diagram)
    ctx = get_context(spec)
    for i in spec.nodes:
        jset = frozenset(spec.nodes) - {i}
        order = coset_order(ctx, i)
        elems, cosets = [], []
        first = order.size
        for l in range(quotient_dimension(ctx, jset) + 1):
            elems += quotient_stratum(ctx, jset, l)
            level = [c for (c,) in quotient_cosets(ctx, jset, l)]
            first -= len(level)
            assert level == list(range(first, first + len(level))), (i, l)
            cosets += level
        assert first == 0
        assert order.size == len(elems) == quotient_size(spec, jset)
        assert cosets[0] == order.size - 1  # the identity coset comes last
        for v, a in zip(elems, cosets):
            up = order.up[a]
            for u, b in zip(elems, cosets):
                assert bruhat_leq(ctx, v, u) == bool(up >> b & 1), (i, v, u)


@pytest.mark.parametrize(
    "diagram,flag",
    [("A1", 1), ("A2", 1), ("A3", 1), ("A4", 1), ("A5", 0), ("B2", 1), ("B3", 1), ("B4", 1),
     ("C3", 1), ("D4", 1), ("D5", 0), ("G2", 1), ("F4", 0), ("E6", 0)],
)
def test_lifting_matches_recursion_on_whole_strata(diagram, flag):
    # the pair-by-pair comparisons against the descent recursion, for every
    # (l(v), l(u)) of every maximal quotient up to 300 cosets and of a few
    # flags: l(v) = 0, l(v) >= l(u) and l(v) > dim/2 included, which the
    # halved sweep never asks for
    spec = DynkinSpec.parse(diagram)
    ctx = get_context(spec)
    nodes = frozenset(spec.nodes)
    jsets = [nodes - {i} for i in spec.nodes] + [frozenset()] * flag
    checked = 0
    for jset in jsets:
        if quotient_size(spec, jset) > 750:
            continue
        store = orbits(spec).store(jset, 0)
        strata = [quotient_stratum(ctx, jset, l) for l in range(store.dim + 1)]
        for (len_v, vs), (len_u, us) in itertools.product(enumerate(strata), repeat=2):
            expected = [
                (k_v, hit) for k_v, v in enumerate(vs)
                if (hit := [k_u for k_u, u in enumerate(us) if not bruhat_leq(ctx, v, u)])
            ]
            assert list(store.lifting(len_v, len_u)) == expected, (jset, len_v, len_u)
            checked += 1
    assert checked > 0


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
    # one length check for W and every W^J, with the message of `egd strata`
    with pytest.raises(
        LengthOutOfRange, match=r"^no stratum of length 13; W\^J has lengths 0\.\.12$"
    ):
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
            assert [stratum_size(spec, jset, l) for l in range(len(sizes))] == sizes


@pytest.mark.parametrize(
    "diagram", ["A7", "B6", "C5", "D7", "E6", "E7", "E8", "F4", "G2"]
)
def test_quotient_dimension_matches_longest_elements(diagram):
    # the degree table against l(w_0) - l(w_{0J}) read off built root permutations
    spec = DynkinSpec.parse(diagram)
    ctx = get_context(spec)
    for k in range(spec.rank + 1):
        for jset in map(frozenset, itertools.combinations(spec.nodes, k)):
            w0j = ctx.longest_in_parabolic(jset)
            assert num_positive_roots(spec, jset) == w0j.length, sorted(jset)
            assert quotient_dimension(ctx, jset) == ctx.longest_element.length - w0j.length


def _orbit_level_sizes(diagram, cap=None):
    # level sizes of the weight-orbit strata store, grown without building elements
    spec = DynkinSpec.parse(diagram)
    ctx = build_group(spec)
    interned = len(ctx._intern)
    for k in range(spec.rank + 1):
        for jset in map(frozenset, itertools.combinations(spec.nodes, k)):
            if cap is None or quotient_size(spec, jset) <= cap:
                dim = quotient_dimension(ctx, jset)
                store = orbits(spec).store(jset, dim // 2)
                yield spec, jset, [len(store.weights[min(l, dim - l)]) for l in range(dim + 1)]
    assert len(ctx._intern) == interned


@pytest.mark.parametrize("diagram", ["A4", "B4", "C4", "D5", "F4", "G2", "E6"])
def test_stratum_size_matches_orbit_store(diagram):
    for spec, jset, sizes in _orbit_level_sizes(diagram):
        counted = [stratum_size(spec, jset, l) for l in range(-1, len(sizes) + 1)]
        assert counted == [0] + sizes + [0], sorted(jset)


@pytest.mark.skipif(not EXTENDED, reason="E7 quotients up to 10^5 cosets: EGD_EXTENDED=1")
def test_stratum_size_matches_e7_orbit_store_extended():
    checked = 0
    for spec, jset, sizes in _orbit_level_sizes("E7", cap=10**5):
        assert [stratum_size(spec, jset, l) for l in range(len(sizes))] == sizes, sorted(jset)
        checked += 1
    assert checked == 50


def test_parabolic_order_of_e_subdiagrams():
    e7, e8 = DynkinSpec("E", 7), DynkinSpec("E", 8)
    nodes = frozenset(e8.nodes)
    assert parabolic_order(e8, nodes - {8}) == group_order(e7) == 2903040
    assert parabolic_order(e8, nodes - {7}) == 51840 * 2  # E6 x A1
    assert parabolic_order(e8, nodes - {1}) == 2**6 * 5040  # D7
    assert parabolic_order(e8, nodes - {6}) == 2**4 * 120 * 6  # D5 x A2
    assert parabolic_order(e7, frozenset(e7.nodes) - {1}) == 2**5 * 720  # D6


def test_dimensions_counted_not_built():
    # quotient_dimension and codims read dimensions off the degrees: a fresh
    # context interns no element for them
    spec = DynkinSpec("E", 8)
    ctx = build_group(spec)
    interned = len(ctx._intern)
    dims = {}
    for i in spec.nodes:
        jset = frozenset(spec.nodes) - {i}
        dims[i] = quotient_dimension(ctx, jset)
        cd = codims(ctx, ctx.identity, jset)
        assert (cd.cJ_up, cd.cJ_down, cd.c_total) == (dims[i], 120 - dims[i], 120)
    assert len(ctx._intern) == interned
    assert dims[1] == 78 and dims[8] == 57  # E8/P_1 and E8/P_8


@pytest.mark.parametrize("diagram,parabolic", [("D4", "2,3,4"), ("E6", "2,3,4,5,6"), ("B3", "1")])
def test_quotient_stratum_builds_top_only_to_walk_down(diagram, parabolic):
    # strata up to dim/2 are walked up from the identity: w_0 w_{0J} is
    # built, and w_{0J} interned, only for a stratum above dim/2
    spec = DynkinSpec.parse(diagram)
    jset = spec.parse_nodes(parabolic)
    ctx = build_group(spec)
    dim = quotient_dimension(ctx, jset)
    for l in range(dim // 2 + 1):
        quotient_stratum(ctx, jset, l)
    assert jset not in ctx._longest_parabolic
    quotient_stratum(ctx, jset, dim // 2 + 1)
    assert jset in ctx._longest_parabolic


@pytest.mark.parametrize(
    "diagram,sets",
    [("A4", 16), ("B4", 16), ("C4", 16), ("D5", 32), ("F4", 16), ("G2", 4),
     ("E6", 64 if EXTENDED else 27)],
)
def test_orbit_strata_rederived_from_perms(diagram, sets):
    # second derivation of the weight-orbit strata: each element is one left
    # product from its record and its canonical word is peeled off its
    # weight, so recompute the word, the length and the right descents from
    # the root permutation instead.  Tier-1 skips the E6 quotients over 2,200
    # elements (about 13 s in all); EGD_EXTENDED=1 runs every J
    spec = DynkinSpec.parse(diagram)
    ctx = build_group(spec)  # fresh: every element is built by the strata
    checked = 0
    for k in range(spec.rank + 1):
        for jset in map(frozenset, itertools.combinations(spec.nodes, k)):
            if not EXTENDED and quotient_size(spec, jset) > 2200:
                continue
            checked += 1
            for l in range(quotient_dimension(ctx, jset) + 1):
                stratum = quotient_stratum(ctx, jset, l)
                store = orbits(spec).store(jset, l)
                assert len(set(stratum)) == len(stratum), (sorted(jset), l)
                for i, x in enumerate(stratum):
                    assert store.word(l, i) == ctx.canonical_word(x), (sorted(jset), l)
                    assert x.length == l
                    assert not ctx.descents(x) & jset
                # `egd strata` lists the sorted words of the store alone
                listed = [ctx.canonical_word(x) for x in quotient_elements_of_length(ctx, jset, l)]
                assert stratum_words(spec, jset, l) == listed, (sorted(jset), l)
    assert checked == sets
