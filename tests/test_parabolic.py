"""Parabolic decomposition, Stumbo expressions, type-D distinguished elements."""

import itertools
import random

import pytest

from egd import (
    DynkinSpec,
    bruhat_leq,
    codims,
    decompose,
    dn_distinguished,
    elements_of_length,
    get_context,
    is_opposite_pullback,
    is_schubert_pullback,
    longest_in_WJ,
    longest_in_quotient,
    quotient_dimension,
    quotient_elements_of_length,
    spinor_coset_words,
    stumbo_word,
)
from egd.dynkin import dimension, num_positive_roots
from egd.engine import decomposition
from egd.errors import EgdError, NotClassical, NotTypeD
from egd.parabolic import spinor_sequences, spinor_word


def in_quotient(ctx, x, jset):
    return all(x.perm[j - 1] > 0 for j in jset)


def in_parabolic(ctx, x, jset):
    return set(ctx.canonical_word(x)) <= set(jset)


def test_decompose_of_parabolic_element_is_trivial():
    ctx = get_context(DynkinSpec("B", 3))
    jset = frozenset({1, 2})
    for w in (ctx.from_word([1, 2, 1]), ctx.from_word([2]), ctx.identity):
        dec = decompose(ctx, w, jset)
        assert dec.up is ctx.identity
        assert dec.down == w


def test_decompose_longest_element():
    for spec in [DynkinSpec("A", 3), DynkinSpec("B", 3), DynkinSpec("D", 4)]:
        ctx = get_context(spec)
        for k in range(spec.rank + 1):
            for jset in itertools.combinations(spec.nodes, k):
                dec = decompose(ctx, ctx.longest_element, jset)
                assert dec.up == longest_in_quotient(ctx, jset)
                assert dec.down == longest_in_WJ(ctx, jset)


def test_decompose_d5_example():
    ctx = get_context(DynkinSpec("D", 5))
    u = ctx.from_word([4, 3, 5, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 1, 2, 1])
    dec = decompose(ctx, u, {2, 3, 4, 5})
    assert dec.up == ctx.from_word([2, 3, 5, 4, 3, 2, 1])
    # the strip sequence is the published session output; read right to
    # left it is a reduced word for the W_J factor
    assert dec.strip == (2, 3, 2, 5, 3, 2, 4, 3, 5)
    assert dec.down == ctx.from_word(tuple(reversed(dec.strip)))
    assert ctx.multiply(dec.up, dec.down) == u
    assert dec.up.length == 7 and dec.down.length == 9


@pytest.mark.parametrize(
    "diagram", ["A1", "A6", "B4", "C3", "D5", "G2", "F4", "E6", "E7", "E8"]
)
def test_weight_decomposition_matches_permutations(diagram):
    # `egd decompose` peels w^J off w(lambda_R) and w_J off (w^J)^-1 w(rho),
    # then reads the codimensions off the degree table: rederive both words
    # and all three codimensions on root permutations, for random words
    # (mostly not reduced) and J empty, full and random
    spec = DynkinSpec.parse(diagram)
    ctx = get_context(spec)
    rng = random.Random(diagram)
    n, roots = spec.rank, num_positive_roots(spec)
    for _ in range(30):
        word = [rng.randint(1, n) for _ in range(rng.randint(0, 2 * roots))]
        w = ctx.from_word(word)
        random_j = frozenset(j for j in spec.nodes if rng.random() < 0.5)
        for jset in (frozenset(), frozenset(spec.nodes), random_j):
            up, down = decomposition(spec, ",".join(map(str, word)), jset)
            dec = decompose(ctx, w, jset)
            words = ctx.canonical_word(dec.up), ctx.canonical_word(dec.down)
            assert (up, down) == words, (word, sorted(jset))
            cd = codims(ctx, w, jset, dec)
            assert (
                dimension(spec, jset) - len(up),
                num_positive_roots(spec, jset) - len(down),
                roots - len(up) - len(down),
            ) == cd, (word, sorted(jset))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_decomposition_invariants_exhaustive(family, rank):
    spec = DynkinSpec(family, rank)
    ctx = get_context(spec)
    elems = [
        e
        for l in range(ctx.longest_element.length + 1)
        for e in elements_of_length(ctx, l)
    ]
    for k in range(rank + 1):
        for jset in itertools.combinations(spec.nodes, k):
            jset = frozenset(jset)
            for w in elems:
                dec = decompose(ctx, w, jset)
                assert ctx.multiply(dec.up, dec.down) == w
                assert dec.up.length + dec.down.length == w.length
                assert in_quotient(ctx, dec.up, jset)
                assert in_parabolic(ctx, dec.down, jset)
                cd = codims(ctx, w, jset)
                assert cd.c_total == cd.cJ_up + cd.cJ_down


def test_longest_in_WJ():
    ctx = get_context(DynkinSpec("D", 4))
    assert longest_in_WJ(ctx, frozenset()) is ctx.identity
    assert longest_in_WJ(ctx, frozenset({1, 2, 3, 4})) is ctx.longest_element
    assert longest_in_WJ(ctx, frozenset({2, 3, 4})).length == 6


def test_longest_in_quotient_examples():
    b3 = get_context(DynkinSpec("B", 3))
    w = longest_in_quotient(b3, frozenset({2, 3}))
    assert w == b3.from_word([1, 2, 3, 2, 1])
    assert w.length == 5
    d4 = get_context(DynkinSpec("D", 4))
    w = longest_in_quotient(d4, frozenset({2, 3, 4}))
    assert w == d4.from_word([1, 2, 4, 3, 2, 1]) == d4.from_word([1, 2, 3, 4, 2, 1])
    assert w.length == 6
    assert longest_in_quotient(d4, frozenset()) is d4.longest_element


# -- Stumbo expressions ---------------------------------------------------------


def test_stumbo_words():
    assert stumbo_word(DynkinSpec("A", 3)) == (3, 2, 1)
    assert stumbo_word(DynkinSpec("B", 3)) == (1, 2, 3, 2, 1)
    assert stumbo_word(DynkinSpec("D", 5)) == (1, 2, 3, 5, 4, 3, 2, 1)
    with pytest.raises(NotClassical):
        stumbo_word(DynkinSpec("F", 4))


@pytest.mark.parametrize(
    "family,ranks",
    [("A", range(1, 7)), ("B", range(2, 7)), ("C", range(2, 7)), ("D", range(4, 7))],
)
def test_stumbo_evaluates_to_quotient_top(family, ranks):
    for n in ranks:
        spec = DynkinSpec(family, n)
        ctx = get_context(spec)
        word = stumbo_word(spec)
        elem = ctx.from_word(word)
        assert elem.length == len(word)
        assert elem == longest_in_quotient(ctx, frozenset(spec.nodes) - {1})
        cox = ctx.coxeter_number()
        assert elem.length == (cox if family == "D" else cox - 1)


@pytest.mark.parametrize("family,rank", [("B", 3), ("B", 4), ("D", 4), ("D", 5)])
def test_short_elements_below_quotient_top(family, rank):
    spec = DynkinSpec(family, rank)
    ctx = get_context(spec)
    word = stumbo_word(spec)
    top = ctx.from_word(word)
    tail = ctx.from_word(word[1:])
    s1s2 = ctx.from_word([1, 2])
    for v in elements_of_length(ctx, 1):
        assert bruhat_leq(ctx, v, top)
    for v in elements_of_length(ctx, 2):
        assert bruhat_leq(ctx, v, top)
        assert bruhat_leq(ctx, v, tail) == (v != s1s2)


# -- type D distinguished elements ----------------------------------------------


def test_dn_distinguished_requires_type_d():
    with pytest.raises(NotTypeD):
        dn_distinguished(get_context(DynkinSpec("B", 4)))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_dn_distinguished_lengths_and_inverses(n):
    ctx = get_context(DynkinSpec("D", n))
    dist = dn_distinguished(ctx)
    assert dist.w_alpha.length == dist.w_beta.length == n - 1
    assert ctx.inverse(dist.w_alpha) == dist.theta_alpha
    assert ctx.inverse(dist.w_beta) == dist.theta_beta
    assert dist.sigma_beta.length == (n - 1) * (n - 2) // 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sigma_beta_identity(n):
    ctx = get_context(DynkinSpec("D", n))
    dist = dn_distinguished(ctx)
    w0i = longest_in_quotient(ctx, frozenset(range(1, n)))
    theta = dist.theta_beta if n % 2 == 0 else dist.theta_alpha
    assert ctx.multiply(theta, w0i) == dist.sigma_beta


def test_sigma_beta_d5_word():
    ctx = get_context(DynkinSpec("D", 5))
    dist = dn_distinguished(ctx)
    assert dist.sigma_beta == ctx.from_word([5, 3, 4, 2, 3, 5])
    assert in_quotient(ctx, dist.sigma_beta, frozenset({1, 2, 3, 4}))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_longest_element_parity_conjugation(n):
    ctx = get_context(DynkinSpec("D", n))
    dist = dn_distinguished(ctx)
    w0 = ctx.longest_element
    expected = dist.w_alpha if n % 2 == 0 else dist.w_beta
    assert ctx.multiply(w0, dist.w_alpha) == ctx.multiply(expected, w0)


# -- spinor parametrization ------------------------------------------------------


def test_spinor_sequences_shape():
    seqs = spinor_sequences(4)
    assert len(seqs) == 8
    assert (0, 0, 0) in seqs and (1, 2, 3) in seqs
    for seq in seqs:
        nz = [x for x in seq if x]
        assert nz == sorted(set(nz)) and all(x <= 3 for x in nz)


def test_spinor_special_sequences():
    ctx = get_context(DynkinSpec("D", 5))
    dist = dn_distinguished(ctx)
    assert ctx.from_word(spinor_word(5, (0, 0, 0, 0))) is ctx.identity
    assert ctx.from_word(spinor_word(5, (0, 0, 0, 4))) == dist.theta_beta
    top = ctx.from_word(spinor_word(5, (1, 2, 3, 4)))
    assert top == longest_in_quotient(ctx, frozenset({1, 2, 3, 4}))


@pytest.mark.parametrize("n", [4, 5])
def test_spinor_words_biject_onto_quotient(n):
    ctx = get_context(DynkinSpec("D", n))
    iset = frozenset(range(1, n))
    pairs = spinor_coset_words(ctx)
    assert len(pairs) == 2 ** (n - 1)
    elems = set()
    for seq, word in pairs:
        elem = ctx.from_word(word)
        assert elem.length == len(word) == sum(seq)
        elems.add(elem)
    bfs = set()
    for l in range(quotient_dimension(ctx, iset) + 1):
        bfs.update(quotient_elements_of_length(ctx, iset, l))
    assert elems == bfs


def test_spinor_words_require_type_d():
    with pytest.raises(NotTypeD):
        spinor_coset_words(get_context(DynkinSpec("A", 4)))


# -- pullback tests ---------------------------------------------------------------


def test_pullback_edge_cases():
    ctx = get_context(DynkinSpec("D", 4))
    jset = frozenset({2, 3, 4})
    assert is_schubert_pullback(ctx, ctx.longest_element, jset)
    assert not is_schubert_pullback(ctx, ctx.identity, jset)
    assert is_opposite_pullback(ctx, ctx.identity, jset)
    assert not is_opposite_pullback(ctx, ctx.simple_reflections[1], jset)


@pytest.mark.parametrize("text", ["A3", "B3", "D4", "G2", "F4"])
def test_pullbacks_match_decompose_exhaustive(text):
    # right-descent tests against the definitions: u_J = w_{0J} and u_J = e
    spec = DynkinSpec.parse(text)
    ctx = get_context(spec)
    elems = [e for l in range(ctx.num_positive_roots + 1) for e in elements_of_length(ctx, l)]
    for k in range(spec.rank + 1):
        for jset in map(frozenset, itertools.combinations(spec.nodes, k)):
            w0j = longest_in_WJ(ctx, jset)
            for u in elems:
                down = decompose(ctx, u, jset).down
                assert is_schubert_pullback(ctx, u, jset) == (down is w0j)
                assert is_opposite_pullback(ctx, u, jset) == (down.length == 0)


@pytest.mark.parametrize("node", [0, 4])
def test_nodes_outside_diagram_raise(node):
    # node 0 once sent decompose round s_3 forever: perm[-1] is the top root
    ctx = get_context(DynkinSpec("A", 3))
    for check in (decompose, is_schubert_pullback, is_opposite_pullback):
        with pytest.raises(EgdError, match=rf"nodes \[{node}\] outside diagram A3"):
            check(ctx, ctx.longest_element, {1, node})
    with pytest.raises(EgdError):
        longest_in_WJ(ctx, {node})


def test_pullback_d4_pair_three():
    ctx = get_context(DynkinSpec("D", 4))
    jset = frozenset({2, 3, 4})
    assert is_schubert_pullback(ctx, ctx.from_word([4, 2, 3, 1, 2, 4, 2, 3, 2]), jset)
    assert is_opposite_pullback(ctx, ctx.from_word([3, 2, 1]), jset)
