"""Core group tests: construction, multiplication, lengths, words, Coxeter numbers."""

import random

import pytest
from hypothesis import given, settings

from egd import (
    DynkinSpec,
    build_group,
    decompose,
    elements_of_length,
    get_context,
    group_order,
    parse_word,
    format_word,
)
from egd.dynkin import (
    _RANK_BOUNDS,
    cartan_matrix,
    cartan_rows,
    degrees,
    num_positive_roots,
    opposition,
)
from egd.errors import BadLetter, ContextMismatch, InvalidRank
from test_bruhat import spec_and_words


# -- independent oracles ------------------------------------------------------


def closure_root_count(cartan):
    """Count positive roots by closing the simple roots under all reflections.

    Standalone: works on a raw Cartan matrix given as literal rows.
    """
    n = len(cartan)
    simple = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        vec = queue.pop()
        for j in range(n):
            pairing = sum(c * cartan[i][j] for i, c in enumerate(vec))
            img = vec[:j] + (vec[j] - pairing,) + vec[j + 1 :]
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return sum(1 for r in seen if all(c >= 0 for c in r))


def even_signed_group(n):
    """The group of signed permutations of 1..n with an even number of sign
    flips, generated matrix-free; returns {element: word length} by BFS.

    Generators: g_i swaps slots i, i+1 (i < n); g_n swaps slots n-1, n and
    flips both signs.  This is a standalone model of the D_n Weyl group.
    """
    idem = tuple(range(1, n + 1))

    def gen(word_pos, elem):
        out = list(elem)
        if word_pos < n:
            out[word_pos - 1], out[word_pos] = out[word_pos], out[word_pos - 1]
        else:
            out[n - 2], out[n - 1] = -out[n - 1], -out[n - 2]
        return tuple(out)

    dist = {idem: 0}
    frontier = [idem]
    while frontier:
        nxt = []
        for elem in frontier:
            for i in range(1, n + 1):
                img = gen(i, elem)
                if img not in dist:
                    dist[img] = dist[elem] + 1
                    nxt.append(img)
        frontier = nxt
    return dist


# -- construction -------------------------------------------------------------


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3)],
)
def test_rank_bounds(family, rank):
    with pytest.raises(InvalidRank):
        DynkinSpec(family, rank)


def test_a1_context():
    ctx = get_context(DynkinSpec("A", 1))
    assert ctx.num_positive_roots == 1
    assert len(elements_of_length(ctx, 0)) + len(elements_of_length(ctx, 1)) == 2


def test_d4_context_against_signed_permutation_model():
    dist = even_signed_group(4)
    assert len(dist) == 192
    assert max(dist.values()) == 12
    ctx = get_context(DynkinSpec("D", 4))
    assert ctx.num_positive_roots == 12
    assert ctx.longest_element.length == 12
    total = sum(len(elements_of_length(ctx, l)) for l in range(13))
    assert total == 192


def test_f4_roots_against_closure_oracle():
    f4_cartan = (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )
    assert closure_root_count(f4_cartan) == 24
    ctx = get_context(DynkinSpec("F", 4))
    assert ctx.num_positive_roots == 24


@pytest.mark.parametrize(
    "family,rank,roots",
    [("A", 5, 15), ("B", 5, 25), ("C", 5, 25), ("D", 6, 30), ("E", 6, 36), ("E", 7, 63), ("E", 8, 120), ("G", 2, 6)],
)
def test_positive_root_counts(family, rank, roots):
    ctx = get_context(DynkinSpec(family, rank))
    assert ctx.num_positive_roots == roots
    assert ctx.longest_element.length == roots


def test_group_order_matches_bfs():
    for spec in [DynkinSpec("A", 3), DynkinSpec("B", 3), DynkinSpec("D", 4), DynkinSpec("G", 2)]:
        ctx = get_context(spec)
        total = sum(
            len(elements_of_length(ctx, l))
            for l in range(ctx.longest_element.length + 1)
        )
        assert total == group_order(spec)


# -- multiplication and words -------------------------------------------------


def test_generators_are_involutions():
    ctx = get_context(DynkinSpec("B", 3))
    for s in ctx.simple_reflections:
        assert ctx.multiply(s, s) is ctx.identity


def test_braid_relation_a2():
    ctx = get_context(DynkinSpec("A", 2))
    assert ctx.from_word([1, 2, 1]) == ctx.from_word([2, 1, 2])


def test_d4_longest_element_is_involution():
    ctx = get_context(DynkinSpec("D", 4))
    w0 = ctx.longest_element
    assert ctx.multiply(w0, w0) is ctx.identity


def test_context_mismatch():
    a2 = get_context(DynkinSpec("A", 2))
    b2 = get_context(DynkinSpec("B", 2))
    with pytest.raises(ContextMismatch):
        a2.multiply(a2.identity, b2.identity)


def test_inverse_and_descents_refuse_bad_input():
    a2 = get_context(DynkinSpec("A", 2))
    b2 = get_context(DynkinSpec("B", 2))
    with pytest.raises(ContextMismatch):
        a2.inverse(b2.identity)
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'up'"):
        a2.descents(a2.identity, "up")


def test_element_repr_and_comparisons():
    a2 = get_context(DynkinSpec("A", 2))
    x = a2.from_word([1, 2])
    s1, s2 = a2.simple_reflections
    assert repr(x) == "<A2 element 1,2>"
    assert repr(a2.identity) == "<A2 element e>"
    # (length, canonical word): equal, shorter, same length with a smaller word
    assert s1 <= s1 and a2.identity <= s1 and s1 <= s2 and s2 <= x
    assert not s2 <= s1 and not x <= s2
    # != is derived from __eq__
    assert x != s2 and not x != x and not x != a2.from_word([1, 2])
    assert x != 3 and x.__ne__(3) is True


def test_lengths():
    ctx = get_context(DynkinSpec("B", 3))
    assert ctx.identity.length == 0
    assert all(s.length == 1 for s in ctx.simple_reflections)
    assert ctx.longest_element.length == 9


def test_descents():
    ctx = get_context(DynkinSpec("A", 3))
    assert ctx.descents(ctx.identity, "right") == frozenset()
    assert ctx.descents(ctx.identity, "left") == frozenset()
    s2 = ctx.simple_reflections[1]
    assert ctx.descents(s2, "right") == {2}
    assert ctx.descents(s2, "left") == {2}
    w0 = ctx.longest_element
    assert ctx.descents(w0, "right") == {1, 2, 3}
    assert ctx.descents(w0, "left") == {1, 2, 3}
    # left descents are read off the perm; the reference goes through x^-1
    for text in ("A3", "B3", "D4", "G2", "F4"):
        ctx = get_context(DynkinSpec.parse(text))
        for l in range(ctx.num_positive_roots + 1):
            for x in elements_of_length(ctx, l):
                assert ctx.descents(x, "left") == ctx.descents(ctx.inverse(x), "right")


def test_from_word():
    ctx = get_context(DynkinSpec("D", 4))
    assert ctx.from_word([]) is ctx.identity
    assert ctx.from_word([1, 2, 4, 3, 2, 1]).length == 6
    with pytest.raises(BadLetter):
        ctx.from_word([5])
    # every letter is checked before anything is composed or interned
    fresh = build_group(DynkinSpec("D", 4))
    with pytest.raises(BadLetter):
        fresh.from_word([1, 2, 4, 3, 2, 1, 5])
    assert len(fresh._intern) == fresh.rank + 2


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spec_and_words())
def test_from_word_matches_left_fold_of_multiply(case):
    # from_word composes in place; the reference folds multiply over the
    # letters, non-reduced words included
    spec, a_word, b_word = case
    ctx = get_context(spec)
    for word in (a_word, b_word, a_word + b_word + a_word[::-1]):
        out = ctx.identity
        for letter in word:
            out = ctx.multiply(out, ctx.simple_reflections[letter - 1])
        assert ctx.from_word(word) is out


def test_canonical_word_round_trip():
    ctx = get_context(DynkinSpec("D", 4))
    assert ctx.canonical_word(ctx.identity) == ()
    assert ctx.canonical_word(ctx.simple_reflections[2]) == (3,)
    w = ctx.from_word([4, 2, 3, 1, 2, 4, 1, 2, 1])
    cw = ctx.canonical_word(w)
    assert len(cw) == w.length == 9
    assert ctx.from_word(cw) == w


def all_reduced_words(ctx, x):
    if x.length == 0:
        yield ()
        return
    for i in sorted(ctx.descents(x, "left")):
        rest = ctx.multiply(ctx.simple_reflections[i - 1], x)
        for tail in all_reduced_words(ctx, rest):
            yield (i,) + tail


def test_canonical_word_is_lex_smallest_a3():
    ctx = get_context(DynkinSpec("A", 3))
    for l in range(7):
        for x in elements_of_length(ctx, l):
            words = list(all_reduced_words(ctx, x))
            assert ctx.canonical_word(x) == min(words)
            assert all(len(w) == x.length for w in words)
            assert all(ctx.from_word(w) == x for w in words)


# -- Coxeter numbers ----------------------------------------------------------


@pytest.mark.parametrize(
    "family,rank,number",
    [("A", n, n + 1) for n in range(1, 9)]
    + [("B", n, 2 * n) for n in range(2, 9)]
    + [("C", n, 2 * n) for n in range(2, 9)]
    + [("D", n, 2 * n - 2) for n in range(4, 9)]
    + [("G", 2, 6), ("F", 4, 12), ("E", 6, 12), ("E", 7, 18), ("E", 8, 30)],
)
def test_coxeter_numbers(family, rank, number):
    spec = DynkinSpec(family, rank)
    assert get_context(spec).coxeter_number() == number == max(degrees(spec))


def test_coxeter_number_reordering_invariant():
    rng = random.Random(20230314)
    for spec in [DynkinSpec("A", 4), DynkinSpec("B", 4), DynkinSpec("D", 5), DynkinSpec("F", 4)]:
        ctx = get_context(spec)
        order = ctx.coxeter_number()
        letters = list(spec.nodes)
        rng.shuffle(letters)
        elem = ctx.from_word(letters)
        power, k = elem, 1
        while power is not ctx.identity:
            power = ctx.multiply(power, elem)
            k += 1
        assert k == order


# -- length invariants --------------------------------------------------------


def test_exchange_condition_and_length_symmetries():
    for spec in [DynkinSpec("A", 3), DynkinSpec("B", 3)]:
        ctx = get_context(spec)
        w0 = ctx.longest_element
        for l in range(ctx.longest_element.length + 1):
            for x in elements_of_length(ctx, l):
                assert ctx.inverse(x).length == x.length
                assert ctx.multiply(w0, x).length == w0.length - x.length
                for s in ctx.simple_reflections:
                    assert abs(ctx.multiply(x, s).length - x.length) == 1


def test_total_order_is_stable():
    ctx = get_context(DynkinSpec("A", 3))
    elems = [e for l in range(7) for e in elements_of_length(ctx, l)]
    once = sorted(elems)
    twice = sorted(reversed(elems))
    assert once == twice
    assert len(set(elems)) == 24


def test_word_serialization():
    assert parse_word("4,2,3,1,2,4,1,2,1") == (4, 2, 3, 1, 2, 4, 1, 2, 1)
    assert parse_word("") == ()
    assert parse_word("e") == ()
    assert format_word(()) == "e"
    assert format_word((1, 2)) == "1,2"
    with pytest.raises(BadLetter):
        parse_word("1,x")


# -- context tables against a dense reference ---------------------------------


def compose(xp, yp):
    """Signed-permutation product x*y of two perm tuples, one root at a time."""
    return tuple(xp[v - 1] if v > 0 else -xp[-v - 1] for v in yp)


def dense_reference(cartan):
    """Positive roots, generator perms and w0 perm, built the direct way.

    Closes the simple roots under every reflection (negative roots too)
    with the pairing summed over all Cartan entries, indexes each reflected
    root by lookup, and builds w0 by composing generator perms until every
    generator is a right descent.
    """
    n = len(cartan)

    def reflect(vec, j):
        pairing = sum(c * cartan[i][j] for i, c in enumerate(vec))
        return vec[:j] + (vec[j] - pairing,) + vec[j + 1 :]

    simple = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        vec = queue.pop()
        for j in range(n):
            img = reflect(vec, j)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    rest = sorted(
        (r for r in seen if min(r) >= 0 and r not in simple), key=lambda r: (sum(r), r)
    )
    roots = tuple(simple + rest)
    index = {r: k + 1 for k, r in enumerate(roots)}
    gens = []
    for j in range(n):
        perm = []
        for root in roots:
            img = reflect(root, j)
            perm.append(index[img] if min(img) >= 0 else -index[tuple(-c for c in img)])
        gens.append(tuple(perm))
    w0 = tuple(range(1, len(roots) + 1))
    while True:
        i = next((i for i in range(n) if w0[i] > 0), None)
        if i is None:
            return roots, gens, w0
        w0 = compose(w0, gens[i])


# Cartan matrices written out, entry [i][j] = <alpha_i, alpha_j^v>: a double
# bond points from the long root (alpha_2 of B3 and F4) to the short one, C3
# is served the B3 table, and alpha_1 of G2 is short
ORIENTED_CARTAN = {
    "B3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "G2": ((2, -1), (-3, 2)),
}


@pytest.mark.parametrize("diagram", sorted(ORIENTED_CARTAN))
def test_cartan_entries_are_oriented(diagram):
    # the weight layer reads the sparse rows, the context build the dense view
    spec, matrix = DynkinSpec.parse(diagram), ORIENTED_CARTAN[diagram]
    assert cartan_matrix(spec) == matrix
    assert cartan_rows(spec) == [[(j, a) for j, a in enumerate(row) if a] for row in matrix]


CARTAN_SPECS = (
    [DynkinSpec("A", n) for n in range(1, 13)]
    + [DynkinSpec(family, n) for family in "BC" for n in range(2, 13)]
    + [DynkinSpec("D", n) for n in range(4, 13)]
    + [DynkinSpec("E", n) for n in (6, 7, 8)]
    + [DynkinSpec("F", 4), DynkinSpec("G", 2)]
)


@pytest.mark.parametrize("spec", CARTAN_SPECS, ids=str)
def test_cartan_rows_ascend(spec):
    # rows come out by ascending column with no sort per row: E lists its
    # bond (2, 4) last, after (3, 4), so row 4 is built out of bond order
    rows, matrix = cartan_rows(spec), cartan_matrix(spec)
    for row in rows:
        assert all(a < b for (a, _), (b, _) in zip(row, row[1:])), row
    assert rows == [[(j, a) for j, a in enumerate(line) if a] for line in matrix]


TABLE_SPECS = (
    [DynkinSpec("A", n) for n in range(1, 9)]
    + [DynkinSpec("B", n) for n in range(2, 8)]
    + [DynkinSpec("C", n) for n in range(2, 6)]
    + [DynkinSpec("D", n) for n in range(4, 9)]
    + [DynkinSpec("E", n) for n in (6, 7, 8)]
    + [DynkinSpec("F", 4), DynkinSpec("G", 2)]
)


# A33 and D33 pack a root into more than 32 bytes, and D33 has a
# nontrivial opposition; G2 and E8 reach coefficients 3 and 6
@pytest.mark.parametrize(
    "spec", TABLE_SPECS + [DynkinSpec("A", 33), DynkinSpec("D", 33)], ids=str
)
def test_context_tables_match_dense_reference(spec):
    ctx = build_group(spec)
    roots, gens, w0 = dense_reference(cartan_matrix(spec))
    assert ctx.positive_roots == roots
    assert [s.perm for s in ctx.simple_reflections] == gens
    assert ctx.longest_element.perm == w0


OPPOSITION_SPECS = (
    [DynkinSpec("A", n) for n in range(1, 10)]
    + [DynkinSpec(family, n) for family in "BC" for n in range(2, 10)]
    + [DynkinSpec("D", n) for n in range(4, 10)]
    + [DynkinSpec("E", n) for n in (6, 7, 8)]
    + [DynkinSpec("F", 4), DynkinSpec("G", 2)]
)


@pytest.mark.parametrize("spec", OPPOSITION_SPECS, ids=str)
def test_opposition_table_matches_longest_element(spec):
    # sigma, a table by type that the sweep and the context build read,
    # against -w_0 on the simple roots of a w_0 composed from the generators
    _, _, w0 = dense_reference(cartan_matrix(spec))
    assert [k - 1 for k in opposition(spec)] == [-w0[k] - 1 for k in range(spec.rank)]


def test_context_build_checks_root_count_and_opposition(monkeypatch):
    a3 = DynkinSpec("A", 3)
    # the rows of A3 close to 6 roots, not the 9 of B3
    monkeypatch.setattr("egd.weyl.cartan_rows", lambda spec: cartan_rows(a3))
    with pytest.raises(InvalidRank, match="6 positive roots closed, 9 expected"):
        build_group(DynkinSpec("B", 3))
    # affine A2 has infinitely many roots: the closure stops past 6
    affine = [
        [(0, 2), (1, -1), (2, -1)],
        [(0, -1), (1, 2), (2, -1)],
        [(0, -1), (1, -1), (2, 2)],
    ]
    monkeypatch.setattr("egd.weyl.cartan_rows", lambda spec: affine)
    with pytest.raises(InvalidRank, match="positive roots closed, 6 expected"):
        build_group(a3)
    monkeypatch.undo()
    # sigma = (2, 1, 3) sends alpha_2 + alpha_3 to alpha_1 + alpha_3, no root
    monkeypatch.setattr("egd.weyl.opposition", lambda spec: (2, 1, 3))
    with pytest.raises(InvalidRank, match="opposition"):
        build_group(a3)


DEGREE_SPECS = [
    DynkinSpec(family, n)
    for family, (lo, hi) in _RANK_BOUNDS.items()
    for n in range(lo, min(hi or 12, 12) + 1)
]


@pytest.mark.parametrize("spec", DEGREE_SPECS, ids=str)
def test_degrees_by_type_match_component_walk(spec):
    # W reads its degrees off its type; W_J, here on every node, by component
    assert degrees(spec) == degrees(spec, spec.nodes)


@pytest.mark.parametrize("spec", DEGREE_SPECS, ids=str)
def test_root_count_closed_form_matches_degrees(spec):
    # N of W from its type alone equals the sum of d - 1 over its degrees
    assert num_positive_roots(spec) == sum(d - 1 for d in degrees(spec))


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_longest_element_closed_form(spec):
    """w0 = -iota, iota the opposition involution of the diagram."""
    ctx = build_group(spec)
    w0 = ctx.longest_element.perm
    iota = [k - 1 for k in opposition(spec)]
    if iota == list(range(spec.rank)):  # B, C, D even, E7, E8, F4, G2: w0 = -1
        assert w0 == tuple(range(-1, -ctx.num_positive_roots - 1, -1))
    if spec.family == "A":  # w0 sends alpha_i to -alpha_{n+1-i}
        assert w0[: spec.rank] == tuple(range(-spec.rank, 0))
    for k, root in enumerate(ctx.positive_roots):
        image = tuple(root[iota[i]] for i in range(spec.rank))
        assert w0[k] == -(ctx.positive_roots.index(image) + 1)


def test_fresh_context_interns_identity_generators_and_w0():
    ctx = build_group(DynkinSpec("A", 20))
    assert len(ctx._intern) == ctx.rank + 2
    assert set(ctx._intern.values()) == {
        ctx.identity, *ctx.simple_reflections, ctx.longest_element
    }


# -- kernel properties ----------------------------------------------------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spec_and_words())
def test_multiply_associative_and_matches_composition(case):
    spec, a_word, b_word = case
    ctx = get_context(spec)
    a, b = ctx.from_word(a_word), ctx.from_word(b_word)
    c = ctx.from_word(b_word[::2] + a_word[1::2])
    assert ctx.multiply(a, b).perm == compose(a.perm, b.perm)
    assert ctx.multiply(ctx.multiply(a, b), c) is ctx.multiply(a, ctx.multiply(b, c))
    for x in (a, b, c):
        assert ctx.multiply(x, ctx.inverse(x)) is ctx.identity
        assert ctx.multiply(ctx.inverse(x), x) is ctx.identity


def reduced_words(perm, gens, length):
    """Every reduced word of the element ``perm`` of the given length, by search.

    A prefix is kept while it evaluates to some y with l(y) + l(y^-1 x) =
    l(x); perms are composed with ``compose``, lengths counted directly.
    """

    def size(p):
        return sum(1 for v in p if v < 0)

    def inverse(p):
        out = [0] * len(p)
        for k, v in enumerate(p, start=1):
            out[abs(v) - 1] = k if v > 0 else -k
        return tuple(out)

    found = []

    def extend(word, y):
        if len(word) == length:
            if y == perm:
                found.append(tuple(word))
            return
        for i, s in enumerate(gens, start=1):
            z = compose(y, s)
            if size(z) == len(word) + 1 and size(compose(inverse(z), perm)) == length - size(z):
                extend(word + [i], z)

    extend([], tuple(range(1, len(perm) + 1)))
    return found


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spec_and_words())
def test_canonical_word_reduced_and_lex_minimal(case):
    spec, x_word, _ = case
    ctx = get_context(spec)
    x = ctx.from_word(x_word)
    word = ctx.canonical_word(x)
    assert len(word) == x.length
    assert ctx.from_word(word) is x
    if x.length <= 6:
        words = reduced_words(x.perm, [s.perm for s in ctx.simple_reflections], x.length)
        assert word in words
        assert word == min(words)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spec_and_words())
def test_decompose_invariants(case):
    spec, j_word, w_word = case
    ctx = get_context(spec)
    jset = frozenset(j_word)
    w = ctx.from_word(w_word)
    dec = decompose(ctx, w, jset)
    assert all(dec.up.perm[j - 1] > 0 for j in jset)  # up in W^J
    assert set(dec.down.word()) <= jset  # down in W_J
    assert ctx.multiply(dec.up, dec.down) is w
    assert w.length == dec.up.length + dec.down.length
