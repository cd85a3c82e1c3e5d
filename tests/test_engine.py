"""Divisibility sweeps, md-pair listings, classification, morphism verdicts."""

import itertools
import os
import re

import pytest

from egd import (
    DynkinSpec,
    MarkedDiagram,
    MdPair,
    bruhat_leq,
    classify_md_pairs,
    closed_form_ed,
    codims,
    decompose,
    dn_distinguished,
    effective_divisibility,
    get_context,
    has_egd_up_to,
    is_opposite_pullback,
    is_proper_subdiagram,
    is_schubert_pullback,
    longest_in_WJ,
    md_pairs,
    morphism_constancy,
    quotient_dimension,
)
from egd.bruhat import orbits, quotient_stratum
from egd.dynkin import dimension, quotient_size
from egd.engine import DEFAULT_BUDGET, _brute_ed, _infeasibility, _sweep_degree
from egd.errors import (
    DegreeOutOfRange,
    EgdError,
    EmptyMarkedSet,
    Infeasible,
    InvalidRank,
    NotTypeD,
)

EXTENDED = bool(os.environ.get("EGD_EXTENDED"))

APPENDIX_D4 = [
    ((1, 2, 3), (4, 2, 3, 1, 2, 4, 1, 2, 1)),
    ((1, 2, 4), (3, 2, 4, 1, 2, 3, 1, 2, 1)),
    ((3, 2, 1), (4, 2, 3, 1, 2, 4, 2, 3, 2)),
    ((3, 2, 4), (1, 2, 4, 1, 2, 3, 1, 2, 1)),
    ((4, 2, 1), (2, 3, 1, 2, 4, 1, 2, 3, 2)),
    ((4, 2, 3), (2, 3, 1, 2, 4, 3, 1, 2, 1)),
]

APPENDIX_D5 = [
    ((1, 2, 3, 4), (4, 3, 5, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 1, 2, 1)),
    ((1, 2, 3, 5), (5, 3, 4, 2, 3, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1)),
    ((4, 3, 2, 1), (3, 5, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 4, 2, 3, 2)),
    ((5, 3, 2, 1), (4, 3, 5, 2, 3, 4, 1, 2, 3, 5, 2, 3, 4, 2, 3, 2)),
]


def flag(diagram):
    spec = DynkinSpec.parse(diagram)
    return MarkedDiagram(spec, frozenset(spec.nodes))


def test_marked_diagram_parsing():
    md = MarkedDiagram.parse("D4", "all")
    assert md.marked == {1, 2, 3, 4} and md.parabolic_set == frozenset()
    md = MarkedDiagram.parse("D4", "2")
    assert md.marked == {2} and md.parabolic_set == {1, 3, 4}
    assert MarkedDiagram.parse("A3", "none").marked == frozenset()
    with pytest.raises(EgdError):
        MarkedDiagram.parse("D4", "5")
    with pytest.raises(EgdError):
        MarkedDiagram.parse("Z9", "all")
    with pytest.raises(EgdError, match=r"marked nodes \[9, 40\] outside diagram D4"):
        MarkedDiagram(DynkinSpec("D", 4), frozenset({40, 9, 2}))


def test_closed_forms():
    assert closed_form_ed(MarkedDiagram.parse("A7", "3")) == 7
    assert closed_form_ed(MarkedDiagram.parse("B5", "1,3")) == 9
    assert closed_form_ed(MarkedDiagram.parse("C5", "2")) == 9
    assert closed_form_ed(MarkedDiagram.parse("D6", "2,3")) == 10
    assert closed_form_ed(MarkedDiagram.parse("D6", "2,5")) == 9
    assert closed_form_ed(flag("G2")) == 5
    assert closed_form_ed(flag("F4")) == 12
    assert closed_form_ed(flag("E6")) == 12
    assert closed_form_ed(flag("E7")) is None
    assert closed_form_ed(MarkedDiagram.parse("F4", "1")) is None


def test_has_egd_up_to():
    ctx = get_context(DynkinSpec("D", 4))
    assert has_egd_up_to(ctx, frozenset(), 5)
    assert not has_egd_up_to(ctx, frozenset(), 6)
    a1 = get_context(DynkinSpec("A", 1))
    assert has_egd_up_to(a1, frozenset(), 1)
    with pytest.raises(DegreeOutOfRange):
        has_egd_up_to(ctx, frozenset(), 13)
    with pytest.raises(DegreeOutOfRange):
        has_egd_up_to(ctx, frozenset(), -1)


def test_has_egd_up_to_stops_at_the_first_violation(monkeypatch):
    # degree 10 of the D4 flag has 1,271 violating pairs; the probe decides
    # it on the first and peels only the words of that pair
    import egd.bruhat

    ctx = get_context(DynkinSpec("D", 4))
    word, peels = egd.bruhat._Strata.word, []

    def counting_word(self, l, k):
        peels.append((l, k))
        return word(self, l, k)

    monkeypatch.setattr(egd.bruhat._Strata, "word", counting_word)
    assert not has_egd_up_to(ctx, frozenset(), 10)
    assert len(peels) <= 2
    assert has_egd_up_to(ctx, frozenset(), 5)


def _has_coset_order(spec, node):
    """Whether the coset order of ``node``, the store of W^{S - {node}}, is built."""
    store = orbits(spec).strata.get(frozenset(spec.nodes) - {node})
    return store is not None and store.up is not None


def test_has_egd_compares_oversize_quotient_pair_by_pair():
    # node 4 of E8 has 483,840 cosets: one degree is still answered, on
    # canonical words by the lifting property, without building its coset order
    ctx = get_context(DynkinSpec("E", 8))
    assert has_egd_up_to(ctx, frozenset(ctx.spec.nodes) - {4}, 2)
    assert not _has_coset_order(ctx.spec, 4)
    # degree 2 sweeps the bucket l(v) = 1, so node 1's coset order is built
    assert has_egd_up_to(ctx, frozenset(ctx.spec.nodes) - {1}, 2)
    assert _has_coset_order(ctx.spec, 1)


@pytest.fixture
def pair_by_pair():
    """MAX_COSETS = 0: every marked set is swept pair by pair."""
    import egd.engine

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(egd.engine, "MAX_COSETS", 0)
        egd.engine._oversize_cosets.cache_clear()
        yield
    egd.engine._oversize_cosets.cache_clear()


def test_pair_by_pair_sweep_matches_coset_orders(request):
    # both sides of the MAX_COSETS selection on the same inputs, at every
    # degree: a limit of 0 sends every marked set to the pair-by-pair path
    # of a fresh weight layer.  EGD_EXTENDED=1 runs every marked set up to
    # 3,000 cosets, tier-1 those up to 200
    diagrams = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2",
                "F4", "E6"]
    cases = [
        (md.spec, md.parabolic_set)
        for diagram in diagrams
        for md in _marked_sets(DynkinSpec.parse(diagram))
        if quotient_size(md.spec, md.parabolic_set) <= (3000 if EXTENDED else 200)
    ]
    # the sweeps are consumed here, before MAX_COSETS = 0: a generator left
    # unconsumed would run on words too, and compare the route with itself
    orbits.cache_clear()
    expected = [
        [list(_sweep_degree(spec, jset, s)) for s in range(1, dimension(spec, jset) + 2)]
        for spec, jset in cases
    ]
    assert all(
        _has_coset_order(spec, i) for spec, jset in cases for i in set(spec.nodes) - jset
    )
    request.getfixturevalue("pair_by_pair")
    orbits.cache_clear()
    for (spec, jset), sweeps in zip(cases, expected):
        got = [list(_sweep_degree(spec, jset, s)) for s in range(1, dimension(spec, jset) + 2)]
        assert got == sweeps, (spec, jset)
        assert all(store.up is None for store in orbits(spec).strata.values())
    assert len(cases) == (194 if EXTENDED else 137)


def test_has_egd_monotone():
    for diagram, jset in [("D4", frozenset()), ("D4", frozenset({1})), ("B3", frozenset())]:
        ctx = get_context(DynkinSpec.parse(diagram))
        dim = ctx.longest_element.length - longest_in_WJ(ctx, jset).length
        flags = [has_egd_up_to(ctx, jset, s) for s in range(dim + 1)]
        # once it fails it stays failed
        assert all(a or not b for a, b in zip(flags, flags[1:]))


def test_effective_divisibility_examples():
    assert effective_divisibility(MarkedDiagram.parse("A3", "2"), "both").value == 3
    assert effective_divisibility(MarkedDiagram.parse("D4", "2"), "both").value == 6
    assert effective_divisibility(flag("D5"), "both").value == 7
    with pytest.raises(EmptyMarkedSet):
        effective_divisibility(MarkedDiagram.parse("A3", "none"))


def test_capped_chain_cases():
    res = effective_divisibility(MarkedDiagram.parse("A3", "1"), "both")
    assert res.value == 3 and res.capped
    assert res.witness is not None
    res = effective_divisibility(MarkedDiagram.parse("B3", "1"), "both")
    assert res.value == 5 and res.capped
    res = effective_divisibility(flag("A1"), "both")
    assert res.value == 1 and res.capped


def test_methods_and_agreement():
    both = effective_divisibility(flag("B3"), "both")
    assert both.method == "both" and both.closed_form == both.brute_force == 5
    closed = effective_divisibility(flag("B3"), "closed_form")
    assert closed.method == "closed_form" and closed.witness is None
    brute = effective_divisibility(flag("B3"), "brute_force")
    assert brute.method == "brute_force" and brute.value == 5
    assert brute.witness is not None
    with pytest.raises(Infeasible):
        effective_divisibility(MarkedDiagram.parse("G2", "1"), "closed_form")


def test_unknown_mode_refused():
    with pytest.raises(EgdError, match="unknown mode 'bogus'"):
        effective_divisibility(flag("D4"), "bogus")


def test_both_raises_when_closed_form_and_sweep_disagree(monkeypatch, capsys):
    # the check test_every_marked_set_closed_form_vs_sweep relies on: a wrong
    # closed form is an error in the library and exit 2 in the CLI
    import egd.cli
    import egd.engine

    monkeypatch.setattr(egd.engine, "closed_form_ed", lambda md: 4)
    message = "closed form 4 and brute force 5 disagree on D4(1,2,3,4)"
    with pytest.raises(EgdError, match=re.escape(message)):
        effective_divisibility(flag("D4"), "both")
    assert egd.cli.main(["ed", "D4", "all"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_infeasibility_gates():
    with pytest.raises(Infeasible):
        effective_divisibility(flag("E7"), "both")
    with pytest.raises(Infeasible):
        effective_divisibility(flag("E7"), "brute_force")
    # the E6 flag (51,840 elements) is swept like any set under the budget
    assert effective_divisibility(flag("E6"), "brute_force").value == 12
    res = effective_divisibility(flag("E6"), "both")
    assert res.method == "both" and res.value == 12 and res.witness is not None
    with pytest.raises(Infeasible):
        effective_divisibility(flag("D5"), "brute_force", budget=10)
    # big diagram with a closed form still answers in both mode
    res = effective_divisibility(flag("D9"), "both")
    assert res.method == "closed_form" and res.value == 15
    # the gate itself raises, one refusal per kind, in its fixed order
    gates = [
        ("A200", "1", DEFAULT_BUDGET, "A200 has 20100 positive roots, over the limit of 5050"),
        ("D5", "all", 10, "W^J of D5 has 1920 elements, over the budget of 10"),
        ("E8", "4", DEFAULT_BUDGET,
         "node 4 of E8 has 483840 cosets, over the coset-order limit of 100000"),
        ("E8", "5", DEFAULT_BUDGET,
         "node 5 of E8 has 241920 cosets, over the coset-order limit of 100000"),
    ]
    for diagram, marked, budget, message in gates:
        with pytest.raises(Infeasible, match=f"^{re.escape(message)}$"):
            _infeasibility(MarkedDiagram.parse(diagram, marked), budget)
    assert _infeasibility(flag("D5"), DEFAULT_BUDGET) is None
    # "both" catches the refusal and falls back to the closed form
    res = effective_divisibility(MarkedDiagram.parse("A200", "1"), "both")
    assert res.method == "closed_form" and res.value == 200


def test_md_pairs_a2():
    pairs = md_pairs(flag("A2"))
    assert [(p.v.word(), p.u.word()) for p in pairs] == [((1,), (2,)), ((2,), (1,))]
    assert all(p.degree == 3 and p.len_v == 1 and p.codim_u == 2 for p in pairs)


@pytest.mark.parametrize(
    "diagram,appendix", [("D4", APPENDIX_D4), ("D5", APPENDIX_D5)]
)
def test_md_pairs_match_published_listing(diagram, appendix):
    ctx = get_context(DynkinSpec.parse(diagram))
    pairs = md_pairs(flag(diagram))
    assert len(pairs) == len(appendix)
    for pair, (v_word, u_word) in zip(pairs, appendix):
        assert pair.v == ctx.from_word(v_word)
        assert pair.u == ctx.from_word(u_word)


def test_md_pair_invariants():
    for diagram in ("A3", "B3", "D4", "D5"):
        md = flag(diagram)
        ctx = get_context(md.spec)
        res = effective_divisibility(md, "brute_force")
        pairs = md_pairs(md)
        for p in pairs:
            assert p.len_v + p.codim_u == p.degree == res.value + 1
            assert 0 < p.len_v <= p.codim_u
            assert not bruhat_leq(ctx, p.v, p.u)
        if not res.capped:
            assert md_pairs(md, degree=res.value) == []


def test_md_pairs_degree_listing():
    assert md_pairs(flag("D4"), degree=5) == []
    assert len(md_pairs(flag("D4"), degree=6)) == 6
    with pytest.raises(DegreeOutOfRange):
        md_pairs(flag("D4"), degree=14)


def test_classification_d4():
    pairs = md_pairs(flag("D4"), classify=True)
    tags = [sorted(p.tags) for p in pairs]
    assert tags == [[3], [4], [1], [4], [1], [3]]


def test_classification_d5():
    pairs = md_pairs(flag("D5"), classify=True)
    tags = [sorted(p.tags) for p in pairs]
    assert tags == [[4], [5], [1], [1]]


def test_classification_sigma_theta_pair():
    ctx = get_context(DynkinSpec("D", 5))
    dist = dn_distinguished(ctx)
    pairs = md_pairs(flag("D5"), classify=True)
    spinor = [p for p in pairs if 5 in p.tags]
    assert len(spinor) == 1
    pair = spinor[0]
    assert pair.v == dist.theta_beta
    w0i = longest_in_WJ(ctx, frozenset({1, 2, 3, 4}))
    assert pair.u == ctx.multiply(dist.sigma_beta, w0i)


@pytest.mark.parametrize("n", [4, 5])
def test_classification_covers_all_pairs(n):
    ctx = get_context(DynkinSpec("D", n))
    pairs = md_pairs(flag(f"D{n}"), classify=True)
    j1 = frozenset(ctx.spec.nodes) - {1}
    for p in pairs:
        assert p.tags
        if 1 in p.tags:
            assert p.len_v == p.codim_u == n - 1
        # the quadric tag agrees with the generic pullback test
        uniform = is_schubert_pullback(ctx, p.u, j1) and is_opposite_pullback(
            ctx, p.v, j1
        )
        assert (1 in p.tags) == uniform


def test_classification_requires_type_d():
    with pytest.raises(NotTypeD):
        classify_md_pairs(DynkinSpec("A", 3), md_pairs(flag("A3")))
    with pytest.raises(NotTypeD):
        md_pairs(flag("A3"), classify=True)


def test_classified_quotient_pairs_lift():
    # the D4 quadric's own md-pairs tag themselves with node 1 after lifting
    pairs = md_pairs(MarkedDiagram.parse("D4", "1"), classify=True)
    assert pairs and all(1 in p.tags for p in pairs)


def _marked_sets(spec):
    return [
        MarkedDiagram(spec, frozenset(marked))
        for k in range(1, spec.rank + 1)
        for marked in itertools.combinations(spec.nodes, k)
    ]


def _pullback_tags(ctx, pair, jset):
    """r in {1, n-1, n} such that v is in W^I and u w_{0J} longest in u w_{0J} W_I, I = S - {r}."""
    n, nodes = ctx.rank, frozenset(ctx.spec.nodes)
    u = ctx.multiply(pair.u, longest_in_WJ(ctx, jset))
    return frozenset(
        r
        for r in (1, n - 1, n)
        if is_opposite_pullback(ctx, pair.v, nodes - {r})
        and is_schubert_pullback(ctx, u, nodes - {r})
    )


def test_classification_at_every_degree_matches_pullback_tests():
    # tags read off the weights against the pullback tests on elements, at
    # every degree of every D4 marked set
    spec = DynkinSpec("D", 4)
    ctx = get_context(spec)
    checked = 0
    for md in _marked_sets(spec):
        for degree in range(dimension(spec, md.parabolic_set) + 2):
            for pair in md_pairs(md, degree=degree, classify=True):
                want = _pullback_tags(ctx, pair, md.parabolic_set)
                assert pair.tags == want, (md.label(), degree, pair.word_v, pair.word_u)
                checked += 1
    assert checked == 17529


@pytest.mark.parametrize("n", [4, 5, 6])
def test_default_listing_tags_match_quadric_criterion(n):
    # node 1 by the quadric criterion {v^I, (u w_{0J})^I} = {w_alpha, w_beta},
    # I = S - {1}; nodes n-1 and n by the pullback tests on elements
    spec = DynkinSpec("D", n)
    ctx = get_context(spec)
    dist = dn_distinguished(ctx)
    middle = {dist.w_alpha, dist.w_beta}
    quadric = frozenset(spec.nodes) - {1}
    for md in _marked_sets(spec):
        w0j = longest_in_WJ(ctx, md.parabolic_set)
        for pair in md_pairs(md, classify=True):
            u = ctx.multiply(pair.u, w0j)
            ups = {decompose(ctx, pair.v, quadric).up, decompose(ctx, u, quadric).up}
            assert (1 in pair.tags) == (ups == middle), (md.label(), pair.word_v)
            spinor = _pullback_tags(ctx, pair, md.parabolic_set) - {1}
            assert pair.tags - {1} == spinor, (md.label(), pair.word_v)


def test_bc_same_divisibility():
    b, c = get_context(DynkinSpec("B", 3)), get_context(DynkinSpec("C", 3))
    assert b.positive_roots == c.positive_roots
    assert [s.perm for s in b.simple_reflections] == [s.perm for s in c.simple_reflections]
    for marked in ("all", "1", "2", "1,3"):
        vb = effective_divisibility(MarkedDiagram.parse("B3", marked), "both").value
        vc = effective_divisibility(MarkedDiagram.parse("C3", marked), "both").value
        assert vb == vc


def test_corollary_monotonicity_d4():
    spec = DynkinSpec("D", 4)
    ctx = get_context(spec)
    ed_of = {}
    for k in range(5):
        for jset in itertools.combinations(spec.nodes, k):
            jset = frozenset(jset)
            ed_of[jset] = (
                float("inf") if jset == frozenset(spec.nodes) else _brute_ed(spec, jset)[0]
            )
    for j1, e1 in ed_of.items():
        for j2, e2 in ed_of.items():
            if j1 <= j2:
                assert e1 <= e2


def test_a50_sweep_interns_only_the_listed_pairs(monkeypatch):
    # the strata of W^J grow on weights and only the v and u of violating
    # pairs are built: a fresh context interns the identity, the generators,
    # w_0 and w_{0J}, then at most two elements per listed pair
    import egd.engine

    monkeypatch.setattr(egd.engine, "_context_cache", {})
    md = MarkedDiagram.parse("A50", "1")
    assert effective_divisibility(md).value == 50
    ctx = get_context(md.spec)
    interned = len(ctx._intern)
    listing = md_pairs(md)
    assert len(listing) == 25
    assert interned <= ctx.rank + 3 + 2 * len(listing)


def _full_violations(ctx, jset, s):
    """Unhalved reference scan: every ordered pair (v, u) at degree s with v not<= u."""
    dim = quotient_dimension(ctx, jset)
    return {
        (v, u)
        for len_v in range(1, s)
        if len_v <= dim and s - len_v <= dim
        for v in quotient_stratum(ctx, jset, len_v)
        for u in quotient_stratum(ctx, jset, dim - (s - len_v))
        if not bruhat_leq(ctx, v, u)
    }


def test_halved_sweep_is_complete():
    # x -> w_0 x w_{0J} reverses Bruhat order on W^J and swaps l(v) with
    # c^J(u): the half-scan plus the duals of its pairs is every violation.
    checked = 0
    for diagram in ("A4", "B3", "B4", "C4", "D4", "D5", "F4", "G2"):
        spec = DynkinSpec.parse(diagram)
        ctx = get_context(spec)
        w0 = ctx.longest_element
        for k in range(1, spec.rank + 1):
            for marked in itertools.combinations(spec.nodes, k):
                jset = frozenset(spec.nodes) - frozenset(marked)
                if quotient_size(spec, jset) > 3000:
                    continue
                checked += 1
                w0j = longest_in_WJ(ctx, jset)
                dual = lambda x: ctx.multiply(ctx.multiply(w0, x), w0j)  # noqa: E731
                dim = quotient_dimension(ctx, jset)
                for s in range(1, dim + 2):
                    half = _elements(ctx, list(_sweep_degree(spec, jset, s)))
                    assert all(v.length <= s - v.length for v, _ in half)
                    full = _full_violations(ctx, jset, s)
                    assert set(half) | {(dual(u), dual(v)) for v, u in half} == full
                    if full:
                        break
    assert checked == 116


def _elements(ctx, hits):
    """The (v, u) of sweep hits (l(v), word of v, word of u), built from the words."""
    pairs = [(ctx.from_word(wv), ctx.from_word(wu)) for _, wv, wu in hits]
    assert [v.length for v, _ in pairs] == [len_v for len_v, _, _ in hits]
    return pairs


def _half_violations(ctx, jset, s):
    """Reference for _sweep_degree: the same half of the pairs, in the same
    bucket order, compared with the descent recursion, with canonical words
    read off the root permutations."""
    dim = quotient_dimension(ctx, jset)
    return [
        (v.length, v.word(), u.word())
        for len_v in range(max(1, s - dim), s // 2 + 1)
        for v in quotient_stratum(ctx, jset, len_v)
        for u in quotient_stratum(ctx, jset, dim - (s - len_v))
        if not bruhat_leq(ctx, v, u)
    ]


@pytest.mark.parametrize("route", ["coset_orders", "pair_by_pair"])
def test_sweep_matches_recursion_at_every_degree(request, route):
    # sweep vs a second Bruhat algorithm at every degree 1..dim + 1, not only
    # up to the first failing one, on both sides of the MAX_COSETS selection;
    # EGD_EXTENDED=1 runs all 116 marked sets of
    # test_halved_sweep_is_complete, tier-1 the ones with |W^J| <= 200
    if route == "pair_by_pair":
        request.getfixturevalue("pair_by_pair")
    cap = 3000 if EXTENDED else 200
    checked = violations = 0
    for diagram in ("A4", "B3", "B4", "C4", "D4", "D5", "F4", "G2"):
        spec = DynkinSpec.parse(diagram)
        ctx = get_context(spec)
        for k in range(1, spec.rank + 1):
            for marked in itertools.combinations(spec.nodes, k):
                jset = frozenset(spec.nodes) - frozenset(marked)
                if quotient_size(spec, jset) > cap:
                    continue
                checked += 1
                for s in range(1, quotient_dimension(ctx, jset) + 2):
                    hits = list(_sweep_degree(spec, jset, s))
                    assert hits == _half_violations(ctx, jset, s), (diagram, marked, s)
                    violations += len(hits)
    assert checked == (116 if EXTENDED else 88)
    assert violations > 0


def test_every_marked_set_closed_form_vs_sweep():
    # every nonempty marked set of the small types, the E6 flag included:
    # "both" raises EgdError if the closed form and the sweep disagree
    checked = 0
    for diagram in ("A4", "A5", "B4", "B5", "C5", "D6", "F4", "G2", "E6"):
        spec = DynkinSpec.parse(diagram)
        for k in range(1, spec.rank + 1):
            for marked in itertools.combinations(spec.nodes, k):
                md = MarkedDiagram(spec, frozenset(marked))
                res = effective_divisibility(md, "both")
                cf = closed_form_ed(md)
                assert res.brute_force == res.value and res.closed_form == cf
                assert res.method == ("brute_force" if cf is None else "both")
                checked += 1
    assert checked == 267


def _multi_node_sets_follow_single_nodes(spec, cap=None) -> int:
    """Check every R with |R| >= 2 (and |W^J| <= cap) against its single nodes; count them.

    ed(D(R)) is the minimum of ed(D(r)) over r in R, never capped, and the
    listing of D(R) is the union, over the minimising r, of the lifts
    (v, u w_{0,S-{r}} w_{0J}) of the pairs (v, u) of D(r): the maximal
    quotients suffice (see the engine docstring).  The single-node sweeps
    and the multi-node sweep share no strata store.
    """
    ctx, nodes = get_context(spec), frozenset(spec.nodes)
    single = {r: _brute_ed(spec, nodes - {r}) for r in spec.nodes}
    checked = 0
    for k in range(2, spec.rank + 1):
        for marked in itertools.combinations(spec.nodes, k):
            jset = nodes - frozenset(marked)
            if cap is not None and quotient_size(spec, jset) > cap:
                continue
            value, capped, pairs = _brute_ed(spec, jset)
            best = min(single[r][0] for r in marked)
            assert (value, capped) == (best, False), (str(spec), marked)
            w0j = ctx.longest_in_parabolic(jset)
            lifts = set()
            for r in marked:
                if single[r][0] == best:
                    w0r = ctx.longest_in_parabolic(nodes - {r})
                    lifts |= {
                        (p.v, ctx.multiply(ctx.multiply(p.u, w0r), w0j)) for p in single[r][2]
                    }
            assert {(p.v, p.u) for p in pairs} == lifts, (str(spec), marked)
            checked += 1
    return checked


def test_multi_node_sets_follow_single_nodes():
    # a second derivation of every multi-node value and listing of the small
    # types: 230 marked sets
    checked = 0
    for diagram in ("A3", "A4", "A5", "B3", "B4", "C4", "D4", "D5", "D6", "G2", "F4", "E6"):
        checked += _multi_node_sets_follow_single_nodes(DynkinSpec.parse(diagram))
    assert checked == 230


@pytest.mark.skipif(not EXTENDED, reason="E7 quotients up to 10^5 cosets: EGD_EXTENDED=1")
def test_multi_node_sets_follow_single_nodes_e7_extended():
    assert _multi_node_sets_follow_single_nodes(DynkinSpec("E", 7), cap=10**5) == 42


def test_morphism_verdicts():
    cases = [
        (("A4", "1"), ("A3", "2"), "constant"),
        (("A3", "1"), ("A3", "1"), "inconclusive"),
        (("D5", "all"), ("B3", "2"), "constant"),
        (("B4", "all"), ("D4", "2"), "constant"),
        (("A2", "1"), ("A2", "1"), "inconclusive"),
    ]
    for src, tgt, want in cases:
        verdict = morphism_constancy(
            MarkedDiagram.parse(*src), MarkedDiagram.parse(*tgt)
        )
        assert verdict.verdict == want


def test_morphism_subdiagram_rule_flag():
    v = morphism_constancy(MarkedDiagram.parse("A4", "1"), MarkedDiagram.parse("A3", "2"))
    assert v.subdiagram_rule and v.verdict == "constant"
    v = morphism_constancy(MarkedDiagram.parse("D5", "all"), MarkedDiagram.parse("B3", "2"))
    assert not v.subdiagram_rule


@pytest.mark.parametrize(
    "sub,sup,inside",
    [
        ("A2", "F4", True),  # nodes 1-2 of 1-2=3-4
        ("A3", "F4", False),  # every 3-chain of F4 holds the double bond
        ("A1", "G2", True),
        ("A2", "G2", False),  # the triple bond is no simple bond
        ("B2", "C3", True),  # the double bond 2=3; B2 and C2 are one diagram
        ("C2", "B4", True),
        ("B3", "C4", False),  # a 3-chain with the double bond at its end is C3
        ("C3", "F4", True),  # nodes 2=3-4
        ("B3", "F4", True),  # nodes 1-2=3
        ("B4", "F4", False),  # F4 has no proper 4-node subdiagram
        ("D4", "E6", True),  # E6 without nodes 1 and 6
        ("D5", "E6", True),
        ("E6", "E7", True),  # E7 without node 7
        ("E6", "E8", True),
        ("E7", "E7", False),  # not proper
        ("E8", "E7", False),
        ("F4", "E8", False),  # E8 has simple bonds only
        ("G2", "F4", False),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_proper_subdiagram_table(sub, sup, inside):
    assert is_proper_subdiagram(DynkinSpec.parse(sub), DynkinSpec.parse(sup)) is inside


def test_morphism_with_supplied_ed():
    v = morphism_constancy(9, MarkedDiagram.parse("D4", "1"))
    assert v.verdict == "constant" and v.source_ed == 9 and v.target_ed == 5
    v = morphism_constancy(3, MarkedDiagram.parse("D4", "1"))
    assert v.verdict == "inconclusive"


def test_morphism_rejects_negative_ed_value():
    target = MarkedDiagram.parse("D4", "2")
    with pytest.raises(EgdError, match="^an ed value must be at least 0, got -3$"):
        morphism_constancy(-3, target)
    assert morphism_constancy(0, target).verdict == "inconclusive"


def test_morphism_infeasible_target():
    with pytest.raises(Infeasible):
        morphism_constancy(MarkedDiagram.parse("A3", "1"), MarkedDiagram.parse("E7", "all"))


def _oracle_only_ed(spec, marked):
    """Recompute ed from scratch: filter W^J out of the full group and test
    every ordered pair at every degree with the subword oracle."""
    from egd import elements_of_length, subword_oracle

    ctx = get_context(spec)
    jset = frozenset(spec.nodes) - marked
    elems = [
        e
        for l in range(ctx.longest_element.length + 1)
        for e in elements_of_length(ctx, l)
    ]
    quot = [e for e in elems if all(e.perm[j - 1] > 0 for j in jset)]
    dim = max(e.length for e in quot)
    for s in range(1, dim + 1):
        for v in quot:
            if not 0 < v.length < s:
                continue
            for u in quot:
                if v.length + (dim - u.length) == s:
                    if not subword_oracle(ctx, v.word(), u.word()):
                        return s - 1
    return dim


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_sweep_agrees_with_oracle_only_pipeline(family, rank):
    spec = DynkinSpec(family, rank)
    for k in range(1, rank + 1):
        for marked in itertools.combinations(spec.nodes, k):
            md = MarkedDiagram(spec, frozenset(marked))
            assert (
                effective_divisibility(md, "brute_force").value
                == _oracle_only_ed(spec, frozenset(marked))
            )


# -- record types ---------------------------------------------------------------


def _records():
    """One record of each type: spec, marked diagram, pair, results, decomposition data."""
    md = MarkedDiagram.parse("D4", "all")
    result = effective_divisibility(md, "both")
    (pair,) = classify_md_pairs(md.spec, [result.witness], jset=md.parabolic_set)
    ctx = get_context(md.spec)
    w = ctx.from_word([4, 2, 3, 1, 2, 4, 1, 2, 1])
    dec = decompose(ctx, w, {2, 3})
    return [
        md.spec,
        md,
        pair,
        result,
        morphism_constancy(9, MarkedDiagram.parse("D4", "2")),
        dec,
        codims(ctx, w, {2, 3}),
        dn_distinguished(ctx),
    ]


@pytest.mark.parametrize("index", range(8))
def test_records_compare_hash_and_refuse_assignment(index):
    record = _records()[index]
    twin = _records()[index]
    assert record == twin and hash(record) == hash(twin)
    # the hash is the tuple hash of the fields, so cache keys are unchanged
    assert hash(record) == hash(tuple(record))
    assert record != record._replace(**{record._fields[-1]: "changed"})
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_keep_their_types_through_replace():
    pair = _records()[2]
    assert type(pair) is MdPair and pair.tags
    assert type(pair._replace(tags=frozenset())) is MdPair


def test_record_construction_still_validates():
    with pytest.raises(InvalidRank) as exc:
        DynkinSpec("Q", 3)
    assert str(exc.value) == "unknown family 'Q'"
    with pytest.raises(InvalidRank) as exc:
        DynkinSpec("A", 0)
    assert str(exc.value) == "family A needs rank >= 1, got 0"
    with pytest.raises(EgdError) as exc:
        MarkedDiagram(DynkinSpec("D", 4), {9})
    assert str(exc.value) == "marked nodes [9] outside diagram D4"


def test_marked_diagram_stores_a_frozenset():
    spec = DynkinSpec("D", 4)
    md = MarkedDiagram(spec, {1})
    assert md == MarkedDiagram(spec, frozenset({1}))
    assert hash(md) == hash(MarkedDiagram(spec, frozenset({1})))
    assert repr(md) == (
        "MarkedDiagram(spec=DynkinSpec(family='D', rank=4), marked=frozenset({1}))"
    )
    assert effective_divisibility(md, "both").value == 5


def test_md_pair_tags_default_to_empty():
    pair = MdPair(DynkinSpec("A", 2), (1,), (2,), 1, 1, 2)
    assert pair.tags == frozenset()
    assert pair.record()["tags"] == []


def test_ed_result_repr_is_pinned():
    result = effective_divisibility(MarkedDiagram.parse("D4", "all"), "both")
    assert repr(result) == (
        "EdResult(value=5, method='both', witness=MdPair(spec=DynkinSpec(family='D', "
        "rank=4), word_v=(1, 2, 3), word_u=(2, 3, 2, 4, 2, 1, 3, 2, 4), len_v=3, "
        "codim_u=3, degree=6, tags=frozenset()), closed_form=5, brute_force=5, "
        "capped=False)"
    )
