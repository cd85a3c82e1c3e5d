"""Divisibility sweeps, md-pair listings, classification, morphism verdicts."""

import itertools

import pytest

from egd import (
    DynkinSpec,
    MarkedDiagram,
    bruhat_leq,
    classify_md_pairs,
    closed_form_ed,
    dn_distinguished,
    effective_divisibility,
    get_context,
    has_egd_up_to,
    longest_in_WJ,
    md_pairs,
    morphism_constancy,
    quotient_dimension,
)
from egd.bruhat import quotient_stratum
from egd.dynkin import quotient_size
from egd.engine import _brute_ed, _sweep_degree
from egd.errors import (
    DegreeOutOfRange,
    EgdError,
    EmptyMarkedSet,
    Infeasible,
    NotTypeD,
)

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


def test_infeasibility_gates():
    with pytest.raises(Infeasible):
        effective_divisibility(flag("E7"), "both")
    with pytest.raises(Infeasible):
        effective_divisibility(flag("E6"), "brute_force")
    res = effective_divisibility(flag("E6"), "both")
    assert res.method == "closed_form" and res.value == 12
    with pytest.raises(Infeasible):
        effective_divisibility(flag("D5"), "brute_force", budget=10)
    # big diagram with a closed form still answers in both mode
    res = effective_divisibility(flag("D9"), "both")
    assert res.method == "closed_form" and res.value == 15


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
    from egd import is_opposite_pullback, is_schubert_pullback

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
    ctx = get_context(DynkinSpec("A", 3))
    with pytest.raises(NotTypeD):
        classify_md_pairs(ctx, md_pairs(flag("A3")))
    with pytest.raises(NotTypeD):
        md_pairs(flag("A3"), classify=True)


def test_classified_quotient_pairs_lift():
    # the D4 quadric's own md-pairs tag themselves with node 1 after lifting
    pairs = md_pairs(MarkedDiagram.parse("D4", "1"), classify=True)
    assert pairs and all(1 in p.tags for p in pairs)


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
                float("inf") if jset == frozenset(spec.nodes) else _brute_ed(ctx, jset)[0]
            )
    for j1, e1 in ed_of.items():
        for j2, e2 in ed_of.items():
            if j1 <= j2:
                assert e1 <= e2


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
                    half = _sweep_degree(ctx, jset, s)
                    assert all(v.length <= s - v.length for v, _ in half)
                    full = _full_violations(ctx, jset, s)
                    assert set(half) | {(dual(u), dual(v)) for v, u in half} == full
                    if full:
                        break
    assert checked == 116


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


def test_morphism_with_supplied_ed():
    v = morphism_constancy(9, MarkedDiagram.parse("D4", "1"))
    assert v.verdict == "constant" and v.source_ed == 9 and v.target_ed == 5
    v = morphism_constancy(3, MarkedDiagram.parse("D4", "1"))
    assert v.verdict == "inconclusive"


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
