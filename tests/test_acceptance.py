"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured wall times.  The E7 complete-flag sweep is an extended run,
enabled by setting EGD_EXTENDED=1.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from egd import (
    DynkinSpec,
    MarkedDiagram,
    bruhat_leq,
    codims,
    decompose,
    dn_distinguished,
    effective_divisibility,
    elements_of_length,
    get_context,
    is_proper_subdiagram,
    longest_in_quotient,
    md_pairs,
    morphism_constancy,
    quotient_dimension,
    quotient_elements_of_length,
    spinor_coset_words,
    stumbo_word,
    subword_oracle,
)
from egd.engine import _brute_ed

APPENDIX_D4 = [
    ((1, 2, 3), (4, 2, 3, 1, 2, 4, 1, 2, 1)),
    ((1, 2, 4), (3, 2, 4, 1, 2, 3, 1, 2, 1)),
    ((3, 2, 1), (4, 2, 3, 1, 2, 4, 2, 3, 2)),
    ((3, 2, 4), (1, 2, 4, 1, 2, 3, 1, 2, 1)),
    ((4, 2, 1), (2, 3, 1, 2, 4, 1, 2, 3, 2)),
    ((4, 2, 3), (2, 3, 1, 2, 4, 3, 1, 2, 1)),
]
APPENDIX_D4_TAGS = [{3}, {4}, {1}, {4}, {1}, {3}]

APPENDIX_D5 = [
    ((1, 2, 3, 4), (4, 3, 5, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 1, 2, 1)),
    ((1, 2, 3, 5), (5, 3, 4, 2, 3, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1)),
    ((4, 3, 2, 1), (3, 5, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 4, 2, 3, 2)),
    ((5, 3, 2, 1), (4, 3, 5, 2, 3, 4, 1, 2, 3, 5, 2, 3, 4, 2, 3, 2)),
]


def report(num, ok, elapsed, limit, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.2f}s / limit {limit:.0f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def flag(diagram):
    spec = DynkinSpec.parse(diagram)
    return MarkedDiagram(spec, frozenset(spec.nodes))


def test_criterion_1_coxeter_numbers():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        ok &= get_context(DynkinSpec("A", n)).coxeter_number() == n + 1
    for n in range(2, 9):
        ok &= get_context(DynkinSpec("B", n)).coxeter_number() == 2 * n
        ok &= get_context(DynkinSpec("C", n)).coxeter_number() == 2 * n
    for n in range(4, 9):
        ok &= get_context(DynkinSpec("D", n)).coxeter_number() == 2 * n - 2
    report(1, ok, time.perf_counter() - t0, 5.0, "Coxeter numbers A1-A8, B/C2-8, D4-8")


def test_criterion_2_flag_divisibility_classical():
    t0 = time.perf_counter()
    ok = True
    for diagram in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "D5"):
        ctx = get_context(DynkinSpec.parse(diagram))
        res = effective_divisibility(flag(diagram), "brute_force")
        ok &= res.value == ctx.coxeter_number() - 1
    report(2, ok, time.perf_counter() - t0, 60.0, "flag ed = coxeter number - 1")


def test_criterion_2_flag_divisibility_g2():
    t0 = time.perf_counter()
    res = effective_divisibility(flag("G2"), "brute_force")
    report(2, res.value == 5, time.perf_counter() - t0, 5.0, "G2 flag ed = 5")


def test_criterion_2_flag_divisibility_f4():
    t0 = time.perf_counter()
    res = effective_divisibility(flag("F4"), "both")
    ok = res.value == 12 and res.method == "both"
    report(2, ok, time.perf_counter() - t0, 600.0, "F4 flag ed = 12")


def test_criterion_2_flag_divisibility_e6_extended():
    t0 = time.perf_counter()
    res = effective_divisibility(flag("E6"), "both")
    ok = res.value == 12 and res.method == "both"
    report(2, ok, time.perf_counter() - t0, 3600.0, "E6 flag ed = 12")


def test_criterion_3_single_picard_rank_values():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 5):
        spec = DynkinSpec("D", n)
        for k in range(1, n + 1):
            for marked in itertools.combinations(spec.nodes, k):
                res = effective_divisibility(
                    MarkedDiagram(spec, frozenset(marked)), "both"
                )
                want = 2 * n - 3 if set(marked) & {1, n - 1, n} else 2 * n - 2
                ok &= res.value == want
    for family in ("A", "B"):
        spec = DynkinSpec(family, 3)
        flag_value = effective_divisibility(
            MarkedDiagram(spec, frozenset(spec.nodes)), "both"
        ).value
        for k in range(1, 4):
            for marked in itertools.combinations(spec.nodes, k):
                res = effective_divisibility(
                    MarkedDiagram(spec, frozenset(marked)), "both"
                )
                ok &= res.value == flag_value
    report(3, ok, time.perf_counter() - t0, 300.0, "ed over every nonempty marked set")


def test_criterion_4_published_md_pair_listings():
    t0 = time.perf_counter()
    ok = True
    for diagram, appendix in (("D4", APPENDIX_D4), ("D5", APPENDIX_D5)):
        ctx = get_context(DynkinSpec.parse(diagram))
        pairs = md_pairs(flag(diagram))
        ok &= len(pairs) == len(appendix)
        expected = [(ctx.from_word(v), ctx.from_word(u)) for v, u in appendix]
        got = [(p.v, p.u) for p in pairs]
        ok &= set(got) == set(expected)
        ok &= got == expected  # same deterministic numbering as the published list
    report(4, ok, time.perf_counter() - t0, 60.0, "D4 and D5 md-pair listings")


def test_criterion_5_classification_and_decomposition():
    t0 = time.perf_counter()
    ok = True

    ctx4 = get_context(DynkinSpec("D", 4))
    pairs4 = md_pairs(flag("D4"), classify=True)
    by_elements = {(p.v, p.u): p.tags for p in pairs4}
    for (v_word, u_word), tags in zip(APPENDIX_D4, APPENDIX_D4_TAGS):
        key = (ctx4.from_word(v_word), ctx4.from_word(u_word))
        ok &= by_elements.get(key) == frozenset(tags)

    ctx5 = get_context(DynkinSpec("D", 5))
    pairs5 = md_pairs(flag("D5"), classify=True)
    by_elements5 = {(p.v, p.u): p.tags for p in pairs5}
    for v_word, u_word in APPENDIX_D5[2:]:  # published pairs 3 and 4
        key = (ctx5.from_word(v_word), ctx5.from_word(u_word))
        ok &= by_elements5.get(key) == frozenset({1})

    u = ctx5.from_word([4, 3, 5, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 1, 2, 1])
    dec = decompose(ctx5, u, {2, 3, 4, 5})
    ok &= dec.up == ctx5.from_word([2, 3, 5, 4, 3, 2, 1])
    # the published session prints the descent-strip sequence; reading it
    # right to left gives the W_J factor, and recomposition must hold
    ok &= dec.strip == (2, 3, 2, 5, 3, 2, 4, 3, 5)
    ok &= dec.down == ctx5.from_word(tuple(reversed(dec.strip)))
    ok &= ctx5.multiply(dec.up, dec.down) == u

    report(5, ok, time.perf_counter() - t0, 60.0, "pullback tags and decomposition")


def test_criterion_6_order_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for diagram in ("A3", "B3"):
        ctx = get_context(DynkinSpec.parse(diagram))
        elems = [
            e
            for l in range(ctx.longest_element.length + 1)
            for e in elements_of_length(ctx, l)
        ]
        for v in elems:
            for u in elems:
                if bruhat_leq(ctx, v, u) != subword_oracle(ctx, v.word(), u.word()):
                    ok = False
    ctx = get_context(DynkinSpec("D", 4))
    elems = [e for l in range(13) for e in elements_of_length(ctx, l)]
    rng = random.Random(1729)
    for _ in range(10_000):
        v, u = rng.choice(elems), rng.choice(elems)
        if bruhat_leq(ctx, v, u) != subword_oracle(ctx, v.word(), u.word()):
            ok = False
    report(6, ok, time.perf_counter() - t0, 120.0, "descent recursion == subword scan")


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    ok = True

    # decomposition invariants on every element for every parabolic set
    for diagram in ("A3", "B3", "D4"):
        spec = DynkinSpec.parse(diagram)
        ctx = get_context(spec)
        elems = [
            e
            for l in range(ctx.longest_element.length + 1)
            for e in elements_of_length(ctx, l)
        ]
        for k in range(spec.rank + 1):
            for jset in itertools.combinations(spec.nodes, k):
                jset = frozenset(jset)
                for w in elems:
                    dec = decompose(ctx, w, jset)
                    ok &= ctx.multiply(dec.up, dec.down) == w
                    ok &= dec.up.length + dec.down.length == w.length
                    ok &= all(dec.up.perm[j - 1] > 0 for j in jset)
                    ok &= set(ctx.canonical_word(dec.down)) <= set(jset)
                    cd = codims(ctx, w, jset)
                    ok &= cd.c_total == cd.cJ_up + cd.cJ_down

    # divisibility is monotone along parabolic inclusions
    for diagram in ("A3", "B3", "D4"):
        spec = DynkinSpec.parse(diagram)
        ctx = get_context(spec)
        ed_of = {}
        for k in range(spec.rank + 1):
            for jset in itertools.combinations(spec.nodes, k):
                jset = frozenset(jset)
                ed_of[jset] = (
                    float("inf")
                    if jset == frozenset(spec.nodes)
                    else _brute_ed(spec, jset)[0]
                )
        for j1, e1 in ed_of.items():
            for j2, e2 in ed_of.items():
                if j1 <= j2:
                    ok &= e1 <= e2

    # conjugation parity of the longest element in type D
    for n in (4, 5, 6):
        ctx = get_context(DynkinSpec("D", n))
        dist = dn_distinguished(ctx)
        w0 = ctx.longest_element
        expected = dist.w_alpha if n % 2 == 0 else dist.w_beta
        ok &= ctx.multiply(w0, dist.w_alpha) == ctx.multiply(expected, w0)

    # Stumbo expressions hit the top of the node-1 quotient, classical ranks <= 6
    for family, ranks in (
        ("A", range(1, 7)),
        ("B", range(2, 7)),
        ("C", range(2, 7)),
        ("D", range(4, 7)),
    ):
        for n in ranks:
            spec = DynkinSpec(family, n)
            ctx = get_context(spec)
            elem = ctx.from_word(stumbo_word(spec))
            ok &= elem == longest_in_quotient(ctx, frozenset(spec.nodes) - {1})
            ok &= elem.length == len(stumbo_word(spec))

    # spinor sequences biject onto the node-n quotient
    for n in (4, 5):
        ctx = get_context(DynkinSpec("D", n))
        iset = frozenset(range(1, n))
        seen = set()
        for seq, word in spinor_coset_words(ctx):
            elem = ctx.from_word(word)
            ok &= elem.length == len(word) == sum(seq)
            seen.add(elem)
        bfs = set()
        for l in range(quotient_dimension(ctx, iset) + 1):
            bfs.update(quotient_elements_of_length(ctx, iset, l))
        ok &= seen == bfs and len(seen) == 2 ** (n - 1)

    report(7, ok, time.perf_counter() - t0, 300.0, "decomposition/monotonicity/parity/Stumbo/spinor")


def _cli_bytes(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "egd.cli", *argv],
        capture_output=True,
        check=True,
    )
    return proc.stdout


@pytest.mark.skipif(
    not os.environ.get("EGD_EXTENDED"),
    reason="extended E7 flag sweep; set EGD_EXTENDED=1 to run",
)
def test_e7_flag_regression_extended():
    # self-generated regression data, not a published value: the coset-order
    # sweep of the E7 flag (about 3 s) fails first at degree 20, with one
    # md pair in the half l(v) <= c^J(u)
    out = json.loads(
        _cli_bytes("ed", "E7", "all", "--mode", "brute", "--budget", "3000000", "--json")
    )
    assert out["ed"] == 19
    assert {p["len_v"] + p["codim_u"] for p in out["mdpairs"]} == {20}
    assert len(out["mdpairs"]) == 1


def test_criterion_8_worker_determinism():
    t0 = time.perf_counter()
    ok = True
    for base in (("ed", "D5", "all"), ("mdpairs", "D5", "all")):
        one = _cli_bytes(*base, "--workers", "1")
        eight = _cli_bytes(*base, "--workers", "8")
        ok &= one == eight and len(one) > 0
    report(8, ok, time.perf_counter() - t0, 120.0, "byte-identical output, 1 vs 8 workers")


def test_criterion_9_morphism_checker():
    t0 = time.perf_counter()
    ok = True
    diagrams = [DynkinSpec.parse(d) for d in ("A2", "A3", "B2", "B3", "D4")]
    pairs_checked = 0
    for src in diagrams:
        for tgt in diagrams:
            if not is_proper_subdiagram(tgt, src):
                continue
            for r_src in src.nodes:
                for r_tgt in tgt.nodes:
                    verdict = morphism_constancy(
                        MarkedDiagram(src, frozenset({r_src})),
                        MarkedDiagram(tgt, frozenset({r_tgt})),
                    )
                    ok &= verdict.verdict == "constant"
                    ok &= verdict.subdiagram_rule
                    pairs_checked += 1
    ok &= pairs_checked > 0
    for spec in diagrams:
        for r in spec.nodes:
            md = MarkedDiagram(spec, frozenset({r}))
            ok &= morphism_constancy(md, md).verdict == "inconclusive"
    report(9, ok, time.perf_counter() - t0, 60.0, "subdiagram morphisms constant")
