"""CLI surface: text layouts, JSON round trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egd
from egd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ed_text(capsys):
    code, out, _ = run(capsys, "ed", "D4", "all", "--mode", "both")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ed D4(1,2,3,4) mode=both"
    assert "ed = 5" in lines
    assert "method = both" in lines
    assert any(line.startswith("witness: l(v)= 3 c(u)= 3 v=[1,2,3]") for line in lines)


def test_ed_theorem2_exception(capsys):
    code, out, _ = run(capsys, "ed", "D4", "2", "--mode", "both")
    assert code == 0
    assert "ed = 6" in out.splitlines()


def test_ed_a1(capsys):
    code, out, _ = run(capsys, "ed", "A1", "all")
    assert code == 0
    assert "ed = 1" in out.splitlines()


def test_ed_json_round_trip(capsys):
    code, out, _ = run(capsys, "ed", "D4", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagram"] == "D4" and payload["marked"] == [2]
    assert payload["ed"] == 6 and payload["method"] == "both"
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")


def test_mdpairs_text_layout(capsys):
    code, out, _ = run(capsys, "mdpairs", "D4", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mdpairs D4(1,2,3,4) degree=6"
    assert len(lines) == 8 and lines[-1] == "total 6"
    assert lines[1].startswith("1) l(v)= 3 c(u)= 3 v=[1,2,3] u=[")
    assert lines[3].startswith("3) l(v)= 3 c(u)= 3 v=[3,2,1] u=[")


def test_mdpairs_classified(capsys):
    code, out, _ = run(capsys, "mdpairs", "D5", "all", "--classify")
    assert code == 0
    tags = [line.rsplit("tags=", 1)[1] for line in out.splitlines()[1:5]]
    assert sorted(tags) == ["{1}", "{1}", "{4}", "{5}"]


def test_mdpairs_a2(capsys):
    code, out, _ = run(capsys, "mdpairs", "A2", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1) l(v)= 1 c(u)= 2 v=[1] u=[2]"
    assert lines[2] == "2) l(v)= 1 c(u)= 2 v=[2] u=[1]"
    assert lines[3] == "total 2"


def test_mdpairs_below_threshold_empty(capsys):
    code, out, _ = run(capsys, "mdpairs", "D4", "all", "--degree", "5")
    assert code == 0
    assert out.splitlines()[-1] == "total 0"


def test_mdpairs_json_round_trip(capsys):
    code, out, _ = run(capsys, "mdpairs", "D5", "all", "--classify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ed"] == 7 and len(payload["mdpairs"]) == 4
    assert payload["mdpairs"][0]["v"] == "1,2,3,4"
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")


def test_decompose_session(capsys):
    code, out, _ = run(
        capsys, "decompose", "D5", "4,3,5,2,3,4,1,2,3,5,1,2,3,1,2,1", "2,3,4,5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("u^J=2,3,4,5,3,2,1  u_J=")
    assert lines[2] == "l(u^J)=7  l(u_J)=9"
    assert lines[3] == "c^J(u)=1  c_J(u)=3  c(u)=4"


def test_decompose_trivial_parabolic(capsys):
    code, out, _ = run(capsys, "decompose", "A3", "1,2,3", "none")
    assert code == 0
    assert "u^J=1,2,3  u_J=" in out


def test_decompose_b3_full_word(capsys):
    code, out, _ = run(
        capsys, "decompose", "B3", "1,2,3,2,1,2,3,2,3", "2,3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["up"] == "1,2,3,2,1"
    assert payload["l_down"] == 4
    assert payload["l_up"] == 5


def test_morphism_text(capsys):
    code, out, _ = run(capsys, "morphism", "A4:1", "A3:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "verdict: constant"
    assert lines[2] == "ed(A4(1)) = 4 > ed(A3(2)) = 3"
    assert any("subdiagram" in line for line in lines)


def test_morphism_inconclusive(capsys):
    code, out, _ = run(capsys, "morphism", "A2:1", "A2:1")
    assert code == 0
    assert "verdict: inconclusive" in out


def test_morphism_supplied_ed(capsys):
    code, out, _ = run(capsys, "morphism", "9", "D4:2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "constant" and payload["source_ed"] == 9


def test_strata_dump(capsys):
    code, out, _ = run(capsys, "strata", "D4", "3", "2,3,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "strata D4 J=2,3,4 l=3"
    assert lines[-1] == "total 2"
    code, out, _ = run(capsys, "strata", "D4", "3", "2,3,4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "diagram": "D4", "parabolic": [2, 3, 4], "length": 3, "elements": lines[1:-1]
    }
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "ed", "Z4", "all")[0] == 2
    assert run(capsys, "ed", "D4", "9")[0] == 2
    assert run(capsys, "ed", "D4", "none")[0] == 2
    assert run(capsys, "decompose", "D4", "1,7", "none")[0] == 2
    assert run(capsys, "morphism", "bogus", "A2:1")[0] == 2


def test_unparsable_node_set_exits_2(capsys):
    assert run(capsys, "ed", "D4", "1,x") == (2, "", "error: cannot parse node set '1,x'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("ed", "D4", "9,40"),
        ("mdpairs", "D4", "40,9"),
        ("morphism", "A4:9,40", "A3:2"),
        ("strata", "D4", "1", "9,40"),
        ("decompose", "D4", "1", "40,9"),
    ],
)
def test_out_of_range_nodes_listed_sorted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "nodes [9, 40] outside diagram" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ed", "D4", "all", "--workers", "0"),
        ("ed", "D4", "all", "--budget", "-5"),
        ("mdpairs", "D4", "all", "--workers", "-1"),
        ("mdpairs", "D4", "all", "--budget", "-1"),
        ("morphism", "A4:1", "A3:2", "--workers", "0"),
        ("morphism", "A4:1", "A3:2", "--budget", "-5"),
        # strata lengths outside 0..dim G/P_J; A60 would take seconds to build
        ("strata", "D4", "-1"),
        ("strata", "D4", "13"),
        ("strata", "D4", "-1", "2,3,4"),
        ("strata", "D4", "7", "2,3,4"),
        ("strata", "A60", "2000"),
        # an admitted root count, then a bad degree or letter: A100 is not built
        ("mdpairs", "A100", "1", "--degree", "999"),
        ("decompose", "A100", "0,1", "1"),
        # bad two ways: the length is checked before the root count
        ("strata", "A200", "99999", "2"),
        # refused before the sweep: classification is for family D only
        ("mdpairs", "A3", "all", "--classify"),
        # the target is checked before the source's sweep builds E7
        ("morphism", "E7:1,2", "D4:none"),
        # a bare ed value is a source only, and never negative
        ("morphism", "D4:2", "7"),
        ("morphism", "-3", "D4:2"),
    ],
)
def test_bad_workers_and_budget_rejected_before_build(capsys, monkeypatch, argv):
    import egd.engine

    def no_build(spec):
        raise AssertionError(f"built {spec}")

    built = {}
    monkeypatch.setattr(egd.engine, "_context_cache", built)
    monkeypatch.setattr(egd.engine, "build_group", no_build)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert built == {}


@pytest.mark.parametrize(
    "argv",
    [
        ("ed", "A200", "1", "--mode", "brute"),
        ("strata", "A200", "3"),
        ("decompose", "A200", "1", "2"),
        # bad two ways: the root count is checked before the letters
        ("decompose", "A200", "0", "1"),
        # a length in range: the root count is checked before the stratum is counted
        ("strata", "A200", "20000"),
    ],
)
def test_huge_group_refused_before_build(capsys, monkeypatch, argv):
    import egd.engine

    def no_build(spec):
        raise AssertionError(f"built {spec}")

    def no_count(spec, jset, l):
        raise AssertionError(f"counted stratum {l} of {spec}")

    built = {}
    monkeypatch.setattr(egd.engine, "_context_cache", built)
    monkeypatch.setattr(egd.engine, "build_group", no_build)
    monkeypatch.setattr(egd.engine, "stratum_size", no_count)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("infeasible: A200 has 20100 positive roots")
    assert out == ""
    assert built == {}


@pytest.mark.parametrize(
    "argv,node,cosets",
    [
        (("ed", "E8", "4"), 4, 483840),
        (("ed", "E8", "5"), 5, 241920),
        (("ed", "E8", "4", "--mode", "brute"), 4, 483840),
        (("ed", "E8", "3,5", "--budget", "100000000"), 5, 241920),
        (("ed", "E8", "5,6"), 5, 241920),
        (("mdpairs", "E8", "4"), 4, 483840),
        (("morphism", "E6:1", "E8:4"), 4, 483840),
    ],
)
def test_oversize_coset_order_refused_before_build(capsys, monkeypatch, argv, node, cosets):
    import egd.engine

    def no_build(spec):
        raise AssertionError(f"built {spec}")

    built = {}
    monkeypatch.setattr(egd.engine, "_context_cache", built)
    monkeypatch.setattr(egd.engine, "build_group", no_build)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith(f"infeasible: node {node} of E8 has {cosets} cosets")
    assert out == ""
    assert built == {}


def test_coset_limit_refuses_only_sweeps_without_closed_form():
    from egd import MarkedDiagram
    from egd.engine import DEFAULT_BUDGET, MAX_COSETS, _infeasibility, _oversize_cosets

    admitted = [
        ("E8", "3", DEFAULT_BUDGET),
        ("E7", "all", 3_000_000),
        # a node over the limit, but a closed form: swept pair by pair
        ("A19", "10", DEFAULT_BUDGET),
        ("B17", "17", DEFAULT_BUDGET),
        ("D18", "18", DEFAULT_BUDGET),
        ("A50", "4", DEFAULT_BUDGET),
        ("B30", "4", DEFAULT_BUDGET),
        ("D30", "4", DEFAULT_BUDGET),
    ]
    for diagram, marked, budget in admitted:
        md = MarkedDiagram.parse(diagram, marked)
        assert _infeasibility(md, budget) is None, (diagram, marked)
    for diagram, marked in [("A19", "10"), ("B17", "17"), ("D18", "18"), ("A50", "4")]:
        md = MarkedDiagram.parse(diagram, marked)
        assert _oversize_cosets(md.spec, md.parabolic_set), (diagram, marked)
    assert MAX_COSETS < 131072


def test_oversize_classical_quotient_swept_pair_by_pair(capsys, monkeypatch):
    # node 10 of A19 has C(20, 10) = 184,756 cosets: no coset order is
    # built, and brute force still runs and agrees with the closed form.
    # Its words are peeled off the weights, as on the bitset path
    from egd import DynkinSpec, WeylGroupContext
    from egd.bruhat import orbits

    def no_peel(ctx, x):
        raise AssertionError("canonical word of a built element")

    monkeypatch.setattr(WeylGroupContext, "canonical_word", no_peel)
    code, out, _ = run(capsys, "ed", "A19", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == [
        "ed A19(10) mode=both",
        "ed = 19",
        "method = both",
        "closed_form = 19",
        "brute_force = 19",
    ]
    assert lines[5].startswith("witness: l(v)= 10 c(u)= 10 v=[1,2,3,4,5,6,7,8,9,10] u=[11,10,")
    assert orbits(DynkinSpec.parse("A19")).coset_orders == {}


# stdout of commands answered on weights alone, recorded from this program
SWEEPS_WITHOUT_CONTEXT = {
    # node 10 of A19 is over MAX_COSETS: the pair-by-pair path, on words
    ("ed", "A19", "10"): (
        "ed A19(10) mode=both\ned = 19\nmethod = both\nclosed_form = 19\nbrute_force = 19\n"
        "witness: l(v)= 10 c(u)= 10 v=[1,2,3,4,5,6,7,8,9,10] "
        "u=[11,10,9,8,7,6,5,4,3,2,12,11,10,9,8,7,6,5,4,3,13,12,11,10,9,8,7,6,5,4,"
        "14,13,12,11,10,9,8,7,6,5,15,14,13,12,11,10,9,8,7,6,16,15,14,13,12,11,10,9,8,7,"
        "17,16,15,14,13,12,11,10,9,8,18,17,16,15,14,13,12,11,10,9,"
        "19,18,17,16,15,14,13,12,11,10]\n"
    ),
    ("ed", "A50", "1"): (
        "ed A50(1) mode=both\ned = 50\nmethod = both\nclosed_form = 50\n"
        "brute_force = 50\ncapped at the dimension\nwitness: l(v)= 1 c(u)= 50 v=[1] u=[]\n"
    ),
    ("ed", "E8", "1", "--mode", "brute"): (
        "ed E8(1) mode=brute_force\ned = 46\nmethod = brute_force\nbrute_force = 46\n"
        "witness: l(v)= 18 c(u)= 29 v=[8,7,6,5,4,2,3,1,4,3,5,4,2,6,5,4,3,1] "
        "u=[2,4,3,1,5,4,2,3,4,5,6,5,4,2,3,1,4,3,5,4,2,7,6,5,4,2,3,1,4,3,5,4,2,6,5,4,3,"
        "7,6,5,4,2,8,7,6,5,4,3,1]\n"
    ),
    ("ed", "D6", "all"): (
        "ed D6(1,2,3,4,5,6) mode=both\ned = 9\nmethod = both\nclosed_form = 9\n"
        "brute_force = 9\nwitness: l(v)= 5 c(u)= 5 v=[1,2,3,4,5] "
        "u=[2,3,2,4,3,2,5,4,3,2,6,4,3,2,1,5,4,3,2,6,4,3,5,4,6]\n"
    ),
    ("mdpairs", "D4", "all"): (
        "mdpairs D4(1,2,3,4) degree=6\n"
        "1) l(v)= 3 c(u)= 3 v=[1,2,3] u=[2,3,2,4,2,1,3,2,4]\n"
        "2) l(v)= 3 c(u)= 3 v=[1,2,4] u=[2,3,2,1,4,2,1,3,2]\n"
        "3) l(v)= 3 c(u)= 3 v=[3,2,1] u=[1,2,1,4,2,1,3,2,4]\n"
        "4) l(v)= 3 c(u)= 3 v=[3,2,4] u=[1,2,1,3,4,2,1,3,2]\n"
        "5) l(v)= 3 c(u)= 3 v=[4,2,1] u=[1,2,1,3,2,1,4,2,3]\n"
        "6) l(v)= 3 c(u)= 3 v=[4,2,3] u=[1,2,1,3,2,1,4,2,1]\n"
        "total 6\n"
    ),
    ("morphism", "A4:1", "A3:2"): (
        "morphism A4(1) -> A3(2)\nverdict: constant\ned(A4(1)) = 4 > ed(A3(2)) = 3\n"
        "subdiagram rule: the target diagram is a proper subdiagram of the source\n"
    ),
    # tags read off the weights x(omega_r), r = 1, 4, 5
    ("mdpairs", "D5", "all", "--classify"): (
        "mdpairs D5(1,2,3,4,5) degree=8\n"
        "1) l(v)= 4 c(u)= 4 v=[1,2,3,4] u=[2,3,2,4,3,2,1,5,3,2,1,4,3,2,5,3] tags={4}\n"
        "2) l(v)= 4 c(u)= 4 v=[1,2,3,5] u=[2,3,2,4,3,2,5,3,2,1,4,3,2,5,3,4] tags={5}\n"
        "3) l(v)= 4 c(u)= 4 v=[4,3,2,1] u=[1,2,1,3,2,1,5,3,2,1,4,3,2,5,3,4] tags={1}\n"
        "4) l(v)= 4 c(u)= 4 v=[5,3,2,1] u=[1,2,1,3,2,1,4,3,2,1,5,3,2,4,3,5] tags={1}\n"
        "total 4\n"
    ),
    # a stratum and a decomposition are words peeled off the weights too
    ("strata", "D4", "3", "2,3,4"): "strata D4 J=2,3,4 l=3\n3,2,1\n4,2,1\ntotal 2\n",
    ("decompose", "D5", "4,3,5,2,3,4,1,2,3,5,1,2,3,1,2,1", "2,3,4,5"): (
        "decompose D5 w=4,3,5,2,3,4,1,2,3,5,1,2,3,1,2,1 J=2,3,4,5\n"
        "u^J=2,3,4,5,3,2,1  u_J=3,4,3,5,3,2,4,3,5\nl(u^J)=7  l(u_J)=9\n"
        "c^J(u)=1  c_J(u)=3  c(u)=4\n"
    ),
}


@pytest.mark.parametrize("argv", list(SWEEPS_WITHOUT_CONTEXT), ids=" ".join)
def test_sweeps_build_no_root_system(capsys, monkeypatch, argv):
    # the sweeps read weights, coset orders and words peeled off the
    # weights, and so do `strata` and `decompose`: no WeylGroupContext
    import egd.engine

    def no_build(spec):
        raise AssertionError(f"built {spec}")

    built = {}
    monkeypatch.setattr(egd.engine, "_context_cache", built)
    monkeypatch.setattr(egd.engine, "build_group", no_build)
    assert run(capsys, *argv) == (0, SWEEPS_WITHOUT_CONTEXT[argv], "")
    assert built == {}


def test_root_limit_admits_the_largest_benchmarked_groups():
    from egd import DynkinSpec
    from egd.dynkin import num_positive_roots
    from egd.engine import MAX_POSITIVE_ROOTS

    for text in ("A50", "B30", "D30", "E8", "A100"):
        assert num_positive_roots(DynkinSpec.parse(text)) <= MAX_POSITIVE_ROOTS
    assert num_positive_roots(DynkinSpec.parse("A101")) > MAX_POSITIVE_ROOTS


def test_strata_length_past_quotient_dimension(capsys):
    # the bound is dim G/P_J from the degree table: W^J of D4(1) has lengths 0..6
    code, out, err = run(capsys, "strata", "D4", "7", "2,3,4")
    assert code == 2 and out == ""
    assert err == "error: no stratum of length 7; W^J has lengths 0..6\n"


def test_oversize_stratum_refused_before_build(capsys, monkeypatch):
    # the limit bounds the weights of strata 0..min(l, dim - l), none larger
    # than stratum l (unimodal), plus the words of stratum l
    import egd.bruhat
    from egd import DynkinSpec
    from egd.dynkin import stratum_size
    from egd.engine import MAX_STRATUM_ENTRIES

    def no_growth(store, l):
        raise AssertionError(f"grew stratum {l}")

    monkeypatch.setattr(egd.bruhat._Strata, "grow", no_growth)
    a100 = DynkinSpec.parse("A100")
    # A100(1) has dimension 5049: strata 3 and 5046 both grow strata 0..3
    for length, m in ((999, 999), (5046, 3)):
        size = stratum_size(a100, {2}, m)
        assert size == stratum_size(a100, {2}, length)
        entries = size * ((m + 1) * 100 + length)
        code, out, err = run(capsys, "strata", "A100", str(length), "2")
        assert code == 3 and out == ""
        assert err == (
            f"infeasible: stratum {length} of A100 has {size} elements, whose weights and "
            f"words take up to {entries} entries, over the limit of {MAX_STRATUM_ENTRIES}\n"
        )
    # stratum 3 of A100(1), 166,649 elements, is admitted (CI lists it under
    # 4 GB), and so is `strata E7 20 none`, 58,009 elements
    assert stratum_size(a100, {2}, 3) == 166649
    assert 166649 * (4 * 100 + 3) <= MAX_STRATUM_ENTRIES
    assert stratum_size(DynkinSpec.parse("E7"), (), 20) == 58009
    assert 58009 * (21 * 7 + 20) <= MAX_STRATUM_ENTRIES


def test_zero_budget_still_accepted(capsys):
    # 0 is in range: the closed form answers, brute force is infeasible
    code, out, _ = run(capsys, "ed", "D4", "all", "--budget", "0")
    assert code == 0 and "method = closed_form" in out.splitlines()
    assert run(capsys, "ed", "D4", "all", "--mode", "brute", "--budget", "0")[0] == 3


def test_exit_code_infeasible(capsys):
    code, _, err = run(capsys, "ed", "E7", "all")
    assert code == 3 and "infeasible" in err
    code, _, err = run(capsys, "ed", "E7", "all", "--mode", "brute")
    assert code == 3 and "infeasible" in err
    # the E6 flag is under the budget: swept without any flag
    code, out, _ = run(capsys, "ed", "E6", "all", "--mode", "brute")
    assert code == 0 and "ed = 12" in out.splitlines()
    code, out, _ = run(capsys, "mdpairs", "E6", "all")
    assert code == 0 and out.splitlines()[-1] == "total 2"


@pytest.mark.parametrize(
    "argv,code,first",
    [
        # over the root limit: the closed form answers, |W^J| is never counted
        (("ed", "A1600", "all"), 0, "ed = 1600"),
        (("ed", "A1600", "all", "--mode", "closed"), 0, "ed = 1600"),
        (("ed", "A200", "1"), 0, "ed = 200"),
        (("ed", "A200000", "1", "--mode", "closed"), 0, "ed = 200000"),
        (("ed", "A500000", "1"), 0, "ed = 500000"),
        # no closed form asked for: the root count refuses, in one line
        (("ed", "A500000", "1", "--mode", "brute"), 3,
         "infeasible: A500000 has 125000250000 positive roots, over the limit of 5050"),
        (("ed", "A1600", "all", "--mode", "brute"), 3,
         "infeasible: A1600 has 1280800 positive roots, over the limit of 5050"),
        (("mdpairs", "A2000", "all"), 3,
         "infeasible: A2000 has 2001000 positive roots, over the limit of 5050"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
)
def test_huge_rank_admission_is_bounded(capsys, monkeypatch, argv, code, first):
    # N of the whole diagram is read off its type: no diagram is walked
    import egd.dynkin
    import egd.engine

    def no_count(spec, jset):
        raise AssertionError(f"counted W^J of {spec}")

    def no_walk(spec):
        raise AssertionError(f"walked the bonds of {spec}")

    def no_nodes(spec):
        raise AssertionError(f"formed the nodes of {spec}")

    monkeypatch.setattr(egd.engine, "quotient_size", no_count)
    monkeypatch.setattr(egd.dynkin, "bonds", no_walk)
    if "A500000" in argv:  # J is formed only past the root refusal (`all` reads the nodes)
        monkeypatch.setattr(egd.dynkin.DynkinSpec, "nodes", property(no_nodes))
    got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert (out, err) == ("", first + "\n")
    else:
        assert out.splitlines()[1] == first and "method = closed_form" in out
        assert err == ""


def test_classified_degree_listings_follow_pullback_rule(capsys):
    # v = s3 s2 s1 s4 s2 has right descent 2: not in W^{S - {1}}, so no tag 1
    code, out, _ = run(capsys, "mdpairs", "D4", "2", "--degree", "10", "--classify")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "total 41"
    assert lines[36] == "36) l(v)= 5 c(u)= 5 v=[3,2,1,4,2] u=[2,1,4,2] tags={}"
    assert lines[39] == "39) l(v)= 5 c(u)= 5 v=[4,2,1,3,2] u=[2,1,3,2] tags={}"
    # every pair at degree dim + 1 of D4(1) is a pair of the quadric itself
    code, out, _ = run(capsys, "mdpairs", "D4", "1", "--degree", "7", "--classify")
    assert (code, out) == (
        0,
        "mdpairs D4(1) degree=7\n"
        "1) l(v)= 1 c(u)= 6 v=[1] u=[] tags={1}\n"
        "2) l(v)= 2 c(u)= 5 v=[2,1] u=[1] tags={1}\n"
        "3) l(v)= 3 c(u)= 4 v=[3,2,1] u=[2,1] tags={1}\n"
        "4) l(v)= 3 c(u)= 4 v=[4,2,1] u=[2,1] tags={1}\n"
        "total 4\n",
    )


def test_repeat_runs_byte_identical(capsys):
    first = run(capsys, "mdpairs", "D4", "all", "--classify")
    second = run(capsys, "mdpairs", "D4", "all", "--classify")
    assert first == second


def test_worker_count_does_not_change_output(capsys):
    one = run(capsys, "ed", "D4", "all", "--workers", "1")
    two = run(capsys, "ed", "D4", "all", "--workers", "2")
    assert one == two


REPO = Path(__file__).resolve().parents[1]


def _readme_examples():
    block = (REPO / "README.md").read_text().split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("egd ")]
    return [line.split("#")[0].strip() for line in lines]


def test_readme_examples_match_golden_output(capsys):
    """Every README CLI example against tests/data/readme_cli.json.

    The golden file holds stdout and exit codes recorded from this program's
    own output: self-generated regression data that pins the bytes across
    refactors, not an independent check of the values.
    """
    golden = json.loads((REPO / "tests" / "data" / "readme_cli.json").read_text())
    examples = _readme_examples()
    assert sorted(examples) == sorted(golden)
    for example in examples:
        code, out, _ = run(capsys, *example.split()[1:])
        want = golden[example]
        assert (code, out) == (want["rc"], want["stdout"]), example


# -- start-up ------------------------------------------------------------------


def _python(*args):
    """Run a fresh interpreter on the egd sources this test imports."""
    env = {**os.environ, "PYTHONPATH": str(Path(egd.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_import_loads_no_dataclasses_or_json():
    # records are named tuples and --json imports json on demand
    proc = _python(
        "-S", "-c",
        "import sys, egd.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'json'} & set(sys.modules)))",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


DECOMPOSE_D5 = ["decompose", "D5", "4,3,5,2,3,4,1,2,3,5,1,2,3,1,2,1", "2,3,4,5"]


@pytest.mark.parametrize(
    "argv,loaded",
    [
        # both sweeps, listing, classification and morphism test run on weights
        (["ed", "A50", "1"], []),
        (["ed", "A19", "10"], []),
        (["mdpairs", "D5", "all", "--classify"], []),
        (["morphism", "D5:1", "A3:1"], []),
        # so do a stratum listing and a decomposition
        (["strata", "D4", "3", "2"], []),
        (DECOMPOSE_D5, []),
    ],
    ids=lambda arg: " ".join(arg) or "none",
)
def test_commands_load_only_the_modules_they_run(argv, loaded):
    proc = _python(
        "-S", "-c",
        "import sys, egd.cli\n"
        f"egd.cli.main({argv!r})\n"
        "print(sorted({'egd.weyl', 'egd.parabolic', 'dataclasses', 'json'} & set(sys.modules)))",
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == str(loaded)


# the package's exports when it imported every module eagerly
EXPORTS = [
    "BadLetter", "CodimData", "ContextMismatch", "Decomposition", "DegreeOutOfRange",
    "DnDistinguished", "DynkinSpec", "EdResult", "EgdError", "EmptyMarkedSet", "Infeasible",
    "InvalidRank", "LengthOutOfRange", "MarkedDiagram", "MdPair", "MorphismVerdict",
    "NonReducedInput", "NotClassical", "NotTypeD", "WeylElement", "WeylGroupContext", "Word",
    "bruhat", "bruhat_leq", "build_group", "classify_md_pairs", "closed_form_ed", "codims",
    "decompose", "dn_distinguished", "dynkin", "effective_divisibility", "elements_of_length",
    "engine", "errors", "format_word", "get_context", "group_order", "has_egd_up_to",
    "is_opposite_pullback", "is_proper_subdiagram", "is_schubert_pullback", "longest_in_WJ",
    "longest_in_quotient", "md_pairs", "morphism_constancy", "parabolic", "parabolic_order",
    "parse_word", "quotient_dimension", "quotient_elements_of_length", "spinor_coset_words",
    "stumbo_word", "subword_oracle", "weyl",
]


def test_star_import_binds_every_export_from_its_module():
    namespace = {}
    exec("from egd import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == egd.__all__ == dir(egd) == EXPORTS
    for name, value in namespace.items():
        if name in egd._EXPORTS:
            assert value is sys.modules[f"egd.{name}"]
        else:
            assert value is getattr(sys.modules[f"egd.{egd._ORIGIN[name]}"], name)
    # the library's decompose, not the engine's lazy global
    assert egd.decompose is egd.parabolic.decompose is not egd.engine.decompose
    assert egd.build_group is egd.weyl.build_group is not egd.engine.build_group
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        getattr(egd, "nonexistent")


def test_package_imports_a_module_on_first_access():
    # `import egd` loads no module: a fresh process resolves egd.parabolic
    # through the package's __getattr__
    proc = _python(
        "-S", "-c",
        "import sys, egd\n"
        "print('egd.parabolic' in sys.modules, egd.parabolic is sys.modules['egd.parabolic'])",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False True\n", "")


def test_cli_json_output_parses_in_a_fresh_process():
    proc = _python("-S", "-m", "egd.cli", "mdpairs", "D4", "all", "--json")
    assert proc.returncode == 0 and proc.stderr == ""
    record = json.loads(proc.stdout)
    assert record["degree"] == 6 and len(record["mdpairs"]) == 6
