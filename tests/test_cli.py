"""CLI surface: text layouts, JSON round trips, exit codes, determinism."""

import json
from pathlib import Path

import pytest

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


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "ed", "Z4", "all")[0] == 2
    assert run(capsys, "ed", "D4", "9")[0] == 2
    assert run(capsys, "ed", "D4", "none")[0] == 2
    assert run(capsys, "decompose", "D4", "1,7", "none")[0] == 2
    assert run(capsys, "morphism", "bogus", "A2:1")[0] == 2


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
        # strata lengths outside 0..l(w_0); A60 would take seconds to build
        ("strata", "D4", "-1"),
        ("strata", "D4", "13"),
        ("strata", "D4", "-1", "2,3,4"),
        ("strata", "A60", "2000"),
    ],
)
def test_bad_workers_and_budget_rejected_before_build(capsys, monkeypatch, argv):
    import egd.engine

    built = {}
    monkeypatch.setattr(egd.engine, "_context_cache", built)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert built == {}


def test_strata_length_past_quotient_dimension(capsys):
    # 7 <= l(w_0) = 12 passes the early check; W^J of D4(1) has lengths 0..6
    code, out, err = run(capsys, "strata", "D4", "7", "2,3,4")
    assert code == 2 and out == ""
    assert err.startswith("error: no stratum of length 7")


def test_zero_budget_still_accepted(capsys):
    # 0 is in range: the closed form answers, brute force is infeasible
    code, out, _ = run(capsys, "ed", "D4", "all", "--budget", "0")
    assert code == 0 and "method = closed_form" in out.splitlines()
    assert run(capsys, "ed", "D4", "all", "--mode", "brute", "--budget", "0")[0] == 3


def test_exit_code_infeasible(capsys):
    code, _, err = run(capsys, "ed", "E7", "all")
    assert code == 3 and "infeasible" in err
    code, _, err = run(capsys, "ed", "E6", "all", "--mode", "brute")
    assert code == 3


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
