"""Tests of the benchmark harness itself: python3 -m pytest perfbench

They run the seconds-long ``smoke`` workload (D4 flag and A3(1)) in both
modes and check metric names, units, the output contract and the output
checks against deliberately wrong output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from reference import APPENDIX_D4, check_output, d_element  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_reports_every_metric(trace, section):
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "smoke error_rate: 0.0000" in proc.stdout


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "flags", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


ED_D4 = """ed D4(1,2,3,4) mode=both
ed = 5
method = both
closed_form = 5
brute_force = 5
witness: l(v)= 3 c(u)= 3 v=[1,2,3] u=[2,3,2,4,2,1,3,2,4]
"""

MD_D4 = """mdpairs D4(1,2,3,4) degree=6
1) l(v)= 3 c(u)= 3 v=[1,2,3] u=[2,3,2,4,2,1,3,2,4]
2) l(v)= 3 c(u)= 3 v=[1,2,4] u=[2,3,2,1,4,2,1,3,2]
3) l(v)= 3 c(u)= 3 v=[3,2,1] u=[1,2,1,4,2,1,3,2,4]
4) l(v)= 3 c(u)= 3 v=[3,2,4] u=[1,2,1,3,4,2,1,3,2]
5) l(v)= 3 c(u)= 3 v=[4,2,1] u=[1,2,1,3,2,1,4,2,3]
6) l(v)= 3 c(u)= 3 v=[4,2,3] u=[1,2,1,3,2,1,4,2,1]
total 6
"""


def test_checks_accept_correct_output():
    assert check_output(["ed", "D4", "all", "--mode", "both"], 0, ED_D4) == []
    assert check_output(["mdpairs", "D4", "all"], 0, MD_D4) == []


def test_checks_reject_wrong_output():
    assert check_output(["ed", "D4", "all", "--mode", "both"], 0, ED_D4.replace("= 5", "= 6"))
    assert check_output(["ed", "D4", "all", "--mode", "both"], 1, ED_D4)
    assert check_output(["ed", "D4", "all", "--mode", "both"], 0, ED_D4.replace("c(u)= 3", "c(u)= 4"))
    lines = MD_D4.splitlines()
    swapped = [lines[0], lines[2].replace("2)", "1)"), lines[1].replace("1)", "2)"), *lines[3:]]
    assert check_output(["mdpairs", "D4", "all"], 0, "\n".join(swapped))
    other_u = MD_D4.replace("u=[1,2,1,3,2,1,4,2,1]", "u=[1,2,1,3,2,1,4,2,3]")
    assert check_output(["mdpairs", "D4", "all"], 0, other_u)


def test_signed_permutation_model_of_d4():
    # Printed canonical words and appendix words name the same elements.
    assert d_element(4, (2, 3, 2, 4, 2, 1, 3, 2, 4)) == d_element(4, APPENDIX_D4[0][1])
    # Braid relations of D4: s2 s3 s2 = s3 s2 s3, s3 s4 = s4 s3, s2 s4 s2 = s4 s2 s4.
    assert d_element(4, (2, 3, 2)) == d_element(4, (3, 2, 3))
    assert d_element(4, (3, 4)) == d_element(4, (4, 3))
    assert d_element(4, (2, 4, 2)) == d_element(4, (4, 2, 4))
    assert d_element(4, (1, 2)) != d_element(4, (2, 1))
