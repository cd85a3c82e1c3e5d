#!/usr/bin/env python3
"""Benchmark of the egd CLI: end-to-end metrics and, traced, per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload flags --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0   # table of all

Every command runs in a fresh interpreter, one at a time (closed loop, one
client), with ``PYTHONPATH=src``.  ``--trace 0`` repeats the workload for at
least ``--seconds`` and reports per-command medians; ``--trace 1`` runs the
workload untraced at 1 and 2 workers, then twice under ``trace_cmd.py`` at
1 worker, and reports per-layer metrics.  Every output is checked against
``reference.py``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from reference import check_output  # noqa: E402

PY = sys.executable
COMMAND_TIMEOUT_S = 170
MIN_PASSES = 3
STARTUP_REPS = 7

# Workload -> (commands without --workers, default workers).  Inputs are
# fixed: the program is deterministic.  The seed only orders a pass's commands.
WORKLOADS = {
    "flags": ([
        ["ed", "D6", "all", "--mode", "both"],
        ["ed", "B5", "all", "--mode", "both"],
        ["ed", "F4", "all", "--mode", "both"],
        ["mdpairs", "D5", "all", "--classify"],
        ["mdpairs", "D4", "all"],
    ], 1),
    "quotients": ([
        ["ed", "E8", "1", "--mode", "brute"],
        ["ed", "E7", "2", "--mode", "brute"],
        ["ed", "E6", "3", "--mode", "brute"],
        ["ed", "D6", "2"],
        ["ed", "B5", "2,4"],
    ], 2),
    "high_rank": ([
        ["ed", "A50", "1"],
        ["ed", "B30", "1"],
        ["ed", "D30", "1"],
    ], 1),
    # Seconds-long check of metric names, units and parsing; not in BENCHMARK.json.
    "smoke": ([
        ["ed", "D4", "all", "--mode", "both"],
        ["ed", "A3", "1"],
    ], 1),
}
MAIN_WORKLOADS = ("flags", "quotients", "high_rank")

SETUP_CODE = "import sys, egd\nfor d in sys.argv[1:]: egd.get_context(egd.DynkinSpec.parse(d))"


ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_child(argv: list[str]) -> dict:
    """Run one process to completion; its wall, CPU (children included) and max RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "rc": proc.returncode,
        "stdout": out.decode(),
        "stderr": err[0].decode(),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def with_workers(cmd: list[str], workers: int) -> list[str]:
    return cmd + ["--workers", str(workers)]


def run_pass(commands: list[list[str]], workers: int, traced: bool = False) -> dict:
    """Run every command once, each in a fresh process, and check its output."""
    rows, errors = [], []
    for cmd in commands:
        argv = with_workers(cmd, workers)
        if traced:
            row = run_child([PY, str(HERE / "trace_cmd.py"), str(ROOT / "src"), *argv])
            if row["rc"] == 0:
                trace = json.loads(row["stdout"].splitlines()[-1])
                row.update(rc=trace["rc"], stdout=trace["stdout"], trace=trace)
        else:
            row = run_child([PY, "-m", "egd.cli", *argv])
        problems = check_output(argv, row["rc"], row["stdout"])
        if problems:
            errors.append(f"{' '.join(argv)}: {'; '.join(problems)} {row['stderr'][-500:]}")
        rows.append(row)
    return {
        "wall_s": sum(r["wall_s"] for r in rows),
        "cpu_s": sum(r["cpu_s"] for r in rows),
        "peak_rss_mb": max(r["rss_mb"] for r in rows),
        "rows": rows,
        "errors": errors,
    }


def setup_times(diagrams: list[str], errors: list[str]) -> list[float]:
    """Fresh-interpreter import of egd plus get_context of every diagram, repeated."""
    times = []
    while len(times) < 3 or (sum(times) < 2.0 and len(times) < 25):
        row = run_child([PY, "-c", SETUP_CODE, *diagrams])
        if row["rc"] != 0:
            errors.append(f"set-up of {diagrams} exited {row['rc']}: {row['stderr'][-500:]}")
        times.append(row["wall_s"])
    return times


def startup_times() -> list[float]:
    return [run_child([PY, "-c", "import egd.cli"])["wall_s"] for _ in range(STARTUP_REPS)]


def measure(commands, workers, diagrams, seconds) -> tuple[dict, dict, int, list[str]]:
    """Untraced: set-up repetitions, then passes for at least ``seconds``.

    wall_s and cpu_s sum each command's median over the passes, peak_rss_mb
    is the largest per-command median, setup_s the median set-up.  The
    samples returned alongside are per set-up and per pass.
    """
    errors = []
    samples = {"setup_s": setup_times(diagrams, errors)}
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(commands, workers))
    per_command = [[p["rows"][i] for p in passes] for i in range(len(commands))]

    def medians(key):
        return [statistics.median(r[key] for r in rows) for rows in per_command]

    values = {
        "wall_s": sum(medians("wall_s")),
        "cpu_s": sum(medians("cpu_s")),
        "peak_rss_mb": max(medians("rss_mb")),
        "setup_s": statistics.median(samples["setup_s"]),
    }
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [p[key] for p in passes]
    errors += [e for p in passes for e in p["errors"]]
    return values, samples, len(passes) * len(commands) + len(samples["setup_s"]), errors


def trace_counts(trace_pass: dict) -> dict:
    """Every count of a traced pass, keyed by command; they must repeat exactly."""
    counts = {}
    for i, row in enumerate(trace_pass["rows"]):
        t = row["trace"]
        for name, parent, calls, _ in t["spans"]:
            counts[i, name, parent] = calls
        for key in ("distinct_pairs", "swept_degrees", "memo_entries",
                    "strata_elements", "positive_roots"):
            counts[i, key] = t[key]
        for degree, (calls, _, violations) in t["degrees"].items():
            counts[i, "degree", degree] = (calls, violations)
    return counts


def layer_metrics(trace_pass: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, summed over its commands, plus detail."""
    calls, secs, self_s, degrees = {}, {}, {}, {}
    totals = dict.fromkeys(("distinct_pairs", "swept_degrees", "memo_entries", "strata_elements"), 0)
    roots = 0
    for row in trace_pass["rows"]:
        t = row["trace"]
        for name, parent, n, s in t["spans"]:
            calls[name, parent] = calls.get((name, parent), 0) + n
            secs[name, parent] = secs.get((name, parent), 0.0) + s
        for name, s in t["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for key in totals:
            totals[key] += t[key]
        for degree, row_d in t["degrees"].items():
            d = degrees.setdefault(int(degree), [0, 0.0, 0])
            for i, x in enumerate(row_d):
                d[i] += x
        roots = max(roots, t["positive_roots"])

    def total(table, name):
        return sum(v for (n, _), v in table.items() if n == name)

    leq_calls = total(calls, "bruhat.bruhat_leq")
    values = {
        "weyl.build.s": total(secs, "weyl.build_group"),
        "weyl.positive_roots": roots,
        "weyl.multiply.calls": total(calls, "weyl.multiply"),
        "weyl.multiply.s": total(secs, "weyl.multiply"),
        "bruhat.leq.calls": leq_calls,
        "bruhat.leq.self_s": self_s.get("bruhat.bruhat_leq", 0.0),
        "bruhat.leq.multiply_per_call":
            calls.get(("weyl.multiply", "bruhat.bruhat_leq"), 0) / leq_calls if leq_calls else 0.0,
        "bruhat.memo.entries": totals["memo_entries"],
        "bruhat.strata.s": total(secs, "bruhat.quotient_stratum"),
        "bruhat.strata.elements": totals["strata_elements"],
        "engine.sweep.degrees": totals["swept_degrees"],
        "engine.sweep.distinct_ratio": totals["distinct_pairs"] / leq_calls if leq_calls else 0.0,
        "engine.sweep.violations": sum(d[2] for d in degrees.values()),
        "engine.self_s": sum(s for name, s in self_s.items() if name.startswith("engine.")),
        "parabolic.decompose.calls": total(calls, "parabolic.decompose"),
    }
    # Times that read exactly 0 on workloads that never classify, so they
    # are detail rather than metrics.
    detail = {
        "parabolic.decompose.s": total(secs, "parabolic.decompose"),
        "engine.classify.s": total(secs, "engine.classify_md_pairs"),
        "per_degree": {d: {"calls": n, "s": s, "violations": v}
                       for d, (n, s, v) in sorted(degrees.items())},
        "per_span": sorted(([*key, calls[key], secs[key]] for key in calls), key=lambda r: -r[3]),
    }
    return values, detail


def trace(commands) -> tuple[dict, dict, int, list[str]]:
    """Untraced passes at 1 and 2 workers, then two traced passes at 1 worker."""
    startup = statistics.median(startup_times())
    plain1 = run_pass(commands, 1)
    plain2 = run_pass(commands, 2)
    traced = [run_pass(commands, 1, traced=True) for _ in range(2)]
    passes = [plain1, plain2, *traced]
    errors = [e for p in passes for e in p["errors"]]
    attempted = len(passes) * len(commands)
    if any("trace" not in row for p in traced for row in p["rows"]):
        return {}, {}, attempted, errors
    first, second = (trace_counts(p) for p in traced)
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        errors.append(f"traced counts differ between two passes: {diff[:10]}")
    (values, detail), (again, _) = (layer_metrics(p) for p in traced)
    for name, value in values.items():
        if isinstance(value, float):
            values[name] = (value + again[name]) / 2
    values["engine.pool.speedup_2w"] = plain1["wall_s"] / plain2["wall_s"]
    values["cli.startup_s"] = startup
    values["tracing.overhead_s"] = statistics.mean(p["wall_s"] for p in traced) - plain1["wall_s"]
    return values, detail, attempted, errors


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    commands, workers = WORKLOADS[name]
    commands = list(commands)
    random.Random(seed).shuffle(commands)
    diagrams = sorted({cmd[1] for cmd in commands})
    meta = {
        "workload": name, "seed": seed, "trace": int(traced), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "commit": git_commit(),
        "commands": [" ".join(["egd", *with_workers(c, workers)]) for c in commands],
    }
    print(json.dumps({"meta": meta}))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Warm-up: compiles bytecode so that no timed process pays for it.
    run_child([PY, "-c", "import egd.cli"])
    if traced:
        values, detail, attempted, errors = trace(commands)
        print(json.dumps({"detail": detail}))
        wanted = spec["per_layer"]
    else:
        values, samples, attempted, errors = measure(commands, workers, diagrams, seconds)
        for key, vals in samples.items():
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            print(f"{name} {key}: {values[key]:.4f}; per pass or set-up: "
                  f"median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(vals)}")
        wanted = spec["end_to_end"]
    for e in errors:
        print(f"ERROR {e}")
    print(f"{name} error_rate: {len(errors) / attempted:.4f} ({len(errors)} of {attempted} commands)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    return {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "egd" / "cli.py").is_file():
        print(f"error: no egd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = MAIN_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        print(f"{'workload':<10} {'metric':<30} {'value':>14} unit")
        for n, res in results.items():
            rate = res["failed"] / res["attempted"]
            for m, v in [*res["metrics"].items(), ("error_rate", {"value": rate, "unit": "ratio"})]:
                print(f"{n:<10} {m:<30} {v['value']:>14.4f} {v['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
