"""Self-check of the benchmark itself; exits 0 when every check passes.

Usage, from the repository root::

    python3 bench/selfcheck.py

1. ``BENCHMARK.json`` has the required keys and respects its size limits.
2. Every workload runs at tiny size, traced and untraced, and prints a last
   line with exactly the result keys and the declared metrics and units.
   Every per-layer metric except ``<module>.errors`` is nonzero on at least
   one workload.
3. A deliberately wrong reference makes the output checker count a failed op,
   and an exception inside a traced layer is counted in ``<module>.errors``.
4. Without the package sources beside it, ``run.py`` exits nonzero and
   prints no result.
5. The probe reads the same inside a memory-heavy job as inside a call-bound
   one, so ``job_norm`` moves only with the job's own time.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")

# About 25 job pairs: the ratio's run-to-run noise is then a few percent.
PROBE_BIAS_S = 30.0

# The warm probe still reads 2-7% slower inside the memory-heavy job; a cold
# single pass read 1.6-2.5x slower.
PROBE_BIAS_MAX = 0.10


def check_declaration(doc: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(doc)} != {sorted(keys)}")
    if not 1 <= len(doc["paths"]) <= 16 or not all(PATH.match(p) for p in doc["paths"]):
        problems.append("paths: 1 to 16 relative paths of allowed characters")
    if not 1 <= len(doc["command"]) <= 32 or any(len(a) > 200 for a in doc["command"]):
        problems.append("command: at most 32 strings of at most 200 characters")
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    sections = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    names = []
    for section, (lo, hi) in sections.items():
        entries = doc[section]
        if not lo <= len(entries) <= hi:
            problems.append(f"{section}: {len(entries)} entries, allowed {lo} to {hi}")
        for e in entries:
            names.append(e["name"])
            if not NAME.match(e["name"]):
                problems.append(f"{section}: bad name {e['name']!r}")
            if section == "workloads":
                if set(e) != {"name", "why"} or len(e["why"]) > 200 or "\n" in e["why"]:
                    problems.append(f"workload {e['name']}: needs a one-line why")
                continue
            want = {"name", "unit", "better"} | ({"bound"} if section == "end_to_end" else set())
            if set(e) != want:
                problems.append(f"{e['name']}: keys {sorted(e)} != {sorted(want)}")
            if not UNIT.match(e["unit"]) or e["better"] not in ("higher", "lower"):
                problems.append(f"{e['name']}: bad unit or better")
            if section == "end_to_end" and not 0 < e["bound"] <= 0.25:
                problems.append(f"{e['name']}: bound must lie in (0, 0.25]")
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    setup = [e for e in doc["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(e["bound"] for e in doc["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    if len(json.dumps(doc)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def check_result_line(line: str, declared: list[dict]) -> list[str]:
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"run was not correct: {result['failed']} failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        m = got.get(name, {})
        if set(m) != {"value", "unit"} or m["unit"] != unit or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name}: {m}")
    return problems


def tiny_runs(doc: dict) -> list[str]:
    problems = []
    nonzero: set[str] = set()
    for workload in (w["name"] for w in doc["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            declared = doc["per_layer" if trace else "end_to_end"]
            line = proc.stdout.splitlines()[-1]
            problems += [f"{where}: {p}" for p in check_result_line(line, declared)]
            if trace:
                metrics = json.loads(line)["metrics"]
                nonzero |= {name for name, m in metrics.items() if m["value"] != 0}
            print(f"selfcheck: {where} ok", flush=True)
    # The errors counters read 0 unless a layer raises; wrong_reference()
    # shows that they count.
    for m in doc["per_layer"]:
        if m["name"] not in nonzero and not m["name"].endswith(".errors"):
            problems.append(f"per-layer metric {m['name']} is 0 on every workload")
    return problems


def wrong_reference() -> list[str]:
    """A wrong reference must turn a correct job into a failed op."""
    import gen
    import run
    from tracing import Tracer

    sys.path.insert(0, str(run.SRC))
    from detectability import cli

    work = ROOT / ".bench_work" / "selfcheck"
    problems = []
    try:
        for workload, corrupt in (
            ("sim-iid", lambda s: s["refs"][1].update(ceiling=s["refs"][1]["ceiling"] + 1e-9)),
            ("corpus", lambda s: s["refs"][2].update(tv=s["refs"][2]["tv"] + 1e-9)),
            ("corpus", lambda s: s.update(auroc_floor=1.01)),
        ):
            gen.POOL[workload] = 1
            gen.generate(workload, 7, "tiny", work)
            good = json.loads((work / "jobs.jsonl").read_text().splitlines()[0])
            bad = copy.deepcopy(good)
            corrupt(bad)
            records = run.run_jobs(cli, workload, [good, bad], work, 0.0, None)
            if records[0]["problems"] or not records[1]["problems"]:
                problems.append(f"{workload}: checker did not flag exactly the wrong reference")
            else:
                print(f"selfcheck: {workload} wrong reference flagged: {records[1]['problems'][0]}")
        tracer = Tracer()
        with tracer.tracing(0):
            rc = cli.main(["bounds", "--delta", "0.1", "--epsilon", "1.5"])
        if rc == 0 or tracer.errors["bounds"] != 1:
            problems.append(f"bounds.errors = {tracer.errors['bounds']} after a failing call")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def probe_bias() -> list[str]:
    """The probe must read alike inside memory-heavy and call-bound jobs.

    Alternates, in one process, a ``simulate`` dominated by the 2^20..2^23
    outcome arrays of ``product_tv_exact`` with a ``simulate`` of small iid
    trials, so both see the same host phases.  The median ratio of paired
    jobs' mean probe times must stay within :data:`PROBE_BIAS_MAX` of 1.
    """
    import run
    from probe import Probe

    sys.path.insert(0, str(run.SRC))
    from detectability import cli

    jobs = {
        "memory": {"n_values": [20, 21, 22, 23], "trials_per_class": 20},
        "calls": {"n_values": [1, 2, 4, 8, 16], "trials_per_class": 400},
    }
    work = ROOT / ".bench_work" / "selfcheck-probe"
    work.mkdir(parents=True, exist_ok=True)
    probe = Probe()
    means: dict[str, list[float]] = {kind: [] for kind in jobs}
    deadline = time.perf_counter() + PROBE_BIAS_S
    try:
        seed = 0
        while time.perf_counter() < deadline or seed < 2:
            for kind, size in jobs.items():
                cfg = work / f"{kind}.json"
                cfg.write_text(json.dumps({"m": [0.4, 0.6], "h": [0.5, 0.5], "seed": seed, **size}))
                probe.reset()
                with probe:
                    rc = cli.main(["simulate", str(cfg), "--out", str(work / f"{kind}.csv")])
                if rc != 0:
                    return [f"probe bias: simulate exited {rc}"]
                means[kind].append(probe.mean())
            seed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ratio = statistics.median(a / b for a, b in zip(means["memory"], means["calls"]))
    print(f"selfcheck: probe memory-heavy / call-bound = {ratio:.3f} over {seed} pairs "
          f"(allowed 1 +- {PROBE_BIAS_MAX})")
    if abs(ratio - 1.0) > PROBE_BIAS_MAX:
        return [f"probe bias: memory-heavy / call-bound probe time {ratio:.3f}"]
    return []


def bare_directory() -> list[str]:
    """run.py alone, without the sources, must fail without a result."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "sim-iid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    print("selfcheck: bare directory refused")
    return []


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_declaration(doc)
    problems += wrong_reference()
    problems += bare_directory()
    problems += probe_bias()
    problems += tiny_runs(doc)
    for p in problems:
        print(f"selfcheck: FAIL {p}", file=sys.stderr)
    print(f"selfcheck: {'FAILED' if problems else 'all checks passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
