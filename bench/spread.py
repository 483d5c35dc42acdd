"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 bench/spread.py                      # 10 seeds, all workloads
    python3 bench/spread.py --workloads corpus --seeds 5 --first-seed 100

Every run is a separate ``bench/run.py`` process of the declared
``run_seconds``, run one after another.  For each workload and end-to-end
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(Q3 - Q1) / median``
and that spread as a share of the metric's bound.  Per workload it also
prints the share of failed operations and the median of the runs' raw job
seconds, to read next to ``job_norm`` when comparing two commits.  The table
goes to standard output and a JSON copy to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run's result and its ``# meta`` line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, meta, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(meta.removeprefix("# meta "))


def summarise(results: list[dict], declared: list[dict]) -> list[dict]:
    rows = []
    for metric in declared:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("nan")
        rows.append({
            "name": metric["name"],
            "unit": metric["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": metric.get("bound"),
            "values": values,
        })
    return rows


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    metrics = declared["per_layer" if args.trace else "end_to_end"]

    report = {"args": vars(args), "workloads": {}}
    for workload in args.workloads.split(","):
        t0 = time.perf_counter()
        runs = [
            run_once(workload, seed, declared["run_seconds"], args.trace)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        results = [result for result, _ in runs]
        raw = [meta["job_s_median"] for _, meta in runs]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        rows = summarise(results, metrics)
        report["workloads"][workload] = {
            "job_s_median": statistics.median(raw),
            "job_s_values": raw,
            "ops_failed_frac": failed / attempted,
            "all_correct": all(r["correct"] for r in results),
            "metrics": rows,
        }
        print(f"{workload}: {len(results)} runs in {time.perf_counter() - t0:.0f} s, "
              f"ops_failed_frac={failed / attempted:.4g} ({failed}/{attempted}), "
              f"raw job seconds (not a metric) median {statistics.median(raw):.4g} s")
        for row in rows:
            line = (f"  {row['name']:<48} {row['median']:>12.6g} {row['unit']:<14} "
                    f"q1={row['q1']:.6g} q3={row['q3']:.6g} spread={row['spread']:.4f}")
            if row["bound"] is not None:
                line += f" bound={row['bound']} ({row['spread'] / row['bound']:.2f} of it)"
            print(line, flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"spread-trace{args.trace}-{stamp}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
