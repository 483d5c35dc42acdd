"""Benchmark of the ``detectability`` CLI on one workload.

Usage, from the repository root::

    python3 bench/run.py --workload sim-iid --seed 1 --seconds 15 --trace 0

The run generates the workload's inputs from ``--seed`` in a separate
process, times fresh interpreters importing ``detectability.cli``, then runs
jobs through ``detectability.cli.main`` in this process until ``--seconds``
have passed (at least two jobs; fewer if the pool of distinct inputs runs
out).  Every output is checked against references the benchmark computes
itself, and at the end the first job is rerun and must reproduce its output
byte for byte (the simulate wall-time column aside).

The host's speed drifts by up to 2x within seconds, so raw seconds do not
repeat.  :class:`probe.Probe` times a fixed numpy micro-kernel throughout
each job, and ``job_norm`` is the job's time in units of that kernel's mean
time: close to constant across the host's fast and slow phases.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces every
other job through :class:`tracing.Tracer` and reports the per-layer metrics.
The names and units of both come from ``BENCHMARK.json``.  The last line
of standard output is the JSON result; the line before it is ``# meta`` and
the run's metadata.  Inputs live in ``.bench_work/`` until the run ends;
results and spans are kept in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from probe import PERIOD_S, REFERENCE_S, Probe  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402

SETUP_REPEATS = {"full": 5, "tiny": 1}
MIN_JOBS = 2  # traced runs compare a traced and an untraced job

# numpy is loaded with the probe, before the clock starts: setup_s is the
# package's own import cost on top of numpy.
SETUP_SNIPPET = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from probe import REFERENCE_S, Probe
probe = Probe()
with probe:
    t = time.perf_counter()
    import detectability.cli
    t = time.perf_counter() - t
raw = t - probe.spent()
print(raw, raw / probe.mean() * REFERENCE_S)
"""


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Import time of ``detectability.cli`` in fresh interpreters.

    Each sample is ``(raw seconds, seconds at the probe's reference speed)``.
    """
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, scaled = proc.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(args, setup) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "probe_period_s": PERIOD_S,
        "probe_reference_s": REFERENCE_S,
        "setup_import_s": setup,
    }


def run_jobs(cli, workload, specs, work, seconds, tracer):
    """Run jobs until ``seconds`` pass; return one record per job."""
    records = []
    probe = Probe()
    deadline = time.perf_counter() + seconds
    for j, spec in enumerate(specs):
        if len(records) >= MIN_JOBS and time.perf_counter() >= deadline:
            break
        calls = workloads.invocations(workload, spec, work, f"j{j}")
        traced = tracer is not None and j % 2 == 0
        problems = []
        elapsed = 0.0
        probe.reset()
        for argv in calls:
            with tracer.tracing(j) if traced else contextlib.nullcontext(), probe:
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a raising job is a failed op, not a crash
                    rc = f"raised {exc!r}"
                elapsed += time.perf_counter() - t0
            if rc != 0:
                problems.append(f"{argv[0]}: {rc}")
                break
        job_s = elapsed - probe.spent()
        probes = len(probe.samples)
        unit = probe.mean()
        outputs = []
        if not problems:
            try:
                outputs = [Path(argv[-1]).read_text(encoding="utf-8") for argv in calls]
                problems = workloads.check(workload, spec, outputs)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        records.append({
            "job": j,
            "traced": traced,
            "elapsed_s": elapsed,
            "job_s": job_s,
            "probes": probes,
            "probe_s": unit,
            "job_norm": job_s / unit,
            "out_bytes": sum(len(text.encode("utf-8")) for text in outputs),
            "input_tokens": spec.get("input_tokens", 0),
            "problems": problems,
            "outputs": outputs,
        })
    return records


def rerun_matches(cli, workload, spec, work, first_outputs) -> list[str]:
    """Rerun a job's invocations and compare outputs, wall-time column aside."""
    calls = workloads.invocations(workload, spec, work, "j0")
    if len(first_outputs) != len(calls):
        return ["the first job left no outputs to compare a rerun with"]
    problems = []
    for argv, before in zip(calls, first_outputs):
        if cli.main(argv) != 0:
            problems.append(f"rerun of {argv[0]} failed")
            continue
        after = Path(argv[-1]).read_text(encoding="utf-8")
        if workloads.strip_wall_time(after) != workloads.strip_wall_time(before):
            problems.append(f"rerun of {' '.join(argv[:2])} changed its output")
    return problems


def end_to_end(records, setup) -> dict:
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "job_norm": statistics.median(r["job_norm"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, records) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    jobs = len(traced)
    # Spans include the probe time that interrupted them, so shares divide
    # by the traced jobs' elapsed time with the probes left in.
    busy = sum(r["elapsed_s"] for r in traced)
    own = tracer.self_seconds()
    c = tracer.counters
    m = {}
    for name in tracer.names:
        m[f"{name}.share"] = own[name] / busy
        m[f"{name}.calls"] = c[f"{name}.calls"] / jobs
    m["bounds.share"] = sum(own[n] for n in tracer.names if n.startswith("bounds.")) / busy
    m["cli.out_bytes"] = sum(r["out_bytes"] for r in traced) / jobs
    llr = "detector.log_likelihood_ratio"
    m[f"{llr}.samples_per_call"] = c[f"{llr}.samples"] / max(c[f"{llr}.calls"], 1)
    for key in (
        "distributions.product_tv_exact.outcomes",
        "distributions.product_tv_exact.bytes",
        "corpus.ngram_table.distinct",
        "textlab.train_logreg.epochs",
        "textlab.train_logreg.nnz",
    ):
        m[key] = c[key] / jobs
    input_tokens = sum(r["input_tokens"] for r in traced)
    m["corpus.tokenize.redundancy"] = c["corpus.tokenize.tokens"] / input_tokens if input_tokens else 0.0
    for mod in MODULES:
        m[f"{mod}.errors"] = tracer.errors[mod]
    m["trace.overhead_norm"] = statistics.median(r["job_norm"] for r in traced) - statistics.median(
        r["job_norm"] for r in plain
    )
    return m


def main(argv=None) -> int:
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"bench: {spec_file} is missing", file=sys.stderr)
        return 2
    declared = json.loads(spec_file.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="Benchmark of the detectability CLI.")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-check")
    args = ap.parse_args(argv)
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    if not (SRC / "detectability" / "cli.py").is_file():
        print(f"bench: no detectability sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from detectability import cli

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", args.scale, "--dir", str(work)],
            check=True, timeout=170,
        )
        with open(work / "jobs.jsonl", encoding="utf-8") as fh:
            specs = [json.loads(line) for line in fh]
        setup = None if args.trace else measure_setup(SETUP_REPEATS[args.scale])
        tracer = Tracer() if args.trace else None
        records = run_jobs(cli, args.workload, specs, work, args.seconds, tracer)
        values = per_layer(tracer, records) if tracer else end_to_end(records, setup)
        rerun = rerun_matches(cli, args.workload, specs[0], work, records[0]["outputs"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A declared metric nothing computed (its function was never wrapped)
    # must not read as a perfect 0.
    missing = [m["name"] for m in wanted if m["name"] not in values]
    failed = sum(1 for r in records if r["problems"]) + (1 if rerun else 0)
    attempted = len(records) + 1
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    meta = metadata(args, setup)
    meta["pool"] = len(specs)
    meta["probe_s"] = [r["probe_s"] for r in records]
    meta["job_s_median"] = statistics.median(r["job_s"] for r in records)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for r in records:
        del r["outputs"]
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({"meta": meta, "result": result, "jobs": records, "rerun": rerun}, indent=1)
    )
    if tracer is not None:
        tracer.save(out_dir / f"spans-{args.workload}.npz")

    for r in records:
        for problem in r["problems"][:5]:
            print(f"bench: job {r['job']}: {problem}", file=sys.stderr)
    for problem in rerun:
        print(f"bench: {problem}", file=sys.stderr)
    for name in missing:
        print(f"bench: declared metric {name} was not computed", file=sys.stderr)
    print(
        f"bench: {args.workload} seed={args.seed} jobs={len(records)}/{len(specs)} "
        f"ops_failed_frac={failed / attempted:.4g}",
        file=sys.stderr,
    )
    for name, metric in result["metrics"].items():
        print(f"bench:   {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"bench:   (raw job seconds, not a metric: median {meta['job_s_median']:.4g} s)",
          file=sys.stderr)
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
