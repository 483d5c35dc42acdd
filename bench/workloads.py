"""What each workload runs per job, and how its outputs are checked.

A job is a list of CLI invocations (argument lists ending in ``--out``),
built from one line of the generator's ``jobs.jsonl``.  A checker gets the
job spec and the output text of every invocation and returns the list of
problems it found; an empty list means the job's outputs are correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import exact

# |empirical - exact| may reach this many standard errors before a row fails;
# a row fails by chance with probability under 1e-6.
Z_SE = 5.0

# Closed-form and float-summed values must agree this closely.
TOL = 1e-12

TV_DELTA, TV_EPSILON = 0.1, 0.9
CURVE_N = [1, 10, 100, 300]
ORDERS = [1, 2, 3, 4]
LENGTHS = [10, 50, 200]
K_VALUES = [1, 2, 4]


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def invocations(workload: str, spec: dict, work: Path, tag: str) -> list[list[str]]:
    """CLI argument lists for one job; outputs go to ``work/<tag>-<i>.csv``."""
    if workload in ("sim-iid", "sim-block", "exact-sweep"):
        cfg = work / f"{tag}-config.json"
        cfg.write_text(json.dumps(spec["config"]), encoding="utf-8")
        calls = [["simulate", str(cfg)]]
        if workload == "exact-sweep":
            calls = [
                ["tv", str(work / "tv_p.json"), str(work / "tv_q.json")],
                ["bounds", "--delta", str(TV_DELTA), "--epsilon", str(TV_EPSILON),
                 "--dependence", str(work / "dep.json")],
                ["curve", "--delta", str(TV_DELTA), "--n-list", _ints(CURVE_N)],
            ] + calls
    elif workload == "corpus":
        pair = ["--human", str(work / spec["human"]), "--machine", str(work / spec["machine"])]
        seed = ["--seed", str(spec["seed"])]
        calls = [
            ["corpus", "tv-by-order", *pair, "--orders", _ints(ORDERS)],
            ["corpus", "train-ablate", *pair, "--lengths", _ints(LENGTHS), *seed],
            ["corpus", "pairwise", *pair, "--k-values", _ints(K_VALUES), *seed],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [argv + ["--out", str(work / f"{tag}-{i}.csv")] for i, argv in enumerate(calls)]


def read_rows(text: str) -> list[dict]:
    """Data rows of a CSV output, after its ``#`` configuration line."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("output lacks its '#' configuration line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def strip_wall_time(text: str) -> str:
    """The output with its ``wall_time_seconds`` column removed."""
    head, *body = text.splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    if not rows or "wall_time_seconds" not in rows[0]:
        return text
    drop = rows[0].index("wall_time_seconds")
    return "\n".join([head] + [",".join(r[:drop] + r[drop + 1 :]) for r in rows])


def _close(got: str, want: float, what: str, problems: list[str]) -> None:
    if abs(float(got) - want) > TOL:
        problems.append(f"{what}: got {got}, expected {want!r}")


def _unit_interval(got: str, what: str, problems: list[str]) -> float:
    value = float(got)
    if not 0.0 <= value <= 1.0:
        problems.append(f"{what}: {got} lies outside [0, 1]")
    return value


def check_simulate(rows: list[dict], refs: list[dict], trials: int, iid: bool) -> list[str]:
    """Monte Carlo rows against the exact likelihood-ratio AUROC.

    iid rows must lie within :data:`Z_SE` standard errors of the exact
    AUROC, and ``auroc_upper_exact`` must equal the type-sum ceiling.  Block
    dependent rows garble n iid draws, so they must lie at or below the iid
    AUROC, and above chance, each up to the largest possible standard error
    ``sqrt(A (1 - A) / trials)``.
    """
    problems: list[str] = []
    if [int(r["n"]) for r in rows] != [ref["n"] for ref in refs]:
        return [f"simulate: n column {[r['n'] for r in rows]} != requested"]
    for row, ref in zip(rows, refs):
        n, want = ref["n"], ref["lr_auroc"]
        emp = _unit_interval(row["empirical_auroc"], f"n={n} empirical_auroc", problems)
        if iid:
            if abs(emp - want) > Z_SE * ref["se"]:
                problems.append(
                    f"n={n} empirical_auroc {emp} is more than {Z_SE} SE "
                    f"({ref['se']:.3g}) from the exact {want:.6f}"
                )
        else:
            slack = Z_SE * math.sqrt(want * (1.0 - want) / trials)
            if not 0.5 - Z_SE * math.sqrt(0.25 / trials) <= emp <= want + slack:
                problems.append(
                    f"n={n} empirical_auroc {emp} is outside [chance, iid {want:.6f}] + slack"
                )
        if ref["ceiling"] is None:
            if row["auroc_upper_exact"] != "":
                problems.append(f"n={n} auroc_upper_exact should be blank")
        else:
            _close(row["auroc_upper_exact"], ref["ceiling"], f"n={n} auroc_upper_exact", problems)
        _unit_interval(row["auroc_upper_chernoff"], f"n={n} auroc_upper_chernoff", problems)
    return problems


def _check_tv(rows: list[dict]) -> list[str]:
    problems: list[str] = []
    if len(rows) != 1:
        return [f"tv: {len(rows)} rows"]
    row = rows[0]
    _close(row["tv"], 0.1, "tv", problems)
    _close(row["auroc_upper"], 0.595, "tv auroc_upper", problems)
    want = exact.chernoff([0.4, 0.6], [0.5, 0.5])
    if abs(float(row["chernoff_information"]) - want) > 1e-9:
        problems.append(f"chernoff_information {row['chernoff_information']} != {want!r}")
    return problems


def _tv_floor(n: int) -> float:
    return max(TV_DELTA, 1.0 - 2.0 * math.exp(-n * TV_DELTA**2 / 2.0))


def _check_bounds(rows: list[dict]) -> list[str]:
    problems: list[str] = []
    got = [(r["kind"], int(r["n"])) for r in rows]
    if got != [("iid", 300), ("noniid", 605)]:
        return [f"bounds: rows {got} != [('iid', 300), ('noniid', 605)]"]
    _close(rows[1]["alpha"], 4.5, "bounds alpha", problems)
    for row in rows:
        tv = _tv_floor(int(row["n"]))
        _close(row["tv_lower"], tv, f"bounds {row['kind']} tv_lower", problems)
        _close(row["auroc_upper"], exact.auroc_ceiling(tv), f"bounds {row['kind']} auroc_upper", problems)
    return problems


def _check_curve(rows: list[dict]) -> list[str]:
    problems: list[str] = []
    bound = [r for r in rows if r["kind"] == "bound"]
    roc = [r for r in rows if r["kind"] == "roc"]
    if [int(r["n"]) for r in bound] != CURVE_N or len(roc) != 101 * len(CURVE_N):
        return [f"curve: {len(bound)} bound rows and {len(roc)} roc rows"]
    uppers = [float(r["auroc_upper"]) for r in bound]
    if any(b < a for a, b in zip(uppers, uppers[1:])):
        problems.append(f"curve auroc_upper decreases: {uppers}")
    for row in bound:
        tv = _tv_floor(int(row["n"]))
        _close(row["tv_lower"], tv, f"curve n={row['n']} tv_lower", problems)
        _close(row["auroc_upper"], exact.auroc_ceiling(tv), f"curve n={row['n']} auroc_upper", problems)
    for i, row in enumerate(roc):
        n, fpr = CURVE_N[i // 101], (i % 101) / 100
        _close(row["fpr"], fpr, f"curve n={n} fpr", problems)
        _close(row["tpr"], min(fpr + _tv_floor(n), 1.0), f"curve n={n} fpr={fpr} tpr", problems)
    return problems


def _check_orders(rows: list[dict], refs: list[dict]) -> list[str]:
    problems: list[str] = []
    if [int(r["order"]) for r in rows] != [ref["order"] for ref in refs]:
        return [f"tv-by-order: orders {[r['order'] for r in rows]} != {ORDERS}"]
    for row, ref in zip(rows, refs):
        o = ref["order"]
        _close(row["tv"], ref["tv"], f"order {o} tv", problems)
        _close(row["support_overlap"], ref["support_overlap"], f"order {o} support_overlap", problems)
        _close(row["auroc_upper"], exact.auroc_ceiling(ref["tv"]), f"order {o} auroc_upper", problems)
    return problems


def _check_aurocs(rows: list[dict], key: str, values: list[int], floor: float) -> list[str]:
    """Every AUROC lies in [0, 1], and the last (most data) at ``floor`` or above.

    The generated sides differ by construction, so a detector trained on the
    longest prefixes or the most pooled documents must separate them well.
    """
    problems: list[str] = []
    if [int(r[key]) for r in rows] != values:
        return [f"{key} column {[r[key] for r in rows]} != {values}"]
    aurocs = [_unit_interval(row["test_auroc"], f"{key}={row[key]} test_auroc", problems) for row in rows]
    if aurocs[-1] < floor:
        problems.append(f"{key}={values[-1]} test_auroc {aurocs[-1]} is below the floor {floor}")
    return problems


def check(workload: str, spec: dict, outputs: list[str]) -> list[str]:
    """Problems with one job's outputs, in invocation order."""
    tables = [read_rows(text) for text in outputs]
    if workload in ("sim-iid", "sim-block"):
        trials = spec["config"]["trials_per_class"]
        return check_simulate(tables[0], spec["refs"], trials, iid=workload == "sim-iid")
    if workload == "exact-sweep":
        trials = spec["config"]["trials_per_class"]
        return (
            _check_tv(tables[0])
            + _check_bounds(tables[1])
            + _check_curve(tables[2])
            + check_simulate(tables[3], spec["refs"], trials, iid=True)
        )
    return (
        _check_orders(tables[0], spec["refs"])
        + _check_aurocs(tables[1], "length", LENGTHS, spec["auroc_floor"])
        + _check_aurocs(tables[2], "k", K_VALUES, spec["auroc_floor"])
    )
