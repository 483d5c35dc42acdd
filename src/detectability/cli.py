"""Command-line front end.

Subcommands map one-to-one onto the library surface:

* ``tv`` -- distance and ceiling for two distribution files
* ``bounds`` -- sample-complexity numbers for a target AUROC
* ``curve`` -- AUROC-ceiling-versus-n table plus per-n ROC ceilings
* ``simulate`` -- Monte Carlo experiment from a JSON config
* ``corpus`` -- n-gram TV scan, prefix-length ablation, or pairwise pooling
  over JSONL corpora

All data output is deterministic for fixed inputs and seed (the simulate
wall-time column aside); CSV output opens with a ``#`` comment embedding the
resolved configuration and the package version.  Exit codes: 0 success,
1 domain/runtime error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .bounds import (
    DependenceSpec,
    auroc_upper,
    auroc_vs_n_curve,
    roc_upper_curve,
    sample_complexity_iid,
    sample_complexity_noniid,
)
from .corpus import CorpusParseError, load_jsonl, best_auroc_by_order
from .distributions import Categorical, chernoff_information, tv_distance
from .simulate import ExperimentConfig, run_experiment
from .textlab import TrainConfig, auroc_vs_prefix_length, pairwise_auroc

PROG = "detectability"


class UsageError(ValueError):
    """Bad invocation or malformed input file (exit code 2)."""


def _parse_int_list(text: str, what: str) -> list[int]:
    parts = text.split(",")
    for i, part in enumerate(parts, start=1):
        if not part.strip():
            raise UsageError(f"{what}: element {i} of {len(parts)} is empty")
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated list of integers") from None


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}"
        ) from None


def _load_distribution(path: str) -> Categorical:
    data = _load_json_file(path)
    if not isinstance(data, list):
        raise UsageError(f"{path}: expected a JSON array of probabilities")
    try:
        return Categorical(data)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_dependence(obj: Any, where: str) -> DependenceSpec:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise UsageError(f"{where}: dependence must be an object with field 'blocks'")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and len(b) == 2 for b in blocks
    ):
        raise UsageError(f"{where}: field 'blocks' must be a list of [c, rho] pairs")
    try:
        return DependenceSpec(blocks)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{where}: field 'blocks': {exc}") from None


def _cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
        return repr(v)
    return str(v)


def _jsonable(v: Any) -> Any:
    if isinstance(v, float):
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
    return v


def _render(
    columns: Sequence[str],
    rows: Sequence[dict],
    config: dict,
    fmt: str,
) -> str:
    config_json = json.dumps(config, sort_keys=True, separators=(",", ":"))
    if fmt == "json":
        payload = {
            "tool": PROG,
            "version": __version__,
            "config": config,
            "rows": [
                {col: _jsonable(row.get(col)) for col in columns} for row in rows
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(f"# {PROG} version={__version__} config={config_json}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    target = Path(out_path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _resolved_seed(args: argparse.Namespace, fallback: int = 0) -> int:
    return args.seed if args.seed is not None else fallback


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, l2=args.l2, seed=0
    )


def _cmd_tv(args: argparse.Namespace) -> tuple[list[str], list[dict], dict]:
    p = _load_distribution(args.dist_p)
    q = _load_distribution(args.dist_q)
    tv = tv_distance(p, q)
    row = {
        "tv": tv,
        "chernoff_information": chernoff_information(p, q),
        "auroc_upper": auroc_upper(tv),
    }
    config = {"command": "tv", "dist_p": args.dist_p, "dist_q": args.dist_q}
    return ["tv", "chernoff_information", "auroc_upper"], [row], config


def _cmd_bounds(args: argparse.Namespace) -> tuple[list[str], list[dict], dict]:
    config = {"command": "bounds", "delta": args.delta, "epsilon": args.epsilon}
    rows = []
    n_iid = sample_complexity_iid(args.delta, args.epsilon)
    point = auroc_vs_n_curve(args.delta, [n_iid])[0]
    rows.append(
        {
            "kind": "iid",
            "alpha": 0.0,
            "n": point.n,
            "tv_lower": point.tv_lower,
            "auroc_upper": point.auroc_upper,
        }
    )
    if args.dependence is not None:
        dep = _parse_dependence(_load_json_file(args.dependence), args.dependence)
        config["dependence"] = {"blocks": [[c, r] for c, r in dep.blocks]}
        n_dep = sample_complexity_noniid(args.delta, args.epsilon, dep)
        point = auroc_vs_n_curve(args.delta, [n_dep])[0]
        rows.append(
            {
                "kind": "noniid",
                "alpha": dep.alpha,
                "n": point.n,
                "tv_lower": point.tv_lower,
                "auroc_upper": point.auroc_upper,
            }
        )
    return ["kind", "alpha", "n", "tv_lower", "auroc_upper"], rows, config


def _cmd_curve(args: argparse.Namespace) -> tuple[list[str], list[dict], dict]:
    n_values = _parse_int_list(args.n_list, "--n-list")
    config = {"command": "curve", "delta": args.delta, "n_values": n_values}
    rows: list[dict] = []
    points = auroc_vs_n_curve(args.delta, n_values)
    for pt in points:
        rows.append(
            {
                "kind": "bound",
                "n": pt.n,
                "tv_lower": pt.tv_lower,
                "auroc_upper": pt.auroc_upper,
            }
        )
    grid = [i / 100 for i in range(101)]
    for pt in points:
        for fpr, tpr in roc_upper_curve(pt.tv_lower, grid):
            rows.append({"kind": "roc", "n": pt.n, "fpr": fpr, "tpr": tpr})
    columns = ["kind", "n", "tv_lower", "auroc_upper", "fpr", "tpr"]
    return columns, rows, config


def _simulate_config(path: str, seed_override: int | None) -> ExperimentConfig:
    data = _load_json_file(path)
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    for fieldname in ("m", "h", "n_values", "trials_per_class"):
        if fieldname not in data:
            raise UsageError(f"{path}: missing field '{fieldname}'")
    for fieldname in ("m", "h", "n_values"):
        if not isinstance(data[fieldname], list):
            raise UsageError(f"{path}: field '{fieldname}' must be a list")
    dep = None
    if data.get("dependence") is not None:
        dep = _parse_dependence(data["dependence"], f"{path}: field 'dependence'")
    seed = seed_override if seed_override is not None else data.get("seed", 0)
    try:
        return ExperimentConfig(
            m=Categorical(data["m"]),
            h=Categorical(data["h"]),
            n_values=data["n_values"],
            trials_per_class=data["trials_per_class"],
            dependence=dep,
            seed=seed,
        )
    except UsageError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _cmd_simulate(args: argparse.Namespace) -> tuple[list[str], list[dict], dict]:
    config = _simulate_config(args.config, args.seed)
    result = run_experiment(config)
    rows = [
        {
            "n": r.n,
            "empirical_auroc": r.empirical_auroc,
            "auroc_upper_exact": r.auroc_upper_exact,
            "auroc_upper_chernoff": r.auroc_upper_chernoff,
            "wall_time_seconds": r.wall_time_seconds,
        }
        for r in result.rows
    ]
    columns = [
        "n",
        "empirical_auroc",
        "auroc_upper_exact",
        "auroc_upper_chernoff",
        "wall_time_seconds",
    ]
    echo = {
        "command": "simulate",
        "m": [float(x) for x in config.m.probs],
        "h": [float(x) for x in config.h.probs],
        "n_values": list(config.n_values),
        "trials_per_class": config.trials_per_class,
        "dependence": (
            {"blocks": [[c, r] for c, r in config.dependence.blocks]}
            if config.dependence is not None
            else None
        ),
        "seed": config.seed,
    }
    return columns, rows, echo


def _load_corpus(path: str, strict: bool):
    docs, skipped = load_jsonl(path, strict=strict)
    if skipped:
        print(f"{PROG}: skipped {skipped} bad line(s) in {path}", file=sys.stderr)
    if not docs:
        raise UsageError(f"{path}: no usable documents")
    return docs


def _cmd_corpus(args: argparse.Namespace) -> tuple[list[str], list[dict], dict]:
    human = _load_corpus(args.human, args.strict)
    machine = _load_corpus(args.machine, args.strict)
    seed = _resolved_seed(args)
    base = {
        "command": f"corpus {args.mode}",
        "human": args.human,
        "machine": args.machine,
        "strict": args.strict,
    }
    if args.mode == "tv-by-order":
        orders = _parse_int_list(args.orders, "--orders")
        config = base | {"orders": orders}
        rows = [
            {
                "order": r.order,
                "tv": r.tv,
                "auroc_upper": r.auroc_upper,
                "support_overlap": r.support_overlap,
            }
            for r in best_auroc_by_order(human, machine, orders)
        ]
        return ["order", "tv", "auroc_upper", "support_overlap"], rows, config
    train_cfg = _train_config(args)
    train_echo = {
        "train_frac": args.train_frac,
        "space": args.space,
        "min_df": args.min_df,
        "learning_rate": train_cfg.learning_rate,
        "epochs": train_cfg.epochs,
        "l2": train_cfg.l2,
        "seed": seed,
    }
    if args.mode == "train-ablate":
        lengths = _parse_int_list(args.lengths, "--lengths")
        config = base | train_echo | {"lengths": lengths}
        rows = [
            {"length": r.length, "test_auroc": r.test_auroc}
            for r in auroc_vs_prefix_length(
                human,
                machine,
                lengths,
                train_frac=args.train_frac,
                seed=seed,
                space=args.space,
                min_df=args.min_df,
                config=train_cfg,
            )
        ]
        return ["length", "test_auroc"], rows, config
    if args.mode == "pairwise":
        k_values = _parse_int_list(args.k_values, "--k-values")
        config = base | train_echo | {"k_values": k_values}
        rows = [
            {"k": r.k, "test_auroc": r.test_auroc}
            for r in pairwise_auroc(
                human,
                machine,
                k_values,
                train_frac=args.train_frac,
                seed=seed,
                space=args.space,
                min_df=args.min_df,
                config=train_cfg,
            )
        ]
        return ["k", "test_auroc"], rows, config
    raise UsageError(f"unknown corpus mode {args.mode!r}")  # pragma: no cover


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    strictness = parser.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict",
        dest="strict",
        action="store_true",
        default=True,
        help="reject malformed corpus lines (default)",
    )
    strictness.add_argument(
        "--lenient",
        dest="strict",
        action="store_false",
        help="skip malformed corpus lines with a count",
    )


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--train-frac", type=float, default=0.7)
    parser.add_argument("--space", choices=("counts", "tfidf"), default="tfidf")
    parser.add_argument("--min-df", type=int, default=2)
    parser.add_argument("--lr", type=float, default=0.1, help="learning rate")
    parser.add_argument("--epochs", type=int, default=500)
    parser.add_argument("--l2", type=float, default=1e-4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Detection bounds, simulations, and corpus experiments.",
    )
    parser.add_argument(
        "--version", action="version", version=f"{PROG} {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tv = sub.add_parser("tv", help="TV distance and AUROC ceiling for two masses")
    p_tv.add_argument("dist_p", help="file holding a JSON array of probabilities (machine)")
    p_tv.add_argument("dist_q", help="file holding a JSON array of probabilities (human)")
    _add_common(p_tv)
    p_tv.set_defaults(func=_cmd_tv)

    p_bounds = sub.add_parser("bounds", help="sample-complexity bounds")
    p_bounds.add_argument("--delta", type=float, required=True)
    p_bounds.add_argument("--epsilon", type=float, required=True)
    p_bounds.add_argument(
        "--dependence", default=None, help="JSON file with {'blocks': [[c, rho], ..]}"
    )
    _add_common(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_curve = sub.add_parser("curve", help="AUROC ceiling vs number of samples")
    p_curve.add_argument("--delta", type=float, required=True)
    p_curve.add_argument(
        "--n-list", required=True, help="comma-separated sample counts"
    )
    _add_common(p_curve)
    p_curve.set_defaults(func=_cmd_curve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo detection experiment")
    p_sim.add_argument("config", help="JSON experiment config file")
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_corpus = sub.add_parser("corpus", help="JSONL corpus experiments")
    p_corpus.add_argument(
        "mode", choices=("tv-by-order", "train-ablate", "pairwise")
    )
    p_corpus.add_argument("--human", required=True, help="JSONL corpus file")
    p_corpus.add_argument("--machine", required=True, help="JSONL corpus file")
    p_corpus.add_argument("--orders", default="1,2,3,4")
    p_corpus.add_argument("--lengths", default="5,10,20,50,100")
    p_corpus.add_argument("--k-values", default="1,2")
    _add_train_flags(p_corpus)
    _add_common(p_corpus)
    p_corpus.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        columns, rows, config = args.func(args)
        config["format"] = args.format
        text = _render(columns, rows, config, args.format)
        _write_output(text, args.out)
    except (UsageError, CorpusParseError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
