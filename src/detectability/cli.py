"""Command-line front end.

Subcommands map one-to-one onto the library surface:

* ``tv`` -- distance and ceiling for two distribution files
* ``bounds`` -- sample-complexity numbers for a target AUROC
* ``curve`` -- per-n AUROC ceiling at a TV floor that holds for every pair
  at TV ``delta``, plus per-n ROC ceilings
* ``simulate`` -- Monte Carlo experiment from a JSON config
* ``corpus`` -- n-gram TV scan, prefix-length ablation, or pairwise pooling
  over JSONL corpora

All data output is byte-deterministic for fixed inputs and seed; CSV output
opens with a ``#`` comment embedding the resolved configuration and the
package version.  Exit codes: 0 success, 1 domain, runtime or out-of-memory
error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from . import __version__

# Each subcommand imports the modules it runs when it is dispatched, so a
# closed-form command never loads the Monte Carlo or text code.
if TYPE_CHECKING:
    from .bounds import DependenceSpec
    from .distributions import Categorical
    from .simulate import ExperimentConfig

PROG = "detectability"


class UsageError(ValueError):
    """Bad invocation or malformed input file (exit code 2)."""


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated positive integers in increasing order; faults name ``flag``."""
    from .bounds import _check_ints

    parts = text.split(",")
    for i, part in enumerate(parts, start=1):
        if not part.strip():
            raise UsageError(f"{flag}: element {i} of {len(parts)} is empty")
    try:
        values = [int(part) for part in parts]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of integers") from None
    try:
        return _check_ints(flag, values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_json_file(path: str) -> Any:
    from .bounds import _unique_keys

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        # say, bytes not UTF-8, an int past the digit limit, nesting past the
        # recursion limit or a duplicate key
        raise UsageError(f"{path}: {exc}") from None


def _check_fields(obj: dict, cls: type, where: str) -> None:
    """Refuse a key that names no field of dataclass ``cls``, then a required field left out."""
    declared = fields(cls)
    allowed = [f.name for f in declared]
    for key in obj:
        if key not in allowed:
            raise UsageError(
                f"{where}: unknown key {json.dumps(key)}; allowed keys: {', '.join(allowed)}"
            )
    for f in declared:
        if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise UsageError(f"{where}: missing field '{f.name}'")


def _categorical(value: Any, where: str) -> Categorical:
    from .distributions import Categorical

    try:
        return Categorical(value)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def _parse_dependence(obj: Any, where: str) -> DependenceSpec:
    from .bounds import DependenceSpec

    if not isinstance(obj, dict):
        raise UsageError(f"{where}: dependence must be an object with field 'blocks'")
    _check_fields(obj, DependenceSpec, where)
    try:
        return DependenceSpec(**obj)
    except ValueError as exc:
        raise UsageError(f"{where}: field 'blocks': {exc}") from None


def _jsonable(v: Any) -> Any:
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _table(rows: Sequence[Any]) -> list[dict]:
    """Dict rows of flat row dataclasses, one key per field, in field order.

    Read by ``getattr``: ``asdict`` would deep-copy every value.
    """
    columns = [f.name for f in fields(rows[0])]
    return [{c: getattr(r, c) for c in columns} for r in rows]


def _echo(value: Any) -> Any:
    """JSON form of a library value in a config: a distribution's masses, a dataclass's fields."""
    return value.probs.tolist() if hasattr(value, "probs") else asdict(value)


def _render(rows: Sequence[dict], config: dict, fmt: str) -> str:
    """CSV or JSON text; the columns are the rows' keys in first-appearance order."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    config_json = json.dumps(config, sort_keys=True, separators=(",", ":"), default=_echo)
    if fmt == "json":
        payload = {
            "tool": PROG,
            "version": __version__,
            "config": config,
            "rows": [
                {col: _jsonable(row.get(col)) for col in columns} for row in rows
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=_echo) + "\n"
    buf = io.StringIO()
    buf.write(f"# {PROG} version={__version__} config={config_json}\n")
    # csv writes None as "" and a float as its repr
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row.get(col) for col in columns] for row in rows)
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


# Each corpus mode: its study, read off the package, the list flag it sweeps,
# that flag's default, and whether the study trains a model and so takes the
# training flags.  The study is read at each call, so a mode loads only its
# own module, and the call reaches any replacement a tracer has installed on
# that module.
_CORPUS_MODES = {
    "tv-by-order": (lambda pkg: pkg.corpus.best_auroc_by_order, "--orders", "1,2,3,4", False),
    "train-ablate": (
        lambda pkg: pkg.textlab.auroc_vs_prefix_length, "--lengths", "5,10,20,50,100", True
    ),
    "pairwise": (lambda pkg: pkg.textlab.pairwise_auroc, "--k-values", "1,2", True),
}

# Each ``TrainConfig`` field, in field order: the flag that sets it, its parse
# type and help.  The flags hold no default, so a field no flag sets takes the
# library's and building the parser loads no textlab; an error names the flag.
_TRAINING_FLAGS = {
    "seed": ("--seed", int, "train/test split and pooling seed"),
    "train_frac": ("--train-frac", float, None),
    "space": ("--space", str, "feature space"),
    "min_df": ("--min-df", int, None),
    "epochs": ("--epochs", int, "cap on training iterations"),
    "l2": ("--l2", float, None),
}


def _cmd_tv(args: argparse.Namespace) -> tuple[list[dict], dict]:
    from .bounds import auroc_upper
    from .distributions import DimensionError, chernoff_information, tv_distance

    p = _categorical(_load_json_file(args.dist_p), args.dist_p)
    q = _categorical(_load_json_file(args.dist_q), args.dist_q)
    try:
        tv = tv_distance(p, q)
    except DimensionError as exc:  # a fault of the two files together
        raise UsageError(f"{args.dist_p}, {args.dist_q}: {exc}") from None
    row = {
        "tv": tv,
        "chernoff_information": chernoff_information(p, q),
        "auroc_upper": auroc_upper(tv),
    }
    config = {"command": "tv", "dist_p": args.dist_p, "dist_q": args.dist_q}
    return [row], config


def _cmd_bounds(args: argparse.Namespace) -> tuple[list[dict], dict]:
    from .bounds import auroc_vs_n_curve, sample_complexity_iid, sample_complexity_noniid

    config = {"command": "bounds", "delta": args.delta, "epsilon": args.epsilon}
    sizes = [("iid", 0.0, sample_complexity_iid(args.delta, args.epsilon))]
    if args.dependence is not None:
        dep = _parse_dependence(_load_json_file(args.dependence), args.dependence)
        config["dependence"] = dep
        n_dep = sample_complexity_noniid(args.delta, args.epsilon, dep)
        sizes.append(("noniid", dep.alpha, n_dep))
    rows = [
        {"kind": kind, "alpha": alpha, **asdict(auroc_vs_n_curve(args.delta, [n])[0])}
        for kind, alpha, n in sizes
    ]
    return rows, config


def _cmd_curve(args: argparse.Namespace) -> tuple[list[dict], dict]:
    from .bounds import auroc_vs_n_curve, roc_upper_curve

    n_values = _parse_int_list(args.n_list, "--n-list")
    config = {"command": "curve", "delta": args.delta, "n_values": n_values}
    points = auroc_vs_n_curve(args.delta, n_values)
    grid = [i / 100 for i in range(101)]
    rows = [{"kind": "bound", **asdict(pt)} for pt in points] + [
        {"kind": "roc", "n": pt.n, "fpr": fpr, "tpr": tpr}
        for pt in points
        for fpr, tpr in roc_upper_curve(pt.tv_lower, grid)
    ]
    return rows, config


def _simulate_config(path: str, seed_override: int | None) -> ExperimentConfig:
    from .bounds import _check_int
    from .simulate import ExperimentConfig

    if seed_override is not None:  # before the file is read, so a fault names the flag
        try:
            _check_int("--seed", seed_override, low=0)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    data = _load_json_file(path)
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    _check_fields(data, ExperimentConfig, path)
    data["m"] = _categorical(data["m"], f"{path}: field 'm'")
    data["h"] = _categorical(data["h"], f"{path}: field 'h'")
    if data.get("dependence") is not None:
        data["dependence"] = _parse_dependence(data["dependence"], f"{path}: field 'dependence'")
    if seed_override is not None:
        data["seed"] = seed_override
    try:
        return ExperimentConfig(**data)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _cmd_simulate(args: argparse.Namespace) -> tuple[list[dict], dict]:
    from .simulate import run_experiment

    config = _simulate_config(args.config, args.seed)
    rows = _table(run_experiment(config))
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    return rows, {"command": "simulate", **echo}


def _load_corpus(path: str, strict: bool):
    from .corpus import CorpusParseError, load_jsonl

    try:
        docs, skipped = load_jsonl(path, strict=strict)
    except CorpusParseError as exc:
        raise UsageError(f"{path}: {exc}") from None
    if skipped:
        print(f"{PROG}: skipped {skipped} bad line(s) in {path}", file=sys.stderr)
    if not docs:
        raise UsageError(f"{path}: no usable documents")
    return docs


def _cmd_corpus(args: argparse.Namespace) -> tuple[list[dict], dict]:
    study, flag, _, trained = _CORPUS_MODES[args.mode]
    config = {
        "command": f"corpus {args.mode}",
        "human": args.human,
        "machine": args.machine,
        "strict": args.strict,
    }
    options = {}
    if trained:
        from .textlab import TrainConfig

        given = {f: v for f, v in vars(args).items() if f in _TRAINING_FLAGS}
        # by the library's own checks, before loading and so ahead of a bad list
        try:
            options["config"] = TrainConfig(**given)
        except ValueError as exc:
            field, rest = str(exc).split(" ", 1)
            raise UsageError(f"{_TRAINING_FLAGS[field][0]} {rest}") from None
        config.update(asdict(options["config"]))
    human = _load_corpus(args.human, args.strict)
    machine = _load_corpus(args.machine, args.strict)
    dest = flag[2:].replace("-", "_")
    config[dest] = _parse_int_list(getattr(args, dest), flag)
    rows = study(sys.modules[__package__])(human, machine, config[dest], **options)
    return _table(rows), config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


# Built once per process: parsing never changes it, and building it takes 1 ms.
@functools.cache
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

    p_curve = sub.add_parser(
        "curve", help="AUROC ceiling vs n at a TV floor that holds for every pair at TV delta"
    )
    p_curve.add_argument("--delta", type=float, required=True)
    p_curve.add_argument(
        "--n-list", required=True, help="comma-separated sample counts"
    )
    _add_common(p_curve)
    p_curve.set_defaults(func=_cmd_curve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo detection experiment")
    p_sim.add_argument("config", help="JSON experiment config file")
    p_sim.add_argument(
        "--seed", type=int, default=None, help="override the config's seed"
    )
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_corpus = sub.add_parser("corpus", help="JSONL corpus experiments")
    p_corpus.set_defaults(func=_cmd_corpus)
    modes = p_corpus.add_subparsers(dest="mode", required=True)
    for mode, (_, flag, default, trained) in _CORPUS_MODES.items():
        p_mode = modes.add_parser(mode)
        p_mode.add_argument("--human", required=True, help="JSONL corpus file")
        p_mode.add_argument("--machine", required=True, help="JSONL corpus file")
        p_mode.add_argument(flag, default=default, help="comma-separated integers")
        if trained:
            for option, kind, text in _TRAINING_FLAGS.values():
                p_mode.add_argument(option, type=kind, default=argparse.SUPPRESS, help=text)
        p_mode.add_argument(
            "--lenient",
            dest="strict",
            action="store_false",
            help="skip malformed corpus lines with a count",
        )
        _add_common(p_mode)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rows, config = args.func(args)
        config["format"] = args.format
        text = _render(rows, config, args.format)
        _write_output(text, args.out)
    except (UsageError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
