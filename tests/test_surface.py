"""Public surface: every module's ``__all__`` and the benchmark's traced names.

The benchmark tracer finds the functions it times through each module's
``__all__``; a per-layer metric whose function was renamed, deleted or
dropped from ``__all__`` is silently never computed.  The import graph is
surface too: every invocation pays for what it loads.  ``import
detectability`` loads no submodule, ``import detectability.cli`` loads only
the CLI, each subcommand loads the package modules it runs when it is
dispatched, and scipy loads only with ``textlab``, which only the two
training modes, ``train-ablate`` and ``pairwise``, import; of scipy they load
``scipy.sparse``, and no command loads ``scipy.special``.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detectability
from detectability import Label

from _synth import unigram_docs, write_jsonl

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["bounds", "corpus", "detector", "distributions", "simulate", "textlab"]
# Traced methods, found through their class's ``__all__`` entry.
METHODS = {("textlab", "decision_function"): "LinearModel"}
# Public names that no code under src/ calls, and why each stays public.
NO_CALLER = {
    "ngram_table": "traced in BENCHMARK.json",
    "tokenize": "traced in BENCHMARK.json; _encode applies its rule once per distinct word",
    "build_vocab": "traced in BENCHMARK.json",
    "featurize": "traced in BENCHMARK.json",
    "pairwise_augment": "traced in BENCHMARK.json",
    "sample_noniid": "traced in BENCHMARK.json; run_experiment draws through its per-row form",
    "min_error_bruteforce": "acceptance criterion 2 and demos/01 use it",
    "product_tv_exact": "traced in BENCHMARK.json; acceptance criterion 3's oracle; "
    "run_experiment sums through its sweep form",
}
# Public methods and properties that no code under src/ calls, and why each stays.
NO_CALLER_MEMBERS = {
    ("Categorical", "bernoulli"): "demos 01 and 03, the README and the tests build pairs with it",
}


def traced_functions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parts = [m["name"].split(".") for m in spec["per_layer"]]
    return sorted({(p[0], p[1]) for p in parts if len(p) == 3})


def test_benchmark_declares_traced_functions():
    assert len(traced_functions()) >= 10


@pytest.mark.parametrize("module, function", traced_functions())
def test_traced_function_is_public(module, function):
    mod = importlib.import_module(f"detectability.{module}")
    if (module, function) == ("cli", "main"):  # the CLI has no ``__all__``
        assert callable(mod.main)
    elif (module, function) in METHODS:
        cls = METHODS[module, function]
        assert cls in mod.__all__
        assert callable(getattr(getattr(mod, cls), function))
    else:
        assert function in mod.__all__
        assert callable(getattr(mod, function))


@pytest.mark.parametrize("module", MODULES + [None])
def test_every_exported_name_exists(module):
    mod = detectability if module is None else importlib.import_module(
        f"detectability.{module}"
    )
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    # a name no module exports: the lazy namespace searches them all first
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'$"):
        mod.no_such_name


def src_trees():
    """The parsed modules of the package."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "detectability").glob("*.py")
    ]


def used_names(trees):
    """Names a module imports by name or loads as a name or an attribute."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    # a name counts as used when a package module imports it by name or
    # loads it as a name or an attribute anywhere under src/
    used = used_names(src_trees())
    public = {
        name
        for module in MODULES
        for name in importlib.import_module(f"detectability.{module}").__all__
    }
    assert set(NO_CALLER) <= public
    assert sorted(public - used - set(NO_CALLER)) == []


def public_members():
    """``(class, name)`` of each public method and property of a class in an ``__all__``."""
    members = set()
    for module in MODULES:
        mod = importlib.import_module(f"detectability.{module}")
        for name in mod.__all__:
            cls = getattr(mod, name)
            if isinstance(cls, type):
                members.update(
                    (name, attr)
                    for attr, value in vars(cls).items()
                    if not attr.startswith("_")
                    and (inspect.isfunction(value) or isinstance(value, (property, classmethod)))
                )
    return members


def test_every_public_member_has_a_caller():
    # a method or property counts as used when code under src/ loads it as
    # an attribute; a bare name of the same spelling does not call it
    used = {
        node.attr
        for tree in src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    members = public_members()
    assert set(NO_CALLER_MEMBERS) <= members
    assert sorted(m for m in members - set(NO_CALLER_MEMBERS) if m[1] not in used) == []


def test_every_private_function_has_a_caller():
    # a module-level ``def _name`` that nothing under src/ loads or imports
    # serves only the tests, and belongs with them
    trees = src_trees()
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = used_names(trees)
    assert sorted(defined - used) == []


def test_no_source_file_names_longdouble():
    # np.longdouble is float64, x87 80-bit or IEEE quad by platform, so a
    # rounding argument made in it holds on some platforms only
    src = ROOT / "src"
    named = [
        str(p.relative_to(src))
        for p in src.rglob("*.py")
        if "longdouble" in p.read_text(encoding="utf-8")
    ]
    assert named == []


def test_no_source_file_names_scipy_special():
    # the gradient's logistic is libm's exp, bit for bit scipy's (test_textlab);
    # importing scipy.special costs each training mode about 5 MB of RSS
    src = ROOT / "src"
    named = [
        str(p.relative_to(src))
        for p in src.rglob("*.py")
        if any(word in p.read_text(encoding="utf-8") for word in ("scipy.special", "expit"))
    ]
    assert named == []


def test_no_source_file_names_a_learning_rate():
    # L-BFGS reaches the same model from any first step, so the step is a
    # private constant (textlab._FIRST_STEP), not a setting
    src = ROOT / "src"
    named = [
        str(p.relative_to(src))
        for p in src.rglob("*.py")
        if any(word in p.read_text(encoding="utf-8") for word in ("learning_rate", "--lr"))
    ]
    assert named == []


def fresh_python(code, *args):
    """Standard output of ``code`` run with ``args`` in a new interpreter."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout


def scipy_modules(names):
    return sorted(name for name in names if name.startswith("scipy"))


def package_modules(names):
    return sorted(name for name in names if name.split(".")[0] == "detectability")


@pytest.mark.parametrize("module", ["detectability", "detectability.cli"])
def test_import_loads_no_scipy(module):
    # nor any package module but the one imported
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(fresh_python(code))
    assert scipy_modules(loaded) == []
    assert package_modules(loaded) == sorted({"detectability", module})


# The package's exported names, in order: each submodule's ``__all__`` in turn.
EXPORTED = [
    "BoundCurvePoint", "DependenceSpec", "auroc_upper", "auroc_vs_n_curve",
    "roc_upper_curve", "sample_complexity_iid", "sample_complexity_noniid",
    "tv_tensor_chernoff", "tv_tensor_lower",
    "CorpusParseError", "Document", "NGramTable", "OrderRow", "best_auroc_by_order",
    "load_jsonl", "ngram_table", "tokenize",
    "Label", "RocCurve", "log_likelihood_ratio", "roc_from_scores",
    "BudgetError", "Categorical", "DimensionError", "ENUMERATION_BUDGET", "MinErrorResult",
    "chernoff_information", "min_error_bruteforce", "product_tv_exact", "tv_distance",
    "ExperimentConfig", "ExperimentRow", "run_experiment", "sample_iid", "sample_noniid",
    "trial_rng",
    "LinearModel", "PairwiseRow", "PrefixRow", "TrainConfig", "Vocabulary",
    "auroc_vs_prefix_length", "build_vocab", "featurize", "pairwise_auroc",
    "pairwise_augment", "train_logreg",
    "__version__",
]


def test_lazy_namespace_exports_every_name():
    # nothing loads at import; ``__all__``, a star import and ``dir`` then
    # see every exported name, each the very object its submodule holds
    code = """
import json, sys
import detectability
loaded = sorted(m for m in sys.modules if m.startswith("detectability"))
star = {}
exec("from detectability import *", star)
subs = [sys.modules["detectability." + m] for m in sys.argv[1:]]
same = all(star[n] is getattr(mod, n) for mod in subs for n in mod.__all__)
unlisted = sorted(set(detectability.__all__) - set(dir(detectability)))
print(json.dumps([loaded, detectability.__all__, sorted(set(star) - {"__builtins__"}),
                  same, unlisted]))
"""
    loaded, names, star, same, unlisted = json.loads(fresh_python(code, *MODULES))
    assert loaded == ["detectability"]
    assert names == EXPORTED
    assert star == sorted(EXPORTED)
    assert same and unlisted == []


def loaded_after_cli(argv):
    """Exit code of ``cli.main`` on ``argv``, then the scipy and package modules loaded."""
    code = """
import contextlib, io, json, sys
from detectability.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(json.loads(sys.argv[1]))
print(json.dumps([status, sorted(sys.modules)]))
"""
    status, loaded = json.loads(fresh_python(code, json.dumps(argv)))
    return status, scipy_modules(loaded), package_modules(loaded)


@pytest.fixture
def cli_inputs(tmp_path):
    """Paths of tiny inputs for every subcommand."""
    files = {
        "m": [0.4, 0.6],
        "h": [0.5, 0.5],
        "dep": {"blocks": [[3, 0.5]]},
        "sim": {
            "m": [0.4, 0.6], "h": [0.5, 0.5], "n_values": [1, 6],
            "trials_per_class": 50, "seed": 3, "dependence": {"blocks": [[3, 0.5]]},
        },
    }
    paths = {}
    for name, value in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(value))
    human, machine = text_docs()
    for name, docs in (("human", human), ("machine", machine)):
        paths[name] = str(tmp_path / f"{name}.jsonl")
        write_jsonl(paths[name], docs)
    return paths


def subcommands(p):
    """An argument list per subcommand, on the ``cli_inputs`` files ``p``."""
    return {
        "tv": ["tv", p["m"], p["h"]],
        "bounds": ["bounds", "--delta", "0.1", "--epsilon", "0.9", "--dependence", p["dep"]],
        "curve": ["curve", "--delta", "0.1", "--n-list", "1,2,4"],
        "simulate": ["simulate", p["sim"]],
        "tv-by-order": ["corpus", "tv-by-order", "--human", p["human"], "--machine", p["machine"]],
        "train-ablate": ["corpus", "train-ablate", "--human", p["human"],
                         "--machine", p["machine"], "--lengths", "5,20"],
        "pairwise": ["corpus", "pairwise", "--human", p["human"],
                     "--machine", p["machine"], "--k-values", "1,2"],
    }


# The package modules each subcommand loads besides the package and the CLI.
SUBCOMMAND_MODULES = {
    "tv": ["bounds", "distributions"],
    "bounds": ["bounds"],
    "curve": ["bounds"],
    "simulate": ["bounds", "detector", "distributions", "simulate"],
    "tv-by-order": ["bounds", "corpus", "detector", "distributions"],
    "train-ablate": ["bounds", "corpus", "detector", "distributions", "textlab"],
    "pairwise": ["bounds", "corpus", "detector", "distributions", "textlab"],
}


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES)
def test_subcommand_loads_only_its_modules(cli_inputs, command):
    status, scipy, loaded = loaded_after_cli(subcommands(cli_inputs)[command])
    assert status == 0
    want = ["cli", *SUBCOMMAND_MODULES[command]]
    assert loaded == ["detectability", *sorted(f"detectability.{m}" for m in want)]
    if "textlab" in SUBCOMMAND_MODULES[command]:  # the one module that imports scipy
        assert "scipy.sparse" in scipy
        assert [name for name in scipy if name.startswith("scipy.special")] == []
    else:
        assert scipy == []


def text_docs():
    rng = np.random.default_rng(5)
    human = unigram_docs(rng, np.full(6, 1 / 6), Label.HUMAN, 12, 20, "h")
    machine = unigram_docs(rng, np.arange(1, 7) / 21, Label.MACHINE, 12, 20, "m")
    return human, machine
