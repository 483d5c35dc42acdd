"""Public surface: every module's ``__all__`` and the benchmark's traced names.

The benchmark tracer finds the functions it times through each module's
``__all__``; a per-layer metric whose function was renamed, deleted or
dropped from ``__all__`` is silently never computed.  The CLI's import graph
is surface too: every invocation pays for what ``detectability.cli`` loads.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import detectability

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["bounds", "corpus", "detector", "distributions", "simulate", "textlab"]
# Traced methods, found through their class's ``__all__`` entry.
METHODS = {("textlab", "decision_function"): "LinearModel"}
# Public names that no code under src/ calls, and why each stays public.
NO_CALLER = {
    "ngram_table": "traced in BENCHMARK.json",
    "build_vocab": "traced in BENCHMARK.json",
    "featurize": "traced in BENCHMARK.json",
    "pairwise_augment": "traced in BENCHMARK.json",
    "min_error_bruteforce": "acceptance criterion 2 and demos/01 use it",
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


def test_every_public_name_has_a_caller():
    # a name counts as used when a package module imports it by name or
    # loads it as a name or an attribute anywhere under src/
    used = set()
    for path in (ROOT / "src" / "detectability").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    public = {
        name
        for module in MODULES
        for name in importlib.import_module(f"detectability.{module}").__all__
    }
    assert set(NO_CALLER) <= public
    assert sorted(public - used - set(NO_CALLER)) == []


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats alone took about 0.6 s of the CLI's start-up
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, detectability.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
