"""Span tracing of the ``detectability`` layers from outside the package.

:class:`Tracer` replaces each public function of the traced modules with a
wrapper that records a span (name, start, end, parent span, job id) and a
few work counters.  A function is replaced under every name a caller looks
it up by: ``from .detector import log_likelihood_ratio`` copies the function
into ``detectability.simulate``, so that binding is the one to patch.
Spans stay in memory until :meth:`Tracer.save`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

PACKAGE = "detectability"
MODULES = ("cli", "simulate", "detector", "distributions", "bounds", "corpus", "textlab")

# Methods traced besides module functions, as (module, class, method).
METHODS = (("textlab", "LinearModel", "decision_function"),)


def _product_tv_work(args, kwargs, result) -> dict:
    p, n = args[0], int(args[2] if len(args) > 2 else kwargs["n"])
    k = p.support_size
    # Computed, not measured: per side, copy the base vector, then at each
    # outer-product step read the previous vector and the base and write the
    # product; finally read both products for the difference, write it, read
    # and write its absolute value, and read that for the sum.
    steps = sum(k ** (i - 1) + k + k**i for i in range(2, n + 1))
    return {"outcomes": k**n, "bytes": 8 * (2 * (2 * k + steps) + 6 * k**n)}


def _train_work(args, kwargs, result) -> dict:
    _, losses = result
    return {"epochs": len(losses) - 1, "nnz": int(getattr(args[0], "nnz", np.size(args[0])))}


# Work counters recorded after a successful call, keyed by span name.
COUNTERS = {
    "detector.log_likelihood_ratio": lambda a, k, r: {"samples": len(a[2])},
    "distributions.product_tv_exact": _product_tv_work,
    "corpus.tokenize": lambda a, k, r: {"tokens": len(r)},
    "corpus.ngram_table": lambda a, k, r: {"distinct": len(r.counts)},
    "textlab.train_logreg": _train_work,
}


class Tracer:
    """Records spans and counters for calls into the traced modules."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.counters: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._last_error: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def _targets(self):
        """(span name, function, owner object, attribute) for every binding."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for short, mod in mods.items():
            public = getattr(mod, "__all__", ["main"])
            for attr in public:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                for caller in mods.values():
                    if vars(caller).get(attr) is fn:
                        yield f"{short}.{attr}", fn, caller, attr
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            yield f"{short}.{meth}", vars(cls)[meth], cls, meth

    def install(self) -> None:
        for name, fn, owner, attr in self._targets():
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def tracing(self, job: int):
        """Trace calls made inside the block as part of job ``job``."""
        self.job = job
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        module = name.split(".", 1)[0]
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_job.append(tracer.job)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            tracer._stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if tracer._last_error.get(module) != id(exc):
                    tracer._last_error[module] = id(exc)
                    tracer.errors[module] += 1
                raise
            finally:
                tracer.span_end[idx] = perf_counter_ns()
                tracer.span_start[idx] = t0
                tracer._stack.pop()
            tracer.counters[name + ".calls"] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counters[f"{name}.{key}"] += value
            return result

        return traced

    # -- reading --------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: span duration minus its children's."""
        dur = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(
            self.span_start, dtype=np.int64
        )
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = np.bincount(names, weights=(dur - child).astype(np.float64), minlength=len(self.names))
        return {name: float(own[i]) / 1e9 for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span, with the name table, as a compressed ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            job=np.frombuffer(self.span_job, dtype=np.int64),
        )
