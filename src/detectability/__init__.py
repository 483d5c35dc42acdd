"""Fundamental limits of machine-text detection, made computable.

The package answers three linked questions about telling machine-generated
text from human text:

* How well can *any* detector do when the two text distributions are a given
  total variation distance apart?  (``bounds``, ``distributions``)
* How many independent-ish samples close that gap, and what does dependence
  between samples cost?  (``bounds``, ``simulate``)
* What do those limits look like on actual token streams?  (``corpus``,
  ``textlab``)

Everything exact lives on categorical distributions; everything empirical is
seeded and reproducible.

The namespace is lazy (PEP 562): ``import detectability`` loads no
submodule.  A submodule, or a name in a submodule's ``__all__``, is imported
the first time it is looked up here, so a process that only needs the
closed-form bounds never compiles the Monte Carlo or text code.
"""

import importlib

__version__ = "0.1.0"

# The submodules whose ``__all__`` the package exports, in export order.
_EXPORTING = ("bounds", "corpus", "detector", "distributions", "simulate", "textlab")


def __getattr__(name: str):
    # ``from detectability import cli`` looks here before importing the CLI
    if name in _EXPORTING or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for sub in _EXPORTING for n in __getattr__(sub).__all__]
        value.append("__version__")
    elif name.startswith("_"):  # no submodule exports one: spare the search
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for sub in _EXPORTING:
            module = __getattr__(sub)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTING, *__getattr__("__all__")})
