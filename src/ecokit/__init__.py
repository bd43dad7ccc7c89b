"""Succession-rule toolkit: exact enumeration, sampling and generating functions.

Importing the package loads none of its modules.  Each public name below
resolves on first use (PEP 562), by importing the one module that defines
it, so ``from ecokit import count_levels`` loads `dsl` and `engine` only,
and ``ecokit.X`` and ``from ecokit import *`` give the modules' own objects.
"""

from importlib import import_module

# Each public name and the module that defines it; the typed errors come
# from `errors`, so naming one loads no module that raises it.
_SOURCES = {
    "EcoSpec": "dsl",
    "ParseError": "dsl",
    "SpecError": "errors",
    "parse_spec": "dsl",
    "spec_to_text": "dsl",
    "to_canonical_json": "dsl",
    "from_canonical_json": "dsl",
    "validate_spec": "dsl",
    "CountTable": "engine",
    "WalkSampler": "engine",
    "count_levels": "engine",
    "iter_levels": "engine",
    "total_series": "engine",
    "sample_walks": "engine",
    "QPoly": "qpoly",
    "RatFunc": "ratfunc",
    "TruncSeries": "series",
    "GuessError": "errors",
    "RationalGuess": "guess",
    "AlgebraicGuess": "guess",
    "guess_rational": "guess",
    "guess_algebraic": "guess",
    "minimal_algebraic": "guess",
    "ClassifyError": "errors",
    "ClassificationReport": "classify",
    "build_report": "classify",
    "factorial_form": "kernel",
    "KernelError": "errors",
    "GFResult": "kernel",
    "build_kernel": "kernel",
    "kernel_gfs": "kernel",
    "gf_report": "kernel",
    "ContFracError": "errors",
    "BirthDeathRule": "contfrac",
    "cf_excursions": "contfrac",
    "CatalogEntry": "catalog",
    "ENTRIES": "catalog",
    "get_entry": "catalog",
    "catalog_verify": "catalog",
}

__all__ = list(_SOURCES)


def __getattr__(name):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
