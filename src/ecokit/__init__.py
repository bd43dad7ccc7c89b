"""Succession-rule toolkit: exact enumeration, sampling and generating functions."""

from .catalog import ENTRIES, CatalogEntry, catalog_verify, get_entry
from .classify import ClassificationReport, ClassifyError, build_report, factorial_form
from .contfrac import BirthDeathRule, ContFracError, cf_excursions
from .dsl import (
    EcoSpec,
    ParseError,
    SpecError,
    from_canonical_json,
    parse_spec,
    spec_to_text,
    to_canonical_json,
    validate_spec,
)
from .engine import (
    CountTable,
    WalkSampler,
    count_levels,
    iter_levels,
    sample_walks,
    total_series,
)
from .guess import (
    AlgebraicGuess,
    GuessError,
    RationalGuess,
    guess_algebraic,
    guess_rational,
    minimal_algebraic,
)
from .kernel import GFResult, KernelError, build_kernel, gf_report, kernel_gfs
from .qpoly import QPoly
from .ratfunc import RatFunc
from .series import TruncSeries

__all__ = [
    "EcoSpec",
    "ParseError",
    "SpecError",
    "parse_spec",
    "spec_to_text",
    "to_canonical_json",
    "from_canonical_json",
    "validate_spec",
    "CountTable",
    "WalkSampler",
    "count_levels",
    "iter_levels",
    "total_series",
    "sample_walks",
    "QPoly",
    "RatFunc",
    "TruncSeries",
    "GuessError",
    "RationalGuess",
    "AlgebraicGuess",
    "guess_rational",
    "guess_algebraic",
    "minimal_algebraic",
    "ClassifyError",
    "ClassificationReport",
    "build_report",
    "factorial_form",
    "KernelError",
    "GFResult",
    "build_kernel",
    "kernel_gfs",
    "gf_report",
    "ContFracError",
    "BirthDeathRule",
    "cf_excursions",
    "CatalogEntry",
    "ENTRIES",
    "get_entry",
    "catalog_verify",
]
