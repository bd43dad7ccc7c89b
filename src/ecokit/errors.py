"""The typed errors of every ecokit module, each with the exit code that
`cli.run` maps it to: 2 for a usage error (bad flags, unknown system, too
few terms to fit), 1 for a failed analysis or an invalid spec.

They live in this one small module, with no ecokit import, so the CLI can
map an error to its code without loading the module that raises it.  Each
module that raises one re-exports it under its old name
(``from ecokit.dsl import SpecError`` still works).
"""


class UsageError(ValueError):
    """Bad invocation: maps to exit code 2."""

    exit_code = 2


class CatalogError(KeyError):
    """No catalog entry under that name."""

    exit_code = 2


class GuessError(ValueError):
    """Raised when a fit is requested with too few terms."""

    exit_code = 2


class SpecError(ValueError):
    """Semantic error in a spec or during rule expansion."""

    exit_code = 1


class SeriesError(ValueError):
    """Domain failure in series arithmetic (valuation, square root, lifting)."""

    exit_code = 1


class KernelError(ValueError):
    """The walk form is outside the kernel construction, or a consistency
    check failed."""

    exit_code = 1


class ContFracError(ValueError):
    """The rule moves labels by more than one step, or counts are invalid."""

    exit_code = 1


class ClassifyError(ValueError):
    """An internal consistency check failed while classifying."""

    exit_code = 1


# Every error `cli.run` reports as "error: MESSAGE" and exits with its code.
CLI_ERRORS = (
    UsageError,
    CatalogError,
    GuessError,
    SpecError,
    SeriesError,
    KernelError,
    ContFracError,
    ClassifyError,
)
