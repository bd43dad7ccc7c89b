"""What a fresh process loads: `import ecokit` loads no module of the
package, and each CLI command loads only the modules it runs.

The module sets are read in one child process, since a module once imported
stays in this one; the exit codes of the typed errors are checked here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecokit
import ecokit.cli as cli
from ecokit import catalog, classify, contfrac, dsl, engine, errors, guess, kernel, series

# Steps in order; each records the ecokit modules loaded after it.
CHILD = r"""
import contextlib, importlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("ecokit."))

seen = {}
import ecokit
seen["import"] = loaded()
ecokit.get_entry("catalan").text
seen["entry_text"] = loaded()
from ecokit import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.run(["count", "--system", "catalan", "-n", "30"]),
        cli.run(["count", "--system", "tripling", "-n", "30", "--format", "json"]),
        cli.run(["sample", "--system", "motzkin", "-n", "30", "--count", "3"]),
        cli.run(["bench", "--task", "count", "--system", "bell", "-n", "10"]),
        cli.run(["bench", "--task", "sample", "--system", "bell", "-n", "10", "--count", "2"]),
    ]
seen["commands"] = loaded()
star = {}
exec("from ecokit import *", star)
names = sorted(k for k in star if not k.startswith("__"))
own = [
    k for k in names
    if star[k] is getattr(importlib.import_module("ecokit." + ecokit._SOURCES[k]), k)
]
print(json.dumps({"seen": seen, "codes": codes, "names": names, "own": own}))
"""


@pytest.fixture(scope="module")
def child():
    env = dict(os.environ, PYTHONPATH=str(Path(ecokit.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout)


def test_import_loads_no_submodule(child):
    assert child["seen"]["import"] == []


def test_an_entry_text_loads_only_the_catalog(child):
    # The catalog's one ecokit import is `errors`, for CatalogError.
    assert child["seen"]["entry_text"] == ["ecokit.catalog", "ecokit.errors"]


def test_count_sample_and_bench_load_no_analysis_module(child):
    assert child["codes"] == [0] * 5
    assert child["seen"]["commands"] == [
        "ecokit.catalog",
        "ecokit.cli",
        "ecokit.dsl",
        "ecokit.engine",
        "ecokit.errors",
    ]


def loaded_by(*argv):
    """(exit code, the ecokit modules loaded) of one CLI command run in a
    fresh process."""
    script = (
        "import contextlib, io, json, sys\n"
        "from ecokit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.run({list(argv)!r})\n"
        "print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith('ecokit.'))]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ecokit.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    return tuple(json.loads(done.stdout))


# What `kernel` runs on: the walk form it detects needs `dsl`, the series
# arithmetic `qpoly` and `series`.
GF_MODULES = ["cli", "dsl", "errors", "kernel", "qpoly", "series"]


def test_gf_loads_only_the_kernel_route():
    assert loaded_by("gf", "--system", "catalan", "--order", "10") == (
        0,
        ["catalog", *GF_MODULES],
    )


def test_gf_from_a_file_loads_no_catalog(tmp_path):
    # Only --system reads the catalog entry's closed form.
    path = tmp_path / "catalan.eco"
    path.write_text(catalog.get_entry("catalan").text)
    assert loaded_by("gf", "--file", str(path), "--order", "10") == (0, GF_MODULES)


def test_catalog_json_loads_no_parser():
    # The closed-form text comes from `kernel` and `ratfunc`; `kernel` loads
    # `dsl` only when it detects a walk form.
    assert loaded_by("catalog", "--format", "json") == (
        0,
        ["catalog", "cli", "errors", "kernel", "qpoly", "ratfunc", "series"],
    )


def test_catalog_verify_loads_no_detector_or_guesser():
    code, modules = loaded_by("catalog", "--verify")
    assert code == 0 and "kernel" in modules
    assert "classify" not in modules and "guess" not in modules


def test_star_import_binds_every_public_name_to_its_module_object(child):
    assert child["names"] == sorted(ecokit.__all__)
    assert len(child["names"]) == 39
    assert child["own"] == child["names"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ecokit.no_such_name
    assert not hasattr(ecokit, "_no_such_private")
    assert ecokit.count_levels is engine.count_levels


def test_errors_keep_their_old_import_paths():
    assert dsl.SpecError is errors.SpecError
    assert series.SeriesError is errors.SeriesError
    assert kernel.KernelError is errors.KernelError
    assert contfrac.ContFracError is errors.ContFracError
    assert guess.GuessError is errors.GuessError
    assert classify.ClassifyError is errors.ClassifyError
    assert catalog.CatalogError is errors.CatalogError
    assert cli.UsageError is errors.UsageError
    assert classify.LABEL_CAP is engine.LABEL_CAP == 100_000


# Each typed error and the exit code the CLI documents for it.
EXIT_CODES = [
    (errors.UsageError("bad flag"), 2),
    (errors.CatalogError("no such system"), 2),
    (errors.GuessError("too few terms"), 2),
    (errors.SpecError("bad spec"), 1),
    (errors.SeriesError("bad series"), 1),
    (errors.KernelError("bad kernel"), 1),
    (errors.ContFracError("bad fraction"), 1),
    (errors.ClassifyError("bad check"), 1),
    (engine.LabelCapError(5, 3), 1),
    (engine.TableBudgetError(3), 1),
    (classify.ClosureError(dsl.Issue("probe", "label 9 is beyond probe 8", 9)), 1),
]


def test_every_cli_error_has_a_documented_code():
    assert {type(exc) for exc, _ in EXIT_CODES} >= set(errors.CLI_ERRORS)
    for exc, code in EXIT_CODES:
        assert isinstance(exc, errors.CLI_ERRORS) and exc.exit_code == code


@pytest.mark.parametrize("exc, code", EXIT_CODES, ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_each_typed_error_exits_with_its_code(capsys, monkeypatch, exc, code):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(engine, "count_levels", broken)
    assert cli.run(["count", "--system", "catalan", "-n", "3"]) == code
    # The message is printed bare: a KeyError's str() would quote it.
    assert capsys.readouterr() == ("", f"error: {exc.args[0]}\n")
