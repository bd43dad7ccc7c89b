"""Smoke test of the benchmark tracer: it wraps ecokit functions by name, so
a renamed function must fail here rather than in a traced benchmark run."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import ecokit.cli as cli
from ecokit import guess, series

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_guess_and_root_spans():
    tracing = load_tracing()
    originals = (guess.minimal_algebraic, guess.nullspace_basis, series.hensel_small_factor)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["guess", "--system", "catalan", "--order", "30"]) == 0
            assert cli.run(["gf", "--system", "walk_notch1", "--order", "24"]) == 0
        times, counts = tracer.take()
    finally:
        tracer.remove()
    assert times["guess.algebraic_s"] > 0
    assert counts["guess.relations_found"] == 1
    assert times["series.root_s"] > 0
    assert (guess.minimal_algebraic, guess.nullspace_basis, series.hensel_small_factor) == originals


def test_tracer_counts_the_back_table_cells_that_bench_reports():
    # The tracer sums len(row) over the table; with rows as Row views over
    # flag lists (gaps included, for involutions) that must stay the number
    # of closure cells.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    argv = ["--system", "involutions", "-n", "60", "--format", "json"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["sample", "--count", "3", *argv]) == 0
        _, counts = tracer.take()
    finally:
        tracer.remove()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["bench", "--task", "sample", *argv]) == 0
    cells = json.loads(out.getvalue())["back_table_cells"]
    assert counts["engine.back_table_cells"] == cells == sum(d // 2 + 1 for d in range(61))
