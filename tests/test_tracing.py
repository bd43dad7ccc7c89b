"""Smoke test of the benchmark tracer: it wraps ecokit functions by name, so
a renamed function must fail here rather than in a traced benchmark run."""

import contextlib
import importlib.util
import io
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
