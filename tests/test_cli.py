import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecokit
import ecokit.cli as cli
from ecokit import catalog, engine, kernel
from ecokit.catalog import ENTRIES, get_entry
from ecokit.series import SeriesError

FIB_TEXT = (
    "system fib { mode eco; axiom 1;\n"
    " rule k <= 1: (2) x 1;\n"
    " rule k >= 2: (1) x 1, (2) x 1; }\n"
)


# Breaks the eco arity law: every label gets two successors.
BAD_ARITY_TEXT = "system bad { mode eco; axiom 1; rule k >= 1: (k) x 1, (k+1) x 1; }\n"
# Labels fall below the walk-mode floor 0 without bound.
FALLING_TEXT = "system down { mode walk; axiom 1; rule always: (k-1) x 2; }\n"
# Label 1 already has 2^31 + 1 successors.
WIDE_TEXT = "system wide { mode walk; axiom 1; rule always: interval(0, pow(2, k+30)); }\n"
# Label 131 has 2^131 + 1 successors; the reachable closure meets it.
LATE_TEXT = (
    "system late { mode walk; axiom 0;\n"
    " rule k <= 130: (k+1) x 1;\n"
    " rule k >= 131: interval(0, pow(2, k)); }\n"
)
# The same with the wide label 231 beyond the closure's probe, so only the
# propagation's label cap stands between it and expansion.
LATE2_TEXT = LATE_TEXT.replace("late", "late2").replace("130", "230").replace("131", "231")
# 41 labels 0..40 in one cycle with halving returns: finite, with a long
# shortest recurrence.
CYCLE_TEXT = (
    "system cyc40 { mode walk; axiom 0;\n"
    " rule k <= 39: (k+1) x 1, (0) x 1, (ceil_div(k, 2)) x 1;\n"
    " rule k >= 40: (0) x 1; }\n"
)
# A Motzkin walk that happens to carry a catalog name.
MISNAMED_TEXT = "system catalan { mode walk; axiom 0; rule always: interval(0, k-1), (k+1) x 1; }\n"
# Labels 2^n - 1; 2^61 - 1 is a Mersenne prime.
MERSENNE_TEXT = (
    "system mersenne { mode walk; axiom 1;\n"
    " rule prime(k): (2*k+1) x 1;\n"
    " rule !prime(k): (2*k+1) x 1; }\n"
)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_digit_limit():
    """Lift CPython's int-to-str digit limit in this process for one test."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    yield
    if digits is not None:
        sys.set_int_max_str_digits(digits)


def run_limited(*argv, lines=None):
    """The CLI in a child process with 800 MB of address space and a 60 s
    timeout, so a runaway expansion fails the test instead of the host.
    With `lines`, the reader takes that many lines of stdout and then
    closes the pipe, as `| head` does."""
    env = dict(os.environ, PYTHONPATH=str(Path(ecokit.__file__).parents[1]))
    cmd = [sys.executable, "-m", "ecokit.cli", *argv]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))

    if lines is None:
        return subprocess.run(
            cmd, env=env, capture_output=True, timeout=60, preexec_fn=limit
        )
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limit
    )
    try:
        head = b"".join(proc.stdout.readline() for _ in range(lines))
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    return subprocess.CompletedProcess(cmd, proc.returncode, head, err)


class TestCount:
    def test_csv_bytes(self, capsys):
        code, out, err = run(
            capsys, "count", "--system", "catalan", "-n", "5", "--format", "csv"
        )
        assert code == 0 and err == ""
        assert out == "n,total\n0,1\n1,2\n2,5\n3,14\n4,42\n5,132\n"

    def test_json_has_no_timing(self, capsys):
        code, out, _ = run(
            capsys, "count", "--system", "motzkin", "-n", "6", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["totals"] == [1, 1, 2, 4, 9, 21, 51]
        assert "seconds" not in doc["stats"]

    def test_cap_exceeded_is_partial(self, capsys):
        code, out, err = run(
            capsys, "count", "--system", "even_jumps", "-n", "40", "--cap", "500"
        )
        assert code == 1
        assert "label cap 500 exceeded" in err
        assert out.rstrip().endswith("29559718")

    def test_auto_and_range_print_the_same_bytes(self, capsys):
        # auto is another name for the range method, on every rule shape.
        for entry in ENTRIES:
            for n in ("0", "8", "30"):
                argv = ("count", "--system", entry.name, "-n", n, "--format", "json")
                auto = run(capsys, *argv, "--method", "auto")
                assert run(capsys, *argv, "--method", "range") == auto, (entry.name, n)

    @pytest.mark.parametrize("command", ["count", "sample", "guess", "gf"])
    @pytest.mark.parametrize("text", [BAD_ARITY_TEXT, FALLING_TEXT])
    def test_invalid_file_is_rejected(self, capsys, tmp_path, command, text):
        path = tmp_path / "bad.eco"
        path.write_text(text)
        size = {"guess": "--order", "gf": "--order"}.get(command, "-n")
        code, out, err = run(capsys, command, "--file", str(path), size, "4")
        assert (code, out) == (2, "")
        assert "invalid spec" in err

    def test_large_multiplicity_is_not_a_wide_label(self, capsys, tmp_path):
        path = tmp_path / "heavy.eco"
        path.write_text("system heavy { mode walk; axiom 0; rule always: (k+1) x pow(2, k+20); }\n")
        code, out, _ = run(capsys, "count", "--file", str(path), "-n", "2")
        assert code == 0
        assert out.rstrip().endswith("2\t2199023255552")

    def test_prime_guard_on_a_mersenne_prime(self, capsys, tmp_path):
        path = tmp_path / "mersenne.eco"
        path.write_text(MERSENNE_TEXT)
        code, out, _ = run(capsys, "count", "--file", str(path), "-n", "62")
        assert code == 0
        assert out.rstrip().endswith("62\t1")


class TestSample:
    def test_length_zero_walk(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--system", "motzkin", "-n", "0", "--seed", "7"
        )
        assert (code, out) == (0, "1\n")

    def test_seeded_runs_are_identical(self, capsys):
        argv = (
            "sample", "--system", "catalan", "-n", "9",
            "--count", "5", "--seed", "11", "--format", "json",
        )
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert len(json.loads(first[1])["walks"]) == 5

    def test_label_cap_stops_before_the_back_table(self, capsys):
        code, out, err = run(capsys, "sample", "--system", "even_jumps", "-n", "30")
        assert (code, out) == (1, "")
        assert err == "error: label cap 100000 exceeded after level 17; no walks drawn\n"


class TestClassify:
    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "fib.eco"
        path.write_text(FIB_TEXT)
        code, out, _ = run(capsys, "classify", "--file", str(path))
        assert code == 0
        assert "finite-labels" in out
        assert "1/(1 - z - z^2)" in out

    def test_falling_labels_do_not_hang(self, tmp_path):
        path = tmp_path / "down.eco"
        path.write_text(FALLING_TEXT)
        done = run_limited("classify", "--file", str(path))
        assert (done.returncode, done.stdout) == (2, b"")
        assert b"[label-range] label -1 is below the label floor 0" in done.stderr

    def test_wide_label_within_the_probe_is_rejected(self, tmp_path):
        path = tmp_path / "late.eco"
        path.write_text(LATE_TEXT)
        done = run_limited("classify", "--file", str(path))
        assert (done.returncode, done.stdout) == (2, b"")
        assert b"invalid spec: [width] label 131 has " in done.stderr

    @pytest.mark.parametrize("argv", [("count", "-n", "1"), ("classify",)])
    def test_too_wide_label_is_rejected_before_expansion(self, capsys, tmp_path, argv):
        path = tmp_path / "wide.eco"
        path.write_text(WIDE_TEXT)
        code, out, err = run(capsys, *argv, "--file", str(path))
        assert (code, out) == (2, "")
        assert err.endswith(
            "invalid spec: [width] label 1 has 2147483649 successor labels, more than 100000\n"
        )

    def test_csv_not_offered(self, capsys):
        code, _, err = run(
            capsys, "classify", "--system", "catalan", "--format", "csv"
        )
        assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (("count", "-n", "240", "--cap", "1000"), 1, "label cap 1000 exceeded after level 231;"),
        (("count", "-n", "240", "--cap", "9", "--method", "naive"), 1, "label cap 9 exceeded"),
        (("guess", "--order", "240"), 1, "label cap 100000 exceeded after level 231;"),
        (("classify", "--order", "240", "--format", "json"), 0, ""),
    ],
)
def test_wide_run_beyond_the_probe_stops_at_the_cap(tmp_path, argv, code, err):
    path = tmp_path / "late2.eco"
    path.write_text(LATE2_TEXT)
    done = run_limited(argv[0], "--file", str(path), *argv[1:])
    assert done.returncode == code
    assert err.encode() in done.stderr if err else done.stderr == b""
    if argv[0] == "classify":
        assert json.loads(done.stdout)["series"] == [1] * 232


def test_uncapped_count_stops_at_the_width_budget(tmp_path):
    path = tmp_path / "late2.eco"
    path.write_text(LATE2_TEXT)
    done = run_limited("count", "--file", str(path), "-n", "240")
    assert done.returncode == 1
    assert done.stderr == (
        b"error: width budget of 100000 labels per successor run exceeded "
        b"after level 231; output is partial\n"
    )
    assert done.stdout.splitlines()[-1] == b"231\t1"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--system", "fibonacci", "-n", "2000"),  # about 430 kB of text
        ("classify", "--system", "permutations", "--order", "500", "--format", "json"),
    ],
)
def test_closed_pipe_exits_quietly(argv):
    # The output is larger than the pipe and the reader's buffer, so the
    # writer meets the closed pipe whatever the timing.
    done = run_limited(*argv, lines=1)
    assert done.stdout.count(b"\n") == 1
    assert done.stderr == b""
    assert done.returncode == cli.EXIT_PIPE == 141


def test_classify_names_the_cap_that_shortened_its_series(tmp_path):
    path = tmp_path / "late2.eco"
    path.write_text(LATE2_TEXT)
    argv = ("classify", "--file", str(path), "--order", "240")
    text = run_limited(*argv)
    assert text.returncode == 0
    assert text.stderr == (
        b"note: label cap 100000 exceeded after level 231; series has 232 of 240 terms\n"
    )
    assert text.stdout.splitlines()[-1] == b"  series: " + b", ".join([b"1"] * 10)
    doc = json.loads(run_limited(*argv, "--format", "json").stdout)
    assert doc["partial"] == {"cap": 100000, "level": 231}


class TestGF:
    def test_closed_form_follows_the_entry_not_the_name(self, capsys, tmp_path):
        path = tmp_path / "catalan.eco"
        path.write_text(MISNAMED_TEXT)
        code, out, err = run(capsys, "gf", "--file", str(path))
        assert (code, err) == (0, "")
        assert "all walks   F(z,1): [1, 1, 2, 4, 9, 21, " in out
        assert "closed form" not in out

    def test_interval_route_required(self, capsys):
        code, _, err = run(capsys, "gf", "--system", "bell")
        assert code == 1
        assert "algebraic route does not apply" in err

    def test_refusal_names_the_detector_reason(self, capsys):
        code, out, err = run(capsys, "gf", "--system", "bell")
        assert (code, out) == (1, "")
        assert "(the shape needs exactly one step-1 interval)" in err

    def test_kernel_report(self, capsys):
        code, out, _ = run(
            capsys, "gf", "--system", "schroeder", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["F1"][:5] == [1, 3, 11, 45, 197]
        assert doc["closed_form"]["match"] is True

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_order_below_two_is_usage_error(self, capsys, order):
        code, out, err = run(capsys, "gf", "--system", "catalan", "--order", order)
        assert (code, out) == (2, "")
        assert "--order must be at least 2" in err

    def test_series_error_is_reported(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise SeriesError("series needs order at least 1")

        monkeypatch.setattr(kernel, "gf_report", broken)
        code, _, err = run(capsys, "gf", "--system", "catalan")
        assert code == 1
        assert err == "error: series needs order at least 1\n"


class TestGuess:
    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_order_below_one_is_usage_error(self, capsys, order):
        code, out, err = run(capsys, "guess", "--system", "catalan", "--order", order)
        assert (code, out) == (2, "")
        assert err == "error: --order must be at least 1\n"

    def test_rational_system(self, capsys):
        code, out, _ = run(capsys, "guess", "--system", "fibonacci")
        assert code == 0
        assert "1/(1 - z - z^2)" in out

    def test_algebraic_system(self, capsys):
        code, out, _ = run(capsys, "guess", "--system", "ternary")
        assert code == 0
        assert "F^3" in out

    def test_width_cap_is_reported(self, capsys):
        code, out, err = run(capsys, "guess", "--system", "even_jumps")
        assert (code, out) == (1, "")
        assert "label cap 100000 exceeded after level 17" in err
        assert "only 18 of 40 terms" in err


class TestCatalog:
    def test_verify_subset(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "fibonacci", "catalan", "--verify"
        )
        assert code == 0
        assert "2/2 entries pass" in out

    def test_verify_flags_bad_golden(self, capsys, monkeypatch):
        entry = get_entry("fibonacci")
        bad = dataclasses.replace(entry, golden=entry.golden[:-1] + (999,))
        monkeypatch.setattr(catalog, "ENTRIES", (bad,))
        code, out, _ = run(capsys, "catalog", "--verify")
        assert code == 1
        assert "FAIL" in out

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "catalan" in out and "bessel" in out


class TestErrors:
    def test_unknown_system(self, capsys):
        code, _, err = run(capsys, "count", "--system", "nope", "-n", "3")
        assert code == 2 and "unknown system" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "count", "--file", str(tmp_path / "gone.eco"), "-n", "3"
        )
        assert code == 2 and "error:" in err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.run([])
        assert exc.value.code == 2


class TestBench:
    def test_count_benchmark(self, capsys):
        code, out, _ = run(capsys, "bench", "--task", "count",
                           "--system", "motzkin", "-n", "40")
        assert code == 0
        assert "totals agree" in out
        # The labels of the levels of fewer than 8 labels, and label 1, whose
        # run interval(1, k - 1) is still empty, of each larger level.
        assert "fallback_labels=61" in out
        assert [line.split()[0] for line in out.splitlines()[1:3]] == ["range", "naive"]

    def test_count_benchmark_json_counts_fallback_labels(self, capsys):
        code, out, _ = run(capsys, "bench", "--task", "count", "--system", "catalan",
                           "-n", "40", "--format", "json")
        assert code == 0
        methods = json.loads(out)["methods"]
        assert list(methods) == ["range", "naive"]
        # Catalan's levels 0..6 hold 1..7 labels, fewer than a list needs.
        assert methods["range"]["fallback_labels"] == sum(range(1, 8))
        assert "fallback_labels" not in methods["naive"]

    def test_count_benchmark_runs_auto_on_point_rules(self, capsys):
        # The range row is auto's route.  On point rules it lowers only
        # tripling's seven levels of fewer than 8 labels one at a time,
        # through naive's cached pairs, so both rows count the same ops.
        code, out, _ = run(capsys, "bench", "--task", "count", "--system", "tripling",
                           "-n", "60", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert [row[0] for row in rows] == ["method", "range", "naive"]
        assert len({row[2] for row in rows[1:]}) == 1
        code, out, _ = run(capsys, "bench", "--task", "count", "--system", "tripling", "-n", "60")
        assert "  range " in out and "fallback_labels=28\n" in out

    def test_count_benchmark_fails_when_range_disagrees(self, capsys, monkeypatch):
        # A wrong last total, then a wrong last label sum with right totals.
        original = engine.count_levels
        for what in ("totals", "label_sums"):

            def count_levels(spec, n, method="auto", **kwargs):
                table = original(spec, n, method=method, **kwargs)
                if method == "range":
                    getattr(table, what)[-1] += 1
                return table

            monkeypatch.setattr(engine, "count_levels", count_levels)
            code, out, err = run(capsys, "bench", "--task", "count", "--system", "bell", "-n", "20")
            assert (code, out) == (1, "")
            words = what.replace("_", " ")
            assert err == f"error: naive and range {words} disagree on bell at n=20\n"

    def test_naive_pair_budget_skips_the_naive_row(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "NAIVE_PAIRS", 1000)
        code, out, err = run(capsys, "bench", "--task", "count",
                             "--system", "quaternary", "-n", "40")
        assert (code, err) == (0, "")
        assert out.endswith(
            "  naive skipped (naive budget of 1000 cached successor pairs "
            "exceeded after level 14)\n"
        )
        code, out, _ = run(capsys, "bench", "--task", "count", "--system", "quaternary",
                           "-n", "40", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and list(doc["methods"]) == ["range"]
        assert doc["naive_skipped"].startswith("naive budget of 1000 ")

    def test_sample_benchmark_reports_the_table_and_draw_entries(self, capsys):
        code, out, _ = run(capsys, "bench", "--task", "sample", "--system", "catalan",
                           "-n", "30", "--count", "50", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        # Layer d of catalan holds the labels 2..d+2.
        assert doc["back_table_cells"] == sum(range(1, 32))
        assert 30 <= doc["draw_entries"] <= 30 * 50
        assert doc["closure_seconds"] + doc["rows_seconds"] <= doc["table_build_seconds"]
        code, out, _ = run(capsys, "bench", "--task", "sample", "--system", "catalan",
                           "-n", "30", "--count", "50")
        assert "cells=496" in out and "draw entries=" in out

    def test_sample_benchmark_fails_when_the_table_or_the_walks_disagree(self, capsys, monkeypatch):
        argv = ("bench", "--task", "sample", "--system", "motzkin", "-n", "20", "--count", "5")
        count_levels, sample = engine.count_levels, engine.WalkSampler.sample

        def off_by_one(truncated):
            def counted(*args, **kwargs):
                table = count_levels(*args, **kwargs)
                table.totals[-1] += 1
                if truncated:
                    table.stats["truncated"] = True
                return table
            return counted

        # A wrong range total, unless the count was cut short.
        monkeypatch.setattr(engine, "count_levels", off_by_one(False))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: back table and range totals disagree on motzkin at n=20\n"
        monkeypatch.setattr(engine, "count_levels", off_by_one(True))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("bench sample motzkin  n=20  draws=5\n")
        monkeypatch.setattr(engine, "count_levels", count_levels)

        # A binary walk that leaves the sequential stream.
        def moved(self, rng, strategy="binary"):
            walk = sample(self, rng, strategy)
            return walk[:-1] + [walk[-1] + 1] if strategy == "binary" else walk

        monkeypatch.setattr(engine.WalkSampler, "sample", moved)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: sequential and binary walks disagree on motzkin at n=20\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("-n", "-1"), "-n must be nonnegative"),
            (("--task", "sample", "--count", "0"), "--count must be positive"),
            (("--count", "-3"), "--count must be positive"),
            (("--naive-cap", "-5"), "--naive-cap must be nonnegative"),
        ],
    )
    def test_bad_values_are_usage_errors(self, capsys, flags, message):
        code, out, err = run(capsys, "bench", "--system", "catalan", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, kind", [(BAD_ARITY_TEXT, "arity-symbolic"),
                                            (WIDE_TEXT, "width")])
    def test_invalid_file_is_a_usage_error(self, capsys, tmp_path, text, kind):
        path = tmp_path / "bad.eco"
        path.write_text(text)
        for task in ("count", "sample"):
            code, out, err = run(capsys, "bench", "--task", task, "--file", str(path))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {path}: invalid spec: [{kind}]")

    def test_partial_range_table_is_an_error(self, capsys, tmp_path):
        # The wide label 231 lies beyond the validator's probe, so the file
        # loads and the range table's width budget stops it.
        path = tmp_path / "late2.eco"
        path.write_text(LATE2_TEXT)
        code, out, err = run(capsys, "bench", "--task", "count", "--file", str(path),
                             "-n", "240")
        assert (code, out) == (1, "")
        assert err == (
            "error: width budget of 100000 labels per successor run exceeded "
            "after level 231; range table is partial\n"
        )


@pytest.mark.parametrize("top", [40, 199])
def test_classify_solves_a_long_finite_label_cycle(tmp_path, top):
    path = tmp_path / "cycle.eco"
    path.write_text(CYCLE_TEXT.replace("39", str(top - 1)).replace("40", str(top)))
    done = run_limited("classify", "--file", str(path))
    assert (done.returncode, done.stderr) == (0, b"")
    assert b"  finite-labels: holds\n" in done.stdout


def test_naive_count_stops_at_the_pair_budget():
    done = run_limited("count", "--system", "even_jumps", "-n", "40", "--method", "naive")
    assert done.returncode == 1
    assert done.stderr == (
        b"error: naive budget of 4000000 cached successor pairs exceeded "
        b"after level 12; output is partial\n"
    )
    assert done.stdout.splitlines()[-1] == b"12\t77160820913242"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_count_prints_totals_past_the_digit_limit(fmt, no_digit_limit):
    # 1700! has 4,756 digits, past CPython's default int-to-str limit.
    done = run_limited("count", "--system", "permutations", "-n", "1700", "--format", fmt)
    assert (done.returncode, done.stderr) == (0, b"")
    if fmt == "json":
        last = json.loads(done.stdout)["totals"][-1]
    else:
        last = int(done.stdout.split()[-1].split(b",")[-1])
    assert last == math.factorial(1700)


def test_count_keeps_one_level_in_memory():
    # Keeping every level of catalan to n = 2500 takes more than the
    # 800 MB of address space; one level at a time takes under 30 MB.
    done = run_limited("count", "--system", "catalan", "-n", "2500", "--format", "csv")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.splitlines()[-1] == b"2500,%d" % (math.comb(5002, 2501) // 2502)


def test_sample_bench_stops_at_the_label_cap():
    done = run_limited("bench", "--task", "sample", "--system", "even_jumps", "-n", "30")
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"error: label cap 100000 exceeded after level 17; no walks drawn\n"


def test_sample_stops_at_the_back_table_budget():
    # Catalan's closure layers pass the budget's charge for their cells
    # after level 2046, before any row of the table is built.
    done = run_limited("sample", "--system", "catalan", "-n", "4000", "--count", "1")
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == (
        b"error: back-table budget of 2147483648 stored bits exceeded after "
        b"level 2046; no walks drawn\n"
    )
    done = run_limited("sample", "--system", "catalan", "-n", "1000")
    assert (done.returncode, done.stderr) == (0, b"")
    assert len(done.stdout.split()) == 1001


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.text()
    | st.lists(st.integers(-(2**70), 2**70))
    | st.lists(st.integers(-(2**300), 2**300) | st.booleans()),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


def emitted_json(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(obj)
    return out.getvalue()


@settings(max_examples=120, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps(obj):
    assert emitted_json(obj) == json.dumps(obj, indent=2) + "\n"


def test_json_writer_splits_long_int_lists():
    # Lists longer than one piece, in a dict and in a list, with negative
    # ints, ints past 2**200, a lone piece of one int, a tuple, and lists of
    # int lists split by rows.
    n = cli._INT_CHUNK
    rng = Random(5)
    ints = [rng.randrange(-(2**250), 2**250) for _ in range(2 * n + 1)]
    obj = {
        "long": ints,
        "nested": [list(range(-n, n + 1)), ints[: n + 1], (7, *ints[:n])],
        "rows": [ints[:3], list(range(n + 5)), [-1]],
        "walks": [[k, k + 1, 2**300] for k in range(n)],
        "bools": [1, True, -2, False],
        "empty": [[1], []],
    }
    assert emitted_json(obj) == json.dumps(obj, indent=2) + "\n"
    # Walks over more pieces than one, of varying length, whose labels
    # repeat within and across walks: label 0, multi-digit and negative
    # ints, and ints past 2**200.
    labels = [0, 7, 12, 305, -1, -40, 2**201, -(2**230), 10**70]
    walks = [[rng.choice(labels) for _ in range(rng.randrange(1, 9))] for _ in range(3 * n)]
    obj = {"command": "sample", "walks": walks, "last": [walks[0]]}
    assert emitted_json(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("system", ["catalan", "motzkin"])
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-n", "20"),
        ("sample", "-n", "12", "--count", "3"),
        ("classify",),
        ("gf", "--order", "12"),
        ("guess",),
        ("bench", "--task", "count", "-n", "20"),
        ("bench", "--task", "sample", "-n", "12"),
        ("catalog",),
        ("catalog", "--verify"),
    ],
)
def test_json_output_is_what_json_dumps_writes(capsys, system, argv):
    source = (system,) if argv[0] == "catalog" else ("--system", system)
    code, out, _ = run(capsys, *argv, *source, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "--order", "0"), "--order must be at least 1"),
        (("classify", "--order", "-2"), "--order must be at least 1"),
        (("count", "-n", "3", "--cap", "0"), "--cap must be positive"),
        (("count", "-n", "3", "--cap", "-1"), "--cap must be positive"),
        (("gf", "--window", "-2"), "--window must be nonnegative"),
        (("guess", "--dmax", "-1"), "--dmax must be nonnegative"),
        (("guess", "--max-degree", "-1"), "--max-degree must be nonnegative"),
    ],
)
def test_out_of_range_flags_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--system", "catalan")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (("classify", "--order", "1"), 0),
        (("count", "-n", "3", "--cap", "1"), 1),  # the cap fires after level 0
        (("gf", "--window", "0"), 0),
        (("guess", "--dmax", "0", "--max-degree", "0"), 0),
    ],
)
def test_smallest_flag_values_still_run(capsys, argv, code):
    assert run(capsys, *argv, "--system", "catalan")[0] == code
