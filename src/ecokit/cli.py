"""Command-line front end.

Subcommands: count, sample, classify, gf, guess, catalog, bench.  Systems
come either from the built-in catalog (--system NAME) or from a spec file
(--file PATH).  Exit codes: 0 success, 1 a verification or analysis
failure, 2 a usage error (unknown system, unreadable or invalid file, bad
flags), 141 the reader closed stdout early (the rest of the output is
dropped).  Output is deterministic for fixed argv and seed, except for bench,
whose whole point is measured wall time.

Each subcommand imports the modules it runs when it runs, so `count`,
`sample` and `bench` load only `catalog`, `dsl` and `engine`, and `run`
maps every typed error of `errors` to its exit code without loading the
module that raises it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from functools import cache
from itertools import chain
from pathlib import Path
from random import Random

from .errors import CLI_ERRORS, UsageError

EXIT_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE


# ---------------------------------------------------------------------------
# Plumbing


def _load_source(args):
    """Resolve --system/--file into (name, parsed spec)."""
    if args.system is not None:
        from .catalog import get_entry

        return args.system, get_entry(args.system).spec()
    from .dsl import ParseError, SpecError, parse_spec

    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")
    try:
        spec = parse_spec(text)
    except (ParseError, SpecError) as exc:
        raise UsageError(f"{path}: {exc}")
    return spec.name, spec


def _load_valid_source(args):
    """_load_source, and a spec file must also pass validate_spec."""
    name, spec = _load_source(args)
    if args.file is not None:
        from .dsl import validate_spec

        issues = validate_spec(spec).issues
        if issues:
            more = f" (and {len(issues) - 1} more)" if len(issues) > 1 else ""
            raise UsageError(
                f"{args.file}: invalid spec: [{issues[0].kind}] {issues[0].message}{more}"
            )
    return name, spec


# Ints per piece of a list of plain ints: 256 factorials near 3000! make a
# piece of about 2 MB of text.
_INT_CHUNK = 256


class _Reprs(dict):
    """int -> its text, each formatted on first use."""

    def __missing__(self, k):
        text = self[k] = repr(k)
        return text


def _write_json(write, obj, pad):
    """Write json.dumps(obj, indent=2) piece by piece, not through the
    pure-Python encoder that an indent selects.

    A list of plain ints is written about _INT_CHUNK ints at a time, each
    piece formatted by the list repr in C.  A list of nonempty lists of
    plain ints (walks) is written in pieces of about as many labels, joined
    from a table that formats each distinct label once."""
    if isinstance(obj, dict) and obj:
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in obj.items():
            write(f"{sep}{_json_key(k)}: ")
            _write_json(write, v, inner)
            sep = ",\n" + inner
        write(f"\n{pad}}}")
        return
    if not isinstance(obj, (list, tuple)) or not obj:
        write(json.dumps(obj))
        return
    inner = pad + "  "
    sep = ",\n" + inner
    kinds = set(map(type, obj))
    if kinds == {int}:
        write("[\n" + inner)
        for i in range(0, len(obj), _INT_CHUNK):
            if i:
                write(sep)
            write(repr(list(obj[i : i + _INT_CHUNK]))[1:-1].replace(", ", sep))
    elif kinds == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
        # Each distinct label is formatted once; a piece of rows is joined
        # from that text.  Only exact ints get here, so True and 1 never
        # share an entry.
        text = _Reprs()
        down = f"\n{inner}  "
        rows = f"\n{inner}]{sep}[{down}"
        labels = "," + down
        step = max(1, _INT_CHUNK // max(map(len, obj)))
        write(f"[\n{inner}[{down}")
        for i in range(0, len(obj), step):
            if i:
                write(rows)
            write(rows.join([labels.join(map(text.__getitem__, walk)) for walk in obj[i : i + step]]))
        write(f"\n{inner}]")
    else:
        lead = "[\n" + inner
        for v in obj:
            write(lead)
            _write_json(write, v, inner)
            lead = sep
    write(f"\n{pad}]")


def _json_key(key):
    # json's text for a dict key: a number, bool or None key becomes a string.
    return json.dumps(key) if isinstance(key, str) else json.dumps({key: None})[1:-7]


def _emit_json(obj):
    """Write json.dumps(obj, indent=2) and a newline to stdout, streamed."""
    write = sys.stdout.write
    _write_json(write, obj, "")
    write("\n")


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _no_csv(args):
    if args.format == "csv":
        raise UsageError(f"csv output is not available for {args.command}")


def _clean_stats(stats):
    return {k: v for k, v in stats.items() if k != "seconds"}


def _stopped(table):
    from .engine import stop_text

    return stop_text(table.stats["budget"], table.stats["levels"])


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_count(args):
    from .engine import count_levels

    name, spec = _load_valid_source(args)
    if args.n < 0:
        raise UsageError("-n must be nonnegative")
    if args.cap is not None and args.cap < 1:
        raise UsageError("--cap must be positive")
    table = count_levels(
        spec, args.n, method=args.method, max_labels=args.cap, label_sums=args.format == "json"
    )
    totals = table.totals
    if args.format == "csv":
        _emit_csv(["n", "total"], enumerate(totals))
    elif args.format == "json":
        _emit_json(
            {
                "command": "count",
                "system": name,
                "mode": spec.mode,
                "n": args.n,
                "totals": totals,
                "label_sums": table.label_sums,
                "stats": _clean_stats(table.stats),
            }
        )
    else:
        print(f"{name}  mode={spec.mode}  levels 0..{len(totals) - 1}")
        for i, v in enumerate(totals):
            print(f"{i}\t{v}")
    if table.stats.get("truncated"):
        print(f"error: {_stopped(table)}; output is partial", file=sys.stderr)
        return 1
    return 0


def _cmd_sample(args):
    from .engine import LABEL_CAP, LabelCapError, TableBudgetError, sample_walks

    name, spec = _load_valid_source(args)
    if args.n < 0:
        raise UsageError("-n must be nonnegative")
    if args.count < 1:
        raise UsageError("--count must be positive")
    try:
        walks = sample_walks(
            spec, args.n, args.count, args.seed, args.strategy, max_labels=LABEL_CAP
        )
    except (LabelCapError, TableBudgetError) as exc:
        print(f"error: {exc}; no walks drawn", file=sys.stderr)
        return 1
    if args.format == "csv":
        _emit_csv([f"step_{i}" for i in range(args.n + 1)], walks)
    elif args.format == "json":
        _emit_json(
            {
                "command": "sample",
                "system": name,
                "n": args.n,
                "seed": args.seed,
                "strategy": args.strategy,
                "walks": walks,
            }
        )
    else:
        for walk in walks:
            print(" ".join(str(k) for k in walk))
    return 0


def _cmd_classify(args):
    from .classify import ClosureError, build_report
    from .engine import stop_text

    _no_csv(args)
    if args.order < 1:
        raise UsageError("--order must be at least 1")
    name, spec = _load_source(args)
    try:
        report = build_report(spec, order=args.order)
    except ClosureError as exc:
        raise UsageError(
            f"{args.file or name}: invalid spec: [{exc.issue.kind}] {exc.issue.message}"
        )
    if args.format == "json":
        _emit_json({"command": "classify", "system": name, **report.to_json_obj()})
    else:
        print(f"system: {name}")
        print(report.summary())
        if report.budget:
            print(
                f"note: {stop_text(report.budget, len(report.series) - 1)}; "
                f"series has {len(report.series)} of {args.order} terms",
                file=sys.stderr,
            )
    return 0


def _cmd_gf(args):
    from .kernel import factorial_form, gf_report

    _no_csv(args)
    if args.order < 2:
        raise UsageError("--order must be at least 2")
    if args.window < 0:
        raise UsageError("--window must be nonnegative")
    name, spec = _load_valid_source(args)
    form, why = factorial_form(spec, why=True)
    if form is None:
        print(
            f"error: the rule set is not an interval-with-jumps walk ({why}); "
            "the algebraic route does not apply (try `classify`)",
            file=sys.stderr,
        )
        return 1
    closed = None
    if args.system is not None:
        from .catalog import get_entry

        closed = get_entry(args.system).form
    report = gf_report(name, form, order=args.order, window=args.window, closed=closed)
    if args.format == "json":
        _emit_json({"command": "gf", **report})
        return 0
    kp = report["kernel"]
    print(f"system: {name}")
    print(
        f"walk shape: jumps {kp['jumps']}, removed backward offsets "
        f"{kp['notches']}, largest jump a={kp['a']}, boundary width b={kp['b']}"
    )
    print(f"kernel constant slice (in u): {kp['z0']}")
    print(f"kernel z-slice (in u):        {kp['z1']}")
    print(f"all walks   F(z,1): {report['F1']}")
    print(f"excursions  F(z,0): {report['F0']}")
    print(f"excursion formula matched: {report['excursion_variant']}")
    if "closed_form" in report:
        cf = report["closed_form"]
        verdict = "matches" if cf["match"] else f"FAILS at z^{cf['first_mismatch']}"
        print(f"closed form {cf['form']}: {verdict}")
        if not cf["match"]:
            return 1
    return 0


def _cmd_guess(args):
    from .engine import LABEL_CAP, count_levels
    from .guess import guess_rational, minimal_algebraic

    _no_csv(args)
    if args.order < 1:
        raise UsageError("--order must be at least 1")
    if args.dmax < 0:
        raise UsageError("--dmax must be nonnegative")
    if args.max_degree < 0:
        raise UsageError("--max-degree must be nonnegative")
    name, spec = _load_valid_source(args)
    table = count_levels(spec, args.order - 1, max_labels=LABEL_CAP)
    terms = table.totals
    if table.stats.get("truncated"):
        print(
            f"error: {_stopped(table)}; only {len(terms)} of {args.order} terms",
            file=sys.stderr,
        )
        return 1
    rational = guess_rational(terms, dmax=args.dmax)
    algebraic = None
    if rational is None:
        algebraic = minimal_algebraic(terms, max_total=args.max_degree)
    if args.format == "json":
        _emit_json(
            {
                "command": "guess",
                "system": name,
                "terms": len(terms),
                "rational": rational.to_json_obj() if rational else None,
                "algebraic": algebraic.to_json_obj() if algebraic else None,
            }
        )
        return 0
    print(f"system: {name}  ({len(terms)} terms)")
    if rational is not None:
        print(f"rational: {rational.func.to_str()}")
        print(f"  held beyond the fitting window for {rational.verified_terms} terms")
    elif algebraic is not None:
        rel = algebraic.relation
        print(f"algebraic: {rel.to_str()}")
        print(
            f"  bidegree (z, F) = ({rel.degree_z}, {rel.degree_f}), "
            f"verified on {algebraic.verified_terms} terms"
        )
    else:
        print(
            f"no rational function (degrees <= {args.dmax}) and no algebraic "
            f"relation (total degree <= {args.max_degree}) fits"
        )
    return 0


def _cmd_catalog(args):
    from .catalog import ENTRIES, get_entry, verify_entry

    entries = ENTRIES
    if args.names:
        entries = [get_entry(n) for n in args.names]
    if not args.verify:
        if args.format == "csv":
            _emit_csv(
                ["name", "sequence_id", "golden", "description"],
                [
                    (e.name, e.sequence_id, " ".join(str(t) for t in e.golden), e.description)
                    for e in entries
                ],
            )
        elif args.format == "json":
            _emit_json(
                {
                    "command": "catalog",
                    "entries": [
                        {
                            "name": e.name,
                            "description": e.description,
                            "sequence_id": e.sequence_id,
                            "golden": list(e.golden),
                            "flags": list(e.flags),
                            "closed_form": e.form_text(),
                        }
                        for e in entries
                    ],
                }
            )
        else:
            for e in entries:
                terms = " ".join(str(t) for t in e.golden[:8])
                print(f"{e.name:<24} {terms:<42} {e.description}")
        return 0

    reports = [verify_entry(e) for e in entries]
    ok = all(r["ok"] for r in reports)
    if args.format == "csv":
        keys = ["golden", "closed_form", "oracle", "kernel", "excursions", "radius"]
        _emit_csv(
            ["name"] + keys + ["ok"],
            [
                [r["name"]] + [r["checks"][k] for k in keys] + [r["ok"]]
                for r in reports
            ],
        )
    elif args.format == "json":
        _emit_json({"command": "catalog_verify", "ok": ok, "entries": reports})
    else:
        for r in reports:
            ran = " ".join(
                f"{k}:{v}" for k, v in r["checks"].items() if v != "skip"
            )
            print(f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']:<24} {ran}")
            for d in r["diagnostics"]:
                print(f"      ! {d}")
        passed = sum(r["ok"] for r in reports)
        print(f"{passed}/{len(reports)} entries pass")
    return 0 if ok else 1


def _cmd_bench(args):
    name, spec = _load_valid_source(args)
    if args.n < 0:
        raise UsageError("-n must be nonnegative")
    if args.count < 1:
        raise UsageError("--count must be positive")
    if args.naive_cap < 0:
        raise UsageError("--naive-cap must be nonnegative")
    if args.task == "count":
        return _bench_count(name, spec, args)
    return _bench_sample(name, spec, args)


def _bench_count(name, spec, args):
    from .engine import count_levels

    ranged = count_levels(spec, args.n, method="range", label_sums=True)
    if ranged.stats.get("truncated"):
        print(f"error: {_stopped(ranged)}; range table is partial", file=sys.stderr)
        return 1
    naive = None
    skipped = f"n > naive cap {args.naive_cap}"
    if args.n <= args.naive_cap:
        naive = count_levels(spec, args.n, method="naive", label_sums=True)
        if naive.stats.get("truncated"):
            skipped = _stopped(naive)
            naive = None
        elif (naive.totals, naive.label_sums) != (ranged.totals, ranged.label_sums):
            what = "totals" if naive.totals != ranged.totals else "label sums"
            print(
                f"error: naive and range {what} disagree on {name} at n={args.n}",
                file=sys.stderr,
            )
            return 1
    rows = [("range", ranged.stats)] + ([("naive", naive.stats)] if naive else [])
    speedup = (
        naive.stats["seconds"] / ranged.stats["seconds"]
        if naive and ranged.stats["seconds"] > 0
        else None
    )
    if args.format == "csv":
        _emit_csv(
            ["method", "seconds", "update_ops", "peak_labels"],
            [
                (m, s["seconds"], s["update_ops"], s["peak_labels"])
                for m, s in rows
            ],
        )
    elif args.format == "json":
        _emit_json(
            {
                "command": "bench",
                "task": "count",
                "system": name,
                "n": args.n,
                "methods": {m: s for m, s in rows},
                "totals_agree": naive is not None,
                "speedup": speedup,
                **({} if naive else {"naive_skipped": skipped}),
            }
        )
    else:
        print(f"bench count {name}  n={args.n}")
        for m, s in rows:
            fallback = f"  fallback_labels={s['fallback_labels']}" if m == "range" else ""
            print(
                f"  {m:<6} {s['seconds']:>10.4f} s   "
                f"update_ops={s['update_ops']}  peak_labels={s['peak_labels']}{fallback}"
            )
        if naive is not None:
            print(f"  totals agree through level {args.n}")
            if speedup is not None:
                print(f"  range speedup over naive: {speedup:.1f}x")
        else:
            print(f"  naive skipped ({skipped})")
    return 0


def _bench_sample(name, spec, args):
    from .engine import LABEL_CAP, LabelCapError, TableBudgetError, WalkSampler, count_levels

    t0 = time.perf_counter()
    try:
        sampler = WalkSampler(spec, args.n, max_labels=LABEL_CAP)
    except (LabelCapError, TableBudgetError) as exc:
        print(f"error: {exc}; no walks drawn", file=sys.stderr)
        return 1
    build = time.perf_counter() - t0
    ranged = count_levels(spec, args.n, method="range", max_labels=LABEL_CAP)
    if not ranged.stats.get("truncated") and ranged.totals[-1] != sampler.total:
        print(
            f"error: back table and range totals disagree on {name} at n={args.n}",
            file=sys.stderr,
        )
        return 1
    timings, walks = {}, {}
    for strategy in ("sequential", "binary"):
        rng = Random(args.seed)
        t0 = time.perf_counter()
        walks[strategy] = [sampler.sample(rng, strategy=strategy) for _ in range(args.count)]
        timings[strategy] = time.perf_counter() - t0
    if walks["sequential"] != walks["binary"]:
        print(
            f"error: sequential and binary walks disagree on {name} at n={args.n}",
            file=sys.stderr,
        )
        return 1
    factor = (
        timings["sequential"] / timings["binary"] if timings["binary"] > 0 else None
    )
    table = sampler.g
    if args.format == "csv":
        _emit_csv(
            ["phase", "seconds"],
            [("table_build", round(build, 6))]
            + [(k, round(v, 6)) for k, v in timings.items()],
        )
    elif args.format == "json":
        _emit_json(
            {
                "command": "bench",
                "task": "sample",
                "system": name,
                "n": args.n,
                "draws": args.count,
                "table_build_seconds": build,
                "closure_seconds": table.closure_seconds,
                "rows_seconds": table.rows_seconds,
                "back_table_cells": table.cells,
                "draw_entries": sampler.draw_entries,
                "strategy_seconds": timings,
                "sequential_over_binary": factor,
            }
        )
    else:
        print(f"bench sample {name}  n={args.n}  draws={args.count}")
        print(
            f"  table build {build:.4f} s   closure {table.closure_seconds:.4f} s   "
            f"rows {table.rows_seconds:.4f} s   cells={table.cells}"
        )
        for k, v in timings.items():
            print(f"  {k:<12} {v:.4f} s")
        print(f"  draw entries={sampler.draw_entries}")
        if factor is not None:
            print(f"  sequential / binary: {factor:.1f}x")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


@cache
def _build_parser():
    """The parser, built once per process.  Each parser is a web of
    reference cycles that only the cyclic collector frees, so building one
    per `run` call grew the heap of a process that calls `run` many times."""
    top = argparse.ArgumentParser(
        prog="ecokit",
        description="Exact enumeration, sampling and generating functions "
        "for succession-rule systems.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    src = argparse.ArgumentParser(add_help=False)
    g = src.add_mutually_exclusive_group(required=True)
    g.add_argument("--system", help="built-in system name (see `catalog`)")
    g.add_argument("--file", help="path to a spec file")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )

    p = sub.add_parser("count", parents=[src, fmt], help="level totals f_0..f_n")
    p.add_argument("-n", type=int, required=True, help="last level to compute")
    p.add_argument(
        "--method", choices=("auto", "naive", "range"), default="auto",
        help="propagation method: range (auto, the default, is another name "
        "for it), or naive, the oracle that expands every label's successors",
    )
    p.add_argument(
        "--cap", type=int, default=None,
        help="stop if a level holds more than this many distinct labels",
    )

    p = sub.add_parser(
        "sample", parents=[src, fmt], help="uniform random walks of length n"
    )
    p.add_argument("-n", type=int, required=True, help="walk length")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--count", type=int, default=1, help="number of walks")
    p.add_argument(
        "--strategy", choices=("sequential", "binary"), default="binary",
        help="child-selection strategy (default binary)",
    )

    p = sub.add_parser(
        "classify", parents=[src, fmt],
        help="structural criteria and closed form when one applies",
    )
    p.add_argument(
        "--order", type=int, default=30,
        help="series length used for verification (default 30)",
    )

    p = sub.add_parser(
        "gf", parents=[src, fmt],
        help="kernel-method generating functions for interval-walk systems",
    )
    p.add_argument("--order", type=int, default=32, help="series order (default 32)")
    p.add_argument(
        "--window", type=int, default=12,
        help="how many height columns to extract (default 12)",
    )

    p = sub.add_parser(
        "guess", parents=[src, fmt],
        help="fit a rational or algebraic equation to the level totals",
    )
    p.add_argument(
        "--order", type=int, default=40, help="number of terms to fit (default 40)"
    )
    p.add_argument(
        "--dmax", type=int, default=8,
        help="rational numerator/denominator degree bound (default 8)",
    )
    p.add_argument(
        "--max-degree", type=int, default=5,
        help="algebraic per-variable degree bound (default 5)",
    )

    p = sub.add_parser(
        "catalog", parents=[fmt], help="list built-in systems or verify them"
    )
    p.add_argument("names", nargs="*", help="restrict to these entries")
    p.add_argument(
        "--verify", action="store_true",
        help="recompute golden prefixes, closed forms, oracles, kernels",
    )

    p = sub.add_parser(
        "bench", parents=[src, fmt], help="timing report for count or sample"
    )
    p.add_argument("--task", choices=("count", "sample"), default="count")
    p.add_argument("-n", type=int, default=500, help="problem size (default 500)")
    p.add_argument(
        "--naive-cap", type=int, default=600,
        help="skip the naive method beyond this n (default 600)",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
    p.add_argument(
        "--count", type=int, default=20, help="draws per strategy (default 20)"
    )
    return top


_DISPATCH = {
    "count": _cmd_count,
    "sample": _cmd_sample,
    "classify": _cmd_classify,
    "gf": _cmd_gf,
    "guess": _cmd_guess,
    "catalog": _cmd_catalog,
    "bench": _cmd_bench,
}


def _drop_stdout():
    """Point stdout's descriptor at os.devnull, so the output still buffered
    (flushed again at exit) goes nowhere instead of raising again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Exact totals pass CPython's default 4300-digit int-to-str limit
    # (permutations from n = 1559 on), so it is lifted while a command runs.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_PIPE
    except CLI_ERRORS as exc:
        # A KeyError's str() quotes its message, so the message is args[0].
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return exc.exit_code
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
