"""Per-module spans and counters, recorded by wrapping ecokit's public
functions from outside the program.

A wrapped function opens a span; its self time (duration minus the spans it
caused) is added to the span's metric.  Hot dispatch functions get a
call-counting wrapper without a span, so their time stays in the caller.
Wrappers replace every binding of the original in every ``ecokit`` module
(``from .dsl import match_clause`` copies the name), and class methods are
replaced on the class.  ``Tracer.remove`` restores everything.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Every per-layer metric, in report order.  `_s` metrics are self times in
# seconds; the rest are counts over one pass, except peak_labels (largest
# level width seen) and the ratio of traced to untraced pass time.
METRICS = (
    "engine.count_s", "engine.update_ops", "engine.peak_labels", "engine.levels",
    "dsl.match_clause_calls", "dsl.successors_calls", "dsl.parse_s", "dsl.parse_calls",
    "engine.back_table_s", "engine.back_table_cells",
    "engine.draw_s", "engine.draws", "engine.walk_steps",
    "series.self_s", "series.mul_calls", "series.inverse_calls", "series.root_s",
    "qpoly.self_s", "qpoly.mul_calls",
    "ratfunc.expand_s", "ratfunc.expand_terms",
    "kernel.build_s", "kernel.gfs_s", "kernel.order_sum",
    "contfrac.cf_s", "contfrac.depth_sum",
    "guess.rational_s", "guess.algebraic_s", "guess.nullspace_calls",
    "guess.relations_found",
    "classify.report_s", "classify.factorial_form_s", "classify.none_verdicts",
    "catalog.verify_s", "catalog.checks_run",
    "cli.self_s", "cli.stdout_bytes",
    "trace.overhead_pct",
)


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    return "count"


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span stack, per-metric self times and counters for one process."""

    def __init__(self):
        self.stack = []
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self._undo = []

    def take(self):
        """Return (times, counts) accumulated so far and start afresh."""
        times, counts = dict(self.times), dict(self.counts)
        self.times.clear()
        self.counts.clear()
        return times, counts

    def span(self, metric, fn, count=None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                tracer.times[metric] += dt - frame[0]
                if tracer.stack:
                    tracer.stack[-1][0] += dt
            if count:
                tracer.counts[count] += 1
            if on_result:
                on_result(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, metric, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch_function(self, module, name, wrap):
        """Replace module.name, and every other ecokit binding of the same
        object, with wrap(original)."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("ecokit"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

    def patch_methods(self, cls, names, wrap):
        """Replace methods on a class; aliases (__rmul__ = __mul__) follow,
        and classmethods keep their binding."""
        for name in names:
            original = cls.__dict__[name]
            if isinstance(original, classmethod):
                wrapped = classmethod(wrap(original.__func__))
            else:
                wrapped = wrap(original)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    self._undo.append((cls, attr, value))
                    setattr(cls, attr, wrapped)

    def remove(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _count_stats(counts, args, kwargs, table):
    stats = table.stats
    counts["engine.update_ops"] += stats["update_ops"]
    counts["engine.levels"] += stats["levels"]
    counts["engine.peak_labels"] = max(counts["engine.peak_labels"], stats["peak_labels"])


def _back_cells(counts, args, kwargs, g):
    counts["engine.back_table_cells"] += sum(len(row) for row in g)


def _draw(counts, args, kwargs, walk):
    counts["engine.walk_steps"] += len(walk) - 1


def _expand_terms(counts, args, kwargs, result):
    counts["ratfunc.expand_terms"] += result.order


def _order_sum(counts, args, kwargs, result):
    counts["kernel.order_sum"] += _arg(args, kwargs, 1, "order", 32)


def _depth_sum(counts, args, kwargs, result):
    order = _arg(args, kwargs, 1, "order", 32)
    depth = _arg(args, kwargs, 2, "depth", None)
    counts["contfrac.depth_sum"] += -(-order // 2) + 1 if depth is None else depth


def _found(counts, args, kwargs, result):
    if result is not None:
        counts["guess.relations_found"] += 1


def _none_verdicts(counts, args, kwargs, report):
    counts["classify.none_verdicts"] += sum(r.verdict == "none" for r in report.results)


def _checks_run(counts, args, kwargs, report):
    counts["catalog.checks_run"] += sum(v != "skip" for v in report["checks"].values())


def install(tracer):
    """Wrap the public entry points of every ecokit module."""
    from ecokit import catalog, classify, cli, contfrac, dsl, engine, guess, kernel
    from ecokit import qpoly, ratfunc, series

    t = tracer
    fn = t.patch_function
    fn(dsl, "match_clause", lambda f: t.counter("dsl.match_clause_calls", f))
    fn(dsl, "successors", lambda f: t.counter("dsl.successors_calls", f))
    fn(dsl, "parse_spec", lambda f: t.span("dsl.parse_s", f, count="dsl.parse_calls"))

    fn(engine, "count_levels", lambda f: t.span("engine.count_s", f, on_result=_count_stats))
    fn(engine, "back_table", lambda f: t.span("engine.back_table_s", f, on_result=_back_cells))
    t.patch_methods(engine.WalkSampler, ["sample"],
                    lambda f: t.span("engine.draw_s", f, count="engine.draws", on_result=_draw))

    t.patch_methods(series.TruncSeries, ["__mul__"],
                    lambda f: t.span("series.self_s", f, count="series.mul_calls"))
    t.patch_methods(series.TruncSeries, ["__truediv__"],
                    lambda f: t.span("series.self_s", f, count="series.inverse_calls"))
    t.patch_methods(
        series.TruncSeries,
        ["__add__", "__sub__", "__neg__", "scale", "inverse", "shift", "sqrt",
         "truncate", "as_ints"],
        lambda f: t.span("series.self_s", f),
    )
    t.patch_methods(
        series.UPoly,
        ["__mul__", "__sub__", "eval_series", "eval_scalar", "derivative_u", "truncate"],
        lambda f: t.span("series.self_s", f),
    )
    for name in ("newton_series_root", "hensel_small_factor"):
        fn(series, name, lambda f: t.span("series.root_s", f))

    t.patch_methods(qpoly.QPoly, ["__mul__"],
                    lambda f: t.span("qpoly.self_s", f, count="qpoly.mul_calls"))
    t.patch_methods(
        qpoly.QPoly,
        ["__add__", "__sub__", "__neg__", "__divmod__", "shift", "eval", "derivative"],
        lambda f: t.span("qpoly.self_s", f),
    )
    fn(qpoly, "poly_gcd", lambda f: t.span("qpoly.self_s", f))

    t.patch_methods(ratfunc.RatFunc, ["expand"],
                    lambda f: t.span("ratfunc.expand_s", f, on_result=_expand_terms))

    fn(kernel, "build_kernel", lambda f: t.span("kernel.build_s", f))
    fn(kernel, "kernel_gfs", lambda f: t.span("kernel.gfs_s", f, on_result=_order_sum))
    for name in ("gf_report", "closed_form_check", "closed_form_series"):
        fn(kernel, name, lambda f: t.span("kernel.gfs_s", f))

    fn(contfrac, "cf_excursions", lambda f: t.span("contfrac.cf_s", f, on_result=_depth_sum))
    t.patch_methods(contfrac.BirthDeathRule, ["from_functions", "from_spec"],
                    lambda f: t.span("contfrac.cf_s", f))

    fn(guess, "guess_rational", lambda f: t.span("guess.rational_s", f, on_result=_found))
    fn(guess, "minimal_algebraic", lambda f: t.span("guess.algebraic_s", f, on_result=_found))
    fn(guess, "guess_algebraic", lambda f: t.span("guess.algebraic_s", f))
    fn(guess, "nullspace_basis", lambda f: t.counter("guess.nullspace_calls", f))

    fn(classify, "build_report", lambda f: t.span("classify.report_s", f, on_result=_none_verdicts))
    fn(classify, "factorial_form", lambda f: t.span("classify.factorial_form_s", f))

    fn(catalog, "verify_entry", lambda f: t.span("catalog.verify_s", f, on_result=_checks_run))

    fn(cli, "run", lambda f: t.span("cli.self_s", f))
