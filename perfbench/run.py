"""ecokit benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload count --seed 1 --seconds 26 --trace 0

The run imports ecokit from ``src/`` of the checkout it sits in, writes the
workload's inputs and job list under ``.perfbench/``, then runs whole passes
over the fixed job list through ``ecokit.cli.run(argv)`` in-process (the
continued-fraction jobs call ``ecokit.contfrac`` directly) until about
``--seconds`` have gone.  Every job's output is checked by ``checkers.py``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones (setup_s, wall_s, job_p50_ms, job_p90_ms, peak_rss_mb); with
``--trace 1`` one untraced pass is followed by traced passes and the metrics
are the per-module ones of ``tracing.METRICS``, also written per job to
``.perfbench/trace-<workload>-<seed>.json``.

``--setup-only --workdir DIR`` writes the inputs and job list into DIR and
exits; the run times a few such child processes for setup_s.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checkers
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7

# The shared 2-CPU host runs Python up to a third slower for tens of seconds
# at a time when other tenants are busy, in CPU time as much as in wall time.
# Every time metric is therefore scaled to a reference host speed: a job's
# seconds are multiplied by CAL_REF_S over the median time of the calibration
# below, run just before and after it and its neighbours.  The calibration
# shares no code with ecokit, so a change to the program moves the metrics
# and the host's load mostly does not.  CAL_REF_S is the calibration's median
# on an idle moment of that host (Xeon at 2.1 GHz, CPython 3.11).
CAL_REF_S = 0.001
CAL_WINDOW = 4  # neighbouring jobs on each side whose calibrations count


def calibrate():
    """Seconds taken by a fixed slice of big-integer, dict and Fraction work."""
    t0 = time.perf_counter()
    f = [1, 1]
    for n in range(2, 80):
        f.append(f[n - 1] + sum(f[i] * f[n - 2 - i] for i in range(n - 1)))
    level = {2: 1}
    for _ in range(22):
        nxt = {}
        for k, c in level.items():
            for j in range(2, k + 2):
                nxt[j] = nxt.get(j, 0) + c
        level = nxt
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(f[i], i)
    return time.perf_counter() - t0


def scaled(seconds, calibrations):
    return seconds * CAL_REF_S / statistics.median(calibrations)


def import_ecokit():
    """Import ecokit from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ecokit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ecokit sources under {src}")
    sys.path.insert(0, str(src))
    import ecokit

    if Path(ecokit.__file__).resolve().parent != (src / "ecokit").resolve():
        raise SystemExit(f"perfbench: imported ecokit from {ecokit.__file__}")
    return ecokit


def run_job(job):
    """Run one job; return (seconds, exit code, result, stderr).  The result
    is the captured stdout, or the coefficient list for a cf job."""
    from ecokit import cli, contfrac

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if job["kind"] == "cf":
            funcs = [
                c if s == 0 else (lambda k, c=c, s=s: c + s * k)
                for c, s in (job["down"], job["stay"], job["up"])
            ]
            rule = contfrac.BirthDeathRule.from_functions(*funcs)
            result = contfrac.cf_excursions(rule, job["order"]).as_ints()
            code = 0
        else:
            code = cli.run(job["argv"])
            result = out.getvalue()
    return time.perf_counter() - t0, code, result, err.getvalue()


class Pass:
    """What one pass over the job list measured."""

    def __init__(self):
        self.raw = []  # seconds per finished job
        self.cals = []  # (before, after) calibration per finished job
        self.failed = 0
        self.wrong = []
        self.records = []  # per-job trace records (running totals)
        self.times, self.counts = {}, {}  # pass totals, when traced

    def latencies(self):
        """Job seconds scaled to the reference host speed."""
        out = []
        for i, dt in enumerate(self.raw):
            near = self.cals[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1]
            out.append(scaled(dt, [c for pair in near for c in pair]))
        return out


def run_pass(jobs, checker, tracer=None):
    p = Pass()
    for job in jobs:
        before = calibrate()
        try:
            dt, code, result, err = run_job(job)
        except (Exception, SystemExit) as exc:  # a crashed job counts as failed
            p.failed += 1
            print(f"perfbench: job {job.get('argv', job)} raised {exc!r}", file=sys.stderr)
            continue
        after = calibrate()
        if code != 0:
            p.failed += 1
            print(f"perfbench: job {job['argv']} exited {code}: {err.strip()}", file=sys.stderr)
            continue
        p.raw.append(dt)
        p.cals.append((before, after))
        if tracer is not None:
            if job["kind"] != "cf":
                tracer.counts["cli.stdout_bytes"] += len(result.encode())
            p.records.append({"job": job.get("argv") or job["rule"], "seconds": dt,
                              "self_s": dict(tracer.times), "counts": dict(tracer.counts)})
        try:
            checker.check(job, result)
        except Exception as exc:  # a checker tripping on malformed output
            p.wrong.append(f"{job.get('argv', job)}: {exc!r}")
    try:
        checker.end_pass()
    except checkers.CheckError as exc:
        p.wrong.append(repr(exc))
    return p


def _per_job_deltas(records):
    """Trace records hold running totals; turn them into per-job amounts."""
    prev_t, prev_c = {}, {}
    for rec in records:
        t, c = rec["self_s"], rec["counts"]
        rec["self_s"] = {k: v - prev_t.get(k, 0.0) for k, v in t.items()
                         if v != prev_t.get(k, 0.0)}
        rec["counts"] = {k: v - prev_c.get(k, 0) for k, v in c.items()
                         if v != prev_c.get(k, 0)}
        prev_t, prev_c = t, c
    return records


def time_setup(workload, seed, workdir):
    """Median scaled time of fresh processes that import ecokit, write the
    inputs and build the job list."""
    samples = []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only", "--workdir", str(workdir / f"setup{i}")]
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        samples.append(scaled(dt, [before, calibrate()]))
    return statistics.median(samples)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="write inputs and job list into --workdir, then exit")
    p.add_argument("--workdir", type=Path, help="input directory for --setup-only")
    args = p.parse_args(argv)

    import_ecokit()
    if args.setup_only:
        if args.workdir is None:
            p.error("--setup-only needs --workdir")
        workloads.build(args.workload, args.seed, args.workdir)
        return 0

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir):
    jobs = workloads.build(args.workload, args.seed, workdir)
    setup_s = time_setup(args.workload, args.seed, workdir)
    checker = checkers.Checker()
    tracer = None
    plain, traced, durations = [], [], []
    start = time.perf_counter()
    try:
        while True:
            if args.trace and plain and tracer is None:
                tracer = tracing.Tracer()
                tracing.install(tracer)
            t0 = time.perf_counter()
            p = run_pass(jobs, checker, tracer)
            durations.append(time.perf_counter() - t0)
            if tracer is None:
                plain.append(p)
            else:
                p.times, p.counts = tracer.take()
                traced.append(p)
            elapsed = time.perf_counter() - start
            if args.trace and not traced:
                continue
            if elapsed + statistics.median(durations) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.remove()

    passes = plain + traced
    wrong = [w for p in passes for w in p.wrong]
    for line in wrong[:20]:
        print(f"perfbench: WRONG {line}", file=sys.stderr)
    walls = [sum(p.latencies()) for p in plain]
    if args.trace:
        metrics = _trace_metrics(traced, walls[0])
        _write(f"trace-{args.workload}-{args.seed}.json",
               {"workload": args.workload, "seed": args.seed,
                "jobs": _per_job_deltas(traced[0].records)})
        print(f"{args.workload}: untraced pass {walls[0]:.3f} s, traced "
              + ", ".join(f"{sum(p.latencies()):.3f}" for p in traced)
              + f" s (overhead {metrics['trace.overhead_pct']['value']:.1f} %)")
    else:
        latencies = [x for p in plain for x in p.latencies()]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        beyond = sum(x > deciles[8] for x in latencies)
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "job_p90_ms": (deciles[8] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        cal = statistics.median(c for p in plain for pair in p.cals for c in pair)
        print(f"{args.workload}: {len(plain)} passes x {len(jobs)} jobs, "
              f"{len(latencies)} latencies, {beyond} beyond p90; pass sums "
              + ", ".join(f"{w:.3f}" for w in walls) + " s scaled, "
              + ", ".join(f"{sum(p.raw):.3f}" for p in plain)
              + f" s raw; calibration median {cal * 1e3:.3f} ms")
    result = {
        "correct": not wrong,
        "attempted": len(passes) * len(jobs),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    _write(f"result-{args.workload}-{args.seed}-trace{args.trace}.json", result)
    print(json.dumps(result))
    return 0 if not wrong else 1


def _trace_metrics(traced, untraced_wall):
    """Self times: median over traced passes.  Counts: the first traced pass
    (every pass runs the same jobs, so they repeat exactly)."""
    out = {}
    for name in tracing.METRICS:
        if name == "trace.overhead_pct":
            wall = statistics.median(sum(p.latencies()) for p in traced)
            value = (wall / untraced_wall - 1) * 100
        elif name.endswith("_s"):
            value = statistics.median(p.times.get(name, 0.0) for p in traced)
        else:
            value = traced[0].counts.get(name, 0)
        out[name] = {"value": value, "unit": tracing.unit(name)}
    return out


def _write(name, obj):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(obj, indent=1), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
