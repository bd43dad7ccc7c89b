"""Seeded job lists for the four benchmark workloads.

A job is a plain dict: ``kind`` names its checker, ``argv`` is what goes to
``ecokit.cli.run`` (absent for ``cf`` jobs, which call ``cf_excursions``
directly), and the remaining keys are the parameters the checker needs.
The seed raises sizes of 100 or more by up to one percent, picks the
sampling seeds and shuffles the job order, so every seed gives the same mix
of work at nearly the same total cost; the slot tables below fix which
systems run and at what size.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("count", "sample", "solve", "survey")


def _jitter(rng, base, spread=0.01):
    """base plus a seeded increment of at most `spread` of base, small
    enough that every seed costs nearly the same (none below 1/spread)."""
    return base + rng.randrange(int(base * spread) + 1)


# count: (system, method, depth bases).  `auto` resolves to the range method
# on interval rules and to the naive method on point rules; the forced-naive
# slots re-run interval rules through the naive expansion at smaller depth.
COUNT_SLOTS = (
    ("catalan", "auto", (110, 160, 200, 240)),
    ("motzkin", "auto", (90, 130, 165, 200)),
    ("schroeder", "auto", (90, 130, 165, 200)),
    ("fan", "auto", (90, 130, 165, 200)),
    ("ternary", "auto", (70, 100, 130, 160)),
    ("quaternary", "auto", (60, 85, 110, 135)),
    ("quinary", "auto", (50, 70, 90, 110)),
    ("walk_notch1", "auto", (100, 140, 175, 210)),
    ("fibonacci", "auto", (1000, 1300, 1600)),
    ("fibonacci_bisection_a", "auto", (180, 240, 300)),
    ("fibonacci_bisection_b", "auto", (180, 240, 300)),
    ("goldbach", "auto", (150, 200, 250)),
    ("ceil_half", "auto", (200, 260, 320)),
    ("bell", "auto", (160, 200, 240)),
    ("involutions", "auto", (250, 320, 400)),
    ("switchboard", "auto", (180, 230, 280)),
    ("arrangements", "auto", (180, 230, 280)),
    ("partial_permutations", "auto", (180, 230, 280)),
    ("bicolored_involutions", "auto", (250, 320, 400)),
    ("affine_jumps", "auto", (60, 80, 100)),
    ("parity_three_odd", "auto", (180, 230, 280)),
    ("parity_three_even", "auto", (180, 230, 280)),
    ("tripling", "auto", (300, 400, 500)),
    ("fredholm", "auto", (180, 230, 280)),
    ("bicolored_partitions", "auto", (160, 200, 240)),
    ("runaway", "auto", (150, 200, 250)),
    ("catalan", "naive", (40, 55, 70)),
    ("motzkin", "naive", (45, 60, 75)),
    ("schroeder", "naive", (35, 45, 55)),
    ("fan", "naive", (30, 40, 50)),
    ("ternary", "naive", (25, 32, 40)),
    ("walk_notch1", "naive", (50, 65, 80)),
)

# sample, large n with few draws: the back table dominates.
SAMPLE_BIG = (
    ("catalan", (100, 140, 180)),
    ("motzkin", (90, 120, 150)),
    ("schroeder", (90, 120, 150)),
    ("fan", (80, 110, 140)),
    ("ternary", (60, 80, 100)),
    ("quaternary", (50, 65, 80)),
    ("walk_notch1", (100, 130, 160)),
    ("bell", (200, 260, 320)),
    ("involutions", (200, 260, 320)),
    ("ceil_half", (200, 260, 320)),
    ("switchboard", (200, 260, 320)),
    ("fibonacci", (800, 1000, 1200)),
)
SAMPLE_BIG_DRAWS = 3

# sample, small n with many draws: the descent dominates.
SAMPLE_MANY = (
    ("catalan", 30, 700),
    ("motzkin", 40, 600),
    ("schroeder", 25, 700),
    ("fan", 20, 700),
    ("ternary", 20, 700),
    ("walk_notch1", 40, 600),
    ("bell", 30, 700),
    ("involutions", 40, 600),
    ("ceil_half", 40, 600),
    ("switchboard", 30, 700),
    ("fibonacci", 60, 500),
)
SAMPLE_MANY_REPEATS = 6

# sample, uniformity: every walk of the level is enumerable, so the draw
# counts can be tested against their exact probabilities.
SAMPLE_CHI = (("catalan", 5, 2600), ("motzkin", 7, 2600), ("bell", 6, 3000))

# solve: kernel systems for gf, and the three kinds of guess input.
GF_SLOTS = (
    ("catalan", (24, 30, 36, 42)),
    ("motzkin", (24, 30, 36, 42)),
    ("schroeder", (24, 30, 36, 42)),
    ("fan", (24, 30, 36, 42)),
    ("ternary", (20, 26, 32, 38)),
    ("quaternary", (18, 22, 26, 30)),
    ("quinary", (16, 20, 24, 28)),
    ("walk_notch1", (24, 30, 36, 42)),
)
GUESS_RATIONAL = (
    "fibonacci",
    "fibonacci_bisection_a",
    "fibonacci_bisection_b",
    "affine_jumps",
    "tripling",
    "parity_three_odd",
    "parity_three_even",
    "goldbach",
)
GUESS_RATIONAL_ORDERS = (70, 85, 100)
GUESS_ALGEBRAIC = ("catalan", "motzkin", "schroeder", "fan", "ternary")
GUESS_ALGEBRAIC_ORDERS = (28, 33)
GUESS_ZERO_RADIUS = ("permutations", "bell", "involutions")

# cf: nearest-neighbour rules as affine multiplicities (constant, slope) for
# down(k), stay(k), up(k).
CF_RULES = (
    ("dyck", (1, 0), (0, 0), (1, 0), (20, 25, 30, 35, 40)),
    ("motzkin", (1, 0), (1, 0), (1, 0), (16, 21, 26, 31, 36)),
    ("involution", (0, 1), (0, 0), (1, 0), (20, 25, 30, 35, 40)),
    ("bell", (0, 1), (1, 1), (1, 0), (16, 21, 26, 31, 36)),
    ("bessel", (1, 0), (0, 1), (1, 0), (16, 21, 26, 31, 36)),
    ("schroeder", (1, 0), (2, 0), (1, 0), (16, 21, 26, 31, 36)),
    ("bicolored_involution", (0, 1), (2, 0), (1, 0), (16, 21, 26, 31, 36)),
)

SURVEY_LOW_ORDER = 24
SURVEY_HIGH_ORDER = 48


def _count_jobs(rng):
    jobs = []
    for system, method, bases in COUNT_SLOTS:
        for base in bases:
            n = _jitter(rng, base)
            jobs.append(
                {
                    "kind": "count",
                    "system": system,
                    "method": method,
                    "n": n,
                    "argv": ["count", "--system", system, "-n", str(n),
                             "--method", method, "--format", "json"],
                }
            )
    return jobs


def _sample_job(system, n, draws, seed):
    return {
        "kind": "sample",
        "system": system,
        "n": n,
        "draws": draws,
        "argv": ["sample", "--system", system, "-n", str(n), "--count", str(draws),
                 "--seed", str(seed), "--format", "json"],
    }


def _sample_jobs(rng):
    jobs = []
    for system, bases in SAMPLE_BIG:
        for base in bases:
            jobs.append(_sample_job(system, _jitter(rng, base), SAMPLE_BIG_DRAWS,
                                    rng.randrange(10**6)))
    many = []
    for system, base, draws in SAMPLE_MANY:
        for _ in range(5):
            many.append(_sample_job(system, _jitter(rng, base), _jitter(rng, draws),
                                    rng.randrange(10**6)))
    # Reruns with identical argv must print identical walks.
    jobs += many + [dict(j) for j in rng.sample(many, SAMPLE_MANY_REPEATS)]
    for system, n, draws in SAMPLE_CHI:
        job = _sample_job(system, n, draws, rng.randrange(10**6))
        job["chi_square"] = True
        jobs.append(job)
    return jobs


def _solve_jobs(rng):
    jobs = []
    for system, bases in GF_SLOTS:
        for base in bases:
            order = _jitter(rng, base)
            jobs.append(
                {
                    "kind": "gf",
                    "system": system,
                    "order": order,
                    "argv": ["gf", "--system", system, "--order", str(order),
                             "--format", "json"],
                }
            )

    def guess(system, expect, order):
        return {
            "kind": "guess",
            "system": system,
            "expect": expect,
            "order": order,
            "argv": ["guess", "--system", system, "--order", str(order),
                     "--format", "json"],
        }

    for system in GUESS_RATIONAL:
        for base in GUESS_RATIONAL_ORDERS:
            jobs.append(guess(system, "rational", _jitter(rng, base)))
    for system in GUESS_ALGEBRAIC:
        for base in GUESS_ALGEBRAIC_ORDERS:
            jobs.append(guess(system, "algebraic", _jitter(rng, base)))
    for system in GUESS_ZERO_RADIUS:
        jobs.append(guess(system, "none", 40))
    for name, down, stay, up, bases in CF_RULES:
        for base in bases:
            jobs.append(
                {
                    "kind": "cf",
                    "rule": name,
                    "down": list(down),
                    "stay": list(stay),
                    "up": list(up),
                    "order": _jitter(rng, base),
                }
            )
    return jobs


def _survey_jobs(rng, workdir, seed):
    from ecokit.catalog import ENTRIES

    jobs = []
    for entry in ENTRIES:
        path = Path(workdir) / f"{entry.name}.eco"
        # The comment line varies the parsed bytes with the seed.
        path.write_text(f"# survey seed {seed}\n{entry.text}\n", encoding="utf-8")
        low = _jitter(rng, SURVEY_LOW_ORDER, 0.1)
        high = _jitter(rng, SURVEY_HIGH_ORDER, 0.1)
        for order, fmt in ((low, "json"), (high, "json"), (low, "text")):
            jobs.append(
                {
                    "kind": "classify",
                    "system": entry.name,
                    "order": order,
                    "format": fmt,
                    "argv": ["classify", "--file", str(path), "--order", str(order),
                             "--format", fmt],
                }
            )
        jobs.append(
            {
                "kind": "verify",
                "system": entry.name,
                "argv": ["catalog", "--verify", entry.name, "--format", "json"],
            }
        )
    return jobs


def build(workload, seed, workdir):
    """Write the workload's input files into `workdir` and return its jobs.

    Needs ecokit importable (the survey texts come from its catalog).  The
    job list itself is written to ``jobs.json`` next to the inputs.
    """
    rng = random.Random(f"{workload}:{seed}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "count":
        jobs = _count_jobs(rng)
    elif workload == "sample":
        jobs = _sample_jobs(rng)
    elif workload == "solve":
        jobs = _solve_jobs(rng)
    elif workload == "survey":
        jobs = _survey_jobs(rng, workdir, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    (workdir / "jobs.json").write_text(json.dumps(jobs, indent=1), encoding="utf-8")
    return jobs
