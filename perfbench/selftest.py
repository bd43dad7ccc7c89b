"""Self-test of the output checkers: each must accept a genuine ecokit output
and reject the same output with one value corrupted.

    python3 perfbench/selftest.py

Exits 0 when every corruption is rejected and every genuine output passes.
"""

from __future__ import annotations

import json
import sys

import checkers
import run


def _count(system, n):
    return {"kind": "count", "system": system, "method": "auto", "n": n,
            "argv": ["count", "--system", system, "-n", str(n), "--format", "json"]}


def _sample(system, n, draws, chi=False):
    job = {"kind": "sample", "system": system, "n": n, "draws": draws,
           "argv": ["sample", "--system", system, "-n", str(n), "--count", str(draws),
                    "--seed", "7", "--format", "json"]}
    if chi:
        job["chi_square"] = True
    return job


def _guess(system, expect, order):
    return {"kind": "guess", "system": system, "expect": expect, "order": order,
            "argv": ["guess", "--system", system, "--order", str(order), "--format", "json"]}


def _edit(fn):
    """Corruption of a JSON stdout: decode, let fn change it, encode."""
    def corrupt(out):
        doc = json.loads(out)
        fn(doc)
        return json.dumps(doc)
    return corrupt


def _bump_total(doc):
    doc["totals"][7] += 1


def _illegal_step(doc):
    walk = doc["walks"][0]
    walk[5] = walk[4] + 3  # motzkin rises by one at most


def _all_same_walk(doc):
    doc["walks"] = [doc["walks"][0]] * len(doc["walks"])


def _bump_grid(doc):
    doc["algebraic"]["grid"][1][1] += 1


def _bump_numerator(doc):
    doc["rational"]["numerator"][0] = "2"


def _bump_f1(doc):
    doc["F1"][9] += 1


def _bump_excursion(out):
    out = list(out)
    out[10] += 1
    return out


def _bump_series(doc):
    doc["series"][12] += 1


def _flip_verify(doc):
    doc["entries"][0]["checks"]["golden"] = "fail"


CASES = (
    ("count total off by one", _count("catalan", 14), _edit(_bump_total)),
    ("count total off by one (point rule)", _count("bell", 14), _edit(_bump_total)),
    ("illegal walk step", _sample("motzkin", 12, 6), _edit(_illegal_step)),
    ("non-uniform draws", _sample("catalan", 5, 2600, chi=True), _edit(_all_same_walk)),
    ("algebraic relation coefficient changed", _guess("catalan", "algebraic", 30),
     _edit(_bump_grid)),
    ("rational relation coefficient changed", _guess("fibonacci", "rational", 90),
     _edit(_bump_numerator)),
    ("kernel F(z,1) term off by one",
     {"kind": "gf", "system": "motzkin", "order": 20,
      "argv": ["gf", "--system", "motzkin", "--order", "20", "--format", "json"]},
     _edit(_bump_f1)),
    ("excursion term off by one",
     {"kind": "cf", "rule": "bessel", "down": [1, 0], "stay": [0, 1], "up": [1, 0],
      "order": 20},
     _bump_excursion),
    ("classify series term off by one",
     {"kind": "classify", "system": "fibonacci", "order": 24, "format": "json",
      "argv": ["classify", "--system", "fibonacci", "--order", "24", "--format", "json"]},
     _edit(_bump_series)),
    ("catalog verify check failed",
     {"kind": "verify", "system": "catalan",
      "argv": ["catalog", "--verify", "catalan", "--format", "json"]},
     _edit(_flip_verify)),
)


def main():
    run.import_ecokit()
    bad = 0
    for name, job, corrupt in CASES:
        _, code, out, err = run.run_job(job)
        if code != 0:
            print(f"FAIL  {name}: ecokit exited {code}: {err.strip()}")
            bad += 1
            continue
        try:
            checkers.Checker().check(job, out)
        except checkers.CheckError as exc:
            print(f"FAIL  {name}: genuine output rejected: {exc}")
            bad += 1
            continue
        try:
            checkers.Checker().check(job, corrupt(out))
        except checkers.CheckError as exc:
            print(f"ok    {name}: rejected ({exc})")
        else:
            print(f"FAIL  {name}: corrupted output accepted")
            bad += 1
    print(f"{len(CASES) - bad}/{len(CASES)} checker cases pass")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
