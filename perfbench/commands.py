"""The CLI invocations of the benchmark and their correctness checks.

Standard library only: both perfbench/run.py and the in-process probe
import this module, and the probe must not import numpy before ghzlab.

Checks test what a result means (a class maximum, a threshold, a count of
satisfying assignments), never a saved copy of the output, so a program
change that keeps the meaning but reorders or rewrites fields still passes.
"""
from __future__ import annotations

import csv
import io
import json
import math

BOUND_VALUES = {"local": 2.0, "realistic": 4.0, "quantum_local": 1.0,
                "biseparable": 4.0, "quantum": 16.0}
# The biseparable ascent is only certified to 1e-4 by the program itself.
BOUND_TOL = {"biseparable": 1e-4}
THRESHOLDS = {"locality": 0.5, "quantum_locality": 0.25}
# Per-class limits on the figure1 scatter: (peak |m|,|m'| limit, r^2 limit).
SCATTER_LIMITS = {"scatter_local": (2.0, 8.0), "scatter_quantum_local": (1.0, 1.0),
                  "scatter_biseparable": (4.0, 4.0), "scatter_quantum": (4.0, 16.0)}
FIGURE1_COUNTS = {"quantum_locality_circle": 256, "locality_square": 4,
                  "realism_square": 4, "quantum_circle": 256,
                  "scatter_local": 50, "scatter_quantum_local": 50,
                  "scatter_biseparable": 50, "scatter_quantum": 51}
EPS = 1e-9


def cli_pass(workload: str, rng) -> list:
    """One pass of (name, argv) pairs; `rng` is a random.Random.

    "cli_light" is the workload of that name. "bounds" holds the three
    ascents, which only the per-layer probe runs (see perfbench/README.md).

    Only flags are drawn from the seed; everything else is the documented
    default, so the pass measures what a user typing the command gets.
    """
    if workload == "cli_light":
        return [
            ("verify", ["verify"]),
            ("contradiction", ["contradiction"]),
            ("contradiction_epr", ["contradiction", "--mode", "epr"]),
            ("bounds_local", ["bounds", "--class", "local"]),
            ("bounds_realistic", ["bounds", "--class", "realistic"]),
            ("classify", ["classify", "--noise", repr(rng.random())]),
            ("threshold_locality", ["threshold", "--bound", "locality"]),
            ("threshold_quantum_locality", ["threshold", "--bound", "quantum_locality"]),
            ("figure1", ["figure1", "--seed", str(rng.randrange(2**31))]),
        ]
    if workload == "bounds":
        return [(f"bounds_{c}", ["bounds", "--class", c, "--seed", str(rng.randrange(2**31))])
                for c in ("quantum_local", "biseparable", "quantum")]
    raise ValueError(f"no pass named {workload!r}")


def check(name: str, argv: list, code: int, stdout: str) -> str | None:
    """Return why the output of `ghzlab argv` is wrong, or None if it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        if name == "figure1":
            return _check_figure1(stdout)
        doc = json.loads(stdout)
        return _CHECKS[argv[0]](doc, argv)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {exc!r}"


def _flag(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_verify(doc, argv):
    if doc["all_pass"] is not True or not all(c["pass"] for c in doc["checks"]):
        return "verify did not report all_pass"
    return None


def _check_contradiction(doc, argv):
    if "--mode" in argv:
        feasible = doc["feasible"]
        signs = {(e["c1"], e["c2"]) for e in feasible}
        ok = len(feasible) == 4 and len(signs) == 4 and all(
            e["assignment"]["ix"] * e["assignment"]["jx"] == e["c1"]
            and e["assignment"]["iy"] * e["assignment"]["jy"] == e["c2"]
            for e in feasible)
        return None if ok else "EPR mode must give 4 feasible sign patterns"
    got = (doc["assignments_checked"], doc["satisfying"], doc["max_subset"],
           doc["parity_lhs"], doc["parity_rhs"], doc["hr_max"])
    if got != (64, 0, 3, 1, -1, 1):
        return f"contradiction report {got} != (64, 0, 3, 1, -1, 1)"
    return None


def _check_bounds(doc, argv):
    klass = _flag(argv, "--class")
    want, tol = BOUND_VALUES[klass], BOUND_TOL.get(klass, 1e-6)
    if doc["class"] != klass or not abs(doc["value"] - want) <= tol:
        return f"bounds {klass} gave {doc['value']!r}, expected {want} within {tol}"
    return None


def _check_classify(doc, argv):
    v = float(_flag(argv, "--noise"))
    if not (abs(doc["m"] - 4.0 * v) <= EPS and abs(doc["mprime"]) <= EPS):
        return f"classify v={v!r} gave ({doc['m']!r}, {doc['mprime']!r}), expected (4v, 0)"
    return None


def _check_threshold(doc, argv):
    want = THRESHOLDS[_flag(argv, "--bound")]
    if not abs(doc["visibility"] - want) <= doc["tol"]:
        return f"threshold gave {doc['visibility']!r}, expected {want} within {doc['tol']}"
    return None


def _check_figure1(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["curve", "m", "mprime"]:
        return f"figure1 header {rows[0]}"
    points = {}
    for curve, m, mp in rows[1:]:
        points.setdefault(curve, []).append((float(m), float(mp)))
    if {c: len(p) for c, p in points.items()} != FIGURE1_COUNTS:
        return "figure1 curve sizes differ from the defaults"
    for curve, radius in (("quantum_locality_circle", 1.0), ("quantum_circle", 4.0)):
        if any(abs(math.hypot(m, mp) - radius) > EPS for m, mp in points[curve]):
            return f"{curve} vertex off radius {radius}"
    for curve, (peak, r2) in SCATTER_LIMITS.items():
        for m, mp in points[curve]:
            if max(abs(m), abs(mp)) > peak + EPS or m * m + mp * mp > r2 + EPS:
                return f"{curve} point ({m}, {mp}) outside its class bound"
    m, mp = points["scatter_quantum"][-1]
    if abs(m - 4.0) > EPS or abs(mp) > EPS:
        return f"GHZ point ({m}, {mp}) != (4, 0)"
    return None


_CHECKS = {"verify": _check_verify, "contradiction": _check_contradiction,
           "bounds": _check_bounds, "classify": _check_classify,
           "threshold": _check_threshold}
