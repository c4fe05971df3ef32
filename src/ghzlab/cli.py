"""Command-line front end.

Subcommands: verify, contradiction, bounds, figure1, classify, threshold.
Each takes --format json|csv and --out path; bounds and figure1 take --seed
(GHZLAB_SEED overrides the default when --seed is absent; a negative seed is
refused, exit 2), bounds --restarts, and contradiction and threshold --tol.
Exit codes: 0 success, 1 a failed check, 2 input/IO error.
A failed check is an internal self-check (one error line, no report) or an
identity that verify asserts: its report is still written in full, with
"all_pass": false, and only then is the exit code 1.

Output is deterministic: identical flags and seed produce byte-identical
bytes. CSV uses '.' decimals and 12 significant digits.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .errors import SelfCheckFailed
from . import locality, mermin, optimize, qcore

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

#: Upper end of each count flag, a cap on outside input checked before any work:
#: figure1's time and memory grow linearly in --points and --samples, none in --restarts.
MAX_COUNT = 100_000
#: Lower end of each count flag.
COUNT_MINIMUMS = {"restarts": 1, "points": 1, "samples": mermin.MIN_SAMPLES}
#: Scatter points per class that figure1 draws when --points is absent.
DEFAULT_POINTS = 50


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _flatten(obj, prefix=""):
    """Flatten nested dicts/lists into (dotted-key, scalar) rows."""
    rows = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            rows.extend(_flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for idx, value in enumerate(obj):
            rows.extend(_flatten(value, f"{prefix}{idx}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _render(payload, output_format: str) -> str:
    """JSON, or CSV: a list of flat dicts is a table whose header row is the
    keys; any other payload is flattened to key,value rows."""
    if output_format == "json":
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if isinstance(payload, list):
        rows = [list(payload[0])] + [[_fmt(value) for value in row.values()] for row in payload]
    else:
        rows = [["key", "value"]] + [[key, _fmt(value)] for key, value in _flatten(payload)]
    return "".join(",".join(row) + "\n" for row in rows)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands: each returns its payload ---------------------------------

def cmd_verify(args) -> dict:
    asserted = args.state is None
    state = qcore.make_ghz() if asserted else qcore.load_state(args.state)
    # An M_TERMS coefficient is GHZ's eigenvalue and signed sum on its pattern.
    eigen, signed = [], []
    for expected, settings in mermin.M_TERMS:
        obs = qcore.Observable.single(settings)
        pattern = settings.lower()
        eigen.append({"name": f"eigen_{settings}", "expected": expected,
                      "value": qcore.expectation(state, obs), "asserted": asserted})
        signed.append({"name": f"signed_sum_{pattern}", "expected": expected,
                       "value": qcore.signed_sum_for_state(state, pattern),
                       "asserted": asserted})
        if isinstance(state, qcore.StateVector):
            eigen[-1]["residual"] = qcore.eigen_residual(state, obs, expected)
        if asserted:
            eigen[-1]["pass"] = eigen[-1]["residual"] < qcore.EIGEN_TOL
            signed[-1]["pass"] = abs(signed[-1]["value"] - expected) < qcore.SELF_CHECK_TOL
    checks = eigen + signed
    return {"checks": checks,
            "all_pass": all(entry["pass"] for entry in checks) if asserted else None}


def cmd_contradiction(args) -> dict:
    if args.mode == "epr":
        return {"mode": "epr", "feasible": [
            {"c1": c1, "c2": c2,
             "assignment": dict(zip(("ix", "iy", "jx", "jy"), locality.epr_contrast(c1, c2)))}
            for c1, c2 in itertools.product((+1, -1), repeat=2)]}
    report = locality.ghz_sign_feasibility().to_json_dict()
    return {**report, "hr_max": locality.hr_constrained_satisfiability(args.tol)[0]}


_BOUND_RUNNERS = {
    "local": lambda a: optimize.max_local_mermin(),
    "realistic": lambda a: optimize.max_realistic_mermin(),
    "quantum_local": lambda a: optimize.max_quantum_local_radius(a.restarts, a.seed),
    "biseparable": lambda a: optimize.max_biseparable_radius(a.restarts, a.seed),
    "quantum": lambda a: optimize.max_quantum_radius(a.restarts, a.seed),
}


def cmd_bounds(args) -> dict:
    return _BOUND_RUNNERS[args.model_class](args).to_json_dict()


def _scatter_points(seed: int, count: int) -> dict:
    """Seeded m + i*m' samples, one array per model class, GHZ appended last."""
    rng = np.random.default_rng(seed)
    bars = 2.0 * rng.uniform(0.0, 1.0, size=(count, 3, 2)) - 1.0
    local = (locality.mermin_values(bars, mermin.M_TERMS)
             + 1j * locality.mermin_values(bars, mermin.MPRIME_TERMS))
    product = [optimize.product_state(optimize.random_bloch_angles(rng, 3))
               for _ in range(count)]
    biseparable = []
    for _ in range(count):
        cut = int(rng.integers(0, 3))
        params = np.concatenate([optimize.random_bloch_angles(rng, 1), rng.standard_normal(8)])
        biseparable.append(optimize.biseparable_state(cut, params))
    # One batch, the same stream as 8 real then 8 imaginary parts per point.
    draws = rng.standard_normal((count, 2, 8))
    haar = [raw / np.linalg.norm(raw) for raw in draws[:, 0] + 1j * draws[:, 1]]
    haar.append(qcore.make_ghz().amplitudes)
    return {"scatter_local": local,
            "scatter_quantum_local": mermin.pure_mermin_values(np.array(product)),
            "scatter_biseparable": mermin.pure_mermin_values(np.array(biseparable)),
            "scatter_quantum": mermin.pure_mermin_values(np.array(haar))}


def cmd_figure1(args) -> list:
    rows = [{"curve": name, "m": float(m_val), "mprime": float(mp_val)}
            for name, vertices in mermin.figure1_regions(args.samples)
            for m_val, mp_val in vertices]
    rows += [{"curve": name, "m": float(value.real), "mprime": float(value.imag)}
             for name, values in _scatter_points(args.seed, args.points).items()
             for value in values]
    return rows


def cmd_classify(args) -> dict:
    if (args.state is None) == (args.noise is None):
        raise ValueError("provide exactly one of --state or --noise")
    if args.noise is not None:
        state = qcore.mix_with_white_noise(qcore.make_ghz(), args.noise)
    else:
        state = qcore.load_state(args.state)
    return mermin.report(mermin.evaluate_point(state)).to_json_dict()


def cmd_threshold(args) -> dict:
    visibility = optimize.noise_threshold(args.bound, args.tol)
    return {"bound": args.bound, "visibility": visibility, "tol": args.tol}


# --- parser and dispatch ---------------------------------------------------

def _read_seed(flag) -> int:
    env = os.environ.get("GHZLAB_SEED")
    if flag is None and env is not None:
        try:
            flag = int(env)
        except ValueError:
            raise ValueError(f"GHZLAB_SEED must be an integer, got {env!r}")
    return qcore.read_count(locality.DEFAULT_SEED if flag is None else flag, "seed", 0)


def _check_counts(args) -> None:
    for flag, minimum in COUNT_MINIMUMS.items():
        value = getattr(args, flag, None)
        if value is not None and not minimum <= value <= MAX_COUNT:
            raise ValueError(f"--{flag} must be in [{minimum}, {MAX_COUNT}], got {value}")


def _common_parent(*flags: str, default_format: str = "json") -> argparse.ArgumentParser:
    """--format and --out, after the named ones of --seed, --restarts and --tol."""
    # Fresh parser per subcommand: argparse parents share Action objects,
    # so a per-subcommand default would otherwise leak across commands.
    common = argparse.ArgumentParser(add_help=False)
    if "seed" in flags:
        common.add_argument("--seed", type=int, default=None,
                            help=f"RNG seed (default {locality.DEFAULT_SEED}; "
                                 "GHZLAB_SEED overrides)")
    if "restarts" in flags:
        common.add_argument("--restarts", type=int, default=locality.DEFAULT_RESTARTS,
                            help="echoed; does not change the work (default %(default)s)")
    if "tol" in flags:
        common.add_argument("--tol", type=float, default=qcore.DEFAULT_TOL,
                            help="numeric tolerance (default %(default)s)")
    common.add_argument("--format", choices=("json", "csv"), default=default_format,
                        help="output format (default %(default)s)")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzlab",
        description="GHZ perfect-correlation identities, locality contradiction, "
                    "and Mermin-pair bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[_common_parent()],
                       help="check the four eigenvalue identities and signed sums")
    p.add_argument("--state", default=None, help="state file (default: GHZ)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("contradiction", parents=[_common_parent("tol")],
                       help="sign-assignment enumeration and HR-constrained conflict")
    p.add_argument("--mode", choices=("ghz", "epr"), default="ghz")
    p.set_defaults(func=cmd_contradiction)

    p = sub.add_parser("bounds", parents=[_common_parent("seed", "restarts")],
                       help="maximum of the Mermin pair over a model class")
    p.add_argument("--class", dest="model_class", required=True,
                   choices=tuple(_BOUND_RUNNERS))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("figure1", parents=[_common_parent("seed", default_format="csv")],
                       help="boundary curves and per-class scatter in the (m, m') plane")
    p.add_argument("--samples", type=int, default=mermin.DEFAULT_SAMPLES,
                   help="vertices per circle (default %(default)s)")
    p.add_argument("--points", type=int, default=DEFAULT_POINTS,
                   help="scatter points per class (default %(default)s)")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("classify", parents=[_common_parent()],
                       help="inequality report for a state or noisy GHZ")
    p.add_argument("--state", default=None, help="state file")
    p.add_argument("--noise", type=float, default=None,
                   help="visibility v of v*GHZ + (1-v)*I/8")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("threshold", parents=[_common_parent("tol")],
                       help="visibility at which a bound starts being violated")
    p.add_argument("--bound", choices=tuple(optimize.THRESHOLD_LIMITS), required=True)
    p.set_defaults(func=cmd_threshold)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, then render and write its payload: the one place
    output is written. Exit 1 when the payload reports ``all_pass`` false."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        if hasattr(args, "seed"):
            args.seed = _read_seed(args.seed)
        payload = args.func(args)
        _emit(_render(payload, args.format), args.out)
    except (SelfCheckFailed, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL if isinstance(exc, SelfCheckFailed) else EXIT_INPUT
    return EXIT_FAIL if isinstance(payload, dict) and payload.get("all_pass") is False else EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
