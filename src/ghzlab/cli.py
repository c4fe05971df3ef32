"""Command-line front end.

Subcommands: verify, contradiction, bounds, figure1, classify, threshold.
Global flags: --seed, --restarts, --tol, --format json|csv, --out path.
The environment variable GHZLAB_SEED overrides the default seed only when
--seed is absent. Exit codes: 0 success, 1 a failed check (an identity
verify asserts, or an internal self-check), 2 input/IO error.

Output is deterministic: identical flags and seed produce byte-identical
bytes. CSV uses '.' decimals and 12 significant digits.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import SelfCheckFailed
from . import locality, mermin, optimize, qcore

DEFAULT_TOL = 1e-6

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

#: Upper end of --restarts, --points and --samples; time and memory grow
#: linearly in each, so a larger count is refused before any work starts.
MAX_COUNT = 100_000
#: Lower end of each count flag.
COUNT_MINIMUMS = {"restarts": 1, "points": 1, "samples": mermin.MIN_SAMPLES}


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
    if output_format == "json":
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    lines = ["key,value"]
    for key, value in _flatten(payload):
        lines.append(f"{key},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands -----------------------------------------------------------

def cmd_verify(args) -> int:
    asserted = args.state is None
    if asserted:
        state = qcore.make_ghz()
    else:
        state = qcore.load_state(args.state)
    # An M_TERMS coefficient is GHZ's eigenvalue and signed sum on its pattern.
    checks = []
    for eigenvalue, settings in mermin.M_TERMS:
        obs = qcore.Observable.single(settings)
        entry = {
            "name": f"eigen_{settings}",
            "expected": eigenvalue,
            "value": qcore.expectation(state, obs),
            "asserted": asserted,
        }
        if isinstance(state, qcore.StateVector):
            entry["residual"] = qcore.eigen_residual(state, obs, eigenvalue)
        if asserted:
            entry["pass"] = entry["residual"] < qcore.EIGEN_TOL
        checks.append(entry)
    for expected, settings in mermin.M_TERMS:
        pattern = settings.lower()
        value = qcore.signed_sum_for_state(state, pattern)
        entry = {
            "name": f"signed_sum_{pattern}",
            "expected": expected,
            "value": value,
            "asserted": asserted,
        }
        if asserted:
            entry["pass"] = abs(value - expected) < 1e-12
        checks.append(entry)
    all_pass = all(entry["pass"] for entry in checks) if asserted else None
    payload = {"checks": checks, "all_pass": all_pass}
    _emit(_render(payload, args.format), args.out)
    return EXIT_FAIL if all_pass is False else EXIT_OK


def cmd_contradiction(args) -> int:
    if args.mode == "epr":
        entries = []
        for c1 in (+1, -1):
            for c2 in (+1, -1):
                ix, iy, jx, jy = locality.epr_contrast(c1, c2)
                entries.append(
                    {"c1": c1, "c2": c2,
                     "assignment": {"ix": ix, "iy": iy, "jx": jx, "jy": jy}}
                )
        payload = {"mode": "epr", "feasible": entries}
    else:
        report = locality.ghz_sign_feasibility()
        hr_max, _ = locality.hr_constrained_satisfiability(args.tol)
        payload = dict(report.to_json_dict())
        payload["hr_max"] = hr_max
    _emit(_render(payload, args.format), args.out)
    return EXIT_OK


_BOUND_RUNNERS = {
    "local": lambda a: optimize.max_local_mermin(),
    "realistic": lambda a: optimize.max_realistic_mermin(),
    "quantum_local": lambda a: optimize.max_quantum_local_radius(a.restarts, a.seed),
    "biseparable": lambda a: optimize.max_biseparable_radius(a.restarts, a.seed),
    "quantum": lambda a: optimize.max_quantum_radius(a.restarts, a.seed),
}


def cmd_bounds(args) -> int:
    result = _BOUND_RUNNERS[args.model_class](args)
    _emit(_render(result.to_json_dict(), args.format), args.out)
    return EXIT_OK


def _pure_points(amplitudes) -> list:
    """(m, m') of each row of a (count, 8) batch of pure-state amplitudes."""
    values = mermin.pure_mermin_values(np.array(amplitudes))
    return list(zip(values.real, values.imag))


def _scatter_points(seed: int, count: int):
    """Seeded (m, m') samples for each model class, GHZ appended last."""
    rng = np.random.default_rng(seed)
    groups = {}

    bars = 2.0 * rng.uniform(0.0, 1.0, size=(count, 3, 2)) - 1.0
    groups["scatter_local"] = list(zip(locality.mermin_values(bars, mermin.M_TERMS),
                                       locality.mermin_values(bars, mermin.MPRIME_TERMS)))

    groups["scatter_quantum_local"] = _pure_points(
        [optimize.product_state(optimize.random_bloch_angles(rng, 3))
         for _ in range(count)])

    states = []
    for _ in range(count):
        cut = int(rng.integers(0, 3))
        params = np.concatenate(
            [optimize.random_bloch_angles(rng, 1), rng.standard_normal(8)]
        )
        states.append(optimize.biseparable_state(cut, params))
    groups["scatter_biseparable"] = _pure_points(states)

    states = []
    for _ in range(count):
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        states.append(raw / np.linalg.norm(raw))
    states.append(qcore.make_ghz().amplitudes)
    groups["scatter_quantum"] = _pure_points(states)
    return groups


def cmd_figure1(args) -> int:
    rows = []
    for name, vertices in mermin.figure1_regions(args.samples):
        for m_val, mp_val in vertices:
            rows.append((name, float(m_val), float(mp_val)))
    for name, points in _scatter_points(args.seed, args.points).items():
        for m_val, mp_val in points:
            rows.append((name, float(m_val), float(mp_val)))
    if args.format == "json":
        text = _render([{"curve": n, "m": m, "mprime": mp} for n, m, mp in rows], "json")
    else:
        lines = ["curve,m,mprime"]
        lines.extend(f"{n},{_fmt(m)},{_fmt(mp)}" for n, m, mp in rows)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    if (args.state is None) == (args.noise is None):
        raise ValueError("provide exactly one of --state or --noise")
    if args.noise is not None:
        state = qcore.mix_with_white_noise(qcore.make_ghz(), args.noise)
    else:
        state = qcore.load_state(args.state)
    point = mermin.evaluate_point(state)
    payload = mermin.report(point).to_json_dict()
    _emit(_render(payload, args.format), args.out)
    return EXIT_OK


def cmd_threshold(args) -> int:
    visibility = optimize.noise_threshold(args.bound, args.tol)
    payload = {"bound": args.bound, "visibility": visibility, "tol": args.tol}
    _emit(_render(payload, args.format), args.out)
    return EXIT_OK


# --- parser and dispatch ---------------------------------------------------

def _default_seed() -> int:
    env = os.environ.get("GHZLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"GHZLAB_SEED must be an integer, got {env!r}")
    return optimize.DEFAULT_SEED


def _check_counts(args) -> None:
    for flag, minimum in COUNT_MINIMUMS.items():
        value = getattr(args, flag, None)
        if value is not None and not minimum <= value <= MAX_COUNT:
            raise ValueError(f"--{flag} must be in [{minimum}, {MAX_COUNT}], got {value}")


def _common_parent(default_format: str = "json") -> argparse.ArgumentParser:
    # Fresh parser per subcommand: argparse parents share Action objects,
    # so a per-subcommand default would otherwise leak across commands.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default {optimize.DEFAULT_SEED}; "
                             "GHZLAB_SEED overrides)")
    common.add_argument("--restarts", type=int, default=optimize.DEFAULT_RESTARTS,
                        help=f"optimizer restarts (default {optimize.DEFAULT_RESTARTS})")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="numeric tolerance (default 1e-6)")
    common.add_argument("--format", choices=("json", "csv"), default=default_format,
                        help=f"output format (default {default_format})")
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

    p = sub.add_parser("contradiction", parents=[_common_parent()],
                       help="sign-assignment enumeration and HR-constrained conflict")
    p.add_argument("--mode", choices=("ghz", "epr"), default="ghz")
    p.set_defaults(func=cmd_contradiction)

    p = sub.add_parser("bounds", parents=[_common_parent()],
                       help="maximum of the Mermin pair over a model class")
    p.add_argument("--class", dest="model_class", required=True,
                   choices=tuple(_BOUND_RUNNERS))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("figure1", parents=[_common_parent("csv")],
                       help="boundary curves and per-class scatter in the (m, m') plane")
    p.add_argument("--samples", type=int, default=256,
                   help="vertices per circle (default 256)")
    p.add_argument("--points", type=int, default=50,
                   help="scatter points per class (default 50)")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("classify", parents=[_common_parent()],
                       help="inequality report for a state or noisy GHZ")
    p.add_argument("--state", default=None, help="state file")
    p.add_argument("--noise", type=float, default=None,
                   help="visibility v of v*GHZ + (1-v)*I/8")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("threshold", parents=[_common_parent()],
                       help="visibility at which a bound starts being violated")
    p.add_argument("--bound", choices=tuple(optimize.THRESHOLD_LIMITS), required=True)
    p.set_defaults(func=cmd_threshold)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (SelfCheckFailed, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL if isinstance(exc, SelfCheckFailed) else EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
