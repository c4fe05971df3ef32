"""Command-line front end.

Subcommands: verify, contradiction, bounds, figure1, classify, threshold.
Each takes --format json|csv and --out path; bounds and figure1 take --seed
(a negative seed is refused, exit 2), and bounds --restarts (bounds refuses
both for --class local and realistic); classify takes exactly one of --state
and --noise. Each subcommand's parser reports its own usage errors (an
unknown, missing or conflicting flag) under its usage line.
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
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        try:  # unbuffered, the raw stream takes what it can: write until it took every byte
            sys.stdout.flush()
            out = getattr(sys.stdout, "buffer", sys.stdout)  # a StringIO has no bytes below
            data = text if out is sys.stdout else text.encode(sys.stdout.encoding)
            while data:
                data = data[out.write(data):]
            sys.stdout.flush()
        except OSError as exc:  # fd 1 on the null device: the exit flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(str(exc)) from exc


# --- subcommands: each returns its payload ---------------------------------

def cmd_verify(args) -> dict:
    asserted = args.state is None
    state = qcore.ghz_density() if asserted else qcore.load_state(args.state)
    pure = qcore.make_ghz() if asserted else state  # for the eigen residuals
    # An M_TERMS coefficient is GHZ's eigenvalue and signed sum on its pattern, exact from rho.
    eigen, signed = [], []
    for expected, settings in mermin.M_TERMS:
        obs = qcore.Observable.single(settings)
        pattern = settings.lower()
        eigen.append({"name": f"eigen_{settings}", "expected": expected,
                      "value": qcore.expectation(state, obs), "asserted": asserted})
        signed.append({"name": f"signed_sum_{pattern}", "expected": expected,
                       "value": qcore.signed_sum_for_state(state, pattern),
                       "asserted": asserted})
        if isinstance(pure, qcore.StateVector):
            eigen[-1]["residual"] = qcore.eigen_residual(pure, obs, expected)
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
    return {**report, "hr_max": locality.hr_constrained_satisfiability()[0]}


_BOUND_RUNNERS = {
    "local": optimize.max_local_mermin,
    "realistic": optimize.max_realistic_mermin,
    "quantum_local": optimize.max_quantum_local_radius,
    "biseparable": optimize.max_biseparable_radius,
    "quantum": optimize.max_quantum_radius,
}


def cmd_bounds(args) -> dict:
    """The class's maximum; a given --restarts or --seed goes to its maximizer."""
    given = {k: v for k, v in (("restarts", args.restarts), ("seed", args.seed)) if v is not None}
    if given and args.model_class in ("local", "realistic"):
        raise ValueError(f"--{next(iter(given))} does not apply to --class {args.model_class}")
    return _BOUND_RUNNERS[args.model_class](**given).to_json_dict()


def _scatter_points(seed: int, count: int) -> dict:
    """Seeded m + i*m' samples, one array per model class, GHZ appended last. The
    classes map blocks of ``optimize.seeded_rng``'s draws in turn; a cut is int(3u)."""
    rng = optimize.seeded_rng(1, seed)
    bars = optimize.uniforms(rng, -1.0, 1.0, (count, 3, 2))
    local = (locality.mermin_values(bars, mermin.M_TERMS)
             + 1j * locality.mermin_values(bars, mermin.MPRIME_TERMS))
    theta, phi = (a.reshape(count, 3) for a in optimize.random_bloch_angles(rng, 3 * count))
    product = [optimize.product_state(*angles) for angles in zip(theta, phi)]
    cuts = optimize.uniforms(rng, 0.0, 3.0, count).astype(int)
    biseparable = [optimize.biseparable_state(*point) for point in zip(
        cuts, *optimize.random_bloch_angles(rng, count), optimize.complex_normals(rng, (count, 4)))]
    haar = optimize.complex_normals(rng, (count, 8))
    haar /= np.linalg.norm(haar, axis=1, keepdims=True)
    ghz = mermin.evaluate_point(qcore.ghz_density())  # exact, where make_ghz's is not
    return {"scatter_local": local,
            "scatter_quantum_local": mermin.pure_mermin_values(np.array(product)),
            "scatter_biseparable": mermin.pure_mermin_values(np.array(biseparable)),
            "scatter_quantum": np.append(mermin.pure_mermin_values(haar),
                                         complex(ghz.m_value, ghz.mprime_value))}


def cmd_figure1(args) -> list:
    rows = [{"curve": name, "m": float(m_val), "mprime": float(mp_val)}
            for name, vertices in mermin.figure1_regions(args.samples)
            for m_val, mp_val in vertices]
    rows += [{"curve": name, "m": float(value.real), "mprime": float(value.imag)}
             for name, values in _scatter_points(args.seed, args.points).items()
             for value in values]
    return rows


def cmd_classify(args) -> dict:
    if args.noise is not None:
        state = qcore.mix_with_white_noise(qcore.ghz_density(), args.noise)
    else:
        state = qcore.load_state(args.state)
    return mermin.report(mermin.evaluate_point(state)).to_json_dict()


def cmd_threshold(args) -> dict:
    visibility = optimize.noise_threshold(args.bound)
    return {"bound": args.bound, "visibility": visibility, "tol": qcore.DEFAULT_TOL}


# --- parser and dispatch ---------------------------------------------------

def _check_counts(args) -> None:
    for flag, minimum in COUNT_MINIMUMS.items():
        value = getattr(args, flag, None)
        if value is not None and not minimum <= value <= MAX_COUNT:
            raise ValueError(f"--{flag} must be in [{minimum}, {MAX_COUNT}], got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzlab",
        description="GHZ perfect-correlation identities, locality contradiction, "
                    "and Mermin-pair bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags, default_format="json"):
        """The subcommand's parser, which reports its own usage errors: --format
        and --out, after the named ones of --seed and --restarts."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, parser=p)
        # Absent, either reads None, so bounds can tell a given one from its default.
        if "seed" in flags:
            p.add_argument("--seed", type=int, help=f"RNG seed (default {locality.DEFAULT_SEED})")
        if "restarts" in flags:
            p.add_argument("--restarts", type=int, help="echoed; does not change the work "
                           f"(default {locality.DEFAULT_RESTARTS})")
        p.add_argument("--format", choices=("json", "csv"), default=default_format,
                       help="output format (default %(default)s)")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    p = command("verify", cmd_verify, "check the four eigenvalue identities and signed sums")
    p.add_argument("--state", default=None, help="state file (default: GHZ)")

    p = command("contradiction", cmd_contradiction,
                "sign-assignment enumeration and HR-constrained conflict")
    p.add_argument("--mode", choices=("ghz", "epr"), default="ghz")

    p = command("bounds", cmd_bounds, "maximum of the Mermin pair over a model class",
                "seed", "restarts")
    p.add_argument("--class", dest="model_class", required=True,
                   choices=tuple(_BOUND_RUNNERS))

    p = command("figure1", cmd_figure1,
                "boundary curves and per-class scatter in the (m, m') plane", "seed",
                default_format="csv")
    p.set_defaults(seed=locality.DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=mermin.DEFAULT_SAMPLES,
                   help="vertices per circle (default %(default)s)")
    p.add_argument("--points", type=int, default=DEFAULT_POINTS,
                   help="scatter points per class (default %(default)s)")

    p = command("classify", cmd_classify, "inequality report for a state or noisy GHZ")
    inputs = p.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--state", help="state file")
    inputs.add_argument("--noise", type=float, help="visibility v of v*GHZ + (1-v)*I/8")

    p = command("threshold", cmd_threshold, "visibility at which a bound starts being violated")
    p.add_argument("--bound", choices=tuple(optimize.THRESHOLD_LIMITS), required=True)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, then render and write its payload: the one place
    output is written. Exit 1 when the payload reports ``all_pass`` false."""
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        _check_counts(args)
        if getattr(args, "seed", None) is not None:
            args.seed = qcore.read_count(args.seed, "seed", 0)
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
