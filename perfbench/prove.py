"""Check that the benchmark is steady, and record a baseline.

    python3 perfbench/prove.py [--workloads W ...] [--seeds 10] [--first-seed 1]
                               [--traced-seeds 0] [--out FILE]

Runs the command of BENCHMARK.json once per seed on each workload and, for
every end-to-end metric, prints the median, the quartiles and the spread:
the distance between the quartiles as a share of the median. A spread of a
third of the metric's bound or more is flagged. With --traced-seeds N it also
makes N traced runs per workload and reports the per-layer quartiles, the
tracing overhead (traced minus untraced operation times) and, on cli_light,
how much of the per-call median interpreter start, import and the warm
`cli.main` account for. --out writes everything, with the machine it ran
on, as JSON. Run it from the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import commands

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The subcommands of one cli_light pass, each run twice.
CLI_LIGHT = [name for name, _ in commands.cli_pass("cli_light", random.Random(0))]


def run_once(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # run.py prints the median on stderr only: it is reported, not gated.
    for name, value, unit in re.findall(r"^  (\S+) = (\S+) (\S+) \(not gated\)$",
                                        proc.stderr, re.M):
        result["metrics"][name] = {"value": float(value), "unit": unit}
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} "
              f"operations failed\n{proc.stderr}", file=sys.stderr)
    return result


def summarize(results):
    """Median, quartiles and spread of every metric over the runs."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": statistics.median(values), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(values)
                         if statistics.median(values) else 0.0,
                         "values": values}
    return summary


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def environment():
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:  # read-only; absent off Linux
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "src_lines": src_lines(),
        "not_controlled": ["no CPU pinning", "no dropping of the page cache",
                           "cores shared with other tenants of the machine",
                           "no control of CPU frequency"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-seeds", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {"environment": environment(), "run_seconds": SPEC["run_seconds"],
              "seeds": list(seeds), "workloads": {}}
    for workload in args.workloads:
        entry = report["workloads"][workload] = {}
        if args.seeds:
            runs = [run_once(workload, seed, 0) for seed in seeds]
            entry["failed"] = sum(r["failed"] for r in runs)
            entry["attempted"] = sum(r["attempted"] for r in runs)
            entry["end_to_end"] = summarize(runs)
            print(f"{workload}: {entry['failed']}/{entry['attempted']} failed")
            for name, s in entry["end_to_end"].items():
                bound = bounds.get(name)
                flag = ("  (not gated)" if bound is None else
                        "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3")
                print(f"  {name:14s} median {s['median']:<11.5g} q1 {s['q1']:<11.5g} "
                      f"q3 {s['q3']:<11.5g} spread {s['spread']:.3f} "
                      f"(bound {bound}){flag}")
        if args.traced_seeds:
            traced = [run_once(workload, seed, 1)
                      for seed in range(args.first_seed, args.first_seed + args.traced_seeds)]
            layers = entry["per_layer"] = summarize(traced)
            if args.seeds:
                entry["tracing_overhead"] = {
                    name: layers[f"traced.{name}"]["median"] - s["median"]
                    for name, s in entry["end_to_end"].items()
                    if f"traced.{name}" in layers}
                print(f"  tracing overhead (traced - untraced): {entry['tracing_overhead']}")
            if workload == "cli_light" and args.seeds:
                warm = statistics.median(
                    layers[f"cli.main_warm_ms.{c}"]["median"] for c in CLI_LIGHT)
                parts = {"proc.python_startup_ms": 1e3 * layers["proc.python_startup_s"]["median"],
                         "import.total_ms": 1e3 * layers["import.total_s"]["median"],
                         "cli.main_warm_ms (median over the pass)": warm}
                measured = entry["end_to_end"]["op_p50_ms"]["median"]
                entry["accounting_ms"] = {**parts, "op_p50_ms": measured,
                                          "leftover": measured - sum(parts.values())}
                print(f"  accounting of op_p50_ms: {entry['accounting_ms']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
