"""Benchmark of ghzlab, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    cli_light       fresh `ghzlab` processes of the cheap subcommands
    library_pure    pure states through the library in one warm process
    library_mixed   mixed states through the library in one warm process
    library_tables  correlation tables through polytope_membership, warm

Load is one client in a closed loop: each call or child process starts only
after the previous one ended, so at most one child runs at a time. The
program is imported from ./src; only flags, states and tables are drawn
from --seed. Every output is checked; wrong answers count as failed.

--trace 0 prints the end-to-end metrics. --trace 1 runs a traced copy of the
workload (for the tracing overhead) and the fixed per-layer probe of
child.py, and prints the per-layer metrics. The last line of stdout is the
JSON result; the readable report goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable
# What the `ghzlab = ghzlab.cli:entry` console script runs.
ENTRY = "import sys; from ghzlab.cli import entry; sys.exit(entry())"
LIBRARY = {"library_pure": "pure", "library_mixed": "mixed", "library_tables": "tables"}
WORKLOADS = ("cli_light", *LIBRARY)
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CALL_TIMEOUT_S = 120
# Every subcommand the probe times, named as in commands.cli_pass.
PROBE_SUBCOMMANDS = list(dict.fromkeys(
    name for workload in ("cli_light", "bounds")
    for name, _ in commands.cli_pass(workload, random.Random(0))))


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GHZLAB_SEED", None)  # it would change the program's default seed
    return env


def timed(cmd, timeout=CALL_TIMEOUT_S):
    """Wall time from spawn to exit, and the finished process."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=timeout)
    return time.perf_counter() - start, proc


def median_of_runs(cmd, repeats):
    times = []
    for _ in range(repeats):
        seconds, proc = timed(cmd)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {' '.join(cmd[1:])} failed:\n{proc.stderr.decode()}")
        times.append(seconds)
    return statistics.median(times)


class Outcome:
    """What one workload run measured."""

    def __init__(self):
        self.latencies = []   # seconds, successful operations only
        self.attempted = 0
        self.errors = []
        self.spans = []       # traced runs: (latency, spans) per process


def load_spans(path):
    with open(path) as fh:
        return json.load(fh)


def run_cli(workload, seed, seconds, tmp, trace):
    """Whole passes until `seconds` have gone; a pass runs its commands twice.

    The second round repeats the first in the same order, so the two runs of
    a command lie a round apart and one slow phase of the machine does not
    cover both. Each rerun must print the same bytes as the first run.
    """
    out = Outcome()
    rng = random.Random(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        calls = commands.cli_pass(workload, rng)
        first = {}
        for index, (name, argv) in enumerate(calls + calls):
            out.attempted += 1
            spans_path = tmp / f"cli{out.attempted}.json"
            cmd = ([PY, str(HERE / "child.py"), "cli", str(spans_path), *argv]
                   if trace else [PY, "-c", ENTRY, *argv])
            try:
                latency, proc = timed(cmd)
            except subprocess.TimeoutExpired:
                out.errors.append(f"{name}: no exit within {CALL_TIMEOUT_S} s")
                continue
            problem = commands.check(name, argv, proc.returncode, proc.stdout.decode())
            earlier = first.setdefault(index % len(calls), proc.stdout)
            if problem is None and proc.stdout != earlier:
                problem = "rerun with the same flags printed different bytes"
            if problem:
                out.errors.append(f"{name}: {problem}")
                continue
            out.latencies.append(latency)
            if trace:
                out.spans.append((latency, load_spans(spans_path)))
    return out


def run_library(kind, seed, seconds, tmp, trace):
    out = Outcome()
    spans_path = tmp / "batch.json"
    cmd = [PY, str(HERE / "child.py"), "batch", kind, str(seed), str(seconds)]
    _, proc = timed(cmd + ([str(spans_path)] if trace else []),
                    timeout=seconds + CALL_TIMEOUT_S)
    if proc.returncode != 0:
        out.attempted = 1
        out.errors.append(f"batch worker exited {proc.returncode}: "
                          f"{proc.stderr.decode()[-2000:]}")
        return out
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    out.latencies, out.attempted, out.errors = (
        result["latencies"], result["attempted"], result["errors"])
    if trace:
        out.spans.append((sum(out.latencies), load_spans(spans_path)))
    return out


def run_workload(workload, seed, seconds, tmp, trace):
    if workload in LIBRARY:
        return run_library(LIBRARY[workload], seed, seconds, tmp, trace)
    return run_cli(workload, seed, seconds, tmp, trace)


def latency_ms(out):
    """Median and 90th percentile of the successful operations, in ms."""
    if len(out.latencies) < 2:
        sys.exit(f"perfbench: too few operations succeeded to measure: {out.errors[:5]}")
    ms = [1000.0 * t for t in out.latencies]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


# --- per-layer numbers -------------------------------------------------------

def import_profile():
    """Medians over runs of `python -X importtime -c "import ghzlab"`."""
    runs = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = timed([PY, "-X", "importtime", "-c", "import ghzlab"])
        own = defaultdict(int)
        total = None
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            head, cumulative, name = line.split("|")
            name = name.strip()
            own[name.split(".")[0]] += int(head.split(":")[1])
            if name == "ghzlab":
                total = int(cumulative)
        if proc.returncode != 0 or total is None:
            sys.exit(f"perfbench: import ghzlab failed:\n{proc.stderr.decode()[-2000:]}")
        runs["import.total_s"].append(total)
        for package in ("scipy", "numpy", "ghzlab"):
            runs[f"import.{package}_s"].append(own[package])
    renamed = {"import.ghzlab_s": "import.ghzlab_self_s"}
    return {renamed.get(k, k): (statistics.median(v) / 1e6, "s") for k, v in runs.items()}


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def probe_metrics(spans):
    """Per-layer metrics from the probe's spans; 0 where a span never ran."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)

    def med(name, scale):
        times = [end - start for _, start, end, _, _ in by_name[name]]
        return statistics.median(times) * scale if times else 0.0

    def total(prefix, key):
        return sum(s[4].get(key, 0) for s in spans if s[0].startswith(prefix)
                   and not (s[3] >= 0 and spans[s[3]][0].startswith(prefix)))

    own = self_times(spans)
    mains = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    states = by_name["item.pure"] + by_name["item.mixed"]
    m = {}
    for sub in PROBE_SUBCOMMANDS:
        times = [s[2] - s[1] for s in by_name["cli.main"]
                 if spans[s[3]][0] == f"probe.{sub}"]
        m[f"cli.main_warm_ms.{sub}"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    m["cli.self_ms"] = (statistics.mean(own[i] for i in mains) * 1e3 if mains else 0.0, "ms")
    m.update({
        "qcore.amplitude_table_us": (med("qcore.amplitude_table", 1e6), "us"),
        "qcore.signed_sum_mixed_us": (med("qcore.signed_sum_for_state.mixed", 1e6), "us"),
        "qcore.mix_with_white_noise_us": (med("qcore.mix_with_white_noise", 1e6), "us"),
        "qcore.state_validate_us": (med("qcore.state_validate", 1e6), "us"),
        "qcore.kron_calls": (sum(s[4].get("kron", 0) for s in states) / len(states), "count"),
        "mermin.evaluate_point_pure_us": (med("mermin.evaluate_point.pure", 1e6), "us"),
        "mermin.evaluate_point_mixed_us": (med("mermin.evaluate_point.mixed", 1e6), "us"),
        "mermin.report_us": (med("mermin.report", 1e6), "us"),
        "locality.polytope_membership_inside_ms":
            (med("locality.polytope_membership.inside", 1e3), "ms"),
        "locality.polytope_membership_outside_ms":
            (med("locality.polytope_membership.outside", 1e3), "ms"),
        "locality.model_to_table_us": (med("locality.model_to_table", 1e6), "us"),
        "locality.ghz_sign_feasibility_us": (med("locality.ghz_sign_feasibility", 1e6), "us"),
        "locality.linprog_calls": (total("locality.", "linprog"), "count"),
        "locality.lp_iterations": (total("locality.", "lp_iterations"), "count"),
    })
    for name in ("max_quantum_local_radius", "max_biseparable_radius", "max_quantum_radius"):
        m[f"optimize.{name}_s"] = (med(f"optimize.{name}", 1.0), "s")
    for name in ("biseparable_radius_eigen_oracle", "quantum_radius_eigen_oracle",
                 "noise_threshold"):
        m[f"optimize.{name}_ms"] = (med(f"optimize.{name}", 1e3), "ms")
    m["optimize.eigvalsh_calls"] = (total("optimize.", "eigvalsh"), "count")
    m["optimize.vdot_calls"] = (total("optimize.", "vdot"), "count")
    return m


def layer_breakdown(out):
    """Readable self time per operation by layer, from the traced workload.

    Only the timed part counts: the trees under `import`, `cli.main` and
    `item.*`, not the library calls that made a batch's inputs.
    """
    per_layer = defaultdict(float)
    for latency, spans in out.spans:
        own = self_times(spans)
        roots = []
        for name, start, end, parent, _ in spans:
            roots.append(name if parent < 0 else roots[parent])
        timed = [r in ("import", "cli.main") or r.startswith("item.") for r in roots]
        for span, t, keep in zip(spans, own, timed):
            if keep:
                per_layer[span[0].split(".")[0]] += t
        per_layer["outside spans"] += latency - sum(
            s[2] - s[1] for s, keep in zip(spans, timed) if keep and s[3] < 0)
    n = len(out.latencies)
    return ", ".join(f"{k} {1e3 * v / n:.3f}" for k, v in sorted(per_layer.items()))


def traced_run(workload, seed, seconds, tmp):
    metrics = {"proc.python_startup_s": (median_of_runs([PY, "-c", "pass"],
                                                        STARTUP_REPEATS), "s")}
    metrics.update(import_profile())
    spans_path = tmp / "probe.json"
    _, proc = timed([PY, str(HERE / "child.py"), "probe", str(seed), str(spans_path)],
                    timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: probe failed:\n{proc.stderr.decode()[-2000:]}")
    probe = json.loads(proc.stdout.decode().splitlines()[-1])
    metrics.update(probe_metrics(load_spans(spans_path)))
    out = run_workload(workload, seed, seconds, tmp, trace=True)
    p50, p90 = latency_ms(out)
    metrics.update({"traced.op_p50_ms": (p50, "ms"), "traced.op_p90_ms": (p90, "ms")})
    print(f"self ms per operation by layer: {layer_breakdown(out)}", file=sys.stderr)
    out.attempted += probe["attempted"]
    out.errors += probe["errors"]
    return out, metrics, {}


def untraced_run(workload, seed, seconds, tmp):
    setup = median_of_runs([PY, "-c", "import ghzlab"], SETUP_REPEATS)
    out = run_workload(workload, seed, seconds, tmp, trace=False)
    p50, p90 = latency_ms(out)
    # ru_maxrss of the children is the peak of the largest one, in KiB.
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"setup_s": (setup, "s"), "op_p90_ms": (p90, "ms"),
               "peak_rss_mb": (rss / 1024.0, "MB")}
    # The median moves with the machine's fast and slow phases (README).
    return out, metrics, {"op_p50_ms": (p50, "ms")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ghzlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ghzlab sources under {ROOT / 'src'}")
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = traced_run if args.trace else untraced_run
        out, metrics, ungated = run(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp)
    failed = len(out.errors)  # one entry per failed operation
    n = len(out.latencies)
    tail = max(0.0, 1.0 - 10.0 / n)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n} timed operations, "
          f"highest percentile with >=10 samples beyond it: p{100 * tail:.0f}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    for name, (value, unit) in ungated.items():
        print(f"  {name} = {value!r} {unit} (not gated)", file=sys.stderr)
    print(f"  fail_ratio = {failed}/{out.attempted} = {failed / out.attempted:.6g}",
          file=sys.stderr)
    for error in out.errors[:10]:
        print(f"  FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": out.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
