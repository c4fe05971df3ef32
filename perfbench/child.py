"""Child-process side of the ghzlab benchmark; perfbench/run.py starts it.

    python child.py cli SPANS ARGV...         `ghzlab ARGV...` with tracing
    python child.py batch KIND SEED SECONDS [SPANS]
                                              warm library loop, KIND in
                                              pure | mixed | tables
    python child.py probe SEED SPANS          fixed traced calls into every
                                              layer, for the per-layer metrics

Only the standard library is imported before ghzlab, so the import order
and cost match a plain `ghzlab` call. Tracing wraps ghzlab's public
functions from outside; nothing under src/ knows about it.
"""
from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import json
import random
import sys
import time

import commands

# (module, attribute, counter) of the numpy/scipy entry points the layers call.
COUNTED = (("numpy", "kron", "kron"), ("numpy", "vdot", "vdot"),
           ("numpy.linalg", "eigvalsh", "eigvalsh"),
           ("scipy.optimize", "linprog", "linprog"))


def _state_kind(args, result):
    return "mixed" if type(args[0]).__name__ == "DensityMatrix" else "pure"


def _membership_kind(args, result):
    return "inside" if result.inside else "outside"


# Public functions recorded as spans: module -> {function: label or None}.
# A label picks a span-name suffix from the call, e.g. pure vs mixed input.
SPANNED = {
    "qcore": {"amplitude_table": None, "signed_sum_for_state": _state_kind,
              "mix_with_white_noise": None},
    "mermin": {"evaluate_point": _state_kind, "report": None},
    "locality": {"polytope_membership": _membership_kind, "model_to_table": None,
                 "ghz_sign_feasibility": None},
    "optimize": {name: None for name in (
        "max_quantum_local_radius", "max_biseparable_radius", "max_quantum_radius",
        "biseparable_radius_eigen_oracle", "quantum_radius_eigen_oracle",
        "noise_threshold")},
    "cli": {"main": None},
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, count deltas]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"kron": 0, "vdot": 0, "eigvalsh": 0, "linprog": 0,
                       "lp_iterations": 0}

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, dict(self.counts)])
        self.stack.append(len(self.spans) - 1)

    def end(self, name=None):
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        span[4] = {k: v - span[4][k] for k, v in self.counts.items() if v != span[4][k]}
        if name:
            span[0] = name

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name, fn, label=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end()
                raise
            self.end(label and f"{name}.{label(args, result)}")
            return result
        return traced

    def count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if key == "linprog":
                counts["lp_iterations"] += int(result.nit)
            return result
        return counted

    def hook_counters(self):
        """Wrap COUNTED as soon as each module has executed.

        Hooking the import, instead of importing the modules here, keeps the
        program's import order, and a function the package imports lazily
        (say `linprog` inside `polytope_membership`) is still counted.
        """
        patches = {}
        for module, attr, key in COUNTED:
            patches.setdefault(module, []).append((attr, key))
        sys.meta_path.insert(0, _AfterImport(patches, self))

    def install_spans(self):
        """Wrap SPANNED wherever a ghzlab module looks the function up."""
        for short, functions in SPANNED.items():
            module = sys.modules[f"ghzlab.{short}"]
            for fname, label in functions.items():
                original = getattr(module, fname, None)
                if original is None:  # removed by a later change: its span reads 0
                    continue
                _rebind(original, self.wrap(f"{short}.{fname}", original, label))
        qcore = sys.modules["ghzlab.qcore"]
        for cls in (qcore.StateVector, qcore.DensityMatrix):
            cls.__post_init__ = self.wrap("qcore.state_validate", cls.__post_init__)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _AfterImport:
    """Meta-path finder that patches a module right after it executes."""

    def __init__(self, patches, tracer):
        self.patches = patches
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        attrs = self.patches.pop(name, None)
        if attrs is None:
            return None
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            for attr, key in attrs:
                setattr(module, attr, self.tracer.count(key, getattr(module, attr)))
        spec.loader.exec_module = exec_and_patch
        return spec


def _rebind(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "ghzlab" or name.startswith("ghzlab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _import_ghzlab(tracer):
    if tracer:
        tracer.hook_counters()
        with tracer.span("import"):
            import ghzlab.cli  # noqa: F401
        tracer.install_spans()
    else:
        import ghzlab.cli  # noqa: F401


# --- the library workloads ---------------------------------------------------

PATTERNS = ("xxx", "xyy", "yxy", "yyx")


def _klass(r2):
    """The documented class of a point by its radius squared."""
    return ("separable-compatible" if r2 <= 1.0 else
            "two-entangled-compatible" if r2 <= 8.0 else "three-entangled")


class Library:
    """Seeded inputs, the timed library path, and the check of its results.

    Inputs are made with numpy's own routines and never with the counted
    functions, so the counts belong to ghzlab alone.
    """

    def __init__(self):
        import numpy as np
        from ghzlab import locality, mermin, qcore
        self.np, self.locality, self.mermin, self.qcore = np, locality, mermin, qcore
        pauli = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
                 "y": np.array([[0, -1j], [1j, 0]], dtype=complex)}
        self.pattern_ops = [
            np.einsum("ab,cd,ef->acebdf", *(pauli[s] for s in p)).reshape(8, 8)
            for p in PATTERNS]
        self.ghz = np.zeros(8, dtype=complex)
        self.ghz[[0, 7]] = 2 ** -0.5
        self.ghz_blocks = locality.ghz_correlation_table().blocks
        # Columns of the 64 deterministic strategies in the documented order
        # (party-1 major, x before y, +1 before -1), used to check weights.
        signs = np.array([[1 - 2 * ((n >> (5 - b)) & 1) for b in range(6)]
                          for n in range(64)])
        self.strategy_cols = np.zeros((32, 64))
        for row, pattern in enumerate(PATTERNS):
            bits = [(signs[:, 2 * party + (s == "y")] < 0).astype(int)
                    for party, s in enumerate(pattern)]
            index = 4 * bits[0] + 2 * bits[1] + bits[2]
            self.strategy_cols[8 * row + index, np.arange(64)] = 1.0

    def _haar(self, rng, dim):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return raw / self.np.linalg.norm(raw)

    # Each make_* returns (input, expectation); run_* is the timed path.

    def make_pure(self, rng, n):
        """Haar-random, product, biseparable and GHZ states, in turn."""
        np = self.np
        which = n % 4
        if which == 0:
            return self._haar(rng, 8), 16.0
        if which == 1:
            a, b, c = (self._haar(rng, 2) for _ in range(3))
            return np.einsum("i,j,k->ijk", a, b, c).ravel(), 1.0
        if which == 2:
            cut = int(rng.integers(3))
            single, pair = self._haar(rng, 2), self._haar(rng, 4).reshape(2, 2)
            spec = ("i,jk->ijk", "j,ik->ijk", "k,ij->ijk")[cut]
            return np.einsum(spec, single, pair).ravel(), 4.0
        amps = self.ghz.copy()
        amps[7] *= np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        return amps, 16.0

    def run_pure(self, amps):
        psi = self.qcore.StateVector(amps)
        return psi, self._observe(psi)

    def make_mixed(self, rng, n):
        """White-noise GHZ and white-noise Haar-random states, in turn."""
        base = self.ghz if n % 2 == 0 else self._haar(rng, 8)
        return (base, float(rng.uniform(0.0, 1.0))), 16.0

    def run_mixed(self, inp):
        base, v = inp
        rho = self.qcore.mix_with_white_noise(self.qcore.StateVector(base), v)
        return rho, self._observe(rho)

    def _observe(self, state):
        point = self.mermin.evaluate_point(state)
        report = self.mermin.report(point)
        sums = [self.qcore.signed_sum_for_state(state, p) for p in PATTERNS]
        return point, report, sums

    def check_state(self, inp, bound, out):
        np = self.np
        state, (point, report, sums) = out
        if isinstance(inp, tuple):
            base, v = inp
            rho = v * np.outer(base, base.conj()) + (1 - v) * np.eye(8) / 8
        else:
            rho = np.outer(inp, inp.conj())
        m, mp = point.m_value, point.mprime_value
        # M + iM' = 8|000><111|, so <M> + i<M'> = 8 rho[111, 000].
        if abs(complex(m, mp) - 8 * rho[7, 0]) > 1e-10:
            return f"evaluate_point ({m!r}, {mp!r}) != 8 rho[111,000] = {8 * rho[7, 0]!r}"
        r2, peak = m * m + mp * mp, max(abs(m), abs(mp))
        if r2 > bound + 1e-9:
            return f"r^2 = {r2!r} above the class maximum {bound}"
        got = report.to_json_dict()
        # A point within rounding of a limit (GHZ has r^2 = 16) may fall
        # either side of it, so both answers count as right there.
        if (got["m"], got["mprime"]) != (m, mp) or got["class"] not in {
                _klass(r2 - 1e-9), _klass(r2 + 1e-9)}:
            return f"report {got} does not match r^2 = {r2!r}"
        for name, value, limit in (("locality", peak, 2.0), ("quantum_locality", r2, 1.0),
                                   ("realism", peak, 4.0), ("quantum", r2, 16.0)):
            if got["bounds"][name] not in {value - 1e-9 <= limit, value + 1e-9 <= limit}:
                return f"report bound {name}={got['bounds'][name]} for {value!r} vs {limit}"
        for pattern, op, value in zip(PATTERNS, self.pattern_ops, sums):
            exact = np.trace(rho @ op).real
            if abs(value - exact) > 1e-10:
                return f"signed sum {pattern} = {value!r}, <{pattern}> = {exact!r}"
        return None

    def make_tables(self, rng, n):
        """Local mixtures of 1-4 causes, and noisy GHZ with v clear of 1/2."""
        np, locality = self.np, self.locality
        if n % 2 == 0:
            weights = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
            causes = tuple(locality.Cause(float(w), rng.uniform(0.0, 1.0, (3, 2)))
                           for w in weights / weights.sum())
            return locality.model_to_table(locality.LocalModel(causes)), True
        v = float(rng.uniform(0.05, 0.45) + (0.5 if n % 4 == 3 else 0.0))
        blocks = {p: v * b + (1.0 - v) / 8.0 for p, b in self.ghz_blocks.items()}
        # <M> = 4v and the local bound is 2: inside exactly when v <= 1/2.
        return locality.CorrelationTable(blocks), v <= 0.5

    def run_tables(self, table):
        return self.locality.polytope_membership(table)

    def check_tables(self, table, inside, result):
        np = self.np
        if result.inside != inside:
            return f"polytope_membership inside={result.inside}, expected {inside}"
        if not inside:
            return None
        w = np.asarray(result.weights)
        b = np.concatenate([table.blocks[p] for p in PATTERNS])
        if w.min() < -1e-9 or abs(w.sum() - 1) > 1e-9:
            return "inside weights are not a probability vector"
        if np.abs(self.strategy_cols @ w - b).max() > 1e-6:
            return "inside weights do not reproduce the table"
        return None

    def operations(self, kind, seed):
        """The timed call, its check, and an endless seeded input stream."""
        make = getattr(self, f"make_{kind}")
        check = self.check_tables if kind == "tables" else self.check_state

        def inputs():
            rng = self.np.random.default_rng(seed)
            n = 0
            while True:
                yield make(rng, n)
                n += 1
        return getattr(self, f"run_{kind}"), check, inputs()


def attempt(tracer, kind, run, check, inp, want, errors):
    """Time one library operation and check it; None if it raised."""
    start = time.perf_counter()
    try:
        with tracer.span(f"item.{kind}") if tracer else contextlib.nullcontext():
            out = run(inp)
    except Exception as exc:  # a failing call is counted, not fatal
        errors.append(f"{kind}: {exc!r}")
        return None
    elapsed = time.perf_counter() - start
    problem = check(inp, want, out)
    if problem:
        errors.append(f"{kind}: {problem}")
    return elapsed


def batch(kind, seed, seconds, spans_path=None):
    """Closed loop in one warm process; prints latencies and failures as JSON."""
    tracer = Tracer() if spans_path else None
    _import_ghzlab(tracer)
    run, check, inputs = Library().operations(kind, seed)
    latencies, errors, attempted = [], [], 0
    if tracer:
        tracer.spans = []  # keep only the timed loop's spans
    deadline = time.perf_counter() + seconds
    for inp, want in inputs:
        if time.perf_counter() >= deadline:
            break
        attempted += 1
        elapsed = attempt(tracer, kind, run, check, inp, want, errors)
        if elapsed is not None:
            latencies.append(elapsed)
    if tracer:
        tracer.dump(spans_path)
    print(json.dumps({"latencies": latencies, "attempted": attempted, "errors": errors}))


# --- the per-layer probe -----------------------------------------------------

# Light commands are repeated so their medians are steady; one ascent each
# for the three searches is already seconds long.
LIGHT_REPEATS = 5
PROBE_ITEMS = {"pure": 64, "mixed": 64, "tables": 32}


def probe(seed, spans_path):
    """Fixed, seeded calls into every layer; the same on every workload."""
    tracer = Tracer()
    _import_ghzlab(tracer)
    cli = sys.modules["ghzlab.cli"]
    rng = random.Random(seed)
    errors, attempted = [], 0
    calls = {}
    for workload, repeats in (("cli_light", LIGHT_REPEATS), ("bounds", 1)):
        for name, argv in commands.cli_pass(workload, rng):
            calls.setdefault(name, (argv, repeats))
    for name, (argv, repeats) in calls.items():
        for _ in range(repeats):
            buf = io.StringIO()
            attempted += 1
            try:
                with tracer.span(f"probe.{name}"), contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # counted like a crashed process
                errors.append(f"{name}: {exc!r}")
                continue
            problem = commands.check(name, argv, code, buf.getvalue())
            if problem:
                errors.append(f"{name}: {problem}")
    lib = Library()
    for kind, count in PROBE_ITEMS.items():
        run, check, inputs = lib.operations(kind, seed)
        for _ in range(count):
            inp, want = next(inputs)
            attempted += 1
            attempt(tracer, kind, run, check, inp, want, errors)
    # No CLI path calls this oracle, so the probe calls it directly.
    oracle = getattr(sys.modules["ghzlab.optimize"], "quantum_radius_eigen_oracle", None)
    if oracle:
        attempted += 1
        value = oracle()
        if abs(value - 16.0) > 1e-9:
            errors.append(f"quantum_radius_eigen_oracle gave {value!r}, expected 16")
    tracer.dump(spans_path)
    print(json.dumps({"attempted": attempted, "errors": errors}))


def cli_traced(spans_path, argv):
    """The `ghzlab` console script, with spans written when it exits."""
    tracer = Tracer()
    try:
        _import_ghzlab(tracer)
        sys.argv = ["ghzlab", *argv]
        sys.modules["ghzlab.cli"].entry()
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        cli_traced(rest[0], rest[1:])
    elif mode == "batch":
        batch(rest[0], int(rest[1]), float(rest[2]), rest[3] if len(rest) > 3 else None)
    elif mode == "probe":
        probe(int(rest[0]), rest[1])
    else:
        sys.exit(f"unknown mode {mode!r}")
