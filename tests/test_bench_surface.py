"""The benchmark's call surface: what perfbench/ imports and calls of the package.

perfbench/child.py builds its inputs with ``locality.Cause`` and
``locality.LocalModel`` and checks every result, and perfbench/commands.py
lists and checks the CLI calls. Running both here, on small inputs, makes a
package change that breaks them fail the suite instead of the benchmark run.
The traced runs, whose wrappers rebind every SPANNED function and both state
checks, run as perfbench/run.py starts them, in a child process.
Nothing under perfbench/ is modified.
"""
import contextlib
import importlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child  # noqa: E402
import commands  # noqa: E402
from run import HERE, child_env  # noqa: E402

from ghzlab import cli  # noqa: E402

ITEMS = 40


@pytest.mark.parametrize("kind", ["pure", "mixed", "tables"])
def test_library_operations_pass_their_checks(kind):
    run, check, inputs = child.Library().operations(kind, 0)
    for _, (inp, want) in zip(range(ITEMS), inputs):
        assert check(inp, want, run(inp)) is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tables_pass_their_checks_on_more_inputs(seed):
    # The inside flag and the weights of polytope_membership, as the timed
    # library_tables loop checks them, on more tables than the case above.
    run, check, inputs = child.Library().operations("tables", seed)
    for _, (inp, want) in zip(range(200), inputs):
        assert check(inp, want, run(inp)) is None


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_states_pass_their_checks_on_more_inputs(kind, seed):
    # evaluate_point, report and the four signed sums, as the timed
    # library_pure and library_mixed loops check them, on more states than
    # the first case above reaches.
    run, check, inputs = child.Library().operations(kind, seed)
    for _, (inp, want) in zip(range(1000), inputs):
        assert check(inp, want, run(inp)) is None


#: States on a limit, the pure ones scaled within StateVector's 1e-12 norm
#: slack, so their points may lie a few ulps past it: GHZ (realism, quantum),
#: |+++> (quantum-locality, separable class), cos 15°|000> + sin 15°|111>
#: (locality), and white-noise GHZ at v = 1/4 and 1/2 (quantum-locality, locality).
EDGE_STATES = {
    "ghz": np.array([2 ** -0.5] + [0.0] * 6 + [2 ** -0.5]) * (1 + 4e-13),
    "plus-plus-plus": np.full(8, 8 ** -0.5),
    "locality-edge": np.array([math.cos(math.pi / 12)] + [0.0] * 6
                              + [math.sin(math.pi / 12)]) * (1 + 1e-13),
    "noisy-ghz-0.25": 0.25,
    "noisy-ghz-0.5": 0.5,
}


@pytest.mark.parametrize("name", EDGE_STATES)
def test_edge_states_pass_their_checks(name):
    # check_state reads every flag and the class of report on the timed path.
    lib, state = child.Library(), EDGE_STATES[name]
    if isinstance(state, float):
        inp = (lib.ghz, state)
        assert lib.check_state(inp, 16.0, lib.run_mixed(inp)) is None
    else:
        assert lib.check_state(state, 16.0, lib.run_pure(state)) is None


def test_cli_light_pass_passes_its_checks():
    for name, argv in commands.cli_pass("cli_light", random.Random(0)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert commands.check(name, argv, code, out.getvalue()) is None, name


@pytest.mark.parametrize("module,name", [(module, name)
                                         for module, names in child.SPANNED.items()
                                         for name in names])
def test_spanned_functions_exist(module, name):
    # child.py skips a SPANNED name the package lacks, and its per-layer
    # metric then reads 0 instead of failing.
    assert callable(getattr(importlib.import_module(f"ghzlab.{module}"), name, None))


def run_child(*args) -> dict:
    """``perfbench/child.py ARGS`` in its own process, with perfbench/run.py's
    environment; the last line of its stdout is its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_probe_passes_every_check(tmp_path):
    # What every --trace 1 run adds: each cli_light command 5 times, the three radius
    # bounds with a seed, 64 pure and 64 mixed states, 32 tables and the quantum eigen
    # oracle, all checked, with the tracer's wrappers in place.
    assert run_child("probe", "0", str(tmp_path / "spans.json")) == {
        "attempted": 209, "errors": []}


@pytest.mark.parametrize("kind", ["pure", "mixed", "tables"])
def test_traced_batch_passes_every_check(tmp_path, kind):
    result = run_child("batch", kind, "0", "0.2", str(tmp_path / "spans.json"))
    assert result["attempted"] > 0 and result["errors"] == []
