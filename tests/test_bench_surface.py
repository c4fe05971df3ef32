"""The benchmark's call surface: what perfbench/ imports and calls of the package.

perfbench/child.py builds its inputs with ``locality.Cause`` and
``locality.LocalModel`` and checks every result, and perfbench/commands.py
lists and checks the CLI calls. Running both here, on small inputs, makes a
package change that breaks them fail the suite instead of the benchmark run.
Nothing under perfbench/ is modified.
"""
import contextlib
import importlib
import io
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child  # noqa: E402
import commands  # noqa: E402

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
