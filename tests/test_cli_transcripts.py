"""Golden CLI transcripts: argv, exit code, stdout and stderr of each command.

``tests/cli_transcripts.json`` holds one entry per command, run in-process
through ``cli.main`` with GHZLAB_SEED unset, so a change that alters any byte
a user sees, or an exit code, fails here. The commands are the
criterion-11 set, the benchmark's cli_light set at fixed flags, every
``bounds`` class with its defaults and with ``--restarts 4 --seed 7``,
``figure1`` at two seeds, ``classify`` on six state files, the CSV and
JSON forms of what the bounds table drives, one
refusal per rule of the README's "Errors", and the ``--help`` of the program
and of each subcommand, printed at COLUMNS wide. When a change of output is
intended, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_cli_transcripts.py --write
"""
import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from ghzlab import cli

TRANSCRIPTS = Path(__file__).with_name("cli_transcripts.json")
#: The terminal width argparse wraps help text to, fixed so the bytes are too.
COLUMNS = "80"


def state_doc(re: list) -> str:
    """A state file of 8 real amplitudes; json writes a NaN as ``NaN``."""
    return json.dumps({"dim": 8, "re": re, "im": [0.0] * 8})


def ghz_mixture_doc(coherence: float) -> str:
    """A mixed state file: rho_00 = rho_77 = 1/2 and rho_07 = rho_70 = ``coherence``,
    whose least eigenvalue is 1/2 - coherence."""
    re = [[0.0] * 8 for _ in range(8)]
    re[0][0] = re[7][7] = 0.5
    re[0][7] = re[7][0] = coherence
    return json.dumps({"dim": 8, "re": re, "im": [[0.0] * 8] * 8})


#: State files the commands name by these placeholders, written where each test runs.
STATE_FILES = {
    "<ghz-state>": state_doc([2 ** -0.5] + [0.0] * 6 + [2 ** -0.5]),
    "<lopsided-ghz-state>": state_doc([0.9 ** 0.5] + [0.0] * 6 + [0.1 ** 0.5]),
    "<plus-plus-plus-state>": state_doc([8 ** -0.5] * 8),
    # cos 15°|000> + sin 15°|111>, whose m = 4 sin 30° = 2 is on the locality
    # square, with its norm 2e-13 above 1 (inside StateVector's slack).
    "<locality-edge-state>": state_doc([math.cos(math.pi / 12) * (1 + 1e-13)] + [0.0] * 6
                                       + [math.sin(math.pi / 12) * (1 + 1e-13)]),
    # GHZ's coherence raised by 0.9e-10, past the readers' slack, and by
    # 0.9e-12, within it: a least eigenvalue of -0.9e-10 and of -0.9e-12.
    "<edge-density-state>": ghz_mixture_doc(0.5 + 0.9e-10),
    "<slack-edge-density-state>": ghz_mixture_doc(0.5 + 0.9e-12),
    "<nan-state>": state_doc([float("nan")] + [0.0] * 7),
}

BOUND_CLASSES = ("local", "realistic", "quantum_local", "biseparable", "quantum")
SUBCOMMANDS = ("verify", "contradiction", "bounds", "figure1", "classify", "threshold")
COMMANDS = [
    # The criterion-11 commands.
    ["verify"],
    ["contradiction"],
    ["contradiction", "--mode", "epr"],
    ["bounds", "--class", "local"],
    ["bounds", "--class", "realistic"],
    ["bounds", "--class", "quantum_local", "--restarts", "4"],
    ["bounds", "--class", "biseparable", "--restarts", "2"],
    ["bounds", "--class", "quantum", "--restarts", "4", "--seed", "7"],
    ["figure1", "--samples", "32", "--points", "10"],
    ["classify", "--noise", "0.3"],
    ["threshold", "--bound", "locality"],
    ["threshold", "--bound", "quantum_locality"],
    # The cli_light commands not above, at the flags random.Random(0) draws.
    ["classify", "--noise", "0.8444218515250481"],
    ["figure1", "--seed", "1806341205"],
    # Every bounds class, with the defaults and with set flags.
    *(["bounds", "--class", name] for name in BOUND_CLASSES[2:]),
    *(["bounds", "--class", name, "--restarts", "4", "--seed", "7"] for name in BOUND_CLASSES),
    # figure1 at two seeds.
    ["figure1", "--samples", "32", "--points", "10", "--seed", "0"],
    ["figure1", "--samples", "32", "--points", "10", "--seed", "7"],
    # classify on a state file: GHZ, sqrt(0.9)|000> + sqrt(0.1)|111>, |+++>,
    # a state on the locality square, and two mixed states at the edge of the
    # density matrix reader.
    ["classify", "--state", "<ghz-state>"],
    ["classify", "--state", "<lopsided-ghz-state>"],
    ["classify", "--state", "<plus-plus-plus-state>"],
    ["classify", "--state", "<locality-edge-state>"],
    ["classify", "--state", "<edge-density-state>"],
    ["classify", "--state", "<slack-edge-density-state>"],
    # What the bounds table drives: the CSV row order of a report's bounds
    # (at v = 0.5 on the locality square), a threshold in CSV and figure1's
    # curves in JSON.
    ["classify", "--noise", "0.3", "--format", "csv"],
    ["classify", "--noise", "0.5", "--format", "csv"],
    ["classify", "--state", "<lopsided-ghz-state>", "--format", "csv"],
    ["threshold", "--bound", "quantum_locality", "--format", "csv"],
    ["figure1", "--samples", "8", "--points", "2", "--format", "json"],
    # Refusals: a seed on a subcommand that takes none, a negative seed, a
    # tolerance out of range, a non-finite state and a count out of range.
    ["verify", "--seed", "-1"],
    ["figure1", "--seed", "-1"],
    ["contradiction", "--tol", "0.5"],
    ["classify", "--state", "<nan-state>"],
    ["bounds", "--class", "quantum", "--restarts", "0"],
    # The help of the program and of each subcommand.
    ["--help"],
    *([name, "--help"] for name in SUBCOMMANDS),
]


def run(argv, tmp_dir: Path) -> int:
    """``cli.main`` on argv, each state file placeholder the path of that file in
    tmp_dir; argparse's exit after ``--help`` gives its code."""
    paths = {}
    for placeholder, doc in STATE_FILES.items():
        paths[placeholder] = tmp_dir / f"{placeholder.strip('<>')}.json"
        paths[placeholder].write_text(doc)
    try:
        return cli.main([str(paths.get(arg, arg)) for arg in argv])
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def transcripts() -> list:
    return json.loads(TRANSCRIPTS.read_text())


def test_transcripts_cover_the_commands(transcripts):
    assert [entry["argv"] for entry in transcripts] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[" ".join(a) for a in COMMANDS])
def test_transcript_is_unchanged(index, transcripts, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GHZLAB_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = transcripts[index]
    code = run(expected["argv"], tmp_path)
    out, err = capsys.readouterr()
    assert (code, out, err) == (expected["code"], expected["stdout"], expected["stderr"])


def write(tmp_dir: Path) -> None:
    os.environ.pop("GHZLAB_SEED", None)
    os.environ["COLUMNS"] = COLUMNS
    entries = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv, tmp_dir)
        entries.append({"argv": argv, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    TRANSCRIPTS.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
