import argparse
import ast
import contextlib
import csv
import datetime
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ghzlab
from ghzlab import cli, errors, locality, mermin, optimize, qcore

from conftest import WHITE_NOISE

#: A JSON integer beyond float range: a float conversion raises OverflowError.
HUGE_INT_STATE = json.dumps({"dim": 8, "re": [10 ** 400] + [0] * 7, "im": [0] * 8})
#: A two-qubit state file; the package reads three-qubit states only.
PAIR_STATE = json.dumps({"dim": 4, "re": [0.5] * 4, "im": [0.0] * 4})


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestVerify:
    def test_default_ghz_all_pass(self, capsys):
        code, out = run(capsys, ["verify"])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert len(doc["checks"]) == 8
        assert all(c["pass"] for c in doc["checks"])

    def test_maximally_mixed_state_reports_without_asserting(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(qcore.state_to_json_dict(WHITE_NOISE)))
        code, out = run(capsys, ["verify", "--state", str(path)])
        assert code == 0
        doc = json.loads(out)
        signed = [c for c in doc["checks"] if c["name"].startswith("signed_sum")]
        assert all(abs(c["value"]) < 1e-12 for c in signed)
        assert doc["all_pass"] is None

    def test_malformed_state_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, ["verify", "--state", str(path)])
        assert code == 2

    def test_integer_too_large_for_a_float(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(HUGE_INT_STATE)
        code = cli.main(["verify", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: state entry is too large for a float\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_identity_writes_the_report_and_exits_1(self, capsys, monkeypatch,
                                                           tmp_path, fmt):
        monkeypatch.setattr(qcore, "eigen_residual", lambda state, obs, eigenvalue: 1.0)
        code = cli.main(["verify", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        if fmt == "json":
            doc = json.loads(captured.out)
        else:
            rows = list(csv.reader(io.StringIO(captured.out)))
            assert rows[0] == ["key", "value"]
            doc = dict(rows[1:])
            # 4 eigen checks of 6 fields, 4 signed sums of 5, then all_pass.
            assert len(doc) == 4 * 6 + 4 * 5 + 1
            doc = {"all_pass": {"false": False}.get(doc["all_pass"]), "checks": [
                {"name": doc[f"checks.{i}.name"], "pass": doc[f"checks.{i}.pass"] == "true"}
                for i in range(8)]}
        assert doc["all_pass"] is False
        assert [c["name"] for c in doc["checks"]] == [
            "eigen_XXX", "eigen_XYY", "eigen_YXY", "eigen_YYX",
            "signed_sum_xxx", "signed_sum_xyy", "signed_sum_yxy", "signed_sum_yyx"]
        assert [c["pass"] for c in doc["checks"]] == [False] * 4 + [True] * 4
        path = tmp_path / "report"
        assert cli.main(["verify", "--format", fmt, "--out", str(path)]) == 1
        assert capsys.readouterr() == ("", "")
        assert path.read_text() == captured.out

    def test_missing_state_file(self, capsys, tmp_path):
        code, _ = run(capsys, ["verify", "--state", str(tmp_path / "nope.json")])
        assert code == 2

    def test_two_qubit_state_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(PAIR_STATE)
        code = cli.main(["verify", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: expected a three-qubit state (8 amplitudes), got 4\n"


class TestContradiction:
    def test_default_report(self, capsys):
        code, out = run(capsys, ["contradiction"])
        assert code == 0
        doc = json.loads(out)
        assert doc["satisfying"] == 0
        assert doc["max_subset"] == 3
        assert doc["hr_max"] == 1
        assert doc["assignments_checked"] == 64
        assert doc["parity_lhs"] == 1 and doc["parity_rhs"] == -1

    def test_epr_mode(self, capsys):
        code, out = run(capsys, ["contradiction", "--mode", "epr"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["feasible"]) == 4
        for entry in doc["feasible"]:
            a = entry["assignment"]
            assert a["ix"] * a["jx"] == entry["c1"]
            assert a["iy"] * a["jy"] == entry["c2"]

    def test_csv_format(self, capsys):
        code, out = run(capsys, ["contradiction", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert "satisfying,0" in out


class TestBounds:
    def test_local(self, capsys):
        code, out = run(capsys, ["bounds", "--class", "local"])
        assert code == 0
        assert json.loads(out)["value"] == 2.0

    def test_realistic(self, capsys):
        code, out = run(capsys, ["bounds", "--class", "realistic"])
        assert code == 0
        assert json.loads(out)["value"] == 4.0

    def test_quantum_local(self, capsys):
        code, out = run(capsys, ["bounds", "--class", "quantum_local", "--restarts", "3"])
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_quantum_with_seed(self, capsys):
        code, out = run(capsys, ["bounds", "--class", "quantum", "--seed", "7",
                                 "--restarts", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(16.0, abs=1e-6)
        assert doc["seed"] == 7

    def test_biseparable(self, capsys):
        code, out = run(capsys, ["bounds", "--class", "biseparable", "--restarts", "2"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(4.0, abs=1e-4)

    @pytest.mark.parametrize("model_class", ["quantum_local", "biseparable", "quantum"])
    def test_restarts_is_only_echoed(self, capsys, model_class):
        docs = []
        for restarts in ("1", "500"):
            code, out = run(capsys, ["bounds", "--class", model_class, "--restarts", restarts])
            assert code == 0
            docs.append(json.loads(out))
        assert [docs[0].pop("restarts"), docs[1].pop("restarts")] == [1, 500]
        assert docs[0] == docs[1]


class TestClassify:
    def test_pure_ghz(self, capsys):
        code, out = run(capsys, ["classify", "--noise", "1.0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "three-entangled"
        assert not doc["bounds"]["locality"]
        assert not doc["bounds"]["quantum_locality"]
        assert doc["bounds"]["realism"] and doc["bounds"]["quantum"]

    def test_pure_noise(self, capsys):
        code, out = run(capsys, ["classify", "--noise", "0.0"])
        doc = json.loads(out)
        assert code == 0
        assert doc["class"] == "separable-compatible"
        assert all(doc["bounds"].values())

    def test_intermediate_noise(self, capsys):
        code, out = run(capsys, ["classify", "--noise", "0.3"])
        doc = json.loads(out)
        assert doc["m"] == pytest.approx(1.2, abs=1e-12)
        assert doc["class"] == "two-entangled-compatible"

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps(qcore.state_to_json_dict(qcore.make_ghz())))
        code, out = run(capsys, ["classify", "--state", str(path)])
        assert code == 0
        assert json.loads(out)["m"] == pytest.approx(4.0, abs=1e-10)

    def test_requires_exactly_one_input(self, capsys, tmp_path):
        code, _ = run(capsys, ["classify"])
        assert code == 2
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps(qcore.state_to_json_dict(qcore.make_ghz())))
        code, _ = run(capsys, ["classify", "--state", str(path), "--noise", "0.5"])
        assert code == 2

    def test_two_qubit_state_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(PAIR_STATE)
        code = cli.main(["classify", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_nan_state_file_emits_no_nan_token(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 8, "re": [NaN, 0, 0, 0, 0, 0, 0, 0], '
                        '"im": [0, 0, 0, 0, 0, 0, 0, 0]}')
        code = cli.main(["classify", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""

    def test_visibility_out_of_range(self, capsys):
        code, _ = run(capsys, ["classify", "--noise", "1.5"])
        assert code == 2


NAN_PURE = '{"dim": 8, "re": [NaN, 0, 0, 0, 0, 0, 0, 0], "im": [0, 0, 0, 0, 0, 0, 0, 0]}'
NAN_MIXED = json.dumps({"dim": 8, "re": (np.eye(8) / 8.0).tolist(),
                        "im": np.zeros((8, 8)).tolist()}).replace("0.125", "NaN", 1)


def _infinite_state_doc(mixed: bool, part: str, value: float) -> str:
    """A maximally mixed (or GHZ) state file with ``value`` as the first entry
    of ``part``; json writes it as the token Infinity or -Infinity."""
    arrays = {"re": np.eye(8) / 8.0 if mixed else qcore.make_ghz().amplitudes.real.copy()}
    arrays["im"] = np.zeros_like(arrays["re"])
    arrays[part].flat[0] = value
    return json.dumps({"dim": 8, **{k: v.tolist() for k, v in arrays.items()}})


# Warnings are errors in the suite, so numpy warning on 1j * inf fails these.
NON_FINITE_DOCS = {"pure": NAN_PURE, "mixed": NAN_MIXED, **{
    f"{kind}-{part}-{sign}inf": _infinite_state_doc(kind == "mixed", part, float(f"{sign}inf"))
    for kind in ("pure", "mixed") for part in ("re", "im") for sign in ("", "-")}}


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("doc", list(NON_FINITE_DOCS.values()), ids=list(NON_FINITE_DOCS))
def test_non_finite_state_file_is_refused(capsys, tmp_path, command, fmt, doc):
    path = tmp_path / "nan.json"
    path.write_text(doc)
    code = cli.main([command, "--state", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "non-finite" in captured.err


_GHZ_RE = qcore.make_ghz().amplitudes.real.tolist()
#: State files whose arrays or dim do not describe one state: numpy would
#: broadcast re against im, and int() would round or parse dim.
MISSHAPED_DOCS = {
    "im-8x8": json.dumps({"dim": 8, "re": [0.125] * 8, "im": np.zeros((8, 8)).tolist()}),
    "im-scalar": json.dumps({"dim": 8, "re": _GHZ_RE, "im": 0}),
    "dim-8.7": json.dumps({"dim": 8.7, "re": _GHZ_RE, "im": [0.0] * 8}),
    "dim-string": json.dumps({"dim": "8", "re": _GHZ_RE, "im": [0.0] * 8}),
}


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("doc", list(MISSHAPED_DOCS.values()), ids=list(MISSHAPED_DOCS))
def test_misshaped_state_file_is_refused(capsys, tmp_path, command, fmt, doc):
    path = tmp_path / "state.json"
    path.write_text(doc)
    code = cli.main([command, "--state", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: state arrays ")


def _mixed_doc_with(entry):
    doc = qcore.state_to_json_dict(WHITE_NOISE)
    doc["re"][3][3] = entry
    return json.dumps(doc)


#: State files with an entry that is not a number in float range, and the
#: message each gives: numpy would read "0.125" as 0.125 and false as 0.
NON_NUMBER_DOCS = {
    "string-in-re": json.dumps({"dim": 8, "re": [str(_GHZ_RE[0])] + _GHZ_RE[1:],
                                "im": [0.0] * 8}),
    "boolean-in-im": json.dumps({"dim": 8, "re": _GHZ_RE, "im": [False] + [0.0] * 7}),
    "string-in-mixed-row": _mixed_doc_with("0.125"),
    "null-in-re": json.dumps({"dim": 8, "re": [None] + _GHZ_RE[1:], "im": [0.0] * 8}),
    "nested-list-in-im": json.dumps({"dim": 8, "re": _GHZ_RE, "im": [[0.0]] + [0.0] * 7}),
    "huge-int-in-mixed-row": _mixed_doc_with(10 ** 400),
}
NON_NUMBER_ERRORS = {
    "string-in-re": "state entry must be a real number, got str",
    "boolean-in-im": "state entry must be a real number, got bool",
    "string-in-mixed-row": "state entry must be a real number, got str",
    "null-in-re": "state entry must be a real number, got NoneType",
    "nested-list-in-im": "state entry must be a real number, got list",
    "huge-int-in-mixed-row": "state entry is too large for a float",
}


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(NON_NUMBER_DOCS), ids=list(NON_NUMBER_DOCS))
def test_non_number_state_entry_is_refused(capsys, tmp_path, command, fmt, name):
    path = tmp_path / "state.json"
    path.write_text(NON_NUMBER_DOCS[name])
    code = cli.main([command, "--state", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {NON_NUMBER_ERRORS[name]}\n"


#: State files nested deeper than the JSON parser recurses.
DEEP_DOCS = {
    "deep-array": "[" * 100_000 + "]" * 100_000,
    "deep-re": json.dumps({"dim": 8, "re": None, "im": [0.0] * 8}).replace(
        "null", "[" * 3_000 + "]" * 3_000),
}


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("doc", list(DEEP_DOCS.values()), ids=list(DEEP_DOCS))
def test_deeply_nested_state_file_is_refused(capsys, tmp_path, command, fmt, doc):
    path = tmp_path / "state.json"
    path.write_text(doc)
    code = cli.main([command, "--state", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: malformed state document")


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("state", [qcore.make_ghz(), WHITE_NOISE],
                         ids=["pure", "mixed"])
def test_negative_zero_imaginary_parts_read_as_zero(tmp_path, command, state):
    doc = qcore.state_to_json_dict(state)
    outputs = []
    for sign in (1.0, -1.0):
        doc["im"] = (sign * np.zeros(np.shape(doc["re"]))).tolist()
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--state", str(path), "--out", str(tmp_path / "o")]) == 0
        outputs.append((tmp_path / "o").read_bytes())
    assert "-0.0" in path.read_text()
    assert outputs[0] == outputs[1]


#: All the package raises: a failed self-check, refused input, and the TypeError
#: of qcore.density_entries and mermin.report for an argument of the wrong type.
RAISABLE = {"SelfCheckFailed", "ValueError", "TypeError"}


def _raise(cls):
    def fail(monkeypatch):
        raise cls("something went wrong")
    return fail


def _imaginary_residual(monkeypatch):
    monkeypatch.setattr(qcore, "observable_matrix", lambda obs: 1j * np.eye(8))
    basis_state = qcore.StateVector(np.eye(8, dtype=complex)[0])
    qcore.expectation(basis_state, qcore.Observable.single("XXX"))


def _malformed_table(monkeypatch):
    blocks = {pattern: [1.0] + [0.0] * 7 for pattern in locality.PATTERNS}
    blocks[locality.PATTERNS[0]] = [1.5, -0.5] + [0.0] * 6
    locality.CorrelationTable(blocks)


#: Each case: what fails inside the command, the exit code and the message. The
#: named sites once raised classes of their own; they now raise ValueError
#: (exit 2) or, for the imaginary residual, SelfCheckFailed (exit 1).
BOUNDARY_CASES = {
    "SelfCheckFailed": (_raise(errors.SelfCheckFailed), 1, "something went wrong"),
    "ValueError": (_raise(ValueError), 2, "something went wrong"),
    "OSError": (_raise(OSError), 2, "something went wrong"),
    "ImaginaryResidual": (_imaginary_residual, 1, "imaginary residual 1.0 in expectation"),
    "MalformedTable": (_malformed_table, 2,
                       f"block {locality.PATTERNS[0]!r} has a negative entry"),
    "PointOutsideQuantumRegion": (lambda mp: mermin.report(mermin.MerminPoint(4.0, 1.0)), 2,
                                  "radius^2 = 17.0 exceeds the quantum bound 16"),
    "ToleranceOutOfRange": (lambda mp: locality.hr_constrained_satisfiability(1.0), 2,
                            "tolerance 1.0 outside (0, 0.5)"),
    "VisibilityOutOfRange": (lambda mp: qcore.mix_with_white_noise(qcore.make_ghz(), 1.5), 2,
                             "visibility 1.5 outside [0, 1]"),
    "ToleranceNotANumber": (lambda mp: locality.hr_constrained_satisfiability("0.5"), 2,
                            "tolerance must be a real number, got str"),
    "VisibilityNotANumber": (lambda mp: qcore.mix_with_white_noise(qcore.make_ghz(), True), 2,
                             "visibility must be a real number, got bool"),
}


class TestErrorBoundary:
    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_each_error_class_exits_with_its_code(self, capsys, monkeypatch, case):
        site, status, message = BOUNDARY_CASES[case]
        monkeypatch.setattr(cli, "cmd_threshold", lambda args: site(monkeypatch))
        code = cli.main(["threshold", "--bound", "locality"])
        captured = capsys.readouterr()
        assert code == status
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_every_raise_is_a_known_error(self):
        raised = {}
        for path in Path(ghzlab.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise):
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised[f"{path.name}:{node.lineno}"] = exc and ast.unparse(exc)
        assert raised
        assert {site: name for site, name in raised.items() if name not in RAISABLE} == {}

    @pytest.mark.parametrize("scale", [1 + 1e-7, np.nan], ids=["off-norm", "nan"])
    def test_faulty_witness_exits_1(self, capsys, monkeypatch, scale):
        # A witness is the code's own result: a miss is a failed self-check,
        # not refused input, whatever its norm.
        phased_cat = optimize._phased_cat
        monkeypatch.setattr(optimize, "_phased_cat", lambda amps: scale * phased_cat(amps))
        code = cli.main(["bounds", "--class", "quantum", "--restarts", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: quantum witness ")

    def test_failed_self_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(locality, "_hr_satisfied_count", lambda bars, tol: 0)
        code = cli.main(["contradiction"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


class TestThreshold:
    def test_locality(self, capsys):
        code, out = run(capsys, ["threshold", "--bound", "locality"])
        assert code == 0
        assert json.loads(out)["visibility"] == pytest.approx(0.5, abs=1e-6)

    def test_quantum_locality(self, capsys):
        code, out = run(capsys, ["threshold", "--bound", "quantum_locality"])
        assert code == 0
        assert json.loads(out)["visibility"] == pytest.approx(0.25, abs=1e-6)

    def test_tolerance_flag(self, capsys):
        code, out = run(capsys, ["threshold", "--bound", "locality", "--tol", "1e-3"])
        assert code == 0
        assert json.loads(out)["visibility"] == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_rejects_bad_tolerance(self, capsys, tol):
        code = cli.main(["threshold", "--bound", "locality", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("bound,exact", [("locality", 0.5),
                                             ("quantum_locality", 0.25)])
    def test_tolerance_below_one_ulp(self, capsys, bound, exact):
        code, out = run(capsys, ["threshold", "--bound", bound, "--tol", "1e-20"])
        assert code == 0
        assert json.loads(out)["visibility"] == exact


class TestFigure1:
    def _rows(self, out):
        lines = out.strip().splitlines()
        assert lines[0] == "curve,m,mprime"
        rows = []
        for line in lines[1:]:
            name, m, mp = line.split(",")
            rows.append((name, float(m), float(mp)))
        return rows

    def test_curves_and_scatter_groups(self, capsys):
        code, out = run(capsys, ["figure1", "--samples", "16", "--points", "5"])
        assert code == 0
        rows = self._rows(out)
        names = {name for name, _, _ in rows}
        assert names == {
            "quantum_locality_circle", "locality_square", "realism_square",
            "quantum_circle", "scatter_local", "scatter_quantum_local",
            "scatter_biseparable", "scatter_quantum",
        }

    def test_ghz_point_in_quantum_group(self, capsys):
        code, out = run(capsys, ["figure1", "--samples", "16", "--points", "2"])
        rows = [r for r in self._rows(out) if r[0] == "scatter_quantum"]
        assert any(abs(m - 4.0) < 1e-9 and abs(mp) < 1e-9 for _, m, mp in rows)

    def test_quantum_local_scatter_inside_unit_disc(self, capsys):
        code, out = run(capsys, ["figure1", "--samples", "16", "--points", "40"])
        rows = [r for r in self._rows(out) if r[0] == "scatter_quantum_local"]
        assert rows
        assert all(m * m + mp * mp <= 1.0 + 1e-9 for _, m, mp in rows)

    def test_minimum_samples(self, capsys):
        code, _ = run(capsys, ["figure1", "--samples", "4"])
        assert code == 2

    def test_json_format(self, capsys):
        code, out = run(capsys, ["figure1", "--samples", "8", "--points", "1",
                                 "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert {"curve", "m", "mprime"} <= set(doc[0])


class TestDeterminismAndSeeding:
    COMMANDS = [
        ["verify"],
        ["contradiction"],
        ["contradiction", "--mode", "epr", "--format", "csv"],
        ["bounds", "--class", "local"],
        ["bounds", "--class", "quantum_local", "--restarts", "2", "--seed", "5"],
        ["classify", "--noise", "0.3"],
        ["threshold", "--bound", "locality"],
        ["figure1", "--samples", "16", "--points", "3"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
    def test_byte_identical_reruns(self, argv, tmp_path):
        paths = [tmp_path / "a.out", tmp_path / "b.out"]
        for path in paths:
            assert cli.main(argv + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GHZLAB_SEED", "123")
        _, out = run(capsys, ["bounds", "--class", "quantum_local", "--restarts", "2"])
        assert json.loads(out)["seed"] == 123

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GHZLAB_SEED", "123")
        _, out = run(capsys, ["bounds", "--class", "quantum_local",
                              "--restarts", "2", "--seed", "9"])
        assert json.loads(out)["seed"] == 9

    def test_default_seed_is_42(self, capsys, monkeypatch):
        monkeypatch.delenv("GHZLAB_SEED", raising=False)
        _, out = run(capsys, ["bounds", "--class", "quantum_local", "--restarts", "2"])
        assert json.loads(out)["seed"] == 42

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GHZLAB_SEED", "not-an-int")
        code, _ = run(capsys, ["bounds", "--class", "quantum_local", "--restarts", "2"])
        assert code == 2

    #: Bounds classes whose seed no search reads: the seed rule holds for them too.
    UNSEEDED = {"bounds-local": ["bounds", "--class", "local"],
                "bounds-realistic": ["bounds", "--class", "realistic"]}
    #: Subcommands that take no seed.
    SEEDLESS = {"verify": ["verify"], "contradiction": ["contradiction"],
                "classify": ["classify", "--noise", "0.6"],
                "threshold": ["threshold", "--bound", "locality"]}

    @pytest.mark.parametrize("argv,env", [
        (["bounds", "--class", "quantum", "--seed", "-1"], None),
        (["figure1", "--seed", "-1"], None),
        (["figure1"], "-3"),
    ] + [(argv + ["--seed", "-1"], None) for argv in UNSEEDED.values()]
      + [(argv, "-3") for argv in UNSEEDED.values()],
        ids=["bounds", "figure1", "figure1-env"] + list(UNSEEDED)
        + [f"{name}-env" for name in UNSEEDED])
    def test_negative_seed_is_named(self, capsys, monkeypatch, argv, env):
        if env is None:
            monkeypatch.delenv("GHZLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("GHZLAB_SEED", env)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: seed must be >= 0, got {env or '-1'}\n"

    @pytest.mark.parametrize("argv", SEEDLESS.values(), ids=list(SEEDLESS))
    def test_seed_flag_is_unknown_without_a_seed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            "ghzlab: error: unrecognized arguments: --seed -1"]

    @pytest.mark.parametrize("argv", SEEDLESS.values(), ids=list(SEEDLESS))
    def test_seed_env_is_not_read_without_a_seed(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("GHZLAB_SEED", raising=False)
        unset = (cli.main(argv), capsys.readouterr())
        monkeypatch.setenv("GHZLAB_SEED", "-3")
        assert (cli.main(argv), capsys.readouterr()) == unset
        assert unset[0] == 0


class TestCountFlags:
    FLAGS = [
        ["bounds", "--class", "quantum_local", "--restarts"],
        ["figure1", "--points"],
        ["figure1", "--samples"],
    ]

    @pytest.mark.parametrize("argv", FLAGS, ids=[a[-1] for a in FLAGS])
    @pytest.mark.parametrize("value", ["-1", "0", str(10 ** 12)])
    def test_out_of_range_rejected_before_work(self, capsys, argv, value):
        code = cli.main(argv + [value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


def test_module_entry_point_warns_nothing():
    # python -m ghzlab.cli must not find ghzlab.cli already imported.
    env = dict(os.environ, PYTHONPATH=str(Path(ghzlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ghzlab.cli", "threshold", "--bound", "locality"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["visibility"] == 0.5


def test_scipy_is_never_imported():
    # Membership is plain numpy; a stray scipy import costs every process.
    code = ("import contextlib, io, json, sys\n"
            "import ghzlab.cli\n"
            "def scipy(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "after_import = scipy()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ghzlab.cli.main(['verify'])\n"
            "print(json.dumps([code, after_import, scipy()]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ghzlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0, [], []]


def test_src_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; sympy, say, may be installed but
    # must not reach the package.
    allowed = set(sys.stdlib_module_names) | {"numpy", "ghzlab"}
    imported = {}
    for path in Path(ghzlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported[f"{path.name}:{node.lineno}"] = name.split(".")[0]
    assert "numpy" in imported.values()
    assert {site: name for site, name in imported.items() if name not in allowed} == {}


def test_numbers_are_read_in_one_place():
    # qcore.read_numbers is the package's one number reader: no other module
    # imports numbers, and no code outside it asks numpy for an object array.
    sites = []
    for path in Path(ghzlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        reader = set()
        if path.name == "qcore.py":
            func = next(node for node in tree.body if getattr(node, "name", "") == "read_numbers")
            reader = {id(node) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "qcore.py":
                modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                    alias.name for alias in node.names]
                sites += [f"{path.name}:{node.lineno}: import numbers"
                          for module in modules if module == "numbers"]
            elif isinstance(node, ast.Call) and id(node) not in reader:
                args = node.args + [keyword.value for keyword in node.keywords]
                sites += [f"{path.name}:{node.lineno}: dtype object" for arg in args
                          if isinstance(arg, ast.Name) and arg.id == "object"]
    assert sites == []


def test_kronecker_products_are_built_in_one_place():
    # qcore.tensor is the one Kronecker fold and the one place that multiplies
    # by broadcast outer product: no code names kron, and nothing builds a
    # product by tiling or repeating.
    sites, in_tensor = [], []
    for path in Path(ghzlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        fold = set()
        if path.name == "qcore.py":
            func = next(node for node in tree.body if getattr(node, "name", "") == "tensor")
            fold = {id(node) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "kron" or (getattr(node.value, "id", None) == "np"
                                       and node.attr in ("tile", "repeat")):
                sites.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif node.attr == "outer" and getattr(node.value, "attr", None) == "multiply":
                (in_tensor if id(node) in fold else sites).append(
                    f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert sites == []
    assert len(in_tensor) == 1


def test_output_is_written_in_one_place():
    # Each subcommand returns its payload; cli.main alone renders and writes
    # it, and cli._emit is the one writer to stdout.
    sites = {"_emit": set(), "_render": set(), "stdout": set()}
    for path in Path(ghzlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        # ast.walk is breadth first, so a nested function overwrites its parent.
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            site = f"{path.name}:{owner.get(id(node))}"
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("_emit", "_render"):
                    sites[name].add(site)
                if name == "print" and not any(k.arg == "file" for k in node.keywords):
                    sites["stdout"].add(site)
            elif (isinstance(node, ast.Attribute) and node.attr == "stdout"
                  and getattr(node.value, "id", None) == "sys"):
                sites["stdout"].add(site)
    assert sites == {"_emit": {"cli.py:main"}, "_render": {"cli.py:main"},
                     "stdout": {"cli.py:_emit"}}


def test_class_maxima_leave_through_one_certified_exit():
    # optimize._certify checks every radius maximum's witnesses and builds its
    # result; only the two exact maxima build their own. No witness is read
    # through the input reader StateVector.
    builders, readers = set(), set()
    for path in Path(ghzlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "OptimizationResult":
                    builders.add(f"{path.name}:{owner.get(id(node))}")
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            if path.name == "optimize.py" and "StateVector" in names:
                readers.add(f"{path.name}:{node.lineno}")
    assert builders == {"optimize.py:_certify", "optimize.py:max_local_mermin",
                        "optimize.py:max_realistic_mermin"}
    assert readers == set()


#: Option dests that every subcommand takes and cli.main reads for each alike.
SHARED_DESTS = {"help", "format", "out"}


def _reads_of_args(node) -> set:
    """The attributes that each function or lambda in ``node`` reads off its
    first parameter, the parsed args."""
    reads = set()
    for func in ast.walk(node):
        if isinstance(func, (ast.FunctionDef, ast.Lambda)) and func.args.args:
            args = func.args.args[0].arg
            reads |= {sub.attr for sub in ast.walk(func)
                      if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                      and getattr(sub.value, "id", None) == args}
    return reads


def test_every_flag_is_read_by_its_subcommand():
    # A subcommand takes only the flags that change what it does: each option
    # dest beside the shared ones is read off the parsed args in its cmd_*
    # function or in a module-level table that function dispatches through
    # (bounds' _BOUND_RUNNERS).
    definitions = {}
    for node in ast.parse(Path(cli.__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            definitions[node.name] = node
        elif isinstance(node, ast.Assign):
            definitions.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    unread = {}
    for name, sub in subparsers.choices.items():
        func = definitions[sub.get_default("func").__name__]
        tables = [definitions[node.id] for node in ast.walk(func)
                  if isinstance(node, ast.Name) and isinstance(definitions.get(node.id), ast.Assign)]
        reads = set().union(*map(_reads_of_args, [func, *tables]))
        dests = {action.dest for action in sub._actions if action.option_strings}
        unread[name] = sorted(dests - SHARED_DESTS - reads)
    assert unread == {name: [] for name in subparsers.choices}


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert cli.main(["classify", "--noise", "0.3", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["m"] == pytest.approx(1.2, abs=1e-12)

    def test_csv_uses_12_significant_digits(self, capsys):
        _, out = run(capsys, ["threshold", "--bound", "locality", "--format", "csv"])
        line = [l for l in out.splitlines() if l.startswith("visibility,")][0]
        value = line.split(",")[1]
        assert "," not in value
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12


# --- bounded fuzz of the whole command line ---------------------------------

FUZZ_COMMON_FLAGS = ("--format", "--out")
FUZZ_COMMAND_FLAGS = {
    "verify": ("--state",),
    "contradiction": ("--mode", "--tol"),
    "bounds": ("--class", "--seed", "--restarts"),
    "figure1": ("--samples", "--points", "--seed"),
    "classify": ("--state", "--noise"),
    "threshold": ("--bound", "--tol"),
}
FUZZ_UNKNOWN_FLAGS = ("--bogus", "--trace", "-x")
#: A valid start per command, so that many drawn lines get past argparse.
FUZZ_BASES = {
    "verify": [], "contradiction": [], "bounds": ["--class", "quantum"],
    "figure1": ["--samples", "8", "--points", "2"], "classify": ["--noise", "0.5"],
    "threshold": ["--bound", "locality"],
}
FUZZ_VALUES = ("nan", "inf", "-inf", "-0", "1e308", str(2 ** 63), str(-2 ** 63), "", "abc")
#: Values each flag accepts (count flags: at most 100).
FUZZ_GOOD_VALUES = {
    "--seed": ("0", "7", "-0"), "--restarts": ("1", "3", "100"),
    "--samples": ("8", "16", "100"), "--points": ("1", "5", "100"),
    "--format": ("json", "csv"), "--mode": ("ghz", "epr"),
    "--class": tuple(cli._BOUND_RUNNERS), "--bound": ("locality", "quantum_locality"),
    "--noise": ("0", "0.3", "1", "-0"), "--tol": ("1e-6", "0.5", "1e-20"),
    "--out": ("replaced by the test",),
}
#: State files for --state: valid ones and each kind the reader must refuse.
FUZZ_STATE_DOCS = {
    "ghz": json.dumps(qcore.state_to_json_dict(qcore.make_ghz())),
    "mixed": json.dumps(qcore.state_to_json_dict(WHITE_NOISE)),
    "negative-zero": json.dumps({"dim": 8, "re": _GHZ_RE, "im": [-0.0] * 8}),
    "two-qubit": PAIR_STATE,
    "huge-int": HUGE_INT_STATE,
    "not-json": "{not json",
    **MISSHAPED_DOCS,
    **NON_NUMBER_DOCS,
    **DEEP_DOCS,
    **{f"non-finite-{name}": doc for name, doc in NON_FINITE_DOCS.items()},
}


@st.composite
def fuzz_argv(draw):
    """A command line. The test reads the value after --state as a name in
    FUZZ_STATE_DOCS (or "missing") and replaces the value after --out with a
    path in its temporary directory."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMAND_FLAGS)))
    argv = [command] + (FUZZ_BASES[command] if draw(st.integers(0, 3)) else [])
    flags = FUZZ_COMMAND_FLAGS[command] + FUZZ_COMMON_FLAGS
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)):
        if flag == "--state":
            argv += [flag, draw(st.sampled_from(sorted(FUZZ_STATE_DOCS) + ["missing"]))]
            continue
        kind = draw(st.sampled_from(("good", "good", "int", "adversarial")))
        argv += [flag, draw(st.sampled_from(FUZZ_GOOD_VALUES[flag]) if kind == "good"
                            else st.integers(-2, 100).map(str) if kind == "int"
                            else st.sampled_from(FUZZ_VALUES))]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(FUZZ_UNKNOWN_FLAGS)))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in FUZZ_STATE_DOCS.items():
        (root / f"{name}.json").write_text(doc)
    return root


def _refuse_constant(token):
    raise ValueError(f"non-finite token {token} in JSON output")


@settings(derandomize=True, database=None, max_examples=200,
          deadline=datetime.timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=fuzz_argv())
def test_fuzzed_command_line_ends_cleanly(fuzz_dir, argv):
    out_path = fuzz_dir / "out.txt"
    out_path.unlink(missing_ok=True)
    argv = [str(fuzz_dir / f"{v}.json") if prev == "--state" else
            str(out_path) if prev == "--out" else v
            for prev, v in zip([None] + argv, argv)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
            usage_error = False
        except SystemExit as exc:  # argparse: usage line(s), then the error
            code, usage_error = exc.code, True
    assert code in (0, 1, 2)
    err_lines = stderr.getvalue().splitlines()
    if code != 0:
        assert stdout.getvalue() == ""
        if usage_error:
            assert sum("error:" in line for line in err_lines) == 1
            assert "error:" in err_lines[-1]
        else:
            assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
        return
    assert err_lines == []
    if out_path.exists():
        assert stdout.getvalue() == ""
    text = out_path.read_text() if out_path.exists() else stdout.getvalue()
    assert text.endswith("\n")
    if text.startswith(("{", "[")):
        json.loads(text, parse_constant=_refuse_constant)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] in (["key", "value"], ["curve", "m", "mprime"])
        assert all(len(row) == len(rows[0]) for row in rows)
