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
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ghzlab
from ghzlab import cli, errors, locality, mermin, optimize, qcore

from conftest import WHITE_NOISE

#: A JSON integer beyond float range: a float conversion raises OverflowError.
HUGE_INT_STATE = json.dumps({"dim": 8, "re": [10 ** 400] + [0] * 7, "im": [0] * 8})
#: Least visibility v whose half v/2 is a normal float, so exact.
HALF_NORMAL_LIMIT = 2.0 ** -1021
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

    def test_ghz_values_are_exact_and_residuals_read_the_amplitudes(self, capsys):
        # The eight values come from qcore.ghz_density(), exactly +-1; each eigen residual
        # is make_ghz's, as before.
        doc = json.loads(run(capsys, ["verify"])[1])
        assert [c["value"] for c in doc["checks"]] == [c["expected"] for c in doc["checks"]]
        assert {abs(c["value"]) for c in doc["checks"]} == {1.0}
        for check, (coeff, settings) in zip(doc["checks"], mermin.M_TERMS):
            assert check["residual"] == qcore.eigen_residual(
                qcore.make_ghz(), qcore.Observable.single(settings), coeff)

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

    @pytest.mark.parametrize("model_class", ["local", "realistic"])
    @pytest.mark.parametrize("flag,value", [("--seed", "0"), ("--seed", "42"),
                                            ("--restarts", "1"), ("--restarts", "32")])
    def test_class_without_a_seed_refuses_seed_and_restarts(self, capsys, model_class,
                                                             flag, value):
        # Neither class reads either flag, so a given one, its default too, is refused.
        code = cli.main(["bounds", "--class", model_class, flag, value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {flag} does not apply to --class {model_class}\n"

    @pytest.mark.parametrize("model_class,name,argv", [
        ("local", "max_local_mermin", []), ("realistic", "max_realistic_mermin", []),
        ("quantum_local", "max_quantum_local_radius", ["--seed", "3"]),
        ("biseparable", "max_biseparable_radius", ["--seed", "3"]),
        ("quantum", "max_quantum_radius", ["--seed", "3"])])
    def test_each_class_runs_the_maximizer_optimize_holds_when_called(
            self, capsys, monkeypatch, model_class, name, argv):
        # The table looks each maximizer up at call time, so one rebound on optimize
        # after import (as the benchmark's tracer rebinds them) is the one that runs.
        calls, original = [], getattr(optimize, name)
        monkeypatch.setattr(optimize, name, lambda **given: calls.append(given) or original(**given))
        code, out = run(capsys, ["bounds", "--class", model_class, *argv])
        assert (code, calls) == (0, [{"seed": 3} if argv else {}])
        assert json.loads(out) == original(**calls[0]).to_json_dict()

    @pytest.mark.parametrize("model_class", ["quantum_local", "biseparable", "quantum"])
    def test_seed_changes_each_radius_class(self, capsys, model_class):
        docs = [json.loads(run(capsys, ["bounds", "--class", model_class, "--seed", seed])[1])
                for seed in ("0", "7")]
        assert [docs[0].pop("seed"), docs[1].pop("seed")] == [0, 7]
        assert docs[0] != docs[1]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_printed_quantum_state_is_the_certified_one(seed):
    # For each radius class the printed argmax is, byte for byte, the first witness
    # _certify checked with each signed zero read as 0.0, no entry is -0.0, and it
    # reaches the class's r^2 = 64 |psi_000|^2 |psi_111|^2. For quantum, |000> is
    # SQRT2_INV exactly.
    for model_class in ("quantum_local", "biseparable", "quantum"):
        out = io.StringIO()
        with mock.patch.object(optimize, "_certify", wraps=optimize._certify) as certify, \
                contextlib.redirect_stdout(out):
            assert cli.main(["bounds", "--class", model_class, "--seed", str(seed)]) == 0
        _, value, witnesses = certify.call_args.args[:3]
        doc = json.loads(out.getvalue())
        assert (doc["value"], sorted(doc["argmax"])) == (value, ["state_im", "state_re"])
        re, im = np.array(doc["argmax"]["state_re"]), np.array(doc["argmax"]["state_im"])
        assert re.tobytes() == (witnesses[0].real + 0.0).tobytes(), model_class
        assert im.tobytes() == (witnesses[0].imag + 0.0).tobytes(), model_class
        entries = np.concatenate([re, im])
        assert not np.signbit(entries[entries == 0]).any(), model_class
        psi = re + 1j * im
        assert abs(64 * abs(psi[0]) ** 2 * abs(psi[7]) ** 2 - value) <= qcore.SELF_CHECK_TOL
    # The loop ends at quantum: its state, read as input, is at r^2 = 16 too.
    assert (re[0], im[0]) == (qcore.SQRT2_INV, 0.0)
    point = mermin.evaluate_point(qcore.StateVector(psi))
    assert abs(point.m_value ** 2 + point.mprime_value ** 2 - 16.0) <= qcore.SELF_CHECK_TOL


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

    @staticmethod
    def noisy_ghz_point(visibility: float) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["classify", "--noise", repr(visibility)]) == 0
        doc = json.loads(out.getvalue())
        return doc["m"], doc["mprime"]

    @settings(deadline=None)
    @given(st.floats(0.0, 1.0, allow_subnormal=False).filter(
        lambda v: v == 0.0 or v >= HALF_NORMAL_LIMIT))
    def test_noisy_ghz_is_at_exactly_4v(self, visibility):
        """GHZ is mixed from qcore.ghz_density(), whose coherence 1/2 is exact, so m is
        8 (v/2) = 4v bit for bit and m' is +0.0, wherever v/2 is exact. It is not when v/2
        is subnormal and v's last bit is odd: a subnormal v such as 5e-324 or 1e-310, and
        also the normal v = nextafter(2^-1022, 1). So v is 0 or at least 2^-1021."""
        m, mprime = self.noisy_ghz_point(visibility)
        assert m == 4.0 * visibility
        assert repr(mprime) == "0.0"

    def test_visibilities_below_the_gate_lose_a_bit(self):
        # The boundary the hypothesis test above stays clear of: v/2 rounds.
        for visibility in (5e-324, 1e-310, float(np.nextafter(2.0 ** -1022, 1.0))):
            assert self.noisy_ghz_point(visibility)[0] != 4.0 * visibility

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps(qcore.state_to_json_dict(qcore.make_ghz())))
        code, out = run(capsys, ["classify", "--state", str(path)])
        assert code == 0
        assert json.loads(out)["m"] == pytest.approx(4.0, abs=1e-10)

    def test_requires_exactly_one_input(self, capsys, tmp_path):
        # --state and --noise are a required group of classify's own parser.
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps(qcore.state_to_json_dict(qcore.make_ghz())))
        for argv in (["classify"], ["classify", "--state", str(path), "--noise", "0.5"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, "")
            assert captured.err.splitlines()[-1].startswith("ghzlab classify: error: ")

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


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("command", ["verify", "classify"])
def test_endless_state_file_is_refused(capsys, command):
    # The reader stops one character past the limit instead of reading to EOF.
    code = cli.main([command, "--state", "/dev/zero"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: state file longer than {qcore.MAX_STATE_CHARS} characters\n"


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
        monkeypatch.setattr(optimize, "_phased_cat",
                            lambda qubits, phase: scale * phased_cat(qubits, phase))
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
        # No flag sets the tolerance: the JSON names the one the threshold meets.
        code, out = run(capsys, ["threshold", "--bound", "locality"])
        doc = json.loads(out)
        assert code == 0
        assert doc["tol"] == qcore.DEFAULT_TOL
        assert abs(doc["visibility"] - 0.5) < doc["tol"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_rejects_bad_tolerance(self, capsys, tol):
        # Every tolerance is refused now, the ones the flag once refused too.
        with pytest.raises(SystemExit) as exc:
            cli.main(["threshold", "--bound", "locality", "--tol", tol])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"ghzlab threshold: error: unrecognized arguments: --tol {tol}"]

    @pytest.mark.parametrize("bound,exact", [("locality", 0.5),
                                             ("quantum_locality", 0.25)])
    def test_tolerance_below_one_ulp(self, capsys, bound, exact):
        # The printed threshold is exact, so it meets a tolerance below one ulp.
        code, out = run(capsys, ["threshold", "--bound", bound])
        assert code == 0
        assert json.loads(out)["visibility"] == exact

    @pytest.mark.parametrize("argv", [["contradiction"], ["threshold", "--bound", "locality"]],
                             ids=["contradiction", "threshold"])
    def test_tol_flag_is_unknown(self, capsys, argv):
        # Both results are exact, so no subcommand takes a tolerance.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--tol", "1e-3"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"ghzlab {argv[0]}: error: unrecognized arguments: --tol 1e-3"]


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

    def test_default_seed_is_42(self, capsys, monkeypatch):
        monkeypatch.delenv("GHZLAB_SEED", raising=False)
        _, out = run(capsys, ["bounds", "--class", "quantum_local", "--restarts", "2"])
        assert json.loads(out)["seed"] == 42

    #: Subcommands that take --seed, run without it.
    SEEDED = {"bounds": ["bounds", "--class", "quantum"],
              "figure1": ["figure1", "--samples", "8", "--points", "2"]}

    @pytest.mark.parametrize("env", ["123", "-3", "abc"])
    @pytest.mark.parametrize("argv", SEEDED.values(), ids=list(SEEDED))
    def test_seed_env_is_not_read(self, capsys, monkeypatch, argv, env):
        # --seed is the one way to set the seed: the environment changes nothing.
        monkeypatch.delenv("GHZLAB_SEED", raising=False)
        unset = (cli.main(argv), capsys.readouterr())
        monkeypatch.setenv("GHZLAB_SEED", env)
        assert (cli.main(argv), capsys.readouterr()) == unset
        assert unset[0] == 0

    #: Bounds classes whose seed no search reads: the seed rule holds for them too.
    UNSEEDED = {"bounds-local": ["bounds", "--class", "local"],
                "bounds-realistic": ["bounds", "--class", "realistic"]}
    #: Subcommands that take no seed.
    SEEDLESS = {"verify": ["verify"], "contradiction": ["contradiction"],
                "classify": ["classify", "--noise", "0.6"],
                "threshold": ["threshold", "--bound", "locality"]}

    @pytest.mark.parametrize("argv,env", [
        (["bounds", "--class", "quantum"], None),
        (["figure1"], None),
        (["figure1"], "-3"),
    ] + [(argv, None) for argv in UNSEEDED.values()]
      + [(argv, "-3") for argv in UNSEEDED.values()],
        ids=["bounds", "figure1", "figure1-env"] + list(UNSEEDED)
        + [f"{name}-env" for name in UNSEEDED])
    def test_negative_seed_is_named(self, capsys, monkeypatch, argv, env):
        # An -env case sets GHZLAB_SEED too: the refusal still names --seed's value.
        if env is None:
            monkeypatch.delenv("GHZLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("GHZLAB_SEED", env)
        code = cli.main(argv + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", SEEDLESS.values(), ids=list(SEEDLESS))
    def test_seed_flag_is_unknown_without_a_seed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"ghzlab {argv[0]}: error: unrecognized arguments: --seed -1"]

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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["verify"], ["threshold", "--bound", "locality"]],
                         ids=["verify", "threshold"])
def test_failed_stdout_write_exits_2(argv):
    # Buffered stdout, the default: the write only fills the buffer, so the
    # failure shows at the flush, which must come before the run ends.
    env = dict(os.environ, PYTHONPATH=str(Path(ghzlab.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "ghzlab.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


def test_unbuffered_stdout_whose_reader_leaves_exits_2():
    # Unbuffered, stdout writes through to the raw pipe, which takes what fits
    # before its reader leaves after 1 byte: the rest must fail as it does
    # buffered, not vanish with exit 0. figure1 at 2000 points is about 0.4 MB.
    env = dict(os.environ, PYTHONPATH=str(Path(ghzlab.__file__).parents[1]), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "ghzlab.cli", "figure1", "--points", "2000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    assert (code, proc.stderr.read().decode()) == (2, "error: [Errno 32] Broken pipe\n")
    proc.stderr.close()


class ShortWriter(io.RawIOBase):
    """A raw stream that takes at most 7 bytes per write, as a pipe or a signal may."""

    def __init__(self):
        super().__init__()
        self.taken = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.taken += bytes(data[:7])
        return min(len(data), 7)


def test_a_raw_stdout_that_takes_part_of_each_write_gets_every_byte(capsys, monkeypatch):
    # What python -u gives: a text layer writing through to the raw stream,
    # which drops whatever a write leaves over.
    assert cli.main(["verify"]) == 0
    expected = capsys.readouterr().out
    raw = ShortWriter()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    assert cli.main(["verify"]) == 0
    assert raw.taken.decode() == expected


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


def test_seeded_subcommands_never_load_numpy_random():
    # Every seeded draw comes from random.Random, which numpy itself imports: figure1
    # with and without --seed and the three radius classes run without numpy.random.
    code = ("import contextlib, io, json, sys\n"
            "import ghzlab.cli\n"
            "classes = ('quantum_local', 'biseparable', 'quantum')\n"
            "runs = [['figure1'], ['figure1', '--seed', '3']]\n"
            "runs += [['bounds', '--class', name] for name in classes]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [ghzlab.cli.main(argv) for argv in runs]\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
            "print(json.dumps([codes, loaded]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ghzlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [[0] * 5, []]


def test_only_input_is_eigensolved(tmp_path):
    # GHZ's matrix and its mixtures are certified as built, import included, so none of the
    # nine commands of a cli_light benchmark pass (its drawn flags fixed) calls eigvalsh;
    # a mixed state file keeps every check, eigensolve included.
    light = [["verify"], ["contradiction"], ["contradiction", "--mode", "epr"],
             ["bounds", "--class", "local"], ["bounds", "--class", "realistic"],
             ["classify", "--noise", "0.3"], ["threshold", "--bound", "locality"],
             ["threshold", "--bound", "quantum_locality"], ["figure1", "--seed", "7"]]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(qcore.state_to_json_dict(WHITE_NOISE)))
    runs = light + [[command, "--state", str(path)] for command in ("classify", "verify")]
    code = ("import contextlib, io, json, sys\n"
            "import numpy as np\n"
            "calls, eigvalsh = [], np.linalg.eigvalsh\n"
            "np.linalg.eigvalsh = lambda mat: calls.append(1) or eigvalsh(mat)\n"
            "import ghzlab.cli\n"
            "counts = [len(calls)]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in json.loads(sys.argv[1]):\n"
            "        calls.clear()\n"
            "        counts.append([ghzlab.cli.main(argv), len(calls)])\n"
            "print(json.dumps(counts))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ghzlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0] + [[0, 0]] * len(light) + [[0, 1]] * 2


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
    # qcore.tensor is the one Kronecker fold: the one kron in the package is
    # inside it, and nothing builds a product by broadcast outer product, by
    # tiling or by repeating.
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
            site = f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            if node.attr == "kron":
                (in_tensor if id(node) in fold else sites).append(site)
            elif (getattr(node.value, "id", None) == "np" and node.attr in ("tile", "repeat")
                  or node.attr == "outer" and getattr(node.value, "attr", None) == "multiply"):
                sites.append(site)
    assert sites == []
    assert len(in_tensor) == 1


def test_random_draws_live_in_the_seeded_searches():
    # No module names numpy's sampler, locality draws nothing, and the package's one
    # generator is made in one place: the random.Random call of optimize.seeded_rng.
    # figure1's scatter draws its local bars as uniforms and every quantum factor as
    # complex normals: no cut, and no state built from its factors.
    constructors = ("Random", "SystemRandom", "default_rng", "RandomState", "Generator")
    samplers = ("seeded_rng", "uniforms", "complex_normals", "random")
    numpy_random, in_locality, made, in_scatter = [], [], [], []
    for path in Path(ghzlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] \
                        in constructors:
                    made.append(f"{path.name}:{getattr(top, 'name', '')}: {ast.unparse(node)}")
                if getattr(top, "name", None) == "_scatter_points" and isinstance(node, ast.Call):
                    in_scatter.append(ast.unparse(node.func))
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, (ast.Attribute, ast.Name)):
                    names = [ast.unparse(node)]
                else:
                    continue
                site = f"{path.name}:{node.lineno}: {names}"
                if any("np.random" in name or "numpy.random" in name for name in names):
                    numpy_random.append(site)
                if path.name == "locality.py" and any(
                        name.rpartition(".")[2] in samplers for name in names):
                    in_locality.append(site)
                if isinstance(node, ast.ImportFrom) and any(
                        name.rpartition(".")[2] in constructors for name in names):
                    made.append(site)
    assert numpy_random == []
    assert in_locality == []
    assert made == ["optimize.py:seeded_rng: random.Random(qcore.read_count(seed, 'seed', 0))"]
    assert [name for name in in_scatter if name.rpartition(".")[2] in samplers] == [
        "optimize.seeded_rng", "optimize.uniforms", "optimize.complex_normals"]
    assert [name for name in in_scatter if name.rpartition(".")[2] in (
        "tensor", "kron", "outer", "moveaxis", "StateVector")] == []


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
    # result, its argmax written from the first witness; only the two exact maxima
    # build their own. No witness is read through the input reader StateVector.
    builders, writers, readers = set(), set(), set()
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
                if any(k.arg == "argmax" for k in node.keywords):
                    writers.add(f"{path.name}:{owner.get(id(node))}")
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "argmax" for t in node.targets):
                writers.add(f"{path.name}:{owner.get(id(node))}")
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            if path.name == "optimize.py" and "StateVector" in names:
                readers.add(f"{path.name}:{node.lineno}")
    assert builders == writers == {"optimize.py:_certify", "optimize.py:max_local_mermin",
                                   "optimize.py:max_realistic_mermin"}
    assert readers == set()


#: Option dests that every subcommand takes and cli.main reads for each alike.
SHARED_DESTS = {"help", "format", "out"}


def _subparsers() -> dict:
    """Subcommand name -> its parser in ``cli.build_parser()``."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


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
    unread = {}
    for name, sub in _subparsers().items():
        func = definitions[sub.get_default("func").__name__]
        tables = [definitions[node.id] for node in ast.walk(func)
                  if isinstance(node, ast.Name) and isinstance(definitions.get(node.id), ast.Assign)]
        reads = set().union(*map(_reads_of_args, [func, *tables]))
        dests = {action.dest for action in sub._actions if action.option_strings}
        unread[name] = sorted(dests - SHARED_DESTS - reads)
    assert unread == {name: [] for name in _subparsers()}


#: Per subcommand and option dest beside the shared ones: the other arguments
#: and two accepted values whose outputs differ. A --state value names a
#: FLAG_STATES entry.
FLAG_VALUES = {
    ("verify", "state"): ([], "ghz", "mixed"),
    ("contradiction", "mode"): ([], "ghz", "epr"),
    ("bounds", "model_class"): ([], "local", "quantum"),
    ("bounds", "seed"): (["--class", "quantum"], "0", "7"),
    ("figure1", "seed"): (["--samples", "8", "--points", "2"], "0", "7"),
    ("figure1", "samples"): (["--points", "2"], "8", "16"),
    ("figure1", "points"): (["--samples", "8"], "1", "2"),
    ("classify", "state"): ([], "ghz", "mixed"),
    ("classify", "noise"): ([], "0.3", "0.8"),
    ("threshold", "bound"): ([], "locality", "quantum_locality"),
}
#: Flags that are only echoed, each with the reason it stays.
ECHOED_FLAGS = {
    ("bounds", "restarts"): "acceptance criterion 11 passes it",
}
FLAG_STATES = {"ghz": qcore.make_ghz(), "mixed": WHITE_NOISE}


def _option_flags() -> dict:
    """(subcommand, dest) -> flag for each option beside the shared ones."""
    return {(name, action.dest): action.option_strings[0]
            for name, sub in _subparsers().items() for action in sub._actions
            if action.option_strings and action.dest not in SHARED_DESTS}


def test_flag_table_names_every_flag():
    assert list(ECHOED_FLAGS) == [("bounds", "restarts")]
    assert set(FLAG_VALUES).isdisjoint(ECHOED_FLAGS)
    assert set(FLAG_VALUES) | set(ECHOED_FLAGS) == set(_option_flags())


@pytest.mark.parametrize("command,dest", FLAG_VALUES, ids=[" ".join(k) for k in FLAG_VALUES])
def test_each_flag_changes_the_output(capsys, tmp_path, command, dest):
    # The echo of a value is no change: a JSON key named after the dest is dropped.
    base, *values = FLAG_VALUES[command, dest]
    flag = _option_flags()[command, dest]
    outputs = []
    for value in values:
        if dest == "state":
            path = tmp_path / f"{value}.json"
            path.write_text(json.dumps(qcore.state_to_json_dict(FLAG_STATES[value])))
            value = str(path)
        code, out = run(capsys, [command, *base, flag, value])
        assert code == 0
        if out.startswith("{"):
            out = json.loads(out)
            out.pop(dest, None)
        outputs.append(out)
    assert outputs[0] != outputs[1]


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
    "contradiction": ("--mode",),
    "bounds": ("--class", "--seed", "--restarts"),
    "figure1": ("--samples", "--points", "--seed"),
    "classify": ("--state", "--noise"),
    "threshold": ("--bound",),
}
FUZZ_UNKNOWN_FLAGS = ("--bogus", "--trace", "--tol", "-x")
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
    "--noise": ("0", "0.3", "1", "-0"),
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


@pytest.mark.parametrize("name", _subparsers())
def test_unknown_flag_prints_its_subcommands_usage(capsys, name):
    # Past a valid start, the one fault is the unknown flag: the subcommand's
    # own parser refuses it, with that subcommand's usage line.
    with pytest.raises(SystemExit) as exc:
        cli.main([name, *FUZZ_BASES[name], "--bogus", "1"])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert (exc.value.code, captured.out) == (2, "")
    assert lines[0].startswith(f"usage: ghzlab {name} ")
    assert lines[-1] == f"ghzlab {name}: error: unrecognized arguments: --bogus 1"
