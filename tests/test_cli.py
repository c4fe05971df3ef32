import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghzlab
from ghzlab import cli, qcore


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
        qcore.save_state(qcore.maximally_mixed(), path)
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

    def test_missing_state_file(self, capsys, tmp_path):
        code, _ = run(capsys, ["verify", "--state", str(tmp_path / "nope.json")])
        assert code == 2

    def test_two_qubit_state_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        qcore.save_state(qcore.StateVector(np.ones(4) / 2.0), path)
        code = cli.main(["verify", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: expected a three-qubit state, got 2 qubits\n"


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
        qcore.save_state(qcore.make_ghz(), path)
        code, out = run(capsys, ["classify", "--state", str(path)])
        assert code == 0
        assert json.loads(out)["m"] == pytest.approx(4.0, abs=1e-10)

    def test_requires_exactly_one_input(self, capsys, tmp_path):
        code, _ = run(capsys, ["classify"])
        assert code == 2
        path = tmp_path / "ghz.json"
        qcore.save_state(qcore.make_ghz(), path)
        code, _ = run(capsys, ["classify", "--state", str(path), "--noise", "0.5"])
        assert code == 2

    def test_two_qubit_state_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        qcore.save_state(qcore.StateVector(np.ones(4) / 2.0), path)
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


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("doc", [NAN_PURE, NAN_MIXED], ids=["pure", "mixed"])
def test_non_finite_state_file_is_refused(capsys, tmp_path, command, fmt, doc):
    path = tmp_path / "nan.json"
    path.write_text(doc)
    code = cli.main([command, "--state", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "non-finite" in captured.err


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
