import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghzlab import qcore
from ghzlab.errors import VisibilityOutOfRange
from ghzlab.qcore import Observable, StateVector, DensityMatrix

from conftest import random_pure_state


def obs(settings, coeff=1.0):
    return Observable.single(settings, coeff)


class TestGhzConstruction:
    def test_amplitudes(self):
        ghz = qcore.make_ghz()
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(ghz.amplitudes, expected, atol=1e-15)

    def test_norm(self):
        ghz = qcore.make_ghz()
        assert abs(np.linalg.norm(ghz.amplitudes) - 1.0) < 1e-12

    def test_zz_alignment(self):
        # Both branches have the first two spins aligned.
        assert qcore.expectation(qcore.make_ghz(), obs("ZZI")) == pytest.approx(1.0, abs=1e-12)


class TestObservableMatrix:
    def test_xxx_antidiagonal(self):
        mat = qcore.observable_matrix(obs("XXX"))
        np.testing.assert_allclose(mat, np.fliplr(np.eye(8)), atol=1e-15)

    def test_xyy_hermitian_involution(self):
        mat = qcore.observable_matrix(obs("XYY"))
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-15)
        np.testing.assert_allclose(mat @ mat, np.eye(8), atol=1e-15)

    def test_negated_coefficient(self):
        np.testing.assert_allclose(
            qcore.observable_matrix(obs("XXX", -1.0)),
            -qcore.observable_matrix(obs("XXX")),
            atol=1e-15,
        )

    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError):
            Observable.single("XQZ")


class TestExpectation:
    @pytest.mark.parametrize("settings,value", [
        ("XXX", +1.0), ("XYY", -1.0), ("YXY", -1.0), ("YYX", -1.0),
    ])
    def test_ghz_perfect_correlations(self, settings, value):
        assert qcore.expectation(qcore.make_ghz(), obs(settings)) == pytest.approx(value, abs=1e-12)

    def test_maximally_mixed_traceless(self):
        assert qcore.expectation(qcore.maximally_mixed(), obs("XXX")) == pytest.approx(0.0, abs=1e-12)

    def test_linearity_in_coefficients(self, rng):
        state = random_pure_state(rng)
        a = qcore.expectation(state, obs("XYY"))
        b = qcore.expectation(state, obs("YXY"))
        combined = Observable(((2.0, "XYY"), (-3.0, "YXY")))
        assert qcore.expectation(state, combined) == pytest.approx(2 * a - 3 * b, abs=1e-12)

    def test_linearity_in_mixing_weight(self, rng):
        state = random_pure_state(rng)
        observable = obs("XYY")
        pure = qcore.expectation(state, observable)
        for v in (0.0, 0.3, 0.7, 1.0):
            mixed = qcore.mix_with_white_noise(state, v)
            assert qcore.expectation(mixed, observable) == pytest.approx(v * pure, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qcore.expectation(qcore.make_ghz(), obs("XX"))


class TestEigencheck:
    @pytest.mark.parametrize("settings,eigenvalue", [
        ("XXX", +1.0), ("XYY", -1.0), ("YXY", -1.0), ("YYX", -1.0),
    ])
    def test_ghz_eigenvalue_equations(self, settings, eigenvalue):
        ghz = qcore.make_ghz()
        assert qcore.eigencheck(ghz, obs(settings), eigenvalue)
        assert not qcore.eigencheck(ghz, obs(settings), -eigenvalue)

    def test_residual_scale(self):
        ghz = qcore.make_ghz()
        assert qcore.eigen_residual(ghz, obs("XXX"), 1.0) < 1e-12
        assert qcore.eigen_residual(ghz, obs("XXX"), -1.0) == pytest.approx(2.0, abs=1e-12)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("imaginary", [False, True])
    def test_state_vector(self, bad, imaginary):
        amps = qcore.make_ghz().amplitudes.copy()
        amps[3] = complex(0.0, bad) if imaginary else complex(bad, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            StateVector(amps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [(0, 0), (2, 5)])
    def test_density_matrix(self, bad, index):
        rho = qcore.maximally_mixed().entries.copy()
        rho[index] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(rho)


class TestAmplitudeTable:
    def test_ghz_xxx_closed_form(self):
        table = qcore.amplitude_table(qcore.make_ghz(), "xxx")
        for (i, j, k), amp in table.entries.items():
            assert amp == pytest.approx((1 + i * j * k) / 4.0, abs=1e-12)

    def test_ghz_xyy_support(self):
        table = qcore.amplitude_table(qcore.make_ghz(), "xyy")
        for (i, j, k), amp in table.entries.items():
            expected = 0.25 if i * j * k == -1 else 0.0
            assert abs(amp) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_completeness_all_patterns(self, rng):
        for _ in range(20):
            state = random_pure_state(rng)
            for pattern in qcore.PATTERNS:
                table = qcore.amplitude_table(state, pattern)
                total = sum(abs(a) ** 2 for a in table.entries.values())
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_brute_force_inner_product_oracle(self, rng):
        # Oracle: eigenvectors rebuilt with numpy's eigensolver, phases
        # refit to the package convention (first component real positive),
        # then raw inner products against the state.
        def oracle_eigvec(setting, outcome):
            mat = qcore.PAULI["X" if setting == "x" else "Y"]
            vals, vecs = np.linalg.eigh(mat)
            col = vecs[:, int(np.argmin(np.abs(vals - outcome)))]
            return col * (abs(col[0]) / col[0])

        for _ in range(100):
            state = random_pure_state(rng)
            for pattern in qcore.PATTERNS:
                table = qcore.amplitude_table(state, pattern)
                for outcomes in itertools.product((+1, -1), repeat=3):
                    vec = np.array([1.0 + 0j])
                    for setting, outcome in zip(pattern, outcomes):
                        vec = np.kron(vec, oracle_eigvec(setting, outcome))
                    expected = np.vdot(vec, state.amplitudes)
                    assert abs(table.entries[outcomes] - expected) < 1e-12


class TestSignedSums:
    def test_ghz_signed_sums(self):
        ghz = qcore.make_ghz()
        expected = (+1.0, -1.0, -1.0, -1.0)
        for pattern, value in zip(qcore.PATTERNS, expected):
            table = qcore.amplitude_table(ghz, pattern)
            assert qcore.signed_probability_sum(table) == pytest.approx(value, abs=1e-12)

    def test_signed_probability_sum_matches_the_outcome_loop(self, rng):
        for _ in range(50):
            state = random_pure_state(rng)
            for settings in ("xxx", "xyy", "yyy"):
                table = qcore.amplitude_table(state, settings)
                reference = sum(np.prod(out) * abs(amp) ** 2 for out, amp in table.entries.items())
                assert abs(qcore.signed_probability_sum(table) - reference) <= 8 * np.finfo(float).eps

    def test_maximally_mixed_cancels(self):
        for pattern in qcore.PATTERNS:
            value = qcore.signed_sum_for_state(qcore.maximally_mixed(), pattern)
            assert value == pytest.approx(0.0, abs=1e-12)


class TestOutcomeProbabilities:
    SETTINGS = ["".join(s) for s in itertools.product("xy", repeat=3)]

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)
        .filter(lambda raw: np.linalg.norm(raw) > 1e-3),
        st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_one_path_for_pure_and_mixed(self, raw, visibility):
        amps = np.asarray(raw[0::2]) + 1j * np.asarray(raw[1::2])
        pure = StateVector(amps / np.linalg.norm(amps))
        state = pure if visibility is None else qcore.mix_with_white_noise(pure, visibility)
        for settings in self.SETTINGS:
            probs = qcore.outcome_probabilities(state, settings)
            assert probs.shape == (8,)
            assert probs.min() >= -1e-12
            assert abs(probs.sum() - 1.0) <= 1e-12
            if visibility is None:
                table = qcore.amplitude_table(pure, settings)
                expected = [abs(table.entries[out]) ** 2 for out in qcore.OUTCOMES]
                assert np.max(np.abs(probs - expected)) <= 1e-12
            reference = qcore.expectation(state, obs(settings.upper()))
            assert abs(qcore.signed_sum_for_state(state, settings) - reference) <= 1e-12

    BELL = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))

    @pytest.mark.parametrize("state", [BELL, qcore.mix_with_white_noise(BELL, 1.0)],
                             ids=["pure", "mixed"])
    def test_settings_must_match_qubit_count(self, state):
        with pytest.raises(ValueError, match="one setting per qubit"):
            qcore.signed_sum_for_state(state, "xxy")

    def test_density_entries(self):
        ghz = qcore.make_ghz()
        np.testing.assert_array_equal(
            qcore.density_entries(ghz), np.outer(ghz.amplitudes, ghz.amplitudes.conj()))
        rho = qcore.maximally_mixed()
        assert qcore.density_entries(rho) is rho.entries
        with pytest.raises(TypeError):
            qcore.density_entries(ghz.amplitudes)


class TestWhiteNoise:
    def test_pure_limit(self):
        ghz = qcore.make_ghz()
        rho = qcore.mix_with_white_noise(ghz, 1.0)
        np.testing.assert_allclose(
            rho.entries, np.outer(ghz.amplitudes, ghz.amplitudes.conj()), atol=1e-15)

    def test_noise_limit(self):
        rho = qcore.mix_with_white_noise(qcore.make_ghz(), 0.0)
        np.testing.assert_allclose(rho.entries, np.eye(8) / 8.0, atol=1e-15)

    def test_half_visibility_mermin_value(self):
        from ghzlab import mermin
        rho = qcore.mix_with_white_noise(qcore.make_ghz(), 0.5)
        assert qcore.expectation(rho, mermin.make_mermin_pair().m) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("v", [-0.1, 1.1, 2.0])
    def test_visibility_range(self, v):
        with pytest.raises(VisibilityOutOfRange):
            qcore.mix_with_white_noise(qcore.make_ghz(), v)


class TestValidation:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(8))

    def test_non_hermitian_density_rejected(self):
        mat = np.eye(8, dtype=complex) / 8.0
        mat[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix(mat)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(8, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        mat = np.zeros((8, 8), dtype=complex)
        mat[0, 0] = 1.5
        mat[1, 1] = -0.5
        with pytest.raises(ValueError):
            DensityMatrix(mat)


class TestStateFiles:
    def test_pure_roundtrip(self, rng, tmp_path):
        state = random_pure_state(rng)
        path = tmp_path / "state.json"
        qcore.save_state(state, path)
        loaded = qcore.load_state(path)
        assert isinstance(loaded, StateVector)
        np.testing.assert_allclose(loaded.amplitudes, state.amplitudes, atol=1e-15)

    def test_density_roundtrip(self, tmp_path):
        rho = qcore.mix_with_white_noise(qcore.make_ghz(), 0.3)
        path = tmp_path / "rho.json"
        qcore.save_state(rho, path)
        loaded = qcore.load_state(path)
        assert isinstance(loaded, DensityMatrix)
        np.testing.assert_allclose(loaded.entries, rho.entries, atol=1e-15)

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "state.json"
        qcore.save_state(qcore.make_ghz(), path)
        doc = json.loads(path.read_text())
        assert doc["dim"] == 8
        assert len(doc["re"]) == 8 and len(doc["im"]) == 8

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 8, "re": [1, 2]}')
        with pytest.raises(ValueError):
            qcore.load_state(path)
