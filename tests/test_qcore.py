import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghzlab import mermin, optimize, qcore
from ghzlab.errors import SelfCheckFailed
from ghzlab.qcore import Observable, StateVector, DensityMatrix

from conftest import (BAD_ENTRIES, BAD_REAL_ENTRIES, BAD_SCALARS, WHITE_NOISE, random_pure_state,
                      refusal)


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


def same_bits(result, reference) -> bool:
    """Equal shape, dtype and bytes, so signed zeros count too."""
    reference = np.asarray(reference)
    return (result.shape == reference.shape and result.dtype == reference.dtype
            and result.tobytes() == reference.tobytes())


#: Finite entries, signed zeros among them, whose products stay in float range.
FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


@st.composite
def kron_factors(draw) -> list:
    """2 or 3 factors, all 2x2 or all of length 2, each real or complex."""
    shape = draw(st.sampled_from([(2, 2), (2,)]))
    size = int(np.prod(shape))
    factors = []
    for _ in range(draw(st.integers(2, 3))):
        re = draw(st.lists(FINITE, min_size=size, max_size=size))
        if draw(st.booleans()):
            im = draw(st.lists(FINITE, min_size=size, max_size=size))
            re = [complex(x, y) for x, y in zip(re, im)]  # keeps each signed zero
        factors.append(np.array(re).reshape(shape))
    return factors


class TestTensor:
    """``tensor`` drops the 1x1 identity seed of the folds it replaced; a
    Kronecker product with a one is exact, so every product is unchanged.
    Each fold is the one multiply ``np.kron`` makes, so the bits are its bits."""

    @given(kron_factors())
    def test_matches_np_kron(self, factors):
        assert same_bits(qcore.tensor(factors), functools.reduce(np.kron, factors))

    @pytest.mark.parametrize("settings", ["".join(s) for s in itertools.product("xy", repeat=3)])
    def test_basis_change(self, settings):
        reference = functools.reduce(np.kron, [qcore.EIGENBASES[ch] for ch in settings],
                                     np.ones((1, 1)))
        assert same_bits(qcore.basis_change(settings), reference)

    @staticmethod
    def seeded_observable_matrix(terms) -> np.ndarray:
        total = np.zeros((8, 8), dtype=complex)
        for coeff, settings in terms:
            term = np.array([[1.0 + 0j]])
            for ch in settings:
                term = np.kron(term, qcore.PAULI[ch])
            total += coeff * term
        return total

    def test_observable_matrix(self):
        triples = ["".join(s) for s in itertools.product("IXYZ", repeat=3)]
        cases = [((coeff, s),) for s in triples for coeff in (1.0, -1.0, 0.5)]
        cases += [mermin.M_TERMS, mermin.MPRIME_TERMS, tuple((1.0, s) for s in triples)]
        for terms in cases:
            matrix = qcore.observable_matrix(Observable(terms))
            assert same_bits(matrix, self.seeded_observable_matrix(terms)), terms

    def test_product_state(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            params = optimize.random_bloch_angles(rng, 3)
            reference = np.array([1.0 + 0j])
            for theta, phi in params.reshape(3, 2):
                reference = np.kron(reference, optimize._bloch_qubit(theta, phi))
            assert same_bits(optimize.product_state(params), reference)

    def test_biseparable_state(self):
        # The single qubit times the pair, moved to the cut, as one broadcast multiply.
        rng = np.random.default_rng(11)
        for _ in range(200):
            cut = int(rng.integers(0, 3))
            params = np.concatenate([optimize.random_bloch_angles(rng, 1), rng.standard_normal(8)])
            single = optimize._bloch_qubit(params[0], params[1])
            pair = (params[2:10:2] + 1j * params[3:10:2]).reshape(2, 2)
            pair = pair / np.linalg.norm(pair)
            reference = np.moveaxis(np.multiply.outer(single, pair), 0, cut).reshape(8)
            assert same_bits(optimize.biseparable_state(cut, params), reference)

    def test_quarter_turns(self):
        assert same_bits(optimize.QUBIT3_TURN, np.tile([1, 1j], 4))
        assert same_bits(optimize.PAIR_TURN, np.repeat([1, 1j], 2))


class TestExpectation:
    @pytest.mark.parametrize("settings,value", [
        ("XXX", +1.0), ("XYY", -1.0), ("YXY", -1.0), ("YYX", -1.0),
    ])
    def test_ghz_perfect_correlations(self, settings, value):
        assert qcore.expectation(qcore.make_ghz(), obs(settings)) == pytest.approx(value, abs=1e-12)

    def test_maximally_mixed_traceless(self):
        assert qcore.expectation(WHITE_NOISE, obs("XXX")) == pytest.approx(0.0, abs=1e-12)

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

    def test_hermitian_slack_scales_with_the_coefficients(self):
        # Imaginary off-diagonals of 0.49e-12 pass the 1e-12 Hermitian check
        # and leave 3.92e-12 per unit coefficient: 3.92e-10 at coefficient 100.
        # A zero coefficient leaves exactly 0, which its bound of 0 must pass.
        ghz = qcore.mix_with_white_noise(qcore.make_ghz(), 0.5).entries
        slack = DensityMatrix(ghz + 1j * 0.49e-12 * (np.ones((8, 8)) - np.eye(8)))
        assert qcore.expectation(slack, obs("XXX", 100.0)) == pytest.approx(50.0, abs=1e-9)
        assert qcore.expectation(slack, obs("XXX", 0.0)) == 0.0

    def test_imaginary_residual_is_a_failed_self_check(self, monkeypatch):
        # A validated state and a real-coefficient Pauli sum cannot leave 1e-10;
        # only a corrupt observable_matrix can, here the anti-Hermitian i*I.
        monkeypatch.setattr(qcore, "observable_matrix", lambda obs: 1j * np.eye(8))
        with pytest.raises(SelfCheckFailed, match=r"^imaginary residual [\d.]+ in expectation$"):
            qcore.expectation(qcore.make_ghz(), obs("XXX"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^expected three Pauli settings, got 'XX'$"):
            qcore.expectation(qcore.make_ghz(), obs("XX"))

    def test_four_settings_rejected(self):
        with pytest.raises(ValueError, match="^expected three Pauli settings, got 'XXXX'$"):
            Observable(((1.0, "XXX"), (1.0, "XXXX")))
        with pytest.raises(ValueError, match="^expected three Pauli settings, got 5$"):
            Observable(((1.0, 5),))

    def test_empty_observable_rejected(self):
        with pytest.raises(ValueError, match="^an observable needs at least one term$"):
            Observable(())


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
        with pytest.raises(ValueError, match="^amplitude is non-finite$"):
            StateVector(amps)

    @pytest.mark.parametrize("bad,message", BAD_ENTRIES)
    def test_amplitude_entry(self, bad, message):
        amps = qcore.make_ghz().amplitudes.tolist()
        amps[3] = bad
        with pytest.raises(ValueError, match=refusal(message, "amplitude", "a complex number")):
            StateVector(amps)

    @pytest.mark.parametrize("bad,message", BAD_ENTRIES)
    @pytest.mark.parametrize("index", [(0, 0), (2, 5)])
    def test_density_matrix(self, bad, message, index):
        # A non-finite float goes into an ndarray, which the reader takes whole.
        rho = WHITE_NOISE.entries.copy() if isinstance(bad, float) else WHITE_NOISE.entries.tolist()
        rho[index[0]][index[1]] = bad
        with pytest.raises(ValueError, match=refusal(message, "density matrix entry",
                                                     "a complex number")):
            DensityMatrix(rho)

    @pytest.mark.parametrize("bad,message", BAD_REAL_ENTRIES)
    def test_coefficient(self, bad, message):
        with pytest.raises(ValueError, match=refusal(message, "coefficient")):
            Observable(((bad, "XXX"), (1.0, "YYY")))

    @pytest.mark.parametrize("bad,message", BAD_SCALARS)
    def test_visibility(self, bad, message):
        with pytest.raises(ValueError, match=refusal(message, "visibility")):
            qcore.mix_with_white_noise(qcore.make_ghz(), bad)

    @pytest.mark.parametrize("bad,message", BAD_REAL_ENTRIES)
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_state_file_entry(self, bad, message, part):
        doc = qcore.state_to_json_dict(qcore.make_ghz())
        doc[part][3] = bad
        with pytest.raises(ValueError, match=refusal(message, "state entry")):
            qcore.state_from_json_dict(doc)


def _nest(flat, shape):
    """``flat`` laid out as nested lists of ``shape`` (a scalar for shape [])."""
    if not shape:
        return flat[0]
    step = len(flat) // shape[0] if shape[0] else 0
    return [_nest(flat[n * step:(n + 1) * step], shape[1:]) for n in range(shape[0])]


#: Finite floats and ints a float holds: what the real reader takes.
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2 ** 1023, 2 ** 1023))
#: Leaves the real reader refuses; a leaf [x] beside other leaves is ragged too.
NON_NUMBERS = st.one_of(
    st.text(max_size=3), st.binary(max_size=3), st.booleans(), st.just(np.True_),
    st.none(), st.integers(2 ** 1024, 2 ** 1100), st.sampled_from([np.nan, np.inf, -np.inf]),
    st.complex_numbers(allow_nan=False, allow_infinity=False))


class TestReadNumbers:
    @pytest.mark.parametrize("values,name", [
        (np.array([True, False]), "bool"), (np.array([0.5 + 0j]), "complex"),
        (np.array(["0.5"]), "str"), (np.array([0.5], dtype=object), None),
    ], ids=["bool", "complex", "str", "object"])
    def test_only_arrays_numpy_casts_safely_pass_whole(self, values, name):
        if name is None:
            assert qcore.read_numbers(values, "entry").tolist() == [0.5]
        else:
            with pytest.raises(ValueError, match=f"^entry must be a real number, got {name}$"):
                qcore.read_numbers(values, "entry")

    @given(st.lists(st.integers(0, 3), max_size=3), st.data())
    def test_numbers_read_as_numpy_reads_them(self, shape, data):
        size = int(np.prod(shape))
        values = _nest(data.draw(st.lists(NUMBERS, min_size=size, max_size=size)), shape)
        if data.draw(st.booleans()):
            values = np.array(values)
        arr = qcore.read_numbers(values, "entry")
        assert arr.dtype == float and not arr.flags.writeable
        assert np.array_equal(arr, np.array(values, dtype=float))

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
    def test_anything_else_is_a_one_line_value_error(self, shape, data):
        size = int(np.prod(shape))
        flat = data.draw(st.lists(NUMBERS, min_size=size, max_size=size))
        if len(shape) > 1 and shape[-2] > 1 and data.draw(st.booleans()):
            values = _nest(flat, shape)
            inner = values
            for _ in shape[:-1]:
                inner = inner[data.draw(st.integers(0, len(inner) - 1))]
            inner.append(0.5)  # one row longer than the others: ragged
        else:
            bad = NON_NUMBERS | NUMBERS.map(lambda x: [x]) if size > 1 else NON_NUMBERS
            flat[data.draw(st.integers(0, size - 1))] = data.draw(bad)
            values = _nest(flat, shape)
        with pytest.raises(ValueError) as info:
            qcore.read_numbers(values, "entry")
        assert "\n" not in str(info.value)


class TestReadCount:
    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.uint8(7), 2 ** 70])
    def test_integers_from_the_minimum_up_are_read_as_python_ints(self, value):
        count = qcore.read_count(value, "seed", 0)
        assert type(count) is int and count == value

    @pytest.mark.parametrize("value,message", [
        (-1, "seed must be >= 0, got -1"),
        (np.int64(-3), "seed must be >= 0, got -3"),
        (1.5, "seed must be an integer, got float"),
        (7.0, "seed must be an integer, got float"),
        (True, "seed must be an integer, got bool"),
        (np.True_, "seed must be an integer, got bool"),
        ("7", "seed must be an integer, got str"),
        (None, "seed must be an integer, got NoneType"),
    ], ids=["negative", "numpy-negative", "float", "integral-float", "bool", "numpy-bool",
            "str", "none"])
    def test_anything_else_is_refused(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            qcore.read_count(value, "seed", 0)


class TestAmplitudeTable:
    def test_ghz_xxx_closed_form(self):
        table = qcore.amplitude_table(qcore.make_ghz(), "xxx")
        assert table.shape == (8,)
        for (i, j, k), amp in zip(qcore.OUTCOMES, table):
            assert amp == pytest.approx((1 + i * j * k) / 4.0, abs=1e-12)

    def test_ghz_xyy_support(self):
        table = qcore.amplitude_table(qcore.make_ghz(), "xyy")
        for (i, j, k), amp in zip(qcore.OUTCOMES, table):
            expected = 0.25 if i * j * k == -1 else 0.0
            assert abs(amp) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_completeness_all_patterns(self, rng):
        for _ in range(20):
            state = random_pure_state(rng)
            for pattern in qcore.PATTERNS:
                table = qcore.amplitude_table(state, pattern)
                total = sum(abs(a) ** 2 for a in table)
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
                for outcomes, amp in zip(itertools.product((+1, -1), repeat=3), table):
                    vec = np.array([1.0 + 0j])
                    for setting, outcome in zip(pattern, outcomes):
                        vec = np.kron(vec, oracle_eigvec(setting, outcome))
                    expected = np.vdot(vec, state.amplitudes)
                    assert abs(amp - expected) < 1e-12


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
                reference = sum(np.prod(out) * abs(amp) ** 2
                                for out, amp in zip(qcore.OUTCOMES, table))
                assert abs(qcore.signed_probability_sum(table) - reference) <= 8 * np.finfo(float).eps

    def test_maximally_mixed_cancels(self):
        for pattern in qcore.PATTERNS:
            value = qcore.signed_sum_for_state(WHITE_NOISE, pattern)
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
                expected = np.abs(table) ** 2
                assert np.max(np.abs(probs - expected)) <= 1e-12
            reference = qcore.expectation(state, obs(settings.upper()))
            assert abs(qcore.signed_sum_for_state(state, settings) - reference) <= 1e-12

    @pytest.mark.parametrize("state", [qcore.make_ghz(), WHITE_NOISE],
                             ids=["pure", "mixed"])
    def test_settings_must_match_qubit_count(self, state):
        for settings in ("xy", "xyxy", ["x", "x", "x"], None):
            with pytest.raises(ValueError, match="^one setting per qubit"):
                qcore.signed_sum_for_state(state, settings)
        with pytest.raises(ValueError, match=r"^one setting per qubit required \(x or y\): None$"):
            qcore.basis_change(None)

    def test_density_entries(self):
        ghz = qcore.make_ghz()
        np.testing.assert_array_equal(
            qcore.density_entries(ghz), np.outer(ghz.amplitudes, ghz.amplitudes.conj()))
        rho = WHITE_NOISE
        assert qcore.density_entries(rho) is rho.entries
        with pytest.raises(TypeError):
            qcore.density_entries(ghz.amplitudes)

    @pytest.mark.parametrize("call,expected", [
        (lambda: qcore.amplitude_table(WHITE_NOISE, "xxx"), "StateVector"),
        (lambda: qcore.eigen_residual(WHITE_NOISE, obs("XXX"), 1.0), "StateVector"),
        (lambda: qcore.eigencheck(WHITE_NOISE, obs("XXX"), 1.0), "StateVector"),
        (lambda: qcore.expectation(qcore.make_ghz(), "XXX"), "Observable"),
        (lambda: qcore.eigen_residual(qcore.make_ghz(), "XXX", 1.0), "Observable"),
        (lambda: qcore.observable_matrix(None), "Observable"),
    ], ids=["amplitude-table", "eigen-residual", "eigencheck", "expectation",
            "eigen-residual-observable", "observable-matrix"])
    def test_a_value_of_the_wrong_kind_is_a_type_error(self, call, expected):
        # A mixed state has no amplitudes, and a string is not an observable.
        with pytest.raises(TypeError, match=rf"^expected {expected}, got <class '[\w.]+'>$"):
            call()


class TestWhiteNoise:
    def test_pure_limit(self):
        ghz = qcore.make_ghz()
        rho = qcore.mix_with_white_noise(ghz, 1.0)
        np.testing.assert_allclose(
            rho.entries, np.outer(ghz.amplitudes, ghz.amplitudes.conj()), atol=1e-15)

    def test_noise_limit(self):
        rho = qcore.mix_with_white_noise(qcore.make_ghz(), 0.0)
        assert np.array_equal(rho.entries, np.eye(8) / 8.0)

    def test_half_visibility_mermin_value(self):
        from ghzlab import mermin
        rho = qcore.mix_with_white_noise(qcore.make_ghz(), 0.5)
        m = Observable(mermin.M_TERMS)
        assert qcore.expectation(rho, m) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("v", [-0.1, 1.1, 2.0, 2])
    def test_visibility_range(self, v):
        with pytest.raises(ValueError, match=rf"^visibility {float(v)!r} outside \[0, 1\]$"):
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
        # The second is GHZ's coherence raised by 0.9e-10, past READ_SLACK: its
        # point would lie past the quantum bound.
        for entries in ({(0, 0): 1.5, (1, 1): -0.5},
                        {(0, 0): 0.5, (7, 7): 0.5, (0, 7): 0.5 + 0.9e-10, (7, 0): 0.5 + 0.9e-10}):
            mat = np.zeros((8, 8), dtype=complex)
            for index, value in entries.items():
                mat[index] = value
            with pytest.raises(ValueError, match="^density matrix has a negative eigenvalue$"):
                DensityMatrix(mat)


class TestStateFiles:
    def test_pure_roundtrip(self, rng, tmp_path):
        state = random_pure_state(rng)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(qcore.state_to_json_dict(state)))
        loaded = qcore.load_state(path)
        assert isinstance(loaded, StateVector)
        np.testing.assert_allclose(loaded.amplitudes, state.amplitudes, atol=1e-15)

    def test_density_roundtrip(self, tmp_path):
        rho = qcore.mix_with_white_noise(qcore.make_ghz(), 0.3)
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(qcore.state_to_json_dict(rho)))
        loaded = qcore.load_state(path)
        assert isinstance(loaded, DensityMatrix)
        np.testing.assert_allclose(loaded.entries, rho.entries, atol=1e-15)

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(qcore.state_to_json_dict(qcore.make_ghz())))
        doc = json.loads(path.read_text())
        assert doc["dim"] == 8
        assert len(doc["re"]) == 8 and len(doc["im"]) == 8

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 8, "re": [1, 2]}')
        with pytest.raises(ValueError):
            qcore.load_state(path)

    @pytest.mark.parametrize("dim", [8.7, "8", True, None, float("nan")])
    def test_dim_must_be_the_number_of_amplitudes(self, dim):
        doc = qcore.state_to_json_dict(qcore.make_ghz())
        doc["dim"] = dim
        with pytest.raises(ValueError, match="state arrays have shape"):
            qcore.state_from_json_dict(doc)

    def test_integral_float_dim_is_accepted(self):
        doc = qcore.state_to_json_dict(qcore.make_ghz())
        doc["dim"] = 8.0
        assert isinstance(qcore.state_from_json_dict(doc), StateVector)

    @pytest.mark.parametrize("im", [0.0, np.zeros((8, 8)).tolist(), [0.0] * 7])
    def test_re_and_im_must_share_a_shape(self, im):
        doc = qcore.state_to_json_dict(qcore.make_ghz())
        doc["im"] = im
        with pytest.raises(ValueError, match="differ in shape"):
            qcore.state_from_json_dict(doc)
