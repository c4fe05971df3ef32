"""The state checks and state builders as first written, kept as references the
leaner ones must match.

``qcore.read_numbers``, ``qcore.read_settings`` and the ``DensityMatrix`` check now
make fewer numpy calls: ``np.isfinite(arr).all()``, ``abs(d).max()``,
``mat.trace()``, ``eigvalsh(mat)[0]`` and one membership test. Each must accept
and refuse what its reference below does, with the same message, at the edges
where the decision turns.

``optimize.product_state`` and ``biseparable_state`` once read one packed real
vector, the (theta, phi) pairs interleaved and then a pair's 8 real and imaginary
parts. They now take Bloch angles and complex amplitudes. Every ``figure1`` scatter
point must keep the bits of the packed construction below, except the GHZ point
appended last, which is now read from ``qcore.ghz_density()`` and is exactly (4, 0).
Every witness a radius maximizer certifies must have the bits of the phased cats
written out below, at the phases of one uniform draw from its seed. Both read their
numbers from ``random.Random(seed)`` here, one ``random()`` at a time, in the order
the package draws its blocks, and map them by the formulas written out below.
"""
import functools
import itertools
import numbers
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab import cli, locality, mermin, optimize, qcore
from ghzlab.qcore import READ_SLACK, DensityMatrix, StateVector


def reference_read_numbers(values, what: str, dtype=float) -> np.ndarray:
    """``qcore.read_numbers`` as first written: ``values.dtype != bool`` and
    ``np.all(np.isfinite(arr))``."""
    number = numbers.Complex if dtype is complex else numbers.Real
    noun = f"a {number.__name__.lower()} number"
    if not (isinstance(values, np.ndarray) and values.dtype != bool
            and np.can_cast(values.dtype, dtype)):
        try:
            values = np.array(values, dtype=object)
        except ValueError as exc:  # sequences of arrays that do not stack
            raise ValueError(f"{what} must be {noun}, got a ragged array") from exc
        for entry in values.ravel():
            if not isinstance(entry, number) or isinstance(entry, bool):
                raise ValueError(f"{what} must be {noun}, got {type(entry).__name__}")
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"{what} is too large for a float") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} is non-finite")
    arr.setflags(write=False)
    return arr


def reference_read_settings(settings) -> str:
    """``qcore.read_settings`` as first written: two sets built per call."""
    settings = settings.lower() if isinstance(settings, str) else settings
    if not isinstance(settings, str) or len(settings) != 3 or not set(settings) <= set(qcore.EIGENBASES):
        raise ValueError(f"one setting per qubit required (x or y): {settings!r}")
    return settings


def reference_density_entries(entries) -> np.ndarray:
    """The ``DensityMatrix`` check as first written: ``np.max(np.abs(...))``,
    ``np.trace`` and ``np.min(np.linalg.eigvalsh(...))``; the entries it keeps."""
    mat = reference_read_numbers(entries, "density matrix entry", complex)
    if mat.shape != (8, 8):
        raise ValueError("expected a three-qubit state (an 8x8 matrix), "
                         f"got shape {mat.shape}")
    if np.max(np.abs(mat - mat.conj().T)) > READ_SLACK:
        raise ValueError(f"density matrix not Hermitian within {READ_SLACK:g}")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > READ_SLACK:
        raise ValueError(f"density matrix trace {tr!r} != 1")
    if np.min(np.linalg.eigvalsh(mat)) < -READ_SLACK:
        raise ValueError("density matrix has a negative eigenvalue")
    return mat


def outcome(call, *args):
    """What a reader does with ``args``: ("kept", dtype, shape, bytes, writeable) for
    an array, ("kept", value) for a string, or ("refused", exception type, message)."""
    try:
        arr = call(*args)
    except (ValueError, TypeError) as exc:
        return "refused", type(exc), str(exc)
    if isinstance(arr, str):
        return "kept", arr
    return "kept", arr.dtype, arr.shape, arr.tobytes(), arr.flags.writeable


def assert_same_density_check(entries):
    """``DensityMatrix`` keeps what the reference keeps, bit for bit, or refuses
    it with the same message."""
    expected = outcome(reference_density_entries, entries)
    assert outcome(lambda e: DensityMatrix(e).entries, entries) == expected
    return expected[0]


def hermitian(mat) -> np.ndarray:
    """(A + A^H) / 2: exactly Hermitian, as the sum commutes and conj is exact."""
    return (mat + mat.conj().T) / 2


@st.composite
def density_matrices(draw) -> np.ndarray:
    """A noisy random state's entries, exactly Hermitian, from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = raw / np.linalg.norm(raw)
    v = draw(st.floats(0.0, 1.0))
    return hermitian(v * np.outer(psi, psi.conj()) + (1 - v) * np.eye(8) / 8)


#: Offsets from READ_SLACK, in steps of 1e-17, that put a check on either side of its edge.
EDGE_STEPS = st.integers(-40, 40)


class TestDensityCheckMatchesItsReference:
    @settings(derandomize=True, database=None, deadline=None)
    @given(density_matrices(), EDGE_STEPS, st.sampled_from([1, -1, 1j, -1j]),
           st.sampled_from(list(itertools.permutations(range(8), 2))))
    def test_hermiticity_at_read_slack(self, mat, step, direction, index):
        mat = mat.copy()
        mat[index] += direction * (READ_SLACK + step * 1e-17)
        assert_same_density_check(mat)

    @settings(derandomize=True, database=None, deadline=None)
    @given(density_matrices(), EDGE_STEPS, st.sampled_from([1, -1]), st.integers(0, 7))
    def test_trace_at_read_slack(self, mat, step, sign, index):
        mat = mat.copy()
        mat[index, index] += sign * (READ_SLACK + step * 1e-17)
        assert_same_density_check(mat)

    @settings(derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-400, 400))
    def test_least_eigenvalue_at_read_slack(self, seed, step):
        # eigvalsh rounds by about 1e-16 here, so both sides of -READ_SLACK show.
        rng = np.random.default_rng(seed)
        unitary, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        least = -READ_SLACK + step * 1e-17
        spectrum = np.concatenate([[least], rng.dirichlet(np.ones(7)) * (1 - least)])
        assert_same_density_check(hermitian(unitary @ np.diag(spectrum) @ unitary.conj().T))

    def test_both_sides_of_each_edge_are_reached(self):
        base = hermitian(np.eye(8) / 8 + 0.01 * np.ones((8, 8)) / 8 - 0.01 * np.eye(8) / 8)
        kept = {}
        for step in (-400, 400):
            herm, trace = base.copy(), base.copy()
            herm[0, 1] += READ_SLACK + step * 1e-17
            trace[0, 0] += READ_SLACK + step * 1e-17
            kept[step] = (assert_same_density_check(herm), assert_same_density_check(trace))
        assert kept == {-400: ("kept", "kept"), 400: ("refused", "refused")}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", [1, 1j])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_non_finite_entries(self, bad, part, as_list):
        mat = (np.eye(8) / 8).astype(complex)
        mat[2, 5] = bad * part if part == 1 else complex(0.0, bad)
        assert assert_same_density_check(mat.tolist() if as_list else mat) == "refused"

    @pytest.mark.parametrize("entries", [
        np.eye(8, dtype=bool), np.eye(8, dtype=np.bool_).tolist(),
        np.where(np.eye(8, dtype=bool), np.True_, 0.0).astype(object),
        np.eye(8) / 8 + 0.0j, np.eye(8) / 8, (np.eye(8) / 8).astype(np.float32),
        np.eye(8, dtype=int), np.eye(4) / 4, np.ones(8) / 8,
    ], ids=["bool", "bool-list", "numpy-bool-object", "complex", "float", "float32",
            "int", "4x4", "vector"])
    def test_dtypes_and_shapes(self, entries):
        assert_same_density_check(entries)


#: Leaves for the number readers: finite numbers, bools, non-numbers and non-finite floats.
LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-2 ** 1030, 2 ** 1030),
    st.complex_numbers(max_magnitude=1e300), st.booleans(), st.just(np.True_),
    st.just(np.float64(np.nan)), st.none(), st.text(max_size=2))


class TestReadNumbersMatchesItsReference:
    @settings(derandomize=True, database=None, deadline=None)
    @given(st.lists(LEAVES, max_size=6), st.sampled_from([float, complex]),
           st.sampled_from([None, bool, float, complex, np.float32, int, object]))
    def test_lists_and_arrays(self, leaves, dtype, as_array):
        values = leaves
        if as_array is not None:
            try:
                values = np.array(leaves, dtype=as_array)
            except (ValueError, TypeError, OverflowError, RuntimeWarning):
                return  # numpy itself refuses to build this array
        expected = outcome(reference_read_numbers, values, "entry", dtype)
        assert outcome(qcore.read_numbers, values, "entry", dtype) == expected

    @pytest.mark.parametrize("values", [
        np.array([True, False]), np.array([[np.True_]]), np.array([0.5, np.nan]),
        np.array([np.inf + 0j]), np.array([complex(0.0, -np.inf)]), np.zeros((0, 3), bool),
    ], ids=["bool", "bool-2d", "nan", "inf", "imaginary-inf", "empty-bool"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bool_dtypes_and_non_finite_arrays(self, values, dtype):
        expected = outcome(reference_read_numbers, values, "entry", dtype)
        assert outcome(qcore.read_numbers, values, "entry", dtype) == expected


#: The eight x/y setting triples in lower case, and each in upper and in mixed case.
TRIPLES = ["".join(t) for t in itertools.product("xy", repeat=3)]
CASED = TRIPLES + [t.upper() for t in TRIPLES] + [t[0].upper() + t[1:] for t in TRIPLES]


class TestReadSettingsMatchesItsReference:
    @pytest.mark.parametrize("value", CASED + [
        "xxz", "xx", "xxxx", "", "x y", "XXZ", "zzz", " xx", "İxx", "xxK",
        b"xxx", ["x", "x", "x"], ("x", "y", "y"), None, 5, {"x"}, np.str_("XYY"),
    ])
    def test_each_triple_and_bad_value(self, value):
        expected = outcome(reference_read_settings, value)
        assert outcome(qcore.read_settings, value) == expected
        if value in CASED:
            assert expected == ("kept", value.lower())

    @settings(derandomize=True, database=None)
    @given(st.text(max_size=5) | st.text(alphabet="xyXYİK", max_size=4))
    def test_any_text(self, value):
        assert outcome(qcore.read_settings, value) == outcome(reference_read_settings, value)


class TestWhiteNoiseKeepsItsBits:
    #: Visibilities on a grid of 101, plus the edges of [0, 1] and the subnormals.
    GRID = [*np.linspace(0.0, 1.0, 101), 5e-324, 1e-310, 0.5 - 2 ** -54,
            1.0 - 2 ** -53, np.nextafter(0.5, 1.0), 1 / 3]

    @pytest.mark.parametrize("kind", ["ghz", "haar", "mixed"])
    def test_entries_equal_the_expression_bit_for_bit(self, kind):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = {"ghz": qcore.make_ghz(), "haar": StateVector(raw / np.linalg.norm(raw)),
                 "mixed": qcore.mix_with_white_noise(StateVector(raw / np.linalg.norm(raw)), 0.3)}[kind]
        rho = qcore.density_entries(state)
        for v in self.GRID:
            v = float(v)
            expected = v * rho + (1.0 - v) * np.eye(8) / 8
            entries = qcore.mix_with_white_noise(state, v).entries
            assert entries.dtype == expected.dtype
            assert entries.tobytes() == expected.tobytes(), v
        assert not qcore.WHITE_NOISE.flags.writeable


def draws(rng: random.Random, shape) -> np.ndarray:
    """``shape`` of ``rng.random()`` values, drawn one at a time in C order."""
    return np.array([rng.random() for _ in range(int(np.prod(shape)))]).reshape(shape)


def box_muller(rng: random.Random, shape) -> np.ndarray:
    """Standard complex normals of ``shape`` from the draws (u1, u2) of shape (2, *shape)."""
    u1, u2 = draws(rng, (2, *shape))
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.exp(2j * np.pi * u2)


def packed_bloch_angles(rng: random.Random, count: int) -> np.ndarray:
    """``optimize.random_bloch_angles`` as first written: (theta, phi) interleaved,
    the ``count`` values of cos(theta) drawn first."""
    params = np.empty(2 * count)
    params[0::2] = np.arccos(-1.0 + 2.0 * draws(rng, count))
    params[1::2] = 2.0 * np.pi * draws(rng, count)
    return params


def packed_product_state(params) -> np.ndarray:
    return qcore.tensor([optimize._bloch_qubit(params[2 * q], params[2 * q + 1]) for q in range(3)])


def packed_biseparable_state(cut: int, params) -> np.ndarray:
    """2 Bloch angles, then the pair's 8 reals (re, im interleaved), normalized here."""
    single = optimize._bloch_qubit(params[0], params[1])
    raw = np.asarray(params[2:10], dtype=float)
    pair = (raw[0::2] + 1j * raw[1::2]).reshape(2, 2)
    pair = pair / np.linalg.norm(pair)
    return np.moveaxis(qcore.tensor([single, pair.reshape(4)]).reshape(2, 2, 2), 0, cut).reshape(8)


def cat(qubits: int, phase: float) -> np.ndarray:
    """(|0...0> + e^{i phase}|1...1>)/sqrt(2) on ``qubits`` qubits."""
    amplitudes = np.zeros(2 ** qubits, dtype=complex)
    amplitudes[0] = qcore.SQRT2_INV
    amplitudes[-1] = np.exp(1j * phase) * qcore.SQRT2_INV
    return amplitudes


def cat_witnesses(seed: int) -> dict:
    """class -> the witnesses its maximizer certifies at ``seed``: three equatorial
    qubits, each cut's equatorial qubit times a phased pair, and the phased GHZ
    state, at the phases of one uniform draw of each class's shape."""
    def phases(shape):
        return 2.0 * np.pi * draws(random.Random(seed), shape)
    return {"quantum_local": [functools.reduce(np.kron, [cat(1, a) for a in phases(3)])],
            "biseparable": [packed_biseparable_state(cut, np.concatenate(
                                [[np.pi / 2.0, phi], cat(2, pair_phase).view(float)]))
                            for cut, (phi, pair_phase) in enumerate(phases((3, 2)))],
            "quantum": [cat(3, phases(()))]}


def packed_scatter_points(seed: int, count: int) -> dict:
    """``cli._scatter_points`` over the packed vector: local bars, product angles,
    biseparable cuts int(3u), angles and pairs, then Haar normals, each a block."""
    rng = random.Random(seed)
    bars = -1.0 + 2.0 * draws(rng, (count, 3, 2))
    local = (locality.mermin_values(bars, mermin.M_TERMS)
             + 1j * locality.mermin_values(bars, mermin.MPRIME_TERMS))
    product = [packed_product_state(params)
               for params in packed_bloch_angles(rng, 3 * count).reshape(count, 6)]
    cuts = [int(3 * u) for u in draws(rng, count)]
    angles = packed_bloch_angles(rng, count).reshape(count, 2)
    pairs = box_muller(rng, (count, 4))
    biseparable = [packed_biseparable_state(cut, np.concatenate([params, pair.view(float)]))
                   for cut, params, pair in zip(cuts, angles, pairs)]
    haar = box_muller(rng, (count, 8))
    haar = list(haar / np.linalg.norm(haar, axis=1, keepdims=True))
    haar.append(qcore.make_ghz().amplitudes)
    return {"scatter_local": local,
            "scatter_quantum_local": mermin.pure_mermin_values(np.array(product)),
            "scatter_biseparable": mermin.pure_mermin_values(np.array(biseparable)),
            "scatter_quantum": mermin.pure_mermin_values(np.array(haar))}


def bits(named: dict) -> dict:
    """name -> the dtype, shape and bytes of its array, or of its list of arrays stacked."""
    return {name: (arr.dtype, arr.shape, arr.tobytes())
            for name, arr in ((name, np.asarray(value)) for name, value in named.items())}


class TestBuildersKeepThePackedBits:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_certified_witnesses_and_scatter_points(self, seed):
        handed = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimize, "_certify",
                          lambda model_class, value, witnesses, *rest: handed.update(
                              {model_class: witnesses}))
            for maximize in (optimize.max_quantum_local_radius, optimize.max_biseparable_radius,
                             optimize.max_quantum_radius):
                maximize(1, seed)
        assert bits(handed) == bits(cat_witnesses(seed))
        scatter, packed = cli._scatter_points(seed, 10), packed_scatter_points(seed, 10)
        # The packed construction appended make_ghz's point, 3.999999999999999; the GHZ
        # point is now exact, and every other point keeps its bits.
        assert bits({"ghz": scatter["scatter_quantum"][-1:]}) == bits({"ghz": [4 + 0j]})
        scatter["scatter_quantum"], packed["scatter_quantum"] = (
            scatter["scatter_quantum"][:-1], packed["scatter_quantum"][:-1])
        assert bits(scatter) == bits(packed)
