import ast
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab import cli, errors, locality, mermin, optimize, qcore

# The radius maxima echo their restarts; the work does not depend on it.
FAST_RESTARTS = 4


class TestLocalAndRealistic:
    @pytest.mark.parametrize("which", ["m", "mprime"])
    def test_local_maximum_is_2(self, which):
        result = optimize.max_local_mermin(which)
        assert result.best_value == 2.0

    def test_all_plus_strategy_value(self):
        # |<M>| = 2 for the all-plus strategy: one aligned term, three not.
        value = locality.mermin_values(((1, 1), (1, 1), (1, 1)), mermin.M_TERMS)
        assert abs(value) == 2.0

    @pytest.mark.parametrize("which", ["m", "mprime"])
    def test_realistic_maximum_is_4(self, which):
        result = optimize.max_realistic_mermin(which)
        assert result.best_value == 4.0
        signs = result.argmax["products"]
        assert sorted(signs.values()) == [-1.0, 1.0, 1.0, 1.0] or \
               sorted(signs.values()) == [-1.0, -1.0, -1.0, 1.0]

    @pytest.mark.parametrize("maximize", [optimize.max_local_mermin,
                                          optimize.max_realistic_mermin])
    @pytest.mark.parametrize("which", ["M", "foo", ""])
    def test_unknown_which_rejected(self, maximize, which):
        with pytest.raises(ValueError, match=f"^which must be 'm' or 'mprime', got {which!r}$"):
            maximize(which)

    def test_all_products_plus_one_is_not_maximal(self):
        value = sum(coeff * 1.0 for coeff, _ in mermin.M_TERMS)
        assert abs(value) == 2.0


#: The three seeded searches, each run with (restarts, seed).
seeded_searches = pytest.mark.parametrize("maximize", [
    optimize.max_quantum_local_radius, optimize.max_biseparable_radius,
    optimize.max_quantum_radius,
], ids=["quantum_local", "biseparable", "quantum"])


@seeded_searches
@pytest.mark.parametrize("restarts,message", [
    pytest.param(0, "restarts must be >= 1, got 0", id="0"),
    pytest.param(-5, "restarts must be >= 1, got -5", id="-5"),
    pytest.param(True, "restarts must be an integer, got bool", id="bool"),
    pytest.param(2.0, "restarts must be an integer, got float", id="float"),
])
def test_rejects_restarts_below_one(maximize, restarts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        maximize(restarts)


@seeded_searches
@pytest.mark.parametrize("seed,message", [
    pytest.param(-1, "seed must be >= 0, got -1", id="-1"),
    pytest.param(1.5, "seed must be an integer, got float", id="float"),
    pytest.param(True, "seed must be an integer, got bool", id="bool"),
    pytest.param("7", "seed must be an integer, got str", id="str"),
])
def test_rejects_seeds_that_are_not_counts(maximize, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        maximize(4, seed)


@seeded_searches
def test_numpy_integer_counts_give_the_plain_int_json(maximize):
    result = maximize(np.int64(4), np.uint16(1))
    assert type(result.restarts_used) is int and type(result.seed) is int
    assert json.dumps(result.to_json_dict()) == json.dumps(maximize(4, 1).to_json_dict())


class TestQuantumLocal:
    def test_analytic_maximum_is_1(self):
        result = optimize.max_quantum_local_radius(FAST_RESTARTS, seed=3)
        assert result.best_value == 1.0

    def test_equatorial_product_state_saturates(self):
        plus = np.ones(2) / np.sqrt(2.0)
        psi = qcore.StateVector(np.kron(np.kron(plus, plus), plus))
        assert mermin.evaluate_point(psi).radius_squared == pytest.approx(1.0, abs=1e-12)

    def test_pole_aligned_qubit_kills_radius(self):
        up = np.array([1.0, 0.0])
        plus = np.ones(2) / np.sqrt(2.0)
        psi = qcore.StateVector(np.kron(np.kron(up, plus), plus))
        assert mermin.evaluate_point(psi).radius_squared == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("runner,closed_form", [
        (optimize.max_quantum_local_radius, 1.0),
        (optimize.max_biseparable_radius, 4.0),
        (optimize.max_quantum_radius, 16.0),
    ], ids=["quantum_local", "biseparable", "quantum"])
    def test_closed_form_ascent_agreement_20_seeds(self, runner, closed_form):
        for seed in range(20):
            result = runner(2, seed=seed)
            assert result.best_value == closed_form


class TestBiseparable:
    def test_supremum_matches_eigensolve_oracle(self):
        oracle = optimize.biseparable_radius_eigen_oracle()
        result = optimize.max_biseparable_radius(FAST_RESTARTS, seed=5)
        assert result.best_value == pytest.approx(oracle, abs=1e-4)
        assert oracle == pytest.approx(4.0, abs=1e-9)

    def test_cut_symmetry(self, monkeypatch):
        # Witness c is a product across cut c (its qubit c against the other two
        # is a rank-1 matrix) and reaches r^2 = 4, so every cut attains the maximum.
        calls = []
        monkeypatch.setattr(optimize, "_certify", recording_certify(calls))
        optimize.max_biseparable_radius(FAST_RESTARTS, seed=5)
        [(_, value, witnesses)] = calls
        assert (value, len(witnesses)) == (4.0, 3)
        for cut, psi in enumerate(witnesses):
            split = np.moveaxis(psi.reshape(2, 2, 2), cut, 0).reshape(2, 4)
            assert np.linalg.svd(split, compute_uv=False)[1] <= qcore.SELF_CHECK_TOL
            assert abs(abs(mermin.pure_mermin_values(psi)) ** 2 - 4.0) <= qcore.SELF_CHECK_TOL

    def test_product_states_are_nested_inside(self):
        qlocal = optimize.max_quantum_local_radius(FAST_RESTARTS, seed=5)
        bisep = optimize.max_biseparable_radius(FAST_RESTARTS, seed=5)
        assert qlocal.best_value <= bisep.best_value + 1e-9


class TestQuantum:
    def test_maximum_is_16(self):
        result = optimize.max_quantum_radius(FAST_RESTARTS, seed=11)
        assert result.best_value == pytest.approx(16.0, abs=1e-6)

    def test_eigensolve_oracle_certifies_16(self):
        assert optimize.quantum_radius_eigen_oracle() == pytest.approx(16.0, abs=1e-9)

    def test_naive_square_sum_is_32(self):
        assert optimize.operator_square_sum_top_eigenvalue() == pytest.approx(32.0, abs=1e-9)

    def test_argmax_is_a_maximizing_state(self):
        result = optimize.max_quantum_radius(FAST_RESTARTS, seed=11)
        psi = qcore.StateVector(
            np.asarray(result.argmax["state_re"]) + 1j * np.asarray(result.argmax["state_im"]))
        assert mermin.evaluate_point(psi).radius_squared == pytest.approx(16.0, abs=1e-6)


def qubit_turn(qubit: int) -> np.ndarray:
    """diag(1, i) on ``qubit`` (0-based, qubit 1 most significant) of three."""
    factors = [[1, 1j] if q == qubit else [1, 1] for q in range(3)]
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


def cut_operators(cut: int):
    """(A, B) with M = X_cut (x) A + Y_cut (x) B, from the terms of M: each
    term's pair factors go to A or B by its setting on qubit ``cut``."""
    a_mat, b_mat = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
    for coeff, settings in mermin.M_TERMS:
        first, second = (qcore.PAULI[settings[p]] for p in range(3) if p != cut)
        target = a_mat if settings[cut] == "X" else b_mat
        target += coeff * np.kron(first, second)
    return a_mat, b_mat


class TestCutOperators:
    @pytest.mark.parametrize("cut", range(3))
    def test_terms_rebuild_m(self, cut):
        # X_cut (x) A + Y_cut (x) B, with the cut qubit moved back into place.
        a_mat, b_mat = cut_operators(cut)
        first = np.kron(qcore.PAULI["X"], a_mat) + np.kron(qcore.PAULI["Y"], b_mat)
        rebuilt = np.moveaxis(first.reshape((2,) * 6), (0, 3), (cut, 3 + cut)).reshape(8, 8)
        assert np.array_equal(rebuilt, optimize._mermin_matrices()[0])


def conjugate(mat, phases):
    """U mat U^H for U = diag(phases)."""
    u = np.diag(phases)
    return u @ mat @ u.conj().T


class TestQuarterTurnCertificates:
    @pytest.mark.parametrize("qubit", range(3))
    def test_quarter_turn_maps_pair_on_every_qubit(self, qubit):
        # M is symmetric under qubit permutations, so any qubit turns M into M'.
        m_mat, mp_mat = optimize._mermin_matrices()
        phases = qubit_turn(qubit)
        assert np.array_equal(conjugate(m_mat, phases), mp_mat)
        assert np.array_equal(conjugate(mp_mat, phases), -m_mat)
        optimize._check_quarter_turn(m_mat, mp_mat, phases)

    @pytest.mark.parametrize("cut", range(3))
    def test_quarter_turn_maps_cut_operators(self, cut):
        a_mat, b_mat = cut_operators(cut)
        phases = np.repeat([1, 1j], 2)
        assert np.array_equal(conjugate(a_mat, phases), -b_mat)
        assert np.array_equal(conjugate(-b_mat, phases), -a_mat)
        optimize._check_quarter_turn(a_mat, -b_mat, phases)

    def test_rotation_identity_at_sampled_angles(self):
        m_mat, mp_mat = optimize._mermin_matrices()
        for a in np.linspace(0.0, 2.0 * np.pi, 13):
            rotated = conjugate(m_mat, np.tile([1, np.exp(1j * a)], 4))
            np.testing.assert_allclose(rotated, np.cos(a) * m_mat + np.sin(a) * mp_mat,
                                       atol=1e-12)

    @pytest.mark.parametrize("oracle", [optimize.quantum_radius_eigen_oracle,
                                        optimize.biseparable_radius_eigen_oracle])
    def test_part_diagonal_on_qubit3_is_refused(self, monkeypatch, oracle):
        # I(x)I(x)Z is unchanged by the qubit-3 turn, so M + IIZ -> M' + IIZ
        # passes the first step; only the second (M' -> -M) catches it.
        m_mat, mp_mat = optimize._mermin_matrices()
        iiz = np.diag(np.tile([1.0, -1.0], 4)).astype(complex)
        assert np.array_equal(conjugate(m_mat + iiz, qubit_turn(2)), mp_mat + iiz)
        monkeypatch.setattr(optimize, "_mermin_matrices",
                            lambda: (m_mat + iiz, mp_mat + iiz))
        with pytest.raises(errors.SelfCheckFailed, match="quarter turn"):
            oracle()

    def test_wrong_second_operator_is_refused(self):
        m_mat, mp_mat = optimize._mermin_matrices()
        with pytest.raises(errors.SelfCheckFailed):
            optimize._check_quarter_turn(m_mat, -mp_mat, qubit_turn(2))

    @pytest.mark.parametrize("oracle,value,eigensolves", [
        (optimize.quantum_radius_eigen_oracle, 16.0, 1),
        (optimize.biseparable_radius_eigen_oracle, 4.0, 3),
    ], ids=["quantum", "biseparable"])
    def test_oracle_value_and_work(self, monkeypatch, oracle, value, eigensolves):
        assert inspect.signature(oracle).parameters == {}
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(mat):
            calls.append(mat.shape)
            return eigvalsh(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert oracle() == pytest.approx(value, abs=1e-12)
        assert len(calls) == eigensolves


RADIUS_MAXIMA = {"quantum_local": optimize.max_quantum_local_radius,
                 "biseparable": optimize.max_biseparable_radius,
                 "quantum": optimize.max_quantum_radius}

#: Each radius maximum's r^2 and how many witnesses it certifies: one, and one
#: per cut for biseparable.
RADIUS_SQUARED = {"quantum_local": 1.0, "biseparable": 4.0, "quantum": 16.0}
WITNESS_COUNTS = {"quantum_local": 1, "biseparable": 3, "quantum": 1}


def recording_certify(calls: list):
    """optimize._certify that first appends each call's class, value and witnesses."""
    certify = optimize._certify

    def record(model_class, value, witnesses, *rest):
        calls.append((model_class, value, list(witnesses)))
        return certify(model_class, value, witnesses, *rest)
    return record


@pytest.mark.parametrize("restarts", [1, 50])
@pytest.mark.parametrize("model_class", RADIUS_MAXIMA)
def test_work_does_not_grow_with_restarts(monkeypatch, model_class, restarts):
    calls = []
    monkeypatch.setattr(optimize, "_certify", recording_certify(calls))
    result = RADIUS_MAXIMA[model_class](restarts, 0)
    assert [len(witnesses) for _, _, witnesses in calls] == [WITNESS_COUNTS[model_class]]
    assert result.restarts_used == restarts


@settings(derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_every_seed_certifies_unit_witnesses_at_the_maximum(seed):
    # At any seed, each witness that a radius maximum certifies is a unit
    # vector that reaches its class's r^2.
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_certify", recording_certify(calls))
        for maximize in RADIUS_MAXIMA.values():
            maximize(1, seed)
    assert [(name, value) for name, value, _ in calls] == list(RADIUS_SQUARED.items())
    for name, value, witnesses in calls:
        assert len(witnesses) == WITNESS_COUNTS[name]
        for psi in witnesses:
            assert abs(np.vdot(psi, psi).real - 1.0) <= qcore.SELF_CHECK_TOL
            assert abs(abs(mermin.pure_mermin_values(psi)) ** 2 - value) <= qcore.SELF_CHECK_TOL


#: A phase of any size: a cat reads it only through e^{i phase}.
PHASES = st.floats(-1e6, 1e6)


@settings(derandomize=True, database=None)
@given(azimuths=st.tuples(PHASES, PHASES, PHASES),
       cuts=st.tuples(*[st.tuples(PHASES, PHASES)] * 3), phase=PHASES)
def test_cat_products_reach_the_closed_forms(azimuths, cuts, phase):
    # At any phases, not only seeded ones, each class's product of phased cats is
    # a unit vector that reaches its closed form.
    cat = optimize._phased_cat
    witnesses = {
        "quantum_local": [qcore.tensor([cat(1, a) for a in azimuths])],
        "biseparable": [optimize.biseparable_state(cut, np.pi / 2.0, phi, cat(2, pair_phase))
                        for cut, (phi, pair_phase) in enumerate(cuts)],
        "quantum": [cat(3, phase)],
    }
    for name, value in RADIUS_SQUARED.items():
        for psi in witnesses[name]:
            assert psi.shape == (8,)
            assert abs(np.vdot(psi, psi).real - 1.0) <= qcore.SELF_CHECK_TOL
            assert abs(abs(mermin.pure_mermin_values(psi)) ** 2 - value) <= qcore.SELF_CHECK_TOL


def test_each_radius_maximum_draws_only_its_free_phases():
    # A witness's free parameters are its phases: each radius maximum makes one
    # block of uniforms and calls no other sampler, no optimize code reads a phase
    # back with np.angle, and no assignment discards a value into ``_``.
    tree = ast.parse(Path(optimize.__file__).read_text())
    read_back = [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "angle"]
    discarded = [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and any(
                     isinstance(name, ast.Name) and name.id == "_"
                     for target in node.targets for name in ast.walk(target))]
    assert (read_back, discarded) == ([], [])
    samplers = ("uniforms", "complex_normals", "random_bloch_angles", "random", "uniform",
                "standard_normal", "gauss", "normalvariate")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for maximize in RADIUS_MAXIMA.values():
        draws = [ast.unparse(node.func) for node in ast.walk(functions[maximize.__name__])
                 if isinstance(node, ast.Call)
                 and ast.unparse(node.func).rpartition(".")[2] in samplers]
        assert draws == ["uniforms"], maximize.__name__


class TestCertify:
    @pytest.mark.parametrize("model_class", RADIUS_MAXIMA)
    def test_broken_pair_identity_is_refused(self, monkeypatch, model_class):
        m_mat, mp_mat = optimize._mermin_matrices()
        monkeypatch.setattr(optimize, "_mermin_matrices", lambda: (m_mat, -mp_mat))
        with pytest.raises(errors.SelfCheckFailed, match=re.escape("M + iM' != 8|000><111|")):
            RADIUS_MAXIMA[model_class](2, 0)

    @pytest.mark.parametrize("model_class,builder", [
        ("quantum_local", "_phased_cat"),
        ("biseparable", "biseparable_state"),
        ("quantum", "_phased_cat"),
    ])
    def test_witness_off_the_maximum_is_refused(self, monkeypatch, model_class, builder):
        # |000> is a unit vector with r^2 = 0: the closed form is not reached. A
        # patched cat is |0...0> on its own qubits, so a product of them is |000> too.
        fake = {"_phased_cat": lambda qubits, phase: np.eye(2 ** qubits, dtype=complex)[0],
                "biseparable_state": lambda *args: np.eye(8, dtype=complex)[0]}[builder]
        monkeypatch.setattr(optimize, builder, fake)
        with pytest.raises(errors.SelfCheckFailed) as caught:
            RADIUS_MAXIMA[model_class](2, 0)
        assert str(caught.value).startswith(f"{model_class} witness ")
        assert "reached 0.0," in str(caught.value)
        assert "np." not in str(caught.value)

    @pytest.mark.parametrize("witness", [np.full(8, np.nan), np.full(8, np.inf),
                                         np.eye(4)[0], np.eye(8)[[0, 7]]],
                             ids=["nan", "inf", "four", "two-rows"])
    def test_witness_that_is_not_a_finite_unit_8_vector_is_refused(self, witness):
        with pytest.raises(errors.SelfCheckFailed, match="^quantum witness "):
            optimize._certify("quantum", 16.0, [witness], 1, 0)


    def test_signed_zeros_are_written_as_zero(self):
        # Each part of the witness is a signed zero but at |000> and |111>: the argmax
        # reads 0.0 there, and every other part keeps its value.
        witness = np.full(8, complex(-0.0, -0.0))
        witness[[0, 7]] = complex(qcore.SQRT2_INV, -0.0)
        assert np.signbit(witness.view(float)).sum() == 14
        argmax = optimize._certify("quantum", 16.0, [witness], 1, 0).argmax
        assert argmax == {"state_re": [qcore.SQRT2_INV] + [0.0] * 6 + [qcore.SQRT2_INV],
                          "state_im": [0.0] * 8}
        assert not np.signbit(argmax["state_re"] + argmax["state_im"]).any()


class TestSamplers:
    """``optimize.uniforms`` and ``complex_normals`` read one block of ``random()``
    values each; a stub ``random()`` holds them at the edges of [0, 1)."""

    class Stub:
        def __init__(self, values):
            self.values = iter(values)

        def random(self):
            return next(self.values)

    #: The largest double below 1, the largest value ``random()`` returns.
    LAST = 1.0 - 2.0 ** -53
    #: The (low, high) of every uniform the package draws: cos(theta), an azimuth
    #: or phase, a local bar, and 3u for a cut.
    RANGES = ((-1.0, 1.0), (0.0, 2.0 * np.pi), (0.0, 3.0))

    @settings(derandomize=True, database=None)
    @given(st.sampled_from([0.0, LAST]), st.floats(0.0, 1.0, exclude_max=True))
    def test_box_muller_is_finite_at_the_ends(self, u1, u2):
        z = optimize.complex_normals(self.Stub([u1, u1, u2, u2]), (2,))
        assert np.isfinite(z.view(float)).all()
        assert np.allclose(abs(z) ** 2, -2.0 * np.log1p(-u1))

    @settings(derandomize=True, database=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8))
    def test_uniforms_and_cuts_stay_in_range(self, block):
        block = block + [0.0, self.LAST]
        for low, high in self.RANGES:
            values = optimize.uniforms(self.Stub(block), low, high, len(block))
            assert ((low <= values) & (values < high)).all(), (low, high)
        cuts = optimize.uniforms(self.Stub(block), 0.0, 3.0, len(block)).astype(int)
        assert set(cuts) <= {0, 1, 2}

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.integers(0, 2 ** 63))
    def test_scatter_is_bit_identical_on_a_rerun_and_within_each_class_limit(self, seed):
        first, again = cli._scatter_points(seed, 8), cli._scatter_points(seed, 8)
        assert ({name: points.tobytes() for name, points in first.items()}
                == {name: points.tobytes() for name, points in again.items()})
        # (largest |m| or |m'|, largest r^2): the four class maxima of this module.
        limits = {"scatter_local": (2.0, 8.0), "scatter_quantum_local": (1.0, 1.0),
                  "scatter_biseparable": (4.0, 4.0), "scatter_quantum": (4.0, 16.0)}
        for name, (peak, radius_squared) in limits.items():
            points = first[name]
            assert np.maximum(abs(points.real), abs(points.imag)).max() <= peak + mermin.SLACK
            assert (abs(points) ** 2).max() <= radius_squared + mermin.SLACK, name


class TestNesting:
    def test_radius_chain(self):
        qlocal = optimize.max_quantum_local_radius(FAST_RESTARTS, seed=2).best_value
        bisep = optimize.max_biseparable_radius(FAST_RESTARTS, seed=2).best_value
        quantum = optimize.max_quantum_radius(FAST_RESTARTS, seed=2).best_value
        assert qlocal <= bisep + 1e-4 <= quantum + 1e-4

    def test_mermin_value_chain(self):
        assert optimize.max_local_mermin().best_value <= optimize.max_realistic_mermin().best_value


class TestDeterminism:
    @pytest.mark.parametrize("runner", [
        lambda: optimize.max_quantum_local_radius(3, seed=9),
        lambda: optimize.max_biseparable_radius(2, seed=9),
        lambda: optimize.max_quantum_radius(3, seed=9),
    ])
    def test_same_seed_same_serialization(self, runner):
        first = json.dumps(runner().to_json_dict(), sort_keys=True)
        second = json.dumps(runner().to_json_dict(), sort_keys=True)
        assert first == second


class TestNoiseThreshold:
    def test_locality_threshold(self):
        v = optimize.noise_threshold("locality", tol=1e-6)
        assert v == pytest.approx(0.5, abs=1e-6)

    def test_quantum_locality_threshold(self):
        v = optimize.noise_threshold("quantum_locality", tol=1e-6)
        assert v == pytest.approx(0.25, abs=1e-6)

    def test_coarse_tolerance_contract(self):
        v = optimize.noise_threshold("locality", tol=1e-3)
        assert v == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("bound,exact", [("locality", 0.5), ("quantum_locality", 0.25)])
    def test_bracketing(self, bound, exact):
        tol = 1e-6
        v = optimize.noise_threshold(bound, tol=tol)
        ghz = qcore.make_ghz()

        def violates(vis):
            point = mermin.evaluate_point(qcore.mix_with_white_noise(ghz, vis))
            if bound == "locality":
                return max(abs(point.m_value), abs(point.mprime_value)) > 2.0
            return point.radius_squared > 1.0

        assert violates(v + 2 * tol)
        assert not violates(v - 2 * tol)

    def test_mermin_value_linear_in_visibility(self):
        ghz = qcore.make_ghz()
        for v in (0.0, 0.25, 0.5, 0.75, 1.0):
            point = mermin.evaluate_point(qcore.mix_with_white_noise(ghz, v))
            assert point.m_value == pytest.approx(4.0 * v, abs=1e-10)
            assert point.mprime_value == pytest.approx(0.0, abs=1e-10)

    def test_unknown_bound(self):
        # Realism holds at GHZ's point, so no noise level crosses it.
        with pytest.raises(ValueError, match="^unknown bound 'realism'$"):
            optimize.noise_threshold("realism")

    @pytest.mark.parametrize("bound", [["locality"], None, 2.0], ids=["list", "none", "float"])
    def test_bound_that_is_not_a_name(self, bound):
        with pytest.raises(ValueError, match=f"^unknown bound {re.escape(repr(bound))}$"):
            optimize.noise_threshold(bound)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match=r"^tol must be positive and finite, got 0\.0$"):
            optimize.noise_threshold("locality", tol=0.0)
        # Read like every other number: no bool, string or non-finite value.
        for bad, message in [(True, "tol must be a real number, got bool"),
                             ("1e-6", "tol must be a real number, got str"),
                             (np.nan, "tol is non-finite"), (np.inf, "tol is non-finite")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                optimize.noise_threshold("locality", tol=bad)
