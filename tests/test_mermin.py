import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab import locality, mermin, optimize, qcore
from ghzlab.mermin import MerminPoint

from conftest import BAD_SCALARS, WHITE_NOISE, random_product_state, random_pure_state, refusal


M = qcore.Observable(mermin.M_TERMS)
MPRIME = qcore.Observable(mermin.MPRIME_TERMS)


def pair_matrices():
    return qcore.observable_matrix(M), qcore.observable_matrix(MPRIME)


#: Each limit ``report`` compares a value with, as (shape, limit on that value):
#: a square's on the peak max(|m|, |m'|), a circle's and a class's on r^2.
EDGES = [(shape, limit if shape == "square" else limit * limit)
         for shape, limit in mermin.BOUNDS.values()] + [
    ("circle", limit) for limit in mermin.CLASSES.values() if limit < math.inf]


def point_near(edge, offset, turn):
    """A point whose value for ``edge`` is its limit plus ``offset``."""
    shape, limit = edge
    if shape == "square":
        return limit + offset, (limit + offset) * math.cos(turn)
    radius = math.sqrt(limit + offset)
    return radius * math.cos(turn), radius * math.sin(turn)


class TestPairStructure:
    def test_m_terms_are_the_ghz_perfect_correlations(self):
        # M weighs each pattern by GHZ's eigenvalue of that pattern's operator,
        # and the locality constraints demand the same signs, as ints.
        assert mermin.M_TERMS == ((1.0, "XXX"), (-1.0, "XYY"), (-1.0, "YXY"), (-1.0, "YYX"))
        ghz = qcore.make_ghz()
        for coeff, settings in mermin.M_TERMS:
            assert qcore.eigen_residual(ghz, qcore.Observable.single(settings), coeff) <= 1e-12
        assert locality.CONSTRAINT_TARGETS == (1, -1, -1, -1)
        assert all(type(target) is int for target in locality.CONSTRAINT_TARGETS)

    def test_term_sets(self):
        assert set(M.terms) == {
            (+1.0, "XXX"), (-1.0, "XYY"), (-1.0, "YXY"), (-1.0, "YYX")}
        assert set(MPRIME.terms) == {
            (+1.0, "XXY"), (+1.0, "XYX"), (+1.0, "YXX"), (-1.0, "YYY")}

    def test_hermitian_operator_norm_4(self):
        for mat in pair_matrices():
            np.testing.assert_allclose(mat, mat.conj().T, atol=1e-15)
            assert np.linalg.norm(mat, 2) == pytest.approx(4.0, abs=1e-12)

    def test_ghz_is_plus4_eigenstate_of_m(self):
        ghz = qcore.make_ghz()
        assert qcore.eigencheck(ghz, M, 4.0)

    def test_square_sum_top_eigenvalue_is_32(self):
        # The naive operator bound <M^2 + M'^2> reaches 32 on GHZ; the
        # radius maximum 16 needs the quarter-turn rotation argument instead.
        m_mat, mp_mat = pair_matrices()
        top = np.linalg.eigvalsh(m_mat @ m_mat + mp_mat @ mp_mat)[-1]
        assert top == pytest.approx(32.0, abs=1e-9)
        ghz = qcore.make_ghz()
        val = np.vdot(ghz.amplitudes, (m_mat @ m_mat + mp_mat @ mp_mat) @ ghz.amplitudes).real
        assert val == pytest.approx(32.0, abs=1e-9)

    def test_pair_is_eight_times_corner_projector(self):
        # M + iM' = (X + iY)^{(x)3} = 8|000><111|, exactly in floating point.
        m_mat, mp_mat = pair_matrices()
        corner = np.zeros((8, 8), dtype=complex)
        corner[0, 7] = 8.0
        assert np.array_equal(m_mat + 1j * mp_mat, corner)

    def test_rotated_combinations_have_norm_4(self):
        # cos(phi) M + sin(phi) M' is a local rotation of M, so the swept
        # top eigenvalue is constant: this is what caps the radius at 16.
        m_mat, mp_mat = pair_matrices()
        for phi in np.linspace(0.0, 2.0 * np.pi, 37):
            top = np.linalg.eigvalsh(np.cos(phi) * m_mat + np.sin(phi) * mp_mat)[-1]
            assert top == pytest.approx(4.0, abs=1e-9)


class TestEvaluatePoint:
    def test_ghz(self):
        point = mermin.evaluate_point(qcore.make_ghz())
        assert point.m_value == pytest.approx(4.0, abs=1e-10)
        assert point.mprime_value == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        point = mermin.evaluate_point(WHITE_NOISE)
        assert point.m_value == pytest.approx(0.0, abs=1e-12)
        assert point.mprime_value == pytest.approx(0.0, abs=1e-12)

    def test_all_plus_product_state(self):
        # Each qubit x-aligned: the point is the complex product of the
        # per-qubit (x + i y) values, here (1 + 0j)^3.
        plus = np.ones(2) / np.sqrt(2.0)
        psi = qcore.StateVector(np.kron(np.kron(plus, plus), plus))
        point = mermin.evaluate_point(psi)
        assert point.m_value == pytest.approx(1.0, abs=1e-12)
        assert point.mprime_value == pytest.approx(0.0, abs=1e-12)

    def test_quantum_bound_1000_random_states(self, rng):
        for _ in range(1000):
            point = mermin.evaluate_point(random_pure_state(rng))
            assert point.radius_squared <= 16.0 + 1e-9

    def test_product_state_closed_form_1000(self, rng):
        # Closed form from single-qubit sigma_x / sigma_y expectations.
        sx, sy = qcore.PAULI["X"], qcore.PAULI["Y"]
        for _ in range(1000):
            state = random_product_state(rng)
            psi = state.amplitudes.reshape(2, 2, 2)
            product = 1.0
            for axis in range(3):
                q = np.moveaxis(psi, axis, 0).reshape(2, 4)
                rho = q @ q.conj().T
                x = np.trace(rho @ sx).real
                y = np.trace(rho @ sy).real
                product *= x * x + y * y
            point = mermin.evaluate_point(state)
            assert point.radius_squared == pytest.approx(product, abs=1e-9)
            assert point.radius_squared <= 1.0 + 1e-9

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)
        .filter(lambda raw: np.linalg.norm(raw) > 1e-3),
        st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_matches_expectation_reference(self, raw, visibility):
        # The one-element read agrees with the full Kronecker expansion.
        amps = np.asarray(raw[0::2]) + 1j * np.asarray(raw[1::2])
        state = qcore.StateVector(amps / np.linalg.norm(amps))
        if visibility is not None:
            state = qcore.mix_with_white_noise(state, visibility)
        point = mermin.evaluate_point(state)
        assert abs(point.m_value - qcore.expectation(state, M)) <= 1e-12
        assert abs(point.mprime_value - qcore.expectation(state, MPRIME)) <= 1e-12

    @pytest.mark.parametrize("build,entries", [
        (qcore.StateVector, np.ones(4) / 2.0), (qcore.DensityMatrix, np.eye(4) / 4.0),
    ], ids=["pure", "mixed"])
    def test_rejects_two_qubit_state(self, build, entries):
        # A two-qubit state cannot reach evaluate_point: the constructors refuse it.
        with pytest.raises(ValueError, match="^expected a three-qubit state"):
            build(entries)


class TestReport:
    def test_ghz_point(self):
        rep = mermin.report(MerminPoint(4.0, 0.0))
        assert not rep.satisfies_locality_bound
        assert not rep.satisfies_quantum_locality_bound
        assert rep.satisfies_realism_bound
        assert rep.satisfies_quantum_bound
        assert rep.entanglement_class == "three-entangled"

    def test_small_point(self):
        rep = mermin.report(MerminPoint(0.5, 0.5))
        assert rep.satisfies_locality_bound
        assert rep.satisfies_quantum_locality_bound
        assert rep.satisfies_realism_bound
        assert rep.satisfies_quantum_bound
        assert rep.entanglement_class == "separable-compatible"

    def test_intermediate_point(self):
        rep = mermin.report(MerminPoint(2.5, 0.0))
        assert not rep.satisfies_locality_bound
        assert not rep.satisfies_quantum_locality_bound
        assert rep.satisfies_realism_bound
        assert rep.satisfies_quantum_bound
        assert rep.entanglement_class == "two-entangled-compatible"

    def test_boundaries_are_inclusive(self):
        assert mermin.report(MerminPoint(1.0, 0.0)).entanglement_class == "separable-compatible"
        assert mermin.report(MerminPoint(1.0, 0.0)).satisfies_quantum_locality_bound
        assert mermin.report(MerminPoint(2.0, 2.0)).entanglement_class == "two-entangled-compatible"
        assert mermin.report(MerminPoint(2.0, 0.0)).satisfies_locality_bound

    @settings(derandomize=True, database=None)
    @given(st.floats(-4e-13, 4e-13), st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=3),
           st.floats(-qcore.READ_SLACK, qcore.READ_SLACK),
           st.one_of(st.floats(0.0, qcore.READ_SLACK), st.floats(qcore.READ_SLACK, 1e-10)))
    def test_accepted_states_satisfy_the_bounds_they_sit_on(self, delta, phases, t, s):
        # StateVector takes a norm within 1e-12, so each state scaled by 1 + delta
        # is accepted, and its point may lie a few ulps past the limit it is on.
        def bounds(amplitudes):
            state = qcore.StateVector((1.0 + delta) * np.asarray(amplitudes, dtype=complex))
            return mermin.report(mermin.evaluate_point(state)).to_json_dict()["bounds"]

        ghz = bounds([2 ** -0.5] + [0.0] * 6 + [2 ** -0.5 * np.exp(1j * phases[0])])
        assert ghz["realism"] and ghz["quantum"]
        equatorial = qcore.tensor([np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2.0)
                                   for phi in phases])
        assert bounds(equatorial)["quantum_locality"]
        assert bounds([math.cos(math.pi / 12)] + [0.0] * 6 + [math.sin(math.pi / 12)])["locality"]
        # Trace 1 + t, the six other diagonal entries at -s and GHZ's coherence
        # raised by s: the least eigenvalue is -s and r^2 = 16 (1 + t + 8 s)^2.
        # A matrix DensityMatrix accepts is reported; one past the slack is refused there.
        rho = np.diag([0.5 * (1.0 + t) + 3.0 * s] + [-s] * 6 + [0.5 * (1.0 + t) + 3.0 * s])
        rho = rho.astype(complex)
        rho[7, 0] = (0.5 * (1.0 + t) + 4.0 * s) * np.exp(1j * phases[1])
        rho[0, 7] = np.conj(rho[7, 0])
        try:
            state = qcore.DensityMatrix(rho)
        except ValueError as exc:
            assert str(exc).startswith("density matrix") and max(abs(t), s) > qcore.READ_SLACK / 2
            return
        assert mermin.report(mermin.evaluate_point(state)).satisfies_quantum_bound

    def test_outside_quantum_region_raises(self):
        with pytest.raises(ValueError, match=r"^radius\^2 = 25.0 exceeds the quantum bound 16$"):
            mermin.report(MerminPoint(5.0, 0.0))

    @pytest.mark.parametrize("coordinate", ["m", "mprime"])
    @pytest.mark.parametrize("bad,template", BAD_SCALARS)
    def test_refuses_what_is_not_a_finite_number(self, coordinate, bad, template):
        # Read like every other number, where the point is built: a NaN is not
        # classed, a string not compared.
        with pytest.raises(ValueError, match=refusal(template, coordinate)):
            MerminPoint(bad, 0.0) if coordinate == "m" else MerminPoint(0.0, bad)

    @pytest.mark.parametrize("point", [MerminPoint(1e200, 0.0), MerminPoint(0.0, -1e200),
                                       MerminPoint(-1e200, 1e200)], ids=["m", "mprime", "both"])
    def test_refuses_a_finite_point_whose_radius_overflows(self, point):
        with pytest.raises(ValueError, match=r"^radius\^2 = inf exceeds the quantum bound 16$"):
            mermin.report(point)

    @pytest.mark.parametrize("point", [None, (4.0, 0.0)], ids=["none", "tuple"])
    def test_refuses_what_is_not_a_point(self, point):
        with pytest.raises(TypeError, match=r"^expected MerminPoint, got <class '\w+'>$"):
            mermin.report(point)

    def test_radius_squared_past_float_range_is_inf(self):
        # A numpy coordinate is read as a Python float, so r^2 overflows without a warning.
        for big in (1e200, np.float64(1e200)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                point = MerminPoint(big, 0.0)
                assert point.radius_squared == math.inf
            assert type(point.m_value) is float and type(point.mprime_value) is float

    def test_one_slack_and_no_overflow_handler(self):
        # Every verdict compares value - SLACK <= limit: no other tolerance is
        # written, and r^2 past float range is inf, not an exception.
        tree = ast.parse(Path(mermin.__file__).read_text())
        floats = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, float) and 0.0 < node.value < 1e-3]
        handlers = [ast.unparse(node.type) for node in ast.walk(tree)
                    if isinstance(node, ast.ExceptHandler)]
        assert (floats, handlers, mermin.SLACK) == ([1e-9], [], 1e-9)

    def test_one_read_slack_and_each_value_read_once(self):
        # The five constructors write no tolerance of their own: the four that
        # check one read READ_SLACK, and MerminPoint reads its coordinates with
        # read_number, so report reads nothing more.
        def post_init(module, name):
            tree = ast.parse(Path(module.__file__).read_text())
            cls = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == name)
            return next(node for node in cls.body
                        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")

        constructors = {(qcore, "StateVector"): "READ_SLACK",
                        (qcore, "DensityMatrix"): "READ_SLACK",
                        (locality, "CorrelationTable"): "READ_SLACK",
                        (locality, "LocalModel"): "READ_SLACK",
                        (mermin, "MerminPoint"): "read_number"}
        for (module, name), reader in constructors.items():
            nodes = list(ast.walk(post_init(module, name)))
            floats = [node.value for node in nodes if isinstance(node, ast.Constant)
                      and isinstance(node.value, float) and node.value < 1e-3]
            names = {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
                     if isinstance(node, (ast.Name, ast.Attribute))}
            assert (name, floats, reader in names) == (name, [], True)
        tree = ast.parse(Path(mermin.__file__).read_text())
        report = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "report")
        calls = [ast.unparse(node.func) for node in ast.walk(report) if isinstance(node, ast.Call)]
        assert not [call for call in calls if call.endswith("read_number")]
        assert qcore.READ_SLACK == 1e-12

    @settings(derandomize=True, database=None)
    @given(st.one_of(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                     st.builds(point_near, st.sampled_from(EDGES),
                               st.floats(-3 * mermin.SLACK, 3 * mermin.SLACK),
                               st.floats(0.0, 2 * math.pi))))
    def test_report_follows_the_tables(self, point):
        # Half the points lie within 3 SLACK of a limit, where the slack decides.
        m, mp = point
        r2, peak = m * m + mp * mp, max(abs(m), abs(mp))
        if not r2 - mermin.SLACK <= mermin.BOUNDS["quantum"][1] ** 2:
            with pytest.raises(ValueError, match="exceeds the quantum bound 16$"):
                mermin.report(MerminPoint(m, mp))
            return
        rep = mermin.report(MerminPoint(m, mp))
        bounds = rep.to_json_dict()["bounds"]
        for name, (shape, limit) in mermin.BOUNDS.items():
            if shape == "square":
                assert bounds[name] == (peak - mermin.SLACK <= limit)
            else:
                assert bounds[name] == (r2 - mermin.SLACK <= limit * limit)
            assert bounds[name] == getattr(rep, f"satisfies_{name}_bound")
        assert rep.entanglement_class == [
            name for name, limit in mermin.CLASSES.items() if r2 - mermin.SLACK <= limit][0]
        # Inner bounds imply outer ones, and the quantum disc holds every point.
        assert bounds["quantum"]
        assert bounds["realism"] >= bounds["locality"] >= bounds["quantum_locality"]
        assert bounds["quantum_locality"] == (rep.entanglement_class == "separable-compatible")

    def test_bound_nesting_random_points(self, rng):
        for _ in range(500):
            r = 4.0 * np.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * np.pi)
            rep = mermin.report(MerminPoint(r * np.cos(phi), r * np.sin(phi)))
            if rep.satisfies_quantum_locality_bound:
                assert rep.satisfies_locality_bound
            if rep.satisfies_locality_bound:
                assert rep.satisfies_realism_bound

    def test_json_shape(self):
        doc = mermin.report(MerminPoint(4.0, 0.0)).to_json_dict()
        assert set(doc) == {"m", "mprime", "bounds", "class"}
        assert list(doc["bounds"]) == ["locality", "quantum_locality", "realism", "quantum"]


class TestTables:
    def test_limits_and_order(self):
        assert dict(mermin.BOUNDS) == {"locality": ("square", 2.0),
                                       "quantum_locality": ("circle", 1.0),
                                       "realism": ("square", 4.0), "quantum": ("circle", 4.0)}
        assert list(mermin.BOUNDS) == ["locality", "quantum_locality", "realism", "quantum"]
        assert dict(mermin.CLASSES) == {"separable-compatible": 1.0,
                                        "two-entangled-compatible": 8.0,
                                        "three-entangled": np.inf}
        with pytest.raises(TypeError):
            mermin.BOUNDS["locality"] = ("square", 2.5)

    @pytest.mark.parametrize("which", ["m", "mprime"])
    def test_square_limits_are_the_certified_maxima(self, which):
        assert mermin.BOUNDS["locality"] == ("square", optimize.max_local_mermin(which).best_value)
        assert mermin.BOUNDS["realism"] == (
            "square", optimize.max_realistic_mermin(which).best_value)

    def test_circle_limits_are_the_certified_maxima(self):
        shape, limit = mermin.BOUNDS["quantum_locality"]
        assert (shape, limit ** 2) == ("circle", optimize.max_quantum_local_radius(2).best_value)
        shape, limit = mermin.BOUNDS["quantum"]
        assert (shape, limit ** 2) == ("circle", optimize.max_quantum_radius(2).best_value)
        assert limit ** 2 == optimize.quantum_radius_eigen_oracle()
        assert optimize.max_biseparable_radius(2).argmax["membership_bound"] == (
            mermin.CLASSES["two-entangled-compatible"])

    def test_thresholds_are_the_bounds_ghz_violates(self):
        bounds = mermin.report(mermin.evaluate_point(qcore.make_ghz())).to_json_dict()["bounds"]
        assert optimize.THRESHOLD_LIMITS == {
            name: limit for name, (_, limit) in mermin.BOUNDS.items() if not bounds[name]}
        assert list(optimize.THRESHOLD_LIMITS) == ["locality", "quantum_locality"]
        for name, limit in optimize.THRESHOLD_LIMITS.items():
            assert optimize.noise_threshold(name) == limit / 4.0


class TestFigure1:
    def test_four_curves(self):
        # Innermost first: by limit, the two curves at 4 in BOUNDS order.
        regions = mermin.figure1_regions(64)
        names = [name for name, _ in regions]
        assert names == ["quantum_locality_circle", "locality_square",
                         "realism_square", "quantum_circle"]

    def test_circle_radii_and_sampling(self):
        regions = dict(mermin.figure1_regions(128))
        inner = regions["quantum_locality_circle"]
        outer = regions["quantum_circle"]
        assert inner.shape == (128, 2) and outer.shape == (128, 2)
        np.testing.assert_allclose(np.hypot(inner[:, 0], inner[:, 1]), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.hypot(outer[:, 0], outer[:, 1]), 4.0, atol=1e-12)
        np.testing.assert_allclose(outer[0], [4.0, 0.0], atol=1e-12)

    def test_square_corners(self):
        regions = dict(mermin.figure1_regions(8))
        assert [2.0, 2.0] in regions["locality_square"].tolist()
        assert [4.0, 4.0] in regions["realism_square"].tolist()

    def test_minimum_samples(self):
        with pytest.raises(ValueError, match="^samples must be >= 8, got 4$"):
            mermin.figure1_regions(4)
        for bad, name in [(8.5, "float"), (16.0, "float"), (True, "bool"), (np.True_, "bool")]:
            with pytest.raises(ValueError, match=f"^samples must be an integer, got {name}$"):
                mermin.figure1_regions(bad)
        assert len(dict(mermin.figure1_regions(np.int64(8)))["quantum_circle"]) == 8
