import ast
import math
import re
import warnings
from pathlib import Path
from types import MappingProxyType

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

    def test_tables_read_from_the_expansion_equal_the_literals_they_replaced(self):
        # (X + iY)^{(x)3} gives each x/y triple the coefficient i^{#y}, in product order;
        # PATTERNS, SETTINGS, both term tables and the targets are read from it. Each is
        # compared with the literal it replaced, with the type of every element.
        def typed(value):
            if isinstance(value, (tuple, frozenset)):
                items = sorted(value) if isinstance(value, frozenset) else value
                return type(value), [typed(item) for item in items]
            return type(value), value
        assert list(qcore.MERMIN_EXPANSION.items()) == [
            ("xxx", 1), ("xxy", 1j), ("xyx", 1j), ("xyy", -1),
            ("yxx", 1j), ("yxy", -1), ("yyx", -1), ("yyy", -1j)]
        literals = [
            (qcore.PATTERNS, ("xxx", "xyy", "yxy", "yyx")),
            (qcore.SETTINGS, frozenset({"xxx", "xxy", "xyx", "xyy", "yxx", "yxy", "yyx", "yyy"})),
            (mermin.M_TERMS, ((1.0, "XXX"), (-1.0, "XYY"), (-1.0, "YXY"), (-1.0, "YYX"))),
            (mermin.MPRIME_TERMS, ((1.0, "XXY"), (1.0, "XYX"), (1.0, "YXX"), (-1.0, "YYY"))),
            (locality.CONSTRAINT_TARGETS, (1, -1, -1, -1))]
        for derived, literal in literals:
            assert typed(derived) == typed(literal)

    def test_the_expansion_is_the_corner_operator(self):
        corner = np.zeros((8, 8), dtype=complex)
        corner[0, 7] = 8.0
        product = sum(coeff * qcore.observable_matrix(qcore.Observable.single(settings))
                      for settings, coeff in qcore.MERMIN_EXPANSION.items())
        assert np.array_equal(product, corner)

    def test_no_x_y_triple_is_written_in_src(self):
        # The eight x/y triples are written once, as qcore.MERMIN_EXPANSION's product:
        # no string constant of three x/y letters anywhere in src/ghzlab, docstrings aside.
        found = []
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ghzlab").glob("*.py")):
            tree = ast.parse(path.read_text())
            docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                          if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                          and ast.get_docstring(node, clean=False) is not None}
            found += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and re.fullmatch("[xyXY]{3}", node.value) and id(node) not in docstrings]
        assert found == []

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
        # The naive operator bound <M^2 + M'^2> reaches 32 on GHZ; the radius maximum 16
        # is the numerical radius of (X + iY)^{(x)3}, optimize._radius_eigen_oracle's.
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

    def test_flags_follow_the_bound_names_not_their_order(self, monkeypatch):
        # r^2 = 9: outside both locality bounds, inside realism and quantum, in any order.
        monkeypatch.setattr(mermin, "BOUNDS", MappingProxyType(dict(reversed(mermin.BOUNDS.items()))))
        got = mermin.report(MerminPoint(3.0, 0.0))
        assert (got.satisfies_locality_bound, got.satisfies_quantum_locality_bound,
                got.satisfies_realism_bound, got.satisfies_quantum_bound) == (False, False, True, True)
        assert list(got.to_json_dict()["bounds"].items()) == [
            ("quantum", True), ("realism", True), ("quantum_locality", False), ("locality", False)]

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

    @pytest.mark.parametrize("name,maximize", [
        ("separable-compatible", optimize.max_quantum_local_radius),
        pytest.param("two-entangled-compatible", optimize.max_biseparable_radius,
                     marks=pytest.mark.xfail(strict=True, reason=(
                         "class fault: CLASSES holds 8 for two-entangled-compatible, above the "
                         "certified biseparable maximum 4; perfbench/child.py::_klass copies the "
                         "8, so the limit moves with it (ROADMAP direction 1a)"))),
    ], ids=["separable", "biseparable"])
    def test_finite_class_limits_are_the_certified_maxima(self, name, maximize):
        # A class holds the states of its kind and no more: its r^2 limit is the
        # certified maximum over the class.
        assert [n for n, limit in mermin.CLASSES.items() if np.isfinite(limit)] == [
            "separable-compatible", "two-entangled-compatible"]
        assert mermin.CLASSES[name] == maximize().best_value

    def test_thresholds_are_the_bounds_ghz_violates(self):
        bounds = mermin.report(mermin.evaluate_point(qcore.make_ghz())).to_json_dict()["bounds"]
        assert optimize.THRESHOLD_LIMITS == {
            name: limit for name, (_, limit) in mermin.BOUNDS.items() if not bounds[name]}
        assert list(optimize.THRESHOLD_LIMITS) == ["locality", "quantum_locality"]
        for name, limit in optimize.THRESHOLD_LIMITS.items():
            assert optimize.noise_threshold(name) == limit / 4.0


def unit_factor(qubits: int):
    """A unit vector of 2^qubits complex amplitudes, its parts drawn in [-1, 1]."""
    size = 2 ** qubits
    return st.lists(st.floats(-1.0, 1.0), min_size=2 * size, max_size=2 * size).filter(
        lambda raw: np.linalg.norm(raw) > 1e-3).map(
        lambda raw: (np.array(raw[:size]) + 1j * np.array(raw[size:])) / np.linalg.norm(raw))


class TestPureMerminValues:
    @settings(derandomize=True, database=None)
    @given(st.sampled_from([1, 2]).flatmap(unit_factor),
           st.sampled_from([1, 2]).flatmap(unit_factor), unit_factor(1), unit_factor(2))
    def test_a_product_has_the_product_of_its_factors_points(self, a, b, single, pair):
        # (X + iY)^{(x)n} = 2^n |0...0><1...1| factorizes, so the point of a (x) b is the
        # product of theirs; a qubit times a pair has one point at each of its three cuts.
        product = mermin.pure_mermin_values(a) * mermin.pure_mermin_values(b)
        assert abs(mermin.pure_mermin_values(np.kron(a, b)) - product) <= 2e-15
        cuts = [mermin.pure_mermin_values(
            np.moveaxis(np.kron(single, pair).reshape(2, 2, 2), 0, cut).reshape(8))
            for cut in range(3)]
        assert cuts[0] == cuts[1] == cuts[2]


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

    @pytest.mark.parametrize("samples", [8, 9, 12, 256])
    def test_circle_vertices_are_exact_at_quarter_turns(self, samples):
        # Vertex k is i^q e^{i pi r / (2 samples)}, (q, r) = divmod(4k, samples): on its
        # circle within rounding, a quarter turn exactly on an axis, and no signed zero.
        eps = np.finfo(float).eps
        regions = dict(mermin.figure1_regions(samples))
        for name, limit in (("quantum_locality_circle", 1.0), ("quantum_circle", 4.0)):
            vertices = regions[name]
            assert np.abs(np.hypot(vertices[:, 0], vertices[:, 1]) - limit).max() <= 2 * eps * limit
            assert not np.signbit(vertices[vertices == 0.0]).any()
            if samples % 4 == 0:
                quarters = vertices[::samples // 4].tolist()
                assert quarters == [[limit, 0.0], [0.0, limit], [-limit, 0.0], [0.0, -limit]]

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
