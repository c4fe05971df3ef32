import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghzlab import locality, mermin, qcore
from ghzlab.mermin import MerminPoint

from conftest import WHITE_NOISE, random_product_state, random_pure_state


M = qcore.Observable(mermin.M_TERMS)
MPRIME = qcore.Observable(mermin.MPRIME_TERMS)


def pair_matrices():
    return qcore.observable_matrix(M), qcore.observable_matrix(MPRIME)


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
        assert rep.entanglement_class == mermin.CLASS_THREE_ENTANGLED

    def test_small_point(self):
        rep = mermin.report(MerminPoint(0.5, 0.5))
        assert rep.satisfies_locality_bound
        assert rep.satisfies_quantum_locality_bound
        assert rep.satisfies_realism_bound
        assert rep.satisfies_quantum_bound
        assert rep.entanglement_class == mermin.CLASS_SEPARABLE

    def test_intermediate_point(self):
        rep = mermin.report(MerminPoint(2.5, 0.0))
        assert not rep.satisfies_locality_bound
        assert not rep.satisfies_quantum_locality_bound
        assert rep.satisfies_realism_bound
        assert rep.satisfies_quantum_bound
        assert rep.entanglement_class == mermin.CLASS_TWO_ENTANGLED

    def test_boundaries_are_inclusive(self):
        assert mermin.report(MerminPoint(1.0, 0.0)).entanglement_class == mermin.CLASS_SEPARABLE
        assert mermin.report(MerminPoint(1.0, 0.0)).satisfies_quantum_locality_bound
        assert mermin.report(MerminPoint(2.0, 2.0)).entanglement_class == mermin.CLASS_TWO_ENTANGLED
        assert mermin.report(MerminPoint(2.0, 0.0)).satisfies_locality_bound

    def test_outside_quantum_region_raises(self):
        with pytest.raises(ValueError, match=r"^radius\^2 = 25.0 exceeds the quantum bound 16$"):
            mermin.report(MerminPoint(5.0, 0.0))

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
        assert set(doc["bounds"]) == {"locality", "quantum_locality", "realism", "quantum"}


class TestFigure1:
    def test_four_curves(self):
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
