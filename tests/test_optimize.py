import json

import numpy as np
import pytest

from ghzlab import locality, mermin, optimize, qcore

# Small restart budgets keep the suite fast; the landscapes here are
# benign enough that even a handful of restarts hits the optimum.
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

    def test_all_products_plus_one_is_not_maximal(self):
        value = sum(coeff * 1.0 for coeff, _ in mermin.M_TERMS)
        assert abs(value) == 2.0


@pytest.mark.parametrize("maximize", [
    optimize.max_quantum_local_radius, optimize.max_biseparable_radius,
    optimize.max_quantum_radius,
], ids=["quantum_local", "biseparable", "quantum"])
@pytest.mark.parametrize("restarts", [0, -5])
def test_rejects_restarts_below_one(maximize, restarts):
    with pytest.raises(ValueError, match="restarts"):
        maximize(restarts)


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

    def test_cut_symmetry(self):
        result = optimize.max_biseparable_radius(FAST_RESTARTS, seed=5)
        maxima = list(result.argmax["per_cut_maxima"].values())
        assert max(maxima) - min(maxima) < 1e-4

    def test_within_membership_bound(self):
        result = optimize.max_biseparable_radius(FAST_RESTARTS, seed=5)
        assert result.best_value <= result.argmax["membership_bound"]

    def test_product_states_are_nested_inside(self):
        qlocal = optimize.max_quantum_local_radius(FAST_RESTARTS, seed=5)
        bisep = optimize.max_biseparable_radius(FAST_RESTARTS, seed=5)
        assert qlocal.best_value <= bisep.best_value + 1e-9


class TestQuantum:
    def test_maximum_is_16(self):
        result = optimize.max_quantum_radius(FAST_RESTARTS, seed=11)
        assert result.best_value == pytest.approx(16.0, abs=1e-6)

    def test_ghz_warm_start_is_already_optimal(self):
        result = optimize.max_quantum_radius(restarts=1, seed=11,
                                             warm_start=qcore.make_ghz())
        assert result.best_value == pytest.approx(16.0, abs=1e-9)

    def test_eigensolve_oracle_certifies_16(self):
        assert optimize.quantum_radius_eigen_oracle() == pytest.approx(16.0, abs=1e-9)

    def test_naive_square_sum_is_32(self):
        assert optimize.operator_square_sum_top_eigenvalue() == pytest.approx(32.0, abs=1e-9)

    def test_argmax_is_a_maximizing_state(self):
        result = optimize.max_quantum_radius(FAST_RESTARTS, seed=11)
        psi = qcore.StateVector(
            np.asarray(result.argmax["state_re"]) + 1j * np.asarray(result.argmax["state_im"]))
        assert mermin.evaluate_point(psi).radius_squared == pytest.approx(16.0, abs=1e-6)


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
        with pytest.raises(ValueError):
            optimize.noise_threshold("realism")

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            optimize.noise_threshold("locality", tol=0.0)
