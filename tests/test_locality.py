import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghzlab import locality, mermin, optimize, qcore
from ghzlab.errors import MalformedTable, ToleranceOutOfRange
from ghzlab.locality import (
    Cause,
    CorrelationTable,
    LocalModel,
    enumerate_strategies,
    ghz_correlation_table,
    ghz_sign_feasibility,
    model_joint_probability,
    model_to_table,
    polytope_membership,
    strategy_to_model,
)


def uniform_model():
    return LocalModel((Cause(1.0, np.full((3, 2), 0.5)),))


def all_plus_model():
    return strategy_to_model(((1, 1), (1, 1), (1, 1)))


def random_model(rng, max_causes=4):
    n = int(rng.integers(1, max_causes + 1))
    weights = rng.dirichlet(np.ones(n))
    causes = tuple(Cause(w, rng.uniform(0.0, 1.0, size=(3, 2))) for w in weights)
    return LocalModel(causes)


class TestLocalModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LocalModel((Cause(0.5, np.full((3, 2), 0.5)),))

    def test_probabilities_in_range(self):
        with pytest.raises(ValueError):
            Cause(1.0, np.full((3, 2), 1.5))

    def test_uniform_joint_probability(self):
        assert model_joint_probability(uniform_model(), "xxx", (1, 1, 1)) == pytest.approx(0.125)

    def test_deterministic_point_mass(self):
        assert model_joint_probability(all_plus_model(), "xxx", (1, 1, 1)) == pytest.approx(1.0)
        assert model_joint_probability(all_plus_model(), "xxx", (1, 1, -1)) == pytest.approx(0.0)

    def test_two_cause_mixture(self):
        model = LocalModel((
            Cause(0.5, np.ones((3, 2))),
            Cause(0.5, np.zeros((3, 2))),
        ))
        assert model_joint_probability(model, "xxx", (1, 1, 1)) == pytest.approx(0.5)


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_cause_weight(self, bad):
        with pytest.raises(ValueError):
            Cause(bad, np.full((3, 2), 0.5))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_cause_p_plus(self, bad):
        p_plus = np.full((3, 2), 0.5)
        p_plus[1, 1] = bad
        with pytest.raises(ValueError):
            Cause(1.0, p_plus)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_local_model_weight_sum(self, bad):
        # A cause whose weight changed after its own check cannot enter a model.
        cause = Cause(1.0, np.full((3, 2), 0.5))
        object.__setattr__(cause, "weight", bad)
        with pytest.raises(ValueError, match="sum to"):
            LocalModel((cause,))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_correlation_table(self, bad):
        blocks = {p: np.full(8, 0.125) for p in qcore.PATTERNS}
        blocks["xyy"][2] = bad
        with pytest.raises(MalformedTable, match="non-finite"):
            CorrelationTable(blocks)


class TestCorrelators:
    def test_uniform_vanishes(self):
        np.testing.assert_allclose(locality.correlators(uniform_model(), 0), np.zeros(6), atol=1e-15)

    def test_deterministic_all_plus(self):
        np.testing.assert_allclose(locality.correlators(all_plus_model(), 0), np.ones(6), atol=1e-15)

    def test_affine_map(self):
        p_plus = np.full((3, 2), 0.5)
        p_plus[0, 0] = 0.75
        model = LocalModel((Cause(1.0, p_plus),))
        bars = locality.correlators(model, 0)
        assert bars[0] == pytest.approx(0.5)

    def test_range_random_models(self, rng):
        for _ in range(50):
            model = random_model(rng)
            for mu in range(len(model.causes)):
                bars = locality.correlators(model, mu)
                assert np.all(bars >= -1.0 - 1e-12) and np.all(bars <= 1.0 + 1e-12)


class TestTripleCorrelations:
    def test_uniform(self):
        assert locality.model_triple_correlations(uniform_model()) == pytest.approx((0, 0, 0, 0))

    def test_all_plus(self):
        assert locality.model_triple_correlations(all_plus_model()) == pytest.approx((1, 1, 1, 1))

    def test_odd_mixture_cancels(self):
        model = LocalModel((
            Cause(0.5, np.ones((3, 2))),
            Cause(0.5, np.zeros((3, 2))),
        ))
        assert locality.model_triple_correlations(model) == pytest.approx((0, 0, 0, 0))

    def test_values_bounded(self, rng):
        for _ in range(100):
            values = locality.model_triple_correlations(random_model(rng))
            assert all(-1.0 - 1e-12 <= v <= 1.0 + 1e-12 for v in values)


class TestSignFeasibility:
    def test_no_assignment_satisfies_all_four(self):
        report = ghz_sign_feasibility()
        assert report.assignments_checked == 64
        assert report.satisfying == 0

    def test_parity_certificate(self):
        report = ghz_sign_feasibility()
        assert report.parity_lhs == 1
        assert report.parity_rhs == -1
        for assignment in locality.all_sign_assignments():
            assert int(np.prod(locality.constraint_products(assignment))) == 1

    def test_max_subset_is_three(self):
        report = ghz_sign_feasibility()
        assert report.max_subset == 3
        hits = locality.satisfied_constraints(report.max_subset_witness)
        assert len(hits) == 3

    def test_every_three_subset_has_witness(self):
        # Independent enumeration: each of the four 3-subsets is feasible.
        for subset in itertools.combinations(range(4), 3):
            witnesses = [
                a for a in locality.all_sign_assignments()
                if set(subset) <= set(locality.satisfied_constraints(a))
            ]
            assert witnesses, f"no witness for subset {subset}"

    def test_json_shape(self):
        doc = ghz_sign_feasibility().to_json_dict()
        assert doc == {"assignments_checked": 64, "satisfying": 0,
                       "max_subset": 3, "parity_lhs": 1, "parity_rhs": -1}


class TestHrConstrained:
    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_max_satisfied_is_one(self, tol):
        count, witness = locality.hr_constrained_satisfiability(tol)
        assert count == 1
        # Witness obeys the per-party disc constraint.
        bars = np.asarray(witness).reshape(3, 2)
        assert np.all(bars[:, 0] ** 2 + bars[:, 1] ** 2 <= 1.0 + 1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0])
    def test_tolerance_range(self, tol):
        with pytest.raises(ToleranceOutOfRange):
            locality.hr_constrained_satisfiability(tol)

    def test_all_zero_satisfies_nothing(self):
        assert locality._hr_satisfied_count((0.0,) * 6, 1e-6) == 0

    def test_unconstrained_maximum_matches_enumeration(self):
        # With both components allowed magnitude 1, the best is the sign
        # enumeration maximum of 3.
        best = max(
            len(locality.satisfied_constraints(a))
            for a in locality.all_sign_assignments()
        )
        assert best == 3

    @pytest.mark.parametrize("pair", list(itertools.combinations(range(4), 2)))
    def test_numeric_cross_check_no_pair_is_jointly_satisfiable(self, pair):
        gap = locality.hr_pair_violation_minimum(pair, restarts=8, seed=7)
        assert gap > 0.1


class TestEprContrast:
    @pytest.mark.parametrize("c1,c2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_feasible_for_all_sign_patterns(self, c1, c2):
        ix, iy, jx, jy = locality.epr_contrast(c1, c2)
        assert ix * jx == c1 and iy * jy == c2

    def test_reference_assignments(self):
        assert locality.epr_contrast(-1, -1) == (1, 1, -1, -1)
        assert locality.epr_contrast(1, 1) == (1, 1, 1, 1)

    @pytest.mark.parametrize("c1,c2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_enumeration_oracle(self, c1, c2):
        hits = [
            (ix, iy, jx, jy)
            for ix, iy, jx, jy in itertools.product((1, -1), repeat=4)
            if ix * jx == c1 and iy * jy == c2
        ]
        assert len(hits) == 4
        assert locality.epr_contrast(c1, c2) in hits

    def test_bad_targets(self):
        with pytest.raises(ValueError):
            locality.epr_contrast(0, 1)


class TestStrategies:
    def test_count_and_order(self):
        strategies = enumerate_strategies()
        assert len(strategies) == 64
        assert len(set(strategies)) == 64
        assert strategies[0] == ((1, 1), (1, 1), (1, 1))

    def test_strategy_tables_are_deterministic(self):
        for strategy in enumerate_strategies()[:8]:
            table = model_to_table(strategy_to_model(strategy))
            for pattern in qcore.PATTERNS:
                block = table.blocks[pattern]
                assert np.all(np.isin(np.round(block, 12), (0.0, 1.0)))
                assert block.sum() == pytest.approx(1.0)


class TestCorrelationTable:
    def test_ghz_blocks(self):
        table = ghz_correlation_table()
        for pattern, sign in zip(qcore.PATTERNS, (1, -1, -1, -1)):
            block = table.blocks[pattern]
            for outcome, p in zip(qcore.OUTCOMES, block):
                expected = 0.25 if np.prod(outcome) == sign else 0.0
                assert p == pytest.approx(expected, abs=1e-12)

    def test_triple_correlations_of_ghz(self):
        assert locality.table_triple_correlations(ghz_correlation_table()) == pytest.approx(
            (1.0, -1.0, -1.0, -1.0), abs=1e-12)

    def test_mermin_value_of_ghz(self):
        assert locality.table_mermin_value(ghz_correlation_table()) == pytest.approx(4.0, abs=1e-12)

    def test_json_roundtrip(self, tmp_path):
        table = ghz_correlation_table()
        path = tmp_path / "table.json"
        table.save(path)
        loaded = CorrelationTable.load(path)
        for pattern in qcore.PATTERNS:
            np.testing.assert_allclose(loaded.blocks[pattern], table.blocks[pattern], atol=1e-15)

    def test_json_outcome_order(self, tmp_path):
        doc = ghz_correlation_table().to_json_dict()
        # (+++, ++-, +-+, +--, -++, -+-, --+, ---)
        assert doc["blocks"]["xxx"][0] == pytest.approx(0.25)
        assert doc["blocks"]["xxx"][1] == pytest.approx(0.0)

    def test_malformed_blocks(self):
        with pytest.raises(MalformedTable):
            CorrelationTable({p: np.full(8, 0.25) for p in qcore.PATTERNS})
        with pytest.raises(MalformedTable):
            CorrelationTable({p: np.full(8, 0.125) for p in qcore.PATTERNS[:-1]})


class TestPolytopeMembership:
    def test_uniform_table_inside(self):
        table = model_to_table(uniform_model())
        result = polytope_membership(table)
        assert result.inside
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_ghz_table_outside(self):
        result = polytope_membership(ghz_correlation_table())
        assert not result.inside
        assert result.max_residual > 1e-3

    def test_deterministic_strategy_recovered(self):
        strategies = enumerate_strategies()
        index = 23
        table = model_to_table(strategy_to_model(strategies[index]))
        result = polytope_membership(table)
        assert result.inside
        assert result.weights[index] == pytest.approx(1.0, abs=1e-8)

    def test_roundtrip_200_random_models(self, rng):
        for _ in range(200):
            table = model_to_table(random_model(rng))
            assert polytope_membership(table).inside

    @pytest.mark.parametrize("visibility,inside", [(0.4, True), (0.49, True),
                                                   (0.51, False), (0.8, False)])
    def test_agrees_with_locality_bound(self, visibility, inside):
        # Noisy-GHZ tables have Mermin value 4v; above 2 they must be
        # outside the polytope.
        ghz_blocks = ghz_correlation_table().blocks
        blocks = {
            p: visibility * ghz_blocks[p] + (1.0 - visibility) * np.full(8, 0.125)
            for p in qcore.PATTERNS
        }
        table = CorrelationTable(blocks)
        assert locality.table_mermin_value(table) == pytest.approx(4.0 * visibility, abs=1e-12)
        result = polytope_membership(table)
        if locality.table_mermin_value(table) > 2.0:
            assert not result.inside
        assert result.inside == inside


# --- property tests of the one correlator path ------------------------------

@st.composite
def local_models(draw):
    count = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count))
    causes = []
    for weight in np.asarray(raw) / sum(raw):
        p_plus = draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
        causes.append(Cause(weight, np.reshape(p_plus, (3, 2))))
    return LocalModel(tuple(causes))


def brute_force_table(model):
    """sum_mu w_mu prod_k p(outcome_k), one cause, party and outcome at a time."""
    blocks = {}
    for pattern in qcore.PATTERNS:
        block = []
        for outcome in qcore.OUTCOMES:
            total = 0.0
            for cause in model.causes:
                prod = cause.weight
                for party, (setting, sign) in enumerate(zip(pattern, outcome)):
                    p = cause.p_plus[party]["xy".index(setting)]
                    prod *= p if sign == +1 else 1.0 - p
                total += prod
            block.append(total)
        blocks[pattern] = block
    return blocks


class TestOneCorrelatorPath:
    @given(local_models())
    def test_model_table_matches_brute_force(self, model):
        table = model_to_table(model)
        reference = brute_force_table(model)
        for pattern in qcore.PATTERNS:
            assert np.max(np.abs(table.blocks[pattern] - reference[pattern])) <= 1e-15
            for outcome, p in zip(qcore.OUTCOMES, reference[pattern]):
                assert abs(model_joint_probability(model, pattern, outcome) - p) <= 1e-15

    @given(local_models())
    def test_table_triple_correlations_match_the_outcome_loop(self, model):
        table = model_to_table(model)
        for pattern, value in zip(qcore.PATTERNS, locality.table_triple_correlations(table)):
            reference = sum(np.prod(out) * p for out, p in zip(qcore.OUTCOMES, table.blocks[pattern]))
            assert abs(value - reference) <= 8 * np.finfo(float).eps

    @given(local_models())
    def test_probability_and_correlator_routes_agree(self, model):
        via_table = locality.table_triple_correlations(model_to_table(model))
        direct = locality.model_triple_correlations(model)
        assert np.max(np.abs(np.subtract(via_table, direct))) <= 1e-12

    @given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=48)
           .map(lambda raw: np.reshape(raw[:len(raw) // 6 * 6], (-1, 3, 2))),
           st.lists(st.sampled_from(["".join(s) for s in itertools.product("xy", repeat=3)]),
                    min_size=1, max_size=8))
    def test_batch_triple_products_equal_the_loop(self, batch, patterns):
        products = locality.triple_products(batch, patterns)
        assert products.shape == (len(batch), len(patterns))
        for values, row in zip(batch, products):
            np.testing.assert_array_equal(row, locality.triple_products(values, patterns))
            for pattern, product in zip(patterns, row):
                ix, jx, kx = ("xy".index(ch) for ch in pattern)
                assert product == values[0][ix] * values[1][jx] * values[2][kx]

    @pytest.mark.parametrize("which,terms", [("m", mermin.M_TERMS),
                                             ("mprime", mermin.MPRIME_TERMS)])
    def test_local_maximum_is_its_argmax_strategy_value(self, which, terms):
        # <M> from the strategy's probability table; <M'> (whose patterns are
        # not in the table) from the strategy model's triple correlations.
        def value(strategy):
            model = strategy_to_model(strategy)
            if which == "m":
                return abs(locality.table_mermin_value(model_to_table(model)))
            patterns = [settings.lower() for _, settings in terms]
            correlations = locality.model_triple_correlations(model, patterns)
            return abs(mermin.witness_value(terms, dict(zip(patterns, correlations))))

        result = optimize.max_local_mermin(which)
        strategy = tuple(map(tuple, result.argmax["strategy"]))
        assert result.best_value == value(strategy)
        assert result.best_value == max(value(s) for s in enumerate_strategies())
