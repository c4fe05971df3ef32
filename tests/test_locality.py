import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab import cli, locality, mermin, optimize, qcore
from ghzlab.errors import SelfCheckFailed
from ghzlab.locality import (
    Cause,
    CorrelationTable,
    LocalModel,
    SIGNS,
    ghz_correlation_table,
    ghz_sign_feasibility,
    model_to_table,
    polytope_membership,
)

from conftest import BAD_REAL_ENTRIES, BAD_SCALARS, random_pure_state, refusal


def uniform_model():
    return LocalModel((Cause(1.0, np.full((3, 2), 0.5)),))


def all_plus_model():
    return LocalModel((Cause(1.0, np.ones((3, 2))),))


def strategy_table(index):
    """The table of strategy SIGNS[index]: its column of the strategy matrix."""
    column = locality._strategy_matrix()[:, index]
    return CorrelationTable(dict(zip(qcore.PATTERNS, column.reshape(len(qcore.PATTERNS), 8))))


def table_triple_correlations(table):
    """Each pattern's triple correlation: its block weighed by the outcome signs."""
    return tuple(float(qcore.OUTCOME_SIGNS @ table.blocks[p]) for p in qcore.PATTERNS)


def table_mermin(table):
    """<M> of a table: its triple correlations weighed by CONSTRAINT_TARGETS."""
    return float(np.dot(locality.CONSTRAINT_TARGETS, table_triple_correlations(table)))


def joint_probability(model, pattern, outcomes):
    return model_to_table(model).blocks[pattern][qcore.OUTCOMES.index(outcomes)]


def random_model(rng, max_causes=4):
    n = int(rng.integers(1, max_causes + 1))
    weights = rng.dirichlet(np.ones(n))
    causes = tuple(Cause(w, rng.uniform(0.0, 1.0, size=(3, 2))) for w in weights)
    return LocalModel(causes)


PAIRS = list(itertools.combinations(range(4), 2))


def _coordinate_descent(f, x0, step: float = 0.3, shrink: float = 0.5,
                        min_step: float = 1e-8):
    """Derivative-free minimization by per-coordinate probing."""
    x = np.array(x0, dtype=float)
    fx = f(x)
    while step >= min_step:
        improved = False
        for i in range(x.size):
            for delta in (step, -step):
                trial = x.copy()
                trial[i] += delta
                ft = f(trial)
                if ft < fx:
                    x, fx = trial, ft
                    improved = True
        if not improved:
            step *= shrink
    return x, fx


def numeric_pair_minimum(pair, restarts, seed):
    """Least summed squared violation of two constraints over per-party discs,
    by seeded random-restart coordinate descent; independent of the closed form."""
    targets = np.take(locality.CONSTRAINT_TARGETS, pair)
    patterns = [qcore.PATTERNS[n] for n in pair]

    def violation(params):
        # params: per party (angle, radius); radius clipped into [0, 1].
        angle, radius = params[0::2], np.clip(params[1::2], 0.0, 1.0)
        bars = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        return float(np.sum((locality.triple_products(bars, patterns) - targets) ** 2))

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        x0 = np.empty(6)
        x0[0::2] = rng.uniform(0.0, 2.0 * np.pi, size=3)
        x0[1::2] = rng.uniform(0.0, 1.0, size=3)
        best = min(best, _coordinate_descent(violation, x0)[1])
    return best


HALF = np.full((3, 2), 0.5).tolist()


def with_entry(entry):
    """A copy of HALF with p_plus[1][0] replaced."""
    p_plus = [list(row) for row in HALF]
    p_plus[1][0] = entry
    return p_plus


class TestLocalModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LocalModel((Cause(0.5, np.full((3, 2), 0.5)),))

    def test_probabilities_in_range(self):
        # Exactly [0, 1], like the weights' >= 0: a cause's table entries are then >= 0.
        for entry in (1.5, 1.0 + 1e-12, -1e-12, -0.5):
            with pytest.raises(ValueError, match=r"^response probabilities must lie in \[0, 1\]$"):
                LocalModel((Cause(1.0, with_entry(entry)),))

    @pytest.mark.parametrize("p_plus,message", [
        (np.full((2, 3), 0.5), r"p_plus must be 3x2, got shape \(2, 3\)"),
        (np.full(6, 0.5), r"p_plus must be 3x2, got shape \(6,\)"),
        ([[0.5, 0.5], [0.5, 0.5], [0.5]], "p_plus entry must be a real number, got list"),
        ([[0.5, 0.5], [0.5, 0.5], [0.5, [0.5]]], "p_plus entry must be a real number, got list"),
        ([["a", 0.5], [0.5, 0.5], [0.5, 0.5]], "p_plus entry must be a real number, got str"),
        ([[0.5j, 0.5], [0.5, 0.5], [0.5, 0.5]],
         "p_plus entry must be a real number, got complex"),
    ], ids=[f"p_plus{n}" for n in range(6)])
    def test_misshaped_p_plus(self, p_plus, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LocalModel((Cause(1.0, p_plus),))

    def test_negative_weight(self):
        causes = (Cause(1.5, np.full((3, 2), 0.5)), Cause(-0.5, np.full((3, 2), 0.5)))
        with pytest.raises(ValueError, match="^cause weight must be nonnegative and finite$"):
            LocalModel(causes)

    @pytest.mark.parametrize("weight,p_plus,message", [
        ("1", HALF, "cause weight must be a real number, got str"),
        (1.0, with_entry("0.5"), "p_plus entry must be a real number, got str"),
        (1.0, with_entry(b"1"), "p_plus entry must be a real number, got bytes"),
        (True, HALF, "cause weight must be a real number, got bool"),
        (1.0, with_entry(np.True_), "p_plus entry must be a real number, got bool"),
        (1.0, with_entry(0.5 + 0j), "p_plus entry must be a real number, got complex"),
        ("1", [["0.5", b"1"], [True, 0.5], [0.5, 0.5]],
         "cause weight must be a real number, got str"),
        ([1.0], HALF, r"cause weight must be a real number, got shape \(1,\)"),
        (10 ** 400, HALF, "cause weight is too large for a float"),
        (1.0, np.ones((3, 2), dtype=bool), "p_plus entry must be a real number, got bool"),
        (1.0, np.full((3, 2), 0.5 + 0j), "p_plus entry must be a real number, got complex"),
    ], ids=["str-weight", "str-entry", "bytes-entry", "true-weight", "numpy-true-entry",
            "complex-entry", "all-at-once", "list-weight", "huge-int-weight", "bool-array",
            "complex-array"])
    def test_non_numbers_are_refused_not_parsed(self, weight, p_plus, message):
        # np.array(..., dtype=float) reads "0.5", b"1" and True as floats.
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            LocalModel((Cause(weight, p_plus),))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("make", [
        lambda rng: (rng.dirichlet(np.ones(3)), [rng.uniform(0.0, 1.0, (3, 2)) for _ in range(3)]),
        lambda rng: ([1.0], [[[0, 1], [1, 0], [1, 1]]]),
        lambda rng: ([0, 1], [np.zeros((3, 2), dtype=int), np.ones((3, 2), dtype=np.int64)]),
    ], ids=["numpy-floats", "int-entries", "int-weights-and-arrays"])
    def test_real_numbers_are_accepted(self, make, rng):
        weights, p_plus = make(rng)
        model = LocalModel(tuple(Cause(w, p) for w, p in zip(weights, p_plus)))
        np.testing.assert_array_equal(model.weights, np.asarray(weights, dtype=float))
        np.testing.assert_array_equal(model.p_plus, np.asarray(p_plus, dtype=float))

    def test_causes_are_held_once_as_read_only_arrays(self):
        model = random_model(np.random.default_rng(3))
        assert not hasattr(model, "causes")
        assert model.p_plus.shape == (len(model.weights), 3, 2)
        for arr in (model.weights, model.p_plus):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5

    def test_uniform_joint_probability(self):
        assert joint_probability(uniform_model(), "xxx", (1, 1, 1)) == pytest.approx(0.125)

    def test_deterministic_point_mass(self):
        assert joint_probability(all_plus_model(), "xxx", (1, 1, 1)) == pytest.approx(1.0)
        assert joint_probability(all_plus_model(), "xxx", (1, 1, -1)) == pytest.approx(0.0)

    def test_two_cause_mixture(self):
        model = LocalModel((
            Cause(0.5, np.ones((3, 2))),
            Cause(0.5, np.zeros((3, 2))),
        ))
        assert joint_probability(model, "xxx", (1, 1, 1)) == pytest.approx(0.5)


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad,message", BAD_REAL_ENTRIES)
    def test_cause_weight(self, bad, message):
        # Beside a second weight, a nested one is ragged rather than a 2-D shape.
        causes = (Cause(bad, HALF), Cause(0.0, HALF))
        with pytest.raises(ValueError, match=refusal(message, "cause weight")):
            LocalModel(causes)

    @pytest.mark.parametrize("bad,message", BAD_REAL_ENTRIES)
    def test_cause_p_plus(self, bad, message):
        with pytest.raises(ValueError, match=refusal(message, "p_plus entry")):
            LocalModel((Cause(1.0, with_entry(bad)),))

    @pytest.mark.parametrize("bad,message", BAD_SCALARS)
    def test_hr_tolerance(self, bad, message):
        with pytest.raises(ValueError, match=refusal(message, "tolerance")):
            locality.hr_constrained_satisfiability(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_local_model_weight_sum(self, bad):
        # A non-finite weight is refused before the weights are summed.
        with pytest.raises(ValueError, match="^cause weight is non-finite$"):
            LocalModel((Cause(bad, np.full((3, 2), 0.5)),))

    @pytest.mark.parametrize("bad,message", BAD_REAL_ENTRIES)
    def test_correlation_table(self, bad, message):
        # A non-finite float goes into an ndarray, which the reader takes whole.
        blocks = {p: np.full(8, 0.125) if isinstance(bad, float) else [0.125] * 8
                  for p in qcore.PATTERNS}
        blocks["xyy"][2] = bad
        with pytest.raises(ValueError, match=refusal(message, "block 'xyy' entry")):
            CorrelationTable(blocks)


def triple_correlations(model):
    return table_triple_correlations(model_to_table(model))


class TestTripleCorrelations:
    def test_uniform(self):
        assert triple_correlations(uniform_model()) == pytest.approx((0, 0, 0, 0))

    def test_all_plus(self):
        assert triple_correlations(all_plus_model()) == pytest.approx((1, 1, 1, 1))

    def test_odd_mixture_cancels(self):
        model = LocalModel((
            Cause(0.5, np.ones((3, 2))),
            Cause(0.5, np.zeros((3, 2))),
        ))
        assert triple_correlations(model) == pytest.approx((0, 0, 0, 0))

    def test_values_bounded(self, rng):
        for _ in range(100):
            values = triple_correlations(random_model(rng))
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

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, 1, 0.5, 0.6])
    def test_tolerance_range(self, tol):
        with pytest.raises(ValueError, match=rf"^tolerance {float(tol)!r} outside \(0, 0.5\)$"):
            locality.hr_constrained_satisfiability(tol)

    def test_two_constraints_hold_within_one_half(self):
        # Bars (1, 0), (1, 1)/sqrt(2), (1, -1)/sqrt(2) give xxx = 1/2 and
        # xyy = -1/2, each 1/2 from its target; sqrt(0.5) rounds up, so the
        # float products lie one ulp beyond 1/2 in magnitude.
        h = np.sqrt(0.5)
        bars = (1.0, 0.0, h, h, h, -h)
        disc = np.asarray(bars).reshape(3, 2)
        assert np.all(disc[:, 0] ** 2 + disc[:, 1] ** 2 <= 1.0 + 1e-15)
        assert locality._hr_satisfied_count(bars, 0.5) == 2
        assert locality._hr_satisfied_count(bars, 0.5 - 1e-9) == 0

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

    @pytest.mark.parametrize("pair", PAIRS)
    def test_numeric_cross_check_no_pair_is_jointly_satisfiable(self, pair):
        # Exact minimum 1/2: |T1| + |T2| <= 1 by Cauchy-Schwarz, nearest
        # point (t1, t2)/2 (see hr_pair_violation_minimum).
        gap = numeric_pair_minimum(pair, restarts=8, seed=7)
        assert gap == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_pair_minimum_is_exactly_one_half(self, pair):
        # restarts and seed are read, and change nothing else.
        assert locality.hr_pair_violation_minimum(pair) == 0.5
        for restarts, seed in [(1, 0), (6, 4), (32, 42), (np.int64(1000), 2 ** 40)]:
            assert locality.hr_pair_violation_minimum(pair, restarts=restarts, seed=seed) == 0.5
            assert locality.hr_pair_violation_minimum(pair[::-1], restarts, seed) == 0.5

    @pytest.mark.parametrize("pair,restarts,message", [
        ((0, 1), 0, "^restarts must be >= 1, got 0$"),
        ((0, 1), -3, "^restarts must be >= 1, got -3$"),
        ((0, 1), True, "^restarts must be an integer, got bool$"),
        ((0, 1), 4.0, "^restarts must be an integer, got float$"),
        ((2, 2), 32, r"^pair must be two distinct indices in 0..3, got \(2, 2\)$"),
        ((0, 7), 32, r"^pair must be two distinct indices in 0..3, got \(0, 7\)$"),
        ((0.0, 1.0), 32, r"^pair must be two distinct indices in 0..3, got \(0.0, 1.0\)$"),
        ((True, 2), 32, r"^pair must be two distinct indices in 0..3, got \(True, 2\)$"),
        ((0, 1, 1), 32, r"^pair must be two distinct indices in 0..3, got \(0, 1, 1\)$"),
        (5, 32, r"^pair must be two distinct indices in 0..3, got 5$"),
        ("01", 32, r"^pair must be two distinct indices in 0..3, got '01'$"),
    ], ids=["restarts-0", "restarts-negative", "restarts-bool", "restarts-float",
            "pair-repeated", "pair-out-of-range", "pair-float", "pair-bool", "pair-three-entries",
            "pair-int", "pair-str"])
    def test_pair_minimum_refuses_meaningless_input(self, pair, restarts, message):
        with pytest.raises(ValueError, match=message):
            locality.hr_pair_violation_minimum(pair, restarts=restarts)

    def test_witness_off_one_half_is_refused(self, monkeypatch):
        monkeypatch.setattr(qcore, "SQRT2_INV", 0.7)
        with pytest.raises(SelfCheckFailed, match="^HR witness reached 0.52"):
            locality.hr_pair_violation_minimum((0, 1))

    def test_pair_not_sharing_one_setting_is_refused(self, capsys, monkeypatch):
        # With yyy in place of yyx, xxx and yyy share no party's setting and
        # xyy and yyy share two: the Cauchy-Schwarz premise fails for both.
        monkeypatch.setattr(locality, "PATTERNS", ("xxx", "xyy", "yxy", "yyy"))
        none = "patterns 'xxx' and 'yyy' share 0 parties' settings, not 1"
        with pytest.raises(SelfCheckFailed, match=f"^{none}$"):
            locality.hr_pair_violation_minimum((0, 3))
        with pytest.raises(SelfCheckFailed, match="^patterns 'xyy' and 'yyy' share 2 parties'"):
            locality.hr_pair_violation_minimum((1, 3))
        assert cli.main(["contradiction"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {none}\n")


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
        # Booleans and floats equal +-1 but are not the integer targets.
        for c1, c2 in [(0, 1), (True, -1), (1, False), (1.0, -1.0), (-1, -1.0),
                       (np.True_, 1), ("1", 1), (None, 1)]:
            with pytest.raises(ValueError, match=r"^targets must be \+-1$"):
                locality.epr_contrast(c1, c2)

    def test_numpy_integer_targets(self):
        assert locality.epr_contrast(np.int64(1), np.int8(-1)) == (1, 1, 1, -1)


class TestStrategies:
    def test_count_and_order(self):
        assert SIGNS.shape == (64, 3, 2)
        assert len(np.unique(SIGNS.reshape(64, 6), axis=0)) == 64
        assert SIGNS[0].tolist() == [[1, 1], [1, 1], [1, 1]]

    def test_strategy_tables_are_deterministic(self):
        for index in range(len(SIGNS)):
            table = strategy_table(index)
            for pattern in qcore.PATTERNS:
                block = table.blocks[pattern]
                assert np.all(np.isin(np.round(block, 12), (0.0, 1.0)))
                assert block.sum() == pytest.approx(1.0)

    def test_strategy_columns_are_their_one_cause_model_tables(self):
        for index, signs in enumerate(SIGNS):
            model = LocalModel((Cause(1.0, (signs + 1) / 2),))
            np.testing.assert_array_equal(locality._table_vector(model_to_table(model)),
                                          locality._strategy_matrix()[:, index])


class TestCorrelationTable:
    def test_ghz_blocks(self):
        table = ghz_correlation_table()
        for pattern, sign in zip(qcore.PATTERNS, (1, -1, -1, -1)):
            block = table.blocks[pattern]
            for outcome, p in zip(qcore.OUTCOMES, block):
                expected = 0.25 if np.prod(outcome) == sign else 0.0
                assert p == pytest.approx(expected, abs=1e-12)

    def test_triple_correlations_of_ghz(self):
        assert table_triple_correlations(ghz_correlation_table()) == pytest.approx(
            (1.0, -1.0, -1.0, -1.0), abs=1e-12)

    def test_mermin_value_of_ghz(self):
        assert table_mermin(ghz_correlation_table()) == pytest.approx(4.0, abs=1e-12)

    def test_malformed_blocks(self):
        with pytest.raises(ValueError, match="^block 'xxx' sums to 2.0$"):
            CorrelationTable({p: np.full(8, 0.25) for p in qcore.PATTERNS})
        with pytest.raises(ValueError, match="^missing block 'yyx'$"):
            CorrelationTable({p: np.full(8, 0.125) for p in qcore.PATTERNS[:-1]})
        with pytest.raises(ValueError, match="^unexpected block 'zzz'$"):
            CorrelationTable({p: np.full(8, 0.125) for p in (*qcore.PATTERNS, "zzz")})


@pytest.mark.parametrize("call,message", [
    (lambda: CorrelationTable(None), "a mapping of blocks, got <class 'NoneType'>"),
    (lambda: CorrelationTable("xxx"), "a mapping of blocks, got <class 'str'>"),
    (lambda: CorrelationTable(list(qcore.PATTERNS)), "a mapping of blocks, got <class 'list'>"),
    (lambda: LocalModel(5), "a tuple of Cause, got <class 'int'>"),
    (lambda: LocalModel([None]), "a tuple of Cause, got <class 'NoneType'>"),
    (lambda: LocalModel(Cause(1.0, HALF)), "a tuple of Cause, got <class 'ghzlab.locality.Cause'>"),
    (lambda: LocalModel((Cause(1.0, HALF), (0.0, HALF))), "a tuple of Cause, got <class 'tuple'>"),
], ids=["table-none", "table-str", "table-list", "model-int", "model-none", "model-bare-cause",
        "model-pair"])
def test_a_constructor_given_the_wrong_kind_is_a_type_error(call, message):
    # These once gave "is not iterable", "unexpected block 'x'" or an AttributeError.
    with pytest.raises(TypeError, match=f"^expected {re.escape(message)}$"):
        call()


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

    @pytest.mark.parametrize("call,expected", [
        (lambda: polytope_membership({}), "CorrelationTable"),
        (lambda: polytope_membership(ghz_correlation_table().blocks), "CorrelationTable"),
        (lambda: model_to_table(None), "LocalModel"),
        (lambda: model_to_table((Cause(1.0, np.ones((3, 2))),)), "LocalModel"),
    ], ids=["membership-dict", "membership-blocks", "model-none", "model-causes"])
    def test_a_value_of_the_wrong_kind_is_a_type_error(self, call, expected):
        # Named as mermin.report names its class, never an AttributeError.
        with pytest.raises(TypeError, match=rf"^expected {expected}, got <class '\w+'>$"):
            call()

    def test_deterministic_strategy_recovered(self):
        index = 23
        table = strategy_table(index)
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
        assert table_mermin(table) == pytest.approx(4.0 * visibility, abs=1e-12)
        result = polytope_membership(table)
        if table_mermin(table) > 2.0:
            assert not result.inside
        assert result.inside == inside


# --- identity equality of the array-holding records --------------------------

@pytest.mark.parametrize("make", [
    lambda: qcore.make_ghz(),
    lambda: qcore.mix_with_white_noise(qcore.make_ghz(), 0.5),
    lambda: ghz_correlation_table(),
    lambda: Cause(1.0, np.full((3, 2), 0.5)),
    lambda: uniform_model(),
    lambda: polytope_membership(model_to_table(uniform_model())),
], ids=["StateVector", "DensityMatrix", "CorrelationTable", "Cause", "LocalModel",
        "Membership"])
def test_equality_is_identity(make):
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert a == a and a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2


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
            for weight, p_plus in zip(model.weights, model.p_plus):
                prod = weight
                for party, (setting, sign) in enumerate(zip(pattern, outcome)):
                    p = p_plus[party]["xy".index(setting)]
                    prod *= p if sign == +1 else 1.0 - p
                total += prod
            block.append(total)
        blocks[pattern] = block
    return blocks


@st.composite
def edge_causes(draw):
    """Causes at the edge of what LocalModel accepts: weights summing to
    1 + u READ_SLACK, |u| <= 1, and response probabilities at 0 or 1 exactly or
    in between, one of them perhaps moved a slack past 0 or 1."""
    count = draw(st.integers(1, 4))
    raw = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count)))
    weights = raw / raw.sum() * (1.0 + draw(st.floats(-1.0, 1.0)) * qcore.READ_SLACK)
    entries = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                       min_size=6 * count, max_size=6 * count)
    p_plus = np.reshape(draw(entries), (count, 3, 2))
    past = draw(st.sampled_from([None, None, -qcore.READ_SLACK, 1.0 + qcore.READ_SLACK]))
    if past is not None:
        p_plus.flat[draw(st.integers(0, p_plus.size - 1))] = past
    return tuple(Cause(float(weight), entry) for weight, entry in zip(weights, p_plus))


class TestAcceptedModels:
    @settings(derandomize=True, database=None)
    @given(edge_causes())
    def test_an_accepted_model_has_an_accepted_table_inside(self, causes):
        # Whatever LocalModel accepts, model_to_table, CorrelationTable and
        # polytope_membership accept too; what it refuses is past an edge.
        weights = np.array([cause.weight for cause in causes])
        p_plus = np.array([cause.p_plus for cause in causes])
        try:
            model = LocalModel(causes)
        except ValueError:
            assert (np.any((p_plus < 0) | (p_plus > 1))
                    or abs(weights.sum() - 1.0) > qcore.READ_SLACK / 2)
            return
        assert polytope_membership(model_to_table(model)).inside

    def test_weights_leave_the_table_room_for_its_rounding(self):
        # This weight is within READ_SLACK of 1, but its table's blocks sum to
        # 1 + 1.00009e-12: a model keeps half the slack for the table's rounding.
        weight, p_plus = 1.0000000000009999, np.full((3, 2), 0.1)
        with pytest.raises(ValueError, match=r"^cause weights sum to 1.0000000000009999, not 1$"):
            LocalModel((Cause(weight, p_plus),))
        blocks = weight * locality._cause_probabilities(p_plus)
        with pytest.raises(ValueError, match=r"^block 'xxx' sums to 1.000000000001$"):
            CorrelationTable(dict(zip(qcore.PATTERNS, blocks)))


class TestOneCorrelatorPath:
    @given(local_models())
    def test_model_table_matches_brute_force(self, model):
        table = model_to_table(model)
        reference = brute_force_table(model)
        for pattern in qcore.PATTERNS:
            assert np.max(np.abs(table.blocks[pattern] - reference[pattern])) <= 1e-15

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

    @pytest.mark.parametrize("values,patterns,message", [
        (np.ones((3, 2)), ["xxz"], "one setting per qubit required (x or y): 'xxz'"),
        (np.ones((3, 2)), ["xx"], "one setting per qubit required (x or y): 'xx'"),
        (np.ones((3, 2)), [5], "one setting per qubit required (x or y): 5"),
        (np.ones((3, 2)), [None], "one setting per qubit required (x or y): None"),
        (np.ones((3, 3)), qcore.PATTERNS, "local values must end in axes (3, 2), got shape (3, 3)"),
        (np.ones((2, 3)), qcore.PATTERNS, "local values must end in axes (3, 2), got shape (2, 3)"),
        (np.ones(6), qcore.PATTERNS, "local values must end in axes (3, 2), got shape (6,)"),
        (1.0, qcore.PATTERNS, "local values must end in axes (3, 2), got shape ()"),
    ], ids=["setting-z", "two-settings", "int-pattern", "none-pattern", "three-settings",
            "two-parties", "flat", "scalar"])
    def test_a_refused_pattern_or_shape_is_one_value_error(self, values, patterns, message):
        # Each pattern is read by qcore.read_settings, as the signed sums read theirs.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            locality.triple_products(values, patterns)

    @pytest.mark.parametrize("which,terms", [("m", mermin.M_TERMS),
                                             ("mprime", mermin.MPRIME_TERMS)])
    def test_local_maximum_is_its_argmax_strategy_value(self, which, terms):
        # <M> from the strategy's probability table; <M'> (whose patterns are
        # not in the table) from the strategy's +-1 signs, term by term.
        def value(index):
            if which == "m":
                return abs(table_mermin(strategy_table(index)))
            strategy, total = SIGNS[index], 0.0
            for coeff, settings in terms:
                i, j, k = ("XY".index(ch) for ch in settings)
                total += coeff * strategy[0][i] * strategy[1][j] * strategy[2][k]
            return abs(total)

        result = optimize.max_local_mermin(which)
        index = SIGNS.tolist().index(result.argmax["strategy"])
        assert result.best_value == value(index)
        assert result.best_value == max(value(j) for j in range(len(SIGNS)))


# --- the nearest-point membership search ------------------------------------

def noisy_ghz_table(visibility):
    """v GHZ + (1 - v) white noise; <M> = 4v against the local bound 2."""
    blocks = ghz_correlation_table().blocks
    return CorrelationTable({p: visibility * b + (1.0 - visibility) / 8.0
                             for p, b in blocks.items()})


def state_table(state):
    return CorrelationTable({p: qcore.outcome_probabilities(state, p) for p in qcore.PATTERNS})


def haar_table(rng):
    return state_table(random_pure_state(rng))


def seed_5_haar_states(count):
    """The first ``count`` Haar-random pure states of seed 5."""
    rng = np.random.default_rng(5)
    return [random_pure_state(rng) for _ in range(count)]


def seed_5_haar_tables(count):
    """The tables of the first ``count`` Haar-random pure states of seed 5."""
    return [state_table(state) for state in seed_5_haar_states(count)]


#: Table families the search is compared with the reference on.
TABLE_FAMILIES = {
    "strategies": lambda: [strategy_table(index) for index in range(len(SIGNS))],
    "local-mixtures": lambda: [model_to_table(random_model(np.random.default_rng(seed)))
                               for seed in range(200)],
    "noisy-ghz": lambda: [noisy_ghz_table(v)
                          for v in [*np.linspace(0.0, 1.0, 101), 0.5 - 1e-7, 0.5 + 1e-7]],
    "haar-seed-5": lambda: seed_5_haar_tables(200),
}


def reference_nearest_point(b_vec):
    """The membership search as first written, kept as the reference the rewrite
    must match bit for bit: A^T A built per call, the passive set read through a
    boolean mask, a solve on every pass and a gradient masked by np.where."""
    a_mat = locality._strategy_matrix()
    gram, target = a_mat.T @ a_mat, a_mat.T @ b_vec
    w, passive = np.zeros(len(SIGNS)), np.zeros(len(SIGNS), dtype=bool)
    for _ in range(locality.MEMBERSHIP_PIVOTS):
        s = np.zeros_like(w)
        s[passive] = np.linalg.solve(gram[np.ix_(passive, passive)], target[passive])
        if np.all(s[passive] > 0):
            w = s
            gradient = np.where(passive, -np.inf, target - gram @ w)
            if gradient.max() <= 1e-13:
                return w, b_vec - a_mat @ w
            passive[np.argmax(gradient)] = True
        else:
            blocking = np.flatnonzero(passive & (s <= 0))
            steps = w[blocking] / (w[blocking] - s[blocking])
            w = w + steps.min() * (s - w)
            passive[blocking[steps == steps.min()]] = False
            w[~passive] = 0.0
    raise SelfCheckFailed(f"membership search ran out of pivots ({locality.MEMBERSHIP_PIVOTS})")


def assert_inside_certified(table, result):
    """The returned weights are a local model within MEMBERSHIP_TOL of the table."""
    b_vec = locality._table_vector(table)
    assert result.inside
    assert np.all(result.weights >= 0)
    assert result.max_residual == np.max(np.abs(locality._strategy_matrix() @ result.weights - b_vec))
    assert result.max_residual <= locality.MEMBERSHIP_TOL


def assert_outside_certified(table, result):
    """r = b - A w at the nearest point separates the table from all 64 strategies:
    A_j^T r <= 0 on every strategy column, b^T r > 0 on the table."""
    a_mat, b_vec = locality._strategy_matrix(), locality._table_vector(table)
    w, r = locality._nearest_point(b_vec)
    assert not result.inside and result.weights is None
    assert np.all(w >= 0)
    np.testing.assert_array_equal(r, b_vec - a_mat @ w)
    assert result.max_residual == np.max(np.abs(r)) > 1e-4
    assert np.max(a_mat.T @ r) <= 1e-12 < b_vec @ r


class TestNearestPoint:
    @pytest.mark.parametrize("excess", [1e-7, 1e-6])
    def test_just_above_the_mermin_bound_is_outside(self, excess):
        table = noisy_ghz_table(0.5 + excess)
        assert table_mermin(table) > 2.0
        result = polytope_membership(table)
        assert not result.inside
        assert result.weights is None and result.max_residual > locality.MEMBERSHIP_TOL

    @given(local_models())
    def test_local_models_are_inside_with_their_weights(self, model):
        table = model_to_table(model)
        assert_inside_certified(table, polytope_membership(table))

    def test_noisy_ghz_grid_is_certified_either_way(self):
        for visibility in [*np.linspace(0.0, 1.0, 101), 0.5 - 1e-6]:
            table = noisy_ghz_table(visibility)
            result = polytope_membership(table)
            assert result.inside == (visibility <= 0.5)
            if result.inside:
                assert_inside_certified(table, result)
            elif visibility >= 0.55:  # 0.55, 0.56, ..., 1.0 (GHZ)
                assert_outside_certified(table, result)

    def test_ghz_residual_is_the_nearest_point_distance(self):
        result = polytope_membership(ghz_correlation_table())
        assert result.max_residual == pytest.approx(0.075, abs=1e-12)

    def test_haar_tables_are_certified_either_way(self, rng):
        answers = []
        for _ in range(100):
            table = haar_table(rng)
            result = polytope_membership(table)
            if result.inside:
                assert_inside_certified(table, result)
            elif result.max_residual > 1e-4:
                assert_outside_certified(table, result)
            answers.append(result.inside)
        assert 0 < sum(answers) < len(answers)

    def test_mermins_square_misses_most_outside_haar_tables(self):
        # The README's count: of 2,000 Haar states of seed 5, 302 have a table
        # Outside, and 286 of those satisfy max(|m|, |m'|) <= 2 all the same.
        states, tables = seed_5_haar_states(2000), seed_5_haar_tables(2000)
        outside = [state for state, table in zip(states, tables)
                   if not polytope_membership(table).inside]
        passing = [state for state in outside
                   if mermin.report(mermin.evaluate_point(state)).satisfies_locality_bound]
        assert (len(outside), len(passing)) == (302, 286)

    @pytest.mark.parametrize("tables", TABLE_FAMILIES.values(), ids=TABLE_FAMILIES)
    def test_weights_and_residual_match_the_reference_bit_for_bit(self, tables):
        for table in tables():
            b_vec = locality._table_vector(table)
            (w, r), (w_ref, r_ref) = locality._nearest_point(b_vec), reference_nearest_point(b_vec)
            assert np.array_equal(w, w_ref) and np.array_equal(r, r_ref)

    @pytest.mark.parametrize("tables", TABLE_FAMILIES.values(), ids=TABLE_FAMILIES)
    def test_one_solve_per_pass_with_a_nonempty_passive_set(self, tables, monkeypatch):
        # The reference solves on every pass, its first one on the empty set
        # (w = 0); the search must make the same solves less that one.
        sizes, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: sizes.append(len(b)) or solve(a, b))

        def solve_sizes(search, b_vec):
            sizes.clear()
            search(b_vec)
            return sizes.copy()

        for table in tables():
            b_vec = locality._table_vector(table)
            searched = solve_sizes(locality._nearest_point, b_vec)
            reference = solve_sizes(reference_nearest_point, b_vec)
            assert reference[0] == 0 and searched == reference[1:] and 0 not in searched

    def test_pivot_budget_runs_out_where_the_reference_does(self, monkeypatch):
        b_vec = locality._table_vector(seed_5_haar_tables(1)[0])
        raised = {search: [] for search in (locality._nearest_point, reference_nearest_point)}
        for pivots in range(1, 41):
            monkeypatch.setattr(locality, "MEMBERSHIP_PIVOTS", pivots)
            for search, budgets in raised.items():
                try:
                    search(b_vec)
                except SelfCheckFailed:
                    budgets.append(pivots)
        budgets, reference = raised.values()
        assert budgets == reference == list(range(1, len(reference) + 1))
        # Adds alone would stop after one pivot per weight and one more: this
        # search also drops columns, and every drop spends a pivot too.
        needed = len(reference) + 1
        assert needed > np.count_nonzero(reference_nearest_point(b_vec)[0]) + 1

    def test_exhausted_pivot_budget_raises(self, monkeypatch):
        monkeypatch.setattr(locality, "MEMBERSHIP_PIVOTS", 1)
        causes = tuple(Cause(0.25, np.full((3, 2), p)) for p in (0.1, 0.4, 0.6, 0.9))
        with pytest.raises(SelfCheckFailed) as info:
            polytope_membership(model_to_table(LocalModel(causes)))
        assert "\n" not in str(info.value)
