"""Each derived tolerance against the bound it is derived from.

``locality.MEMBERSHIP_TOL`` is ``mermin.SLACK / 64`` and ``qcore.IMAG_TOL`` is
``4 READ_SLACK`` plus rounding; the comments on both constants derive them. Each
test prints the realized value, the derived bound and the constant, so
``python -m pytest -s tests/test_tolerances.py`` gives every number at once. The
last tests pin four comparisons on the limit: a miss equal to SELF_CHECK_TOL passes
both self-checks, a residual equal to MEMBERSHIP_TOL is Inside, and a point whose
r^2 - SLACK equals a class limit takes that class.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab import locality, mermin, optimize, qcore
from ghzlab.errors import SelfCheckFailed
from ghzlab.locality import CorrelationTable, model_to_table, polytope_membership

from conftest import random_pure_state

READ_SLACK, SLACK = qcore.READ_SLACK, mermin.SLACK
#: Lowest membership tolerance that keeps Inside a member table whose 32 entries
#: each move by READ_SLACK: its nearest point is at most sqrt(32) READ_SLACK away.
MEMBER_FLOOR = math.sqrt(32) * READ_SLACK
#: Highest one that puts Outside every table past Mermin's bound by more than
#: SLACK, as m(b) <= 2 + 2 READ_SLACK + 48 max|r| at the nearest local point.
MERMIN_CEILING = (SLACK - 2 * READ_SLACK) / 48


def show(what, realized, derived, constant):
    print(f"\n{what}: realized {realized!r}, derived {derived!r}, constant {constant!r}")


def state_table(state):
    return CorrelationTable({p: qcore.outcome_probabilities(state, p) for p in qcore.PATTERNS})


def mermin_nonlocal(state):
    """|m| - SLACK > 2: ``report``'s locality flag is false on m alone."""
    return abs(mermin.evaluate_point(state).m_value) - SLACK > 2.0


def outside_past_the_facet(state):
    """The membership of a Mermin-nonlocal state, with its residual per unit of
    |m| - 2 - 2 READ_SLACK, which the derivation bounds below by 1/48."""
    result = polytope_membership(state_table(state))
    excess = abs(mermin.evaluate_point(state).m_value) - 2.0 - 2.0 * READ_SLACK
    return result, result.max_residual / excess


def test_membership_tol_lies_between_its_derived_bounds():
    show("MEMBERSHIP_TOL floor (sqrt(32) READ_SLACK)", MEMBER_FLOOR, MEMBER_FLOOR,
         locality.MEMBERSHIP_TOL)
    show("MEMBERSHIP_TOL ceiling ((SLACK - 2 READ_SLACK)/48)", MERMIN_CEILING, MERMIN_CEILING,
         locality.MEMBERSHIP_TOL)
    assert MEMBER_FLOOR < locality.MEMBERSHIP_TOL == SLACK / 64 < MERMIN_CEILING


def test_noisy_ghz_past_mermins_bound_is_outside():
    # v = 1/2 + k 1e-10 has m = 4v = 2 + 4k 1e-10, past the bound for k >= 3;
    # with a membership tolerance of 1e-9, 64 of those 98 read Inside.
    ghz, ratios, disagree = qcore.make_ghz(), [], 0
    for k in range(1, 101):
        state = qcore.mix_with_white_noise(ghz, 0.5 + k * 1e-10)
        if mermin_nonlocal(state):
            result, ratio = outside_past_the_facet(state)
            disagree += result.inside
            ratios.append(ratio)
    show("noisy GHZ residual / (m - 2 - 2 READ_SLACK), least", min(ratios), 1 / 48,
         locality.MEMBERSHIP_TOL)
    assert (len(ratios), disagree) == (98, 0)
    assert min(ratios) >= 1 / 48


def test_states_pushed_past_the_facet_are_outside():
    # Pure states have their |111> phase turned, mixed ones their white noise
    # raised, until m = +-(2 + SLACK + excess): just past Mermin's bound.
    ratios = []

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
           st.floats(1.0, 1e3), st.sampled_from([1.0, -1.0]), st.booleans())
    def check(raw, excess, sign, pure):
        amps = np.array(raw[:8]) + 1j * np.array(raw[8:])
        amps[[0, 7]] = [3.0, 3.0j]  # |m| can reach 8 |psi_000| |psi_111| >= 72/30 > 2
        amps /= np.linalg.norm(amps)
        reach = 8.0 * abs(amps[0]) * abs(amps[7])
        target = sign * (2.0 + SLACK + excess * READ_SLACK)
        if pure:
            # 8 conj(psi_000) psi_111 = reach e^{i theta}, with reach cos(theta) = target.
            phase = np.arccos(target / reach) - np.angle(np.conj(amps[0]) * amps[7])
            amps[7] *= np.exp(1j * phase)
            state = qcore.StateVector(amps)
        else:
            # m scales with the visibility: set it so that |m| = |target|.
            amps[7] *= np.exp(-1j * np.angle(np.conj(amps[0]) * amps[7]))
            state = qcore.mix_with_white_noise(qcore.StateVector(amps), abs(target) / reach)
        if mermin_nonlocal(state):
            result, ratio = outside_past_the_facet(state)
            assert not result.inside
            ratios.append(ratio)

    check()
    show("pushed states residual / (|m| - 2 - 2 READ_SLACK), least", min(ratios), 1 / 48,
         locality.MEMBERSHIP_TOL)
    assert len(ratios) >= 100 and min(ratios) >= 1 / 48


def test_criterion_9_models_stay_inside_moved_by_the_read_slack():
    # Acceptance criterion 9's 200 models, each table as it is and with every
    # entry moved by READ_SLACK, half of each block up and half down: each block
    # still sums to 1, and the nearest local point is at most sqrt(32) READ_SLACK away.
    rng, signs = np.random.default_rng(909), np.random.default_rng(910)
    worst = {"as built": 0.0, "moved": 0.0}
    for _ in range(200):
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
        causes = tuple(locality.Cause(w, rng.uniform(0.0, 1.0, size=(3, 2))) for w in weights)
        blocks = model_to_table(locality.LocalModel(causes)).blocks
        moved = {p: b + READ_SLACK * signs.permutation([1.0, -1.0] * 4) for p, b in blocks.items()}
        for name, table in (("as built", blocks), ("moved", moved)):
            result = polytope_membership(CorrelationTable(table))
            worst[name] = max(worst[name], result.max_residual)
            assert result.inside
    for name, residual in worst.items():
        show(f"criterion 9 models {name}, max residual", residual, MEMBER_FLOOR,
             locality.MEMBERSHIP_TOL)
    assert worst["moved"] <= MEMBER_FLOOR


def test_seed_5_haar_verdicts_do_not_move():
    rng = np.random.default_rng(5)
    results = [polytope_membership(state_table(random_pure_state(rng))) for _ in range(2000)]
    inside = [result.max_residual for result in results if result.inside]
    outside = [result.max_residual for result in results if not result.inside]
    # Ten decades apart, both far from MEMBERSHIP_TOL: 9.54e-16 and 2.09e-5.
    show("seed-5 Haar, max Inside residual", max(inside), MEMBER_FLOOR, locality.MEMBERSHIP_TOL)
    show("seed-5 Haar, min Outside residual", min(outside), MERMIN_CEILING,
         locality.MEMBERSHIP_TOL)
    assert (len(outside), max(inside) < 1e-15, min(outside) > 2e-5) == (302, True, True)


def test_imag_tol_covers_the_worst_accepted_anti_hermitian_part():
    # rho = I/8 + i (READ_SLACK/2) J, J the exchange matrix, passes the Hermitian
    # check with nothing to spare, and J is the matrix of XXX: every one of its 8
    # unit entries meets an anti-Hermitian entry of READ_SLACK/2.
    exchange = np.eye(8)[::-1]
    state = qcore.DensityMatrix(np.eye(8) / 8 + 0.5j * READ_SLACK * exchange)
    derived = 4 * READ_SLACK
    for coeff in (1.0, 100.0):
        obs = qcore.Observable(((coeff, "XXX"),))
        value = complex(np.trace(state.entries @ qcore.observable_matrix(obs)))
        realized = abs(value.imag) / coeff
        show(f"Im Tr(rho XXX) per unit coefficient at {coeff:g}", realized, derived,
             qcore.IMAG_TOL)
        assert realized <= derived <= qcore.IMAG_TOL <= 1e-10
        assert realized / READ_SLACK == 4.0
        assert qcore.expectation(state, obs) == value.real


@pytest.mark.parametrize("pair", list(itertools.combinations(range(4), 2)))
def test_hr_witness_decides_on_its_tolerance(monkeypatch, pair):
    # The witness misses 1/2 by exactly 2^-52 on every pair: a miss equal to the
    # tolerance passes, and one above it is refused.
    monkeypatch.setattr(qcore, "SELF_CHECK_TOL", 2.0 ** -52)
    assert locality.hr_pair_violation_minimum(pair) == 0.5
    monkeypatch.setattr(qcore, "SELF_CHECK_TOL", 2.0 ** -53)
    with pytest.raises(SelfCheckFailed, match="^HR witness reached 0.5000000000000002, not 0.5$"):
        locality.hr_pair_violation_minimum(pair)


def test_certify_decides_on_its_tolerance(monkeypatch):
    # The printed quantum witness is the certified one; its larger miss, of
    # |psi|^2 from 1 or of r^2 from 16, is the tolerance it passes with nothing to spare.
    argmax = optimize.max_quantum_radius().argmax
    psi = np.array(argmax["state_re"]) + 1j * np.array(argmax["state_im"])
    gap = max(abs(float(np.vdot(psi, psi).real) - 1.0),
              abs(float(abs(mermin.pure_mermin_values(psi)) ** 2) - 16.0))
    show("quantum witness miss", gap, gap, qcore.SELF_CHECK_TOL)
    assert 0.0 < gap < qcore.SELF_CHECK_TOL
    monkeypatch.setattr(optimize, "SELF_CHECK_TOL", gap)
    assert optimize.max_quantum_radius().best_value == 16.0
    monkeypatch.setattr(optimize, "SELF_CHECK_TOL", gap / 2)
    with pytest.raises(SelfCheckFailed, match="^quantum witness with"):
        optimize.max_quantum_radius()


def test_membership_decides_on_its_tolerance(monkeypatch):
    # GHZ's table is Inside at a tolerance equal to its own residual, and Outside one
    # ulp below it.
    table = locality.ghz_correlation_table()
    residual = polytope_membership(table).max_residual
    assert residual > locality.MEMBERSHIP_TOL
    monkeypatch.setattr(locality, "MEMBERSHIP_TOL", residual)
    result = polytope_membership(table)
    assert (result.inside, result.max_residual, result.weights is None) == (True, residual, False)
    monkeypatch.setattr(locality, "MEMBERSHIP_TOL", math.nextafter(residual, 0.0))
    assert polytope_membership(table).inside is False


@pytest.mark.parametrize("lower", [name for name, limit in mermin.CLASSES.items()
                                   if math.isfinite(limit)])
def test_class_pick_decides_on_its_limit(lower):
    # The point (m, 0) whose r^2 - SLACK equals a class limit in floats is on it and
    # takes that class; m one ulp larger takes the next class.
    names, limit = list(mermin.CLASSES), mermin.CLASSES[lower]
    m = math.sqrt(limit + SLACK)
    for _ in range(64):
        m = math.nextafter(m, 0.0)
    while m * m - SLACK < limit:
        m = math.nextafter(m, math.inf)
    above = math.nextafter(m, math.inf)
    assert (m * m - SLACK, above * above - SLACK > limit) == (limit, True)
    assert mermin.report(mermin.MerminPoint(m, 0.0)).entanglement_class == lower
    upper = names[names.index(lower) + 1]
    assert mermin.report(mermin.MerminPoint(above, 0.0)).entanglement_class == upper
