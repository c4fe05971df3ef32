"""Common-cause locality models and the GHZ contradiction.

A local model is a finite mixture of "causes"; conditioned on a cause,
the three parties' outcomes are independent, each party holding one
probability of outcome +1 per setting (x or y). Deterministic strategies
are the 64 extreme points of this model class, so polytope membership
reduces to a small linear feasibility problem.

The four perfect-correlation constraints checked throughout are, for the
settings patterns (xxx, xyy, yxy, yyx), the triple products

    i_x j_x k_x = +1,  i_x j_y k_y = -1,  i_y j_x k_y = -1,  i_y j_y k_x = -1.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import MalformedTable, ToleranceOutOfRange
from . import mermin, qcore
from .qcore import OUTCOMES, PATTERNS

#: Required triple-product values for the patterns in PATTERNS order.
CONSTRAINT_TARGETS = (+1, -1, -1, -1)

SETTING_INDEX = {"x": 0, "y": 1}


@dataclass(frozen=True)
class Cause:
    """One common cause: a weight plus per-party, per-setting P(outcome=+1).

    ``p_plus[party][setting]`` with parties 0..2 and settings (x, y).
    """

    weight: float
    p_plus: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p_plus, dtype=float)
        if arr.shape != (3, 2):
            raise ValueError(f"p_plus must be 3x2, got shape {arr.shape}")
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise ValueError("response probabilities must lie in [0, 1]")
        if self.weight < 0:
            raise ValueError("cause weight must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "p_plus", arr)


@dataclass(frozen=True)
class LocalModel:
    causes: tuple

    def __post_init__(self):
        causes = tuple(self.causes)
        total = sum(c.weight for c in causes)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"cause weights sum to {total!r}, not 1")
        object.__setattr__(self, "causes", causes)


@dataclass(frozen=True)
class CorrelationTable:
    """Joint outcome probabilities for the four settings patterns.

    ``blocks[pattern]`` holds 8 probabilities in OUTCOMES order.
    """

    blocks: dict

    def __post_init__(self):
        clean = {}
        for pattern in PATTERNS:
            if pattern not in self.blocks:
                raise MalformedTable(f"missing block {pattern!r}")
            arr = np.asarray(self.blocks[pattern], dtype=float)
            if arr.shape != (8,):
                raise MalformedTable(f"block {pattern!r} must have 8 entries")
            if np.any(arr < -1e-12):
                raise MalformedTable(f"block {pattern!r} has a negative entry")
            if abs(arr.sum() - 1.0) > 1e-12:
                raise MalformedTable(f"block {pattern!r} sums to {arr.sum()!r}")
            arr.setflags(write=False)
            clean[pattern] = arr
        object.__setattr__(self, "blocks", clean)

    def to_json_dict(self) -> dict:
        return {"blocks": {p: self.blocks[p].tolist() for p in PATTERNS}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CorrelationTable":
        try:
            blocks = doc["blocks"]
        except (KeyError, TypeError) as exc:
            raise MalformedTable(f"malformed table document: {exc}") from exc
        return cls(dict(blocks))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CorrelationTable":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class InfeasibilityReport:
    assignments_checked: int
    satisfying: int
    max_subset: int
    parity_lhs: int
    parity_rhs: int
    max_subset_witness: tuple

    def to_json_dict(self) -> dict:
        return {
            "assignments_checked": self.assignments_checked,
            "satisfying": self.satisfying,
            "max_subset": self.max_subset,
            "parity_lhs": self.parity_lhs,
            "parity_rhs": self.parity_rhs,
        }


@dataclass(frozen=True)
class Membership:
    inside: bool
    weights: np.ndarray | None
    max_residual: float


def _outcome_prob(p_plus: float, outcome: int) -> float:
    return p_plus if outcome == +1 else 1.0 - p_plus


def model_joint_probability(model: LocalModel, pattern: str, outcomes) -> float:
    """Mixture probability of a joint outcome triple under a pattern."""
    total = 0.0
    for cause in model.causes:
        prod = cause.weight
        for party, (setting, outcome) in enumerate(zip(pattern, outcomes)):
            prod *= _outcome_prob(cause.p_plus[party][SETTING_INDEX[setting]], outcome)
        total += prod
    return total


def correlators(model: LocalModel, mu: int) -> np.ndarray:
    """Six per-cause correlators in order (ix, iy, jx, jy, kx, ky)."""
    cause = model.causes[mu]
    return (2.0 * cause.p_plus - 1.0).reshape(-1)


def model_triple_correlations(model: LocalModel, patterns=PATTERNS) -> tuple:
    """Mixture triple products, one per settings pattern (default PATTERNS)."""
    values = []
    for pattern in patterns:
        total = 0.0
        for mu, cause in enumerate(model.causes):
            bars = correlators(model, mu).reshape(3, 2)
            prod = cause.weight
            for party, setting in enumerate(pattern):
                prod *= bars[party][SETTING_INDEX[setting]]
            total += prod
        values.append(total)
    return tuple(values)


# --- sign assignments and the contradiction --------------------------------

def all_sign_assignments():
    """All 64 assignments (ix, iy, jx, jy, kx, ky) with each value +-1."""
    return list(itertools.product((+1, -1), repeat=6))


def constraint_products(assignment) -> tuple:
    ix, iy, jx, jy, kx, ky = assignment
    return (ix * jx * kx, ix * jy * ky, iy * jx * ky, iy * jy * kx)


def satisfied_constraints(assignment) -> tuple:
    """Indices of the four constraints an assignment satisfies."""
    prods = constraint_products(assignment)
    return tuple(n for n, (p, t) in enumerate(zip(prods, CONSTRAINT_TARGETS)) if p == t)


def ghz_sign_feasibility() -> InfeasibilityReport:
    """Exhaustive check that no sign assignment meets all four constraints.

    Also certifies the parity argument: the product of the four left-hand
    sides is identically +1 (every symbol appears squared) while the
    required right-hand product is -1.
    """
    satisfying = 0
    best = 0
    witness = None
    for assignment in all_sign_assignments():
        prods = constraint_products(assignment)
        if int(np.prod(prods)) != 1:
            raise AssertionError("parity identity broken; constraint code corrupt")
        hits = len(satisfied_constraints(assignment))
        if hits == 4:
            satisfying += 1
        if hits > best:
            best = hits
            witness = assignment
    return InfeasibilityReport(
        assignments_checked=64,
        satisfying=satisfying,
        max_subset=best,
        parity_lhs=1,
        parity_rhs=int(np.prod(CONSTRAINT_TARGETS)),
        max_subset_witness=witness,
    )


# --- Heisenberg-Robertson constrained satisfiability -----------------------

def _hr_satisfied_count(bars, tolerance: float) -> int:
    """Constraints met within tolerance by six reals (ix, iy, jx, jy, kx, ky)."""
    prods = constraint_products(bars)
    return sum(abs(p - t) <= tolerance for p, t in zip(prods, CONSTRAINT_TARGETS))


def hr_constrained_satisfiability(tolerance: float = 1e-6):
    """Max constraints satisfiable under per-party bar_x^2 + bar_y^2 <= 1.

    Exact case analysis: meeting any constraint within a small tolerance
    forces its three correlators to magnitude ~1, which zeroes the
    partner component of each involved party. Every pair of constraints
    shares a party through opposite settings, so no two can hold at once;
    one alone is achievable (e.g. all x-correlators 1, all y 0).

    Returns ``(max_satisfied, witness)`` with witness the six reals
    (ix, iy, jx, jy, kx, ky).
    """
    if not 0.0 < tolerance < 1.0:
        raise ToleranceOutOfRange(f"tolerance {tolerance!r} outside (0, 1)")
    witness = (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    if _hr_satisfied_count(witness, tolerance) != 1:
        raise AssertionError("analytic witness failed its own check")
    return 1, witness


def hr_pair_violation_minimum(pair, restarts: int = 32, seed: int = 42) -> float:
    """Numeric cross-check: best-effort joint violation of two constraints.

    Minimizes the summed squared violation of the two constraints over
    per-party discs via seeded random-restart coordinate descent. A
    result well above zero certifies the pair cannot be met jointly.
    """
    targets = [CONSTRAINT_TARGETS[n] for n in pair]
    involved = [PATTERNS[n] for n in pair]

    def violation(params):
        # params: per party (angle, radius); radius clipped into [0, 1].
        bars = np.empty((3, 2))
        for party in range(3):
            angle, radius = params[2 * party], np.clip(params[2 * party + 1], 0.0, 1.0)
            bars[party] = radius * np.cos(angle), radius * np.sin(angle)
        total = 0.0
        for settings, target in zip(involved, targets):
            prod = 1.0
            for party, s in enumerate(settings):
                prod *= bars[party][SETTING_INDEX[s]]
            total += (prod - target) ** 2
        return total

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        x0 = np.empty(6)
        x0[0::2] = rng.uniform(0.0, 2.0 * np.pi, size=3)
        x0[1::2] = rng.uniform(0.0, 1.0, size=3)
        _, value = _coordinate_descent(violation, x0)
        best = min(best, value)
    return best


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


# --- the EPR two-party contrast --------------------------------------------

def epr_contrast(c1: int = -1, c2: int = -1) -> tuple:
    """Signs (ix, iy, jx, jy) realizing i_x j_x = c1 and i_y j_y = c2.

    Exists for every sign pattern: with only two parties and two settings
    the constraints never close a parity loop, so locality alone yields
    no contradiction.
    """
    if c1 not in (+1, -1) or c2 not in (+1, -1):
        raise ValueError("targets must be +-1")
    assignment = (1, 1, c1, c2)
    ix, iy, jx, jy = assignment
    if ix * jx != c1 or iy * jy != c2:
        raise AssertionError("EPR witness failed its own check")
    return assignment


# --- deterministic strategies and polytope membership ----------------------

def enumerate_strategies() -> list:
    """All 64 deterministic strategies ((s1x, s1y), (s2x, s2y), (s3x, s3y)).

    Order is party-1 major, x before y, +1 before -1; the first strategy
    is all +1.
    """
    signs = list(itertools.product((+1, -1), repeat=6))
    return [((a, b), (c, d), (e, f)) for a, b, c, d, e, f in signs]


def strategy_to_model(strategy) -> LocalModel:
    p_plus = np.array(
        [[1.0 if s == +1 else 0.0 for s in party] for party in strategy]
    )
    return LocalModel((Cause(1.0, p_plus),))


def model_to_table(model: LocalModel) -> CorrelationTable:
    blocks = {
        pattern: np.array(
            [model_joint_probability(model, pattern, out) for out in OUTCOMES]
        )
        for pattern in PATTERNS
    }
    return CorrelationTable(blocks)


def ghz_correlation_table() -> CorrelationTable:
    """Outcome probabilities of the GHZ state for the four patterns."""
    ghz = qcore.make_ghz()
    return CorrelationTable({p: qcore.outcome_probabilities(ghz, p) for p in PATTERNS})


def table_triple_correlations(table: CorrelationTable) -> tuple:
    return tuple(
        float(sum(np.prod(out) * p for out, p in zip(OUTCOMES, table.blocks[pattern])))
        for pattern in PATTERNS
    )


def table_mermin_value(table: CorrelationTable) -> float:
    """<M> read off a correlation table."""
    correlations = dict(zip(PATTERNS, table_triple_correlations(table)))
    return mermin.witness_value(mermin.M_TERMS, correlations)


def _table_vector(table: CorrelationTable) -> np.ndarray:
    return np.concatenate([table.blocks[p] for p in PATTERNS])


@functools.cache
def _strategy_matrix() -> np.ndarray:
    """The 64 strategy tables as columns; built on first use, not at import."""
    mat = np.column_stack([
        _table_vector(model_to_table(strategy_to_model(s)))
        for s in enumerate_strategies()
    ])
    mat.setflags(write=False)
    return mat


def polytope_membership(table: CorrelationTable, tol: float = 1e-9) -> Membership:
    """Decide whether a table is a mixture of deterministic strategies.

    Solves min t subject to |A w - b|_inf <= t, w >= 0, sum w = 1, where
    the columns of A are the 64 strategy tables. Inside iff t <= tol.
    """
    a_mat = _strategy_matrix()
    b_vec = _table_vector(table)

    n = a_mat.shape[1]
    # Variables: w (n entries) then the slack t.
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.block([[a_mat, -np.ones((32, 1))], [-a_mat, -np.ones((32, 1))]])
    b_ub = np.concatenate([b_vec, -b_vec])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * (n + 1), method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")
    residual = float(result.x[-1])
    if residual <= tol:
        return Membership(True, result.x[:n].copy(), residual)
    return Membership(False, None, residual)
