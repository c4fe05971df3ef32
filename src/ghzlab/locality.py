"""Common-cause locality models and the GHZ contradiction.

A local model is a finite mixture of "causes"; conditioned on a cause,
the three parties' outcomes are independent, each party holding one
probability of outcome +1 per setting (x or y). Deterministic strategies
are the 64 extreme points of this model class, so polytope membership
reduces to a small linear feasibility problem.

Local values are arrays ``values[..., party, setting]`` (parties 0..2,
settings x, y) of correlators ``2 p_plus - 1``, probabilities ``p_plus``
or +-1 signs; ``at_patterns`` reads them at each pattern's settings.
``SIGNS`` (64, 3, 2) holds the sign assignments, which are also the
deterministic strategies: party-1 major, x before y, +1 before -1.

The four perfect-correlation constraints checked throughout are, for the
settings patterns (xxx, xyy, yxy, yyx), the triple products

    i_x j_x k_x = +1,  i_x j_y k_y = -1,  i_y j_x k_y = -1,  i_y j_y k_x = -1.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import MalformedTable, ToleranceOutOfRange
from . import mermin, qcore
from .qcore import OUTCOMES, PATTERNS

#: Required triple-product values for the patterns in PATTERNS order.
CONSTRAINT_TARGETS = (+1, -1, -1, -1)

#: The 64 sign assignments as SIGNS[assignment, party, setting].
SIGNS = np.array(list(itertools.product((+1, -1), repeat=6))).reshape(64, 3, 2)
SIGNS.setflags(write=False)


@dataclass(frozen=True)
class Cause:
    """One common cause: a weight plus P(outcome=+1) as ``p_plus[party, setting]``."""

    weight: float
    p_plus: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p_plus, dtype=float)
        if arr.shape != (3, 2):
            raise ValueError(f"p_plus must be 3x2, got shape {arr.shape}")
        if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):
            raise ValueError("response probabilities must lie in [0, 1]")
        if not 0 <= self.weight < np.inf:
            raise ValueError("cause weight must be nonnegative and finite")
        arr.setflags(write=False)
        object.__setattr__(self, "p_plus", arr)


@dataclass(frozen=True)
class LocalModel:
    """A mixture of causes, also stacked as ``weights`` and ``p_plus[cause]``."""

    causes: tuple
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    p_plus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        causes = tuple(self.causes)
        total = sum(c.weight for c in causes)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"cause weights sum to {total!r}, not 1")
        object.__setattr__(self, "causes", causes)
        object.__setattr__(self, "weights", np.array([c.weight for c in causes], float))
        object.__setattr__(self, "p_plus", np.array([c.p_plus for c in causes]))


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
            if not np.all(np.isfinite(arr)):
                raise MalformedTable(f"block {pattern!r} has a non-finite entry")
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


def at_patterns(values, patterns=PATTERNS) -> np.ndarray:
    """``values[..., party, setting]`` read at each pattern: (..., len(patterns), 3).

    The one place a setting character (x or y, either case) picks a setting.
    """
    index = [["xy".index(ch) for ch in p.lower()] for p in patterns]
    return np.asarray(values)[..., np.arange(3), index]


def triple_products(values, patterns=PATTERNS) -> np.ndarray:
    """Product of the three parties' values per pattern: (..., len(patterns))."""
    return at_patterns(values, patterns).prod(axis=-1)


def mermin_values(values, terms) -> np.ndarray:
    """<M> (or <M'>, by ``terms``) of local values: their triple products
    put through ``mermin.witness_value``; shape ``values.shape[:-2]``."""
    patterns = [settings.lower() for _, settings in terms]
    products = np.moveaxis(triple_products(values, patterns), -1, 0)
    return mermin.witness_value(terms, dict(zip(patterns, products)))


def _cause_probabilities(p_plus, patterns=PATTERNS) -> np.ndarray:
    """Per-cause joint outcome probabilities: (..., len(patterns), 8), OUTCOMES order."""
    p = at_patterns(p_plus, patterns)
    q = np.stack([p, 1.0 - p], axis=-1)
    joint = q[..., 0, :, None, None] * q[..., 1, None, :, None] * q[..., 2, None, None, :]
    return joint.reshape(*joint.shape[:-3], 8)


def model_joint_probability(model: LocalModel, pattern: str, outcomes) -> float:
    """Mixture probability of a joint outcome triple under a pattern."""
    probs = _cause_probabilities(model.p_plus, (pattern,))[:, 0]
    return float(model.weights @ probs[:, OUTCOMES.index(tuple(outcomes))])


def correlators(model: LocalModel, mu: int) -> np.ndarray:
    """Six per-cause correlators in order (ix, iy, jx, jy, kx, ky)."""
    return (2.0 * model.p_plus[mu] - 1.0).reshape(-1)


def model_triple_correlations(model: LocalModel, patterns=PATTERNS) -> tuple:
    """Mixture triple products, one per settings pattern (default PATTERNS)."""
    products = triple_products(2.0 * model.p_plus - 1.0, patterns)
    return tuple((model.weights @ products).tolist())


# --- sign assignments and the contradiction --------------------------------

def all_sign_assignments():
    """All 64 assignments (ix, iy, jx, jy, kx, ky) with each value +-1."""
    return [tuple(a) for a in SIGNS.reshape(64, 6).tolist()]


def constraint_products(assignment) -> tuple:
    return tuple(triple_products(np.reshape(assignment, (3, 2))).tolist())


def satisfied_constraints(assignment) -> tuple:
    """Indices of the four constraints an assignment satisfies."""
    hits = np.equal(constraint_products(assignment), CONSTRAINT_TARGETS)
    return tuple(np.flatnonzero(hits).tolist())


def ghz_sign_feasibility() -> InfeasibilityReport:
    """Exhaustive check that no sign assignment meets all four constraints.

    Also certifies the parity argument: the product of the four left-hand
    sides is identically +1 (every symbol appears squared) while the
    required right-hand product is -1.
    """
    prods = triple_products(SIGNS)
    if np.any(prods.prod(axis=1) != 1):
        raise AssertionError("parity identity broken; constraint code corrupt")
    hits = np.sum(prods == CONSTRAINT_TARGETS, axis=1)
    best = int(np.argmax(hits))
    return InfeasibilityReport(
        assignments_checked=len(SIGNS),
        satisfying=int(np.sum(hits == len(PATTERNS))),
        max_subset=int(hits[best]),
        parity_lhs=1,
        parity_rhs=int(np.prod(CONSTRAINT_TARGETS)),
        max_subset_witness=tuple(SIGNS[best].reshape(6).tolist()),
    )


# --- Heisenberg-Robertson constrained satisfiability -----------------------

def _hr_satisfied_count(bars, tolerance: float) -> int:
    """Constraints met within tolerance by six reals (ix, iy, jx, jy, kx, ky)."""
    gaps = np.subtract(constraint_products(bars), CONSTRAINT_TARGETS)
    return int(np.sum(np.abs(gaps) <= tolerance))


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
    targets = np.take(CONSTRAINT_TARGETS, pair)
    patterns = [PATTERNS[n] for n in pair]

    def violation(params):
        # params: per party (angle, radius); radius clipped into [0, 1].
        angle, radius = params[0::2], np.clip(params[1::2], 0.0, 1.0)
        bars = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        return float(np.sum((triple_products(bars, patterns) - targets) ** 2))

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
    """All 64 strategies ((s1x, s1y), (s2x, s2y), (s3x, s3y)) in SIGNS order."""
    return [tuple(map(tuple, s)) for s in SIGNS.tolist()]


def strategy_to_model(strategy) -> LocalModel:
    return LocalModel((Cause(1.0, np.equal(strategy, +1).astype(float)),))


def model_to_table(model: LocalModel) -> CorrelationTable:
    blocks = np.tensordot(model.weights, _cause_probabilities(model.p_plus), axes=1)
    return CorrelationTable(dict(zip(PATTERNS, blocks)))


def ghz_correlation_table() -> CorrelationTable:
    """Outcome probabilities of the GHZ state for the four patterns."""
    ghz = qcore.make_ghz()
    return CorrelationTable({p: qcore.outcome_probabilities(ghz, p) for p in PATTERNS})


def table_triple_correlations(table: CorrelationTable) -> tuple:
    blocks = _table_vector(table).reshape(len(PATTERNS), len(OUTCOMES))
    return tuple((blocks @ qcore.outcome_signs()).tolist())


def table_mermin_value(table: CorrelationTable) -> float:
    """<M> read off a correlation table."""
    correlations = dict(zip(PATTERNS, table_triple_correlations(table)))
    return mermin.witness_value(mermin.M_TERMS, correlations)


def _table_vector(table: CorrelationTable) -> np.ndarray:
    return np.concatenate([table.blocks[p] for p in PATTERNS])


@functools.cache
def _strategy_matrix() -> np.ndarray:
    """The 64 strategy tables as columns; built on first use, not at import."""
    p_plus = np.equal(SIGNS, +1).astype(float)
    mat = _cause_probabilities(p_plus).reshape(len(SIGNS), -1).T
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
