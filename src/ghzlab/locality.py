"""Common-cause locality models and the GHZ contradiction.

A local model is a finite mixture of "causes"; conditioned on a cause,
the three parties' outcomes are independent, each party holding one
probability of outcome +1 per setting (x or y). Deterministic strategies
are the 64 extreme points of this model class, so polytope membership
reduces to a small non-negative least-squares problem.

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
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from .errors import SelfCheckFailed
from . import mermin, qcore
from .qcore import PATTERNS

#: Required triple-product values in PATTERNS order: the signs of M_TERMS.
CONSTRAINT_TARGETS = tuple(int(sign) for sign, _ in mermin.M_TERMS)

#: The 64 sign assignments as SIGNS[assignment, party, setting].
SIGNS = np.array(list(itertools.product((+1, -1), repeat=6))).reshape(64, 3, 2)
SIGNS.setflags(write=False)

#: Largest max|r| of a table inside, r = b - A w at its nearest local point. As |m| <= 2 on each
#: strategy, |m(r)| <= 32 max|r| and sum w <= 1 + READ_SLACK + 8 max|r|, m(b) <= 2 + 2 READ_SLACK +
#: 48 max|r|: below (SLACK - 2 READ_SLACK)/48 a Mermin-nonlocal table is Outside, and above
#: sqrt(32) READ_SLACK a member whose entries move by READ_SLACK stays Inside; SLACK/64 is both.
MEMBERSHIP_TOL = mermin.SLACK / 64

#: Iterations, adds and drops alike, a membership search may take before SelfCheckFailed.
MEMBERSHIP_PIVOTS = 3 * len(SIGNS)
#: The gradient at or below which it stops: rounding leaves about 1e-15, where a stop cycles.
PIVOT_STOP = 1e-13

#: The restarts count and seed of a seeded search, and of the CLI, when none is given.
DEFAULT_RESTARTS = 32
DEFAULT_SEED = 42


@dataclass(frozen=True, eq=False)
class Cause:
    """One common cause: a weight plus P(outcome=+1) as ``p_plus[party, setting]``."""

    weight: float
    p_plus: np.ndarray


@dataclass(frozen=True, eq=False)
class LocalModel:
    """A mixture of causes, held once as the arrays ``weights`` and ``p_plus[cause]``."""

    causes: InitVar[tuple]
    weights: np.ndarray = field(init=False)
    p_plus: np.ndarray = field(init=False)

    def __post_init__(self, causes):
        wrong = [causes] if not isinstance(causes, (tuple, list)) else [
            cause for cause in causes if not isinstance(cause, Cause)]
        if wrong:
            raise TypeError(f"expected a tuple of Cause, got {type(wrong[0])}")
        weights = qcore.read_numbers([cause.weight for cause in causes], "cause weight")
        p_plus = qcore.read_numbers([cause.p_plus for cause in causes], "p_plus entry")
        if weights.ndim != 1:
            raise ValueError(f"cause weight must be a real number, got shape {weights.shape[1:]}")
        # Half the slack: a model's table adds a few ulps of rounding to each block sum.
        if abs(weights.sum() - 1.0) > qcore.READ_SLACK / 2:
            raise ValueError(f"cause weights sum to {float(weights.sum())!r}, not 1")
        if np.any(weights < 0):
            raise ValueError("cause weight must be nonnegative and finite")
        if p_plus.shape[1:] != (3, 2):
            raise ValueError(f"p_plus must be 3x2, got shape {p_plus.shape[1:]}")
        if not np.all((p_plus >= 0) & (p_plus <= 1)):
            raise ValueError("response probabilities must lie in [0, 1]")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "p_plus", p_plus)


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint outcome probabilities for the four settings patterns.

    ``blocks[pattern]`` holds 8 probabilities in OUTCOMES order.
    """

    blocks: dict

    def __post_init__(self):
        if not isinstance(self.blocks, Mapping):
            raise TypeError(f"expected a mapping of blocks, got {type(self.blocks)}")
        unexpected = [key for key in self.blocks if key not in PATTERNS]
        if unexpected:
            raise ValueError(f"unexpected block {unexpected[0]!r}")
        clean = {}
        for pattern in PATTERNS:
            if pattern not in self.blocks:
                raise ValueError(f"missing block {pattern!r}")
            arr = qcore.read_numbers(self.blocks[pattern], f"block {pattern!r} entry")
            if arr.shape != (8,):
                raise ValueError(f"block {pattern!r} must have 8 entries")
            if np.any(arr < -qcore.READ_SLACK):
                raise ValueError(f"block {pattern!r} has a negative entry")
            if abs(arr.sum() - 1.0) > qcore.READ_SLACK:
                raise ValueError(f"block {pattern!r} sums to {float(arr.sum())!r}")
            clean[pattern] = arr
        object.__setattr__(self, "blocks", clean)


@dataclass(frozen=True)
class InfeasibilityReport:
    assignments_checked: int
    satisfying: int
    max_subset: int
    parity_lhs: int
    parity_rhs: int
    max_subset_witness: tuple

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "max_subset_witness"}


@dataclass(frozen=True, eq=False)
class Membership:
    inside: bool
    weights: np.ndarray | None
    max_residual: float


def at_patterns(values, patterns=PATTERNS) -> np.ndarray:
    """``values[..., party, setting]`` read at each pattern: (..., len(patterns), 3).

    The one place a setting character (x or y, either case) picks a setting.
    """
    if np.shape(values)[-2:] != (3, 2):
        raise ValueError(f"local values must end in axes (3, 2), got shape {np.shape(values)}")
    index = [["xy".index(ch) for ch in qcore.read_settings(p)] for p in patterns]
    return np.asarray(values)[..., np.arange(3), index]


def triple_products(values, patterns=PATTERNS) -> np.ndarray:
    """Product of the three parties' values per pattern: (..., len(patterns))."""
    return at_patterns(values, patterns).prod(axis=-1)


def mermin_values(values, terms) -> np.ndarray:
    """<M> (or <M'>, by ``terms``) of local values: the coefficient-weighted
    sum of their triple products; shape ``values.shape[:-2]``."""
    coeffs, patterns = zip(*terms)
    return (triple_products(values, patterns) * coeffs).sum(axis=-1)


def _cause_probabilities(p_plus) -> np.ndarray:
    """Per-cause joint outcome probabilities: (..., len(PATTERNS), 8), OUTCOMES order."""
    p = at_patterns(p_plus)
    q = np.stack([p, 1.0 - p], axis=-1)
    joint = q[..., 0, :, None, None] * q[..., 1, None, :, None] * q[..., 2, None, None, :]
    return joint.reshape(*joint.shape[:-3], 8)


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
        raise SelfCheckFailed("parity identity broken; constraint code corrupt")
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


def hr_constrained_satisfiability(tolerance: float = qcore.DEFAULT_TOL):
    """Max constraints satisfiable under per-party bar_x^2 + bar_y^2 <= 1.

    Each of the six pairs of constraints is violated jointly by at least 1/2,
    checked by ``hr_pair_violation_minimum``, and two met within ``tolerance``
    violate their pair by at most 2 tolerance^2, so below 1/2 no two hold at
    once; one alone is achievable (e.g. all x-correlators 1, all y 0). At 1/2
    two do: bars (1, 0), (1, 1)/sqrt(2), (1, -1)/sqrt(2) give xxx = 1/2 and
    xyy = -1/2.
    The tolerance must therefore lie in (0, 0.5).

    Returns ``(max_satisfied, witness)`` with witness the six reals
    (ix, iy, jx, jy, kx, ky).
    """
    tolerance = qcore.read_number(tolerance, "tolerance")
    if not 0.0 < tolerance < 0.5:
        raise ValueError(f"tolerance {tolerance!r} outside (0, 0.5)")
    witness = (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    if _hr_satisfied_count(witness, tolerance) != 1:
        raise SelfCheckFailed("analytic witness failed its own check")
    for pair in itertools.combinations(range(len(PATTERNS)), 2):
        hr_pair_violation_minimum(pair)
    return 1, witness


def hr_pair_violation_minimum(pair, restarts: int = DEFAULT_RESTARTS,
                              seed: int = DEFAULT_SEED) -> float:
    """Least joint violation of two constraints under per-party discs: 1/2.

    Exactly one party reads the same setting in both patterns, checked here, and
    the other two opposite ones, so Cauchy-Schwarz gives |T1| + |T2| <= 1 for the
    triple products, nearest to the targets (t1, t2) in {+-1}^2 at (t1, t2)/2. A
    witness there must reach 1/2 within SELF_CHECK_TOL. ``restarts`` (>= 1) and
    ``seed`` (>= 0) are read and change nothing else, as ``bounds --restarts``.
    """
    qcore.read_count(restarts, "restarts", 1)
    qcore.read_count(seed, "seed", 0)
    entries = pair if isinstance(pair, (tuple, list)) else ()
    indices = {n for n in entries if isinstance(n, (int, np.integer)) and type(n) is not bool}
    if len(entries) != 2 or len(indices & set(range(len(PATTERNS)))) != 2:
        raise ValueError(f"pair must be two distinct indices in 0..3, got {pair!r}")
    targets = np.take(CONSTRAINT_TARGETS, pair)
    patterns = [PATTERNS[n] for n in pair]
    # Party k reads settings[n, k] in pattern n. Witness: 1, (1, 1)/sqrt(2), (t1, t2)/sqrt(2).
    settings = at_patterns([(0, 1)] * 3, patterns)
    others = np.flatnonzero(settings[0] != settings[1])
    if len(others) != 2:
        raise SelfCheckFailed(f"patterns {patterns[0]!r} and {patterns[1]!r} share "
                              f"{3 - len(others)} parties' settings, not 1")
    witness = np.zeros((3, 2))
    witness[np.arange(3), settings] = 1.0
    witness[others] *= qcore.SQRT2_INV
    witness[others[1], settings[:, others[1]]] *= targets
    reached = np.sum((triple_products(witness, patterns) - targets) ** 2)
    if abs(reached - 0.5) > qcore.SELF_CHECK_TOL:
        raise SelfCheckFailed(f"HR witness reached {float(reached)!r}, not 0.5")
    return 0.5


# --- the EPR two-party contrast --------------------------------------------

def epr_contrast(c1: int, c2: int) -> tuple:
    """Signs (ix, iy, jx, jy) realizing i_x j_x = c1 and i_y j_y = c2.

    Exists for every sign pattern: with only two parties and two settings
    the constraints never close a parity loop, so locality alone yields
    no contradiction. Each target must be the integer +1 or -1; a bool or a
    float is refused.
    """
    for c in (c1, c2):
        if type(c) is bool or not isinstance(c, (int, np.integer)) or c not in (+1, -1):
            raise ValueError("targets must be +-1")
    return (1, 1, c1, c2)


# --- deterministic strategies and polytope membership ----------------------

def model_to_table(model: LocalModel) -> CorrelationTable:
    if not isinstance(model, LocalModel):
        raise TypeError(f"expected LocalModel, got {type(model)}")
    blocks = np.tensordot(model.weights, _cause_probabilities(model.p_plus), axes=1)
    return CorrelationTable(dict(zip(PATTERNS, blocks)))


def ghz_correlation_table() -> CorrelationTable:
    """Outcome probabilities of the GHZ state for the four patterns."""
    ghz = qcore.make_ghz()
    return CorrelationTable({p: qcore.outcome_probabilities(ghz, p) for p in PATTERNS})


def _table_vector(table: CorrelationTable) -> np.ndarray:
    return np.concatenate([table.blocks[p] for p in PATTERNS])


@functools.cache
def _strategy_matrix() -> np.ndarray:
    """The 64 strategy tables as columns; built on first use, not at import."""
    p_plus = np.equal(SIGNS, +1).astype(float)
    mat = _cause_probabilities(p_plus).reshape(len(SIGNS), -1).T
    mat.setflags(write=False)
    return mat


@functools.cache
def _gram_matrix() -> np.ndarray:
    """A^T A of the strategy matrix A, built once for every membership search."""
    gram = _strategy_matrix().T @ _strategy_matrix()
    gram.setflags(write=False)
    return gram


def _nearest_point(b_vec) -> tuple:
    """Lawson-Hanson NNLS: w >= 0 minimising |r|, r = b_vec - A w; returns (w, r)."""
    a_mat, gram = _strategy_matrix(), _gram_matrix()
    target = a_mat.T @ b_vec
    w, passive = np.zeros(len(SIGNS)), np.zeros(len(SIGNS), dtype=bool)
    for _ in range(MEMBERSHIP_PIVOTS):
        # Ascending passive columns, so solves repeat bit for bit; none at first (w = 0).
        idx = passive.nonzero()[0]
        s_p = np.linalg.solve(gram.take(idx, 0).take(idx, 1), target[idx]) if idx.size else w[idx]
        # The entry at argmin/argmax compares as min()/max() would, NaN included, for less.
        if not idx.size or s_p[s_p.argmin()] > 0:
            w = np.zeros(len(SIGNS))
            w[idx] = s_p
            gradient = target - gram @ w
            gradient[idx] = -np.inf
            j = gradient.argmax()
            if gradient[j] <= PIVOT_STOP:
                return w, b_vec - a_mat @ w
            passive[j] = True
        else:
            blocked = s_p <= 0
            blocking = idx[blocked]
            steps = w[blocking] / (w[blocking] - s_p[blocked])
            w[idx] += steps.min() * (s_p - w[idx])
            dropped = blocking[steps == steps.min()]
            passive[dropped] = False
            w[dropped] = 0.0
    raise SelfCheckFailed(f"membership search ran out of pivots ({MEMBERSHIP_PIVOTS})")


def polytope_membership(table: CorrelationTable) -> Membership:
    """Decide whether a table is a mixture of deterministic strategies: Inside iff
    max |r| <= MEMBERSHIP_TOL, r = b - A w at the nearest point A w (w >= 0) to the
    table b, the strategy tables being the columns of A. Outside, r is a Bell
    inequality that the table violates: A^T r <= 0 < b^T r.
    """
    if not isinstance(table, CorrelationTable):
        raise TypeError(f"expected CorrelationTable, got {type(table)}")
    w, r = _nearest_point(_table_vector(table))
    residual = float(np.max(np.abs(r)))
    inside = residual <= MEMBERSHIP_TOL
    return Membership(inside, w if inside else None, residual)
