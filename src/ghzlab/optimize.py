"""Maxima of the Mermin pair over model classes, plus noise thresholds.

Class maxima (certified targets):

    local (64 strategies)        |<M>|max = 2      exact enumeration
    realistic (free products)    |<M>|max = 4      sum of |coefficients|
    quantum-local (products)     r^2 max  = 1      closed form + exact check
    biseparable (one cut)        r^2 max  = 4      closed form + exact check
    quantum (all pure states)    r^2 max  = 16     closed form + exact check

where r^2 = <M>^2 + <M'>^2. Since M + iM' = (X + iY)^{(x)3} = 8|000><111|,
r^2 = 64 |psi_000|^2 |psi_111|^2 and AM-GM gives the maxima: every qubit
on the equator, a pair in (e^{ia}|00> + e^{ib}|11>)/sqrt(2), or the state
(e^{ia}|000> + e^{ib}|111>)/sqrt(2). Each seeded start moves in one exact
step onto the maximizer with its own phases; the value is returned only
after the identity holds exactly on the operator matrices and every such
witness reaches it within 1e-12. The eigensolve oracles are independent
references for the biseparable and quantum maxima.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RestartBudgetExhausted
from . import locality, mermin, qcore
from .qcore import StateVector, make_ghz, observable_matrix

DEFAULT_RESTARTS = 32
DEFAULT_SEED = 42
WITNESS_TOL = 1e-12
#: Limit of each noise-threshold bound: peak |<M>|, |<M'>| and radius.
THRESHOLD_LIMITS = {"locality": 2.0, "quantum_locality": 1.0}


@dataclass(frozen=True)
class OptimizationResult:
    model_class: str
    best_value: float
    argmax: dict
    restarts_used: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "class": self.model_class,
            "value": self.best_value,
            "argmax": self.argmax,
            "restarts": self.restarts_used,
            "seed": self.seed,
        }


def _seeded_rng(restarts: int, seed: int):
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    return np.random.default_rng(seed)


def _mermin_matrices():
    pair = mermin.make_mermin_pair()
    return observable_matrix(pair.m), observable_matrix(pair.mprime)


def _certify(model_class: str, value: float, witnesses) -> float:
    """Return ``value`` once the pair identity and every witness confirm it."""
    m_mat, mp_mat = _mermin_matrices()
    corner = np.zeros((8, 8), dtype=complex)
    corner[0, 7] = 8.0
    if not np.array_equal(m_mat + 1j * mp_mat, corner):
        raise RestartBudgetExhausted("M + iM' != 8|000><111|; operator code corrupt")
    for psi in witnesses:
        reached = mermin.evaluate_point(StateVector(psi)).radius_squared
        if abs(reached - value) > WITNESS_TOL:
            raise RestartBudgetExhausted(
                f"{model_class} witness reached {reached!r}, closed form {value}")
    return value


def max_local_mermin(which: str = "m") -> OptimizationResult:
    """Exact max of |<M>| (or |<M'>|) over the 64 deterministic strategies."""
    terms = mermin.M_TERMS if which == "m" else mermin.MPRIME_TERMS
    values = np.abs(locality.mermin_values(locality.SIGNS, terms))
    best = int(np.argmax(values))
    return OptimizationResult(
        model_class="local",
        best_value=float(values[best]),
        argmax={"which": which, "strategy": locality.SIGNS[best].tolist()},
        restarts_used=0,
        seed=0,
    )


def max_realistic_mermin(which: str = "m") -> OptimizationResult:
    """Max of |<M>| when the four triple products are free in [-1, 1].

    Attained by matching each product's sign to its coefficient, so the
    value is the sum of |coefficients| = 4.
    """
    terms = mermin.M_TERMS if which == "m" else mermin.MPRIME_TERMS
    products = {settings.lower(): float(np.sign(coeff)) for coeff, settings in terms}
    value = sum(abs(coeff) for coeff, _ in terms)
    return OptimizationResult(
        model_class="realistic",
        best_value=float(value),
        argmax={"which": which, "products": products},
        restarts_used=0,
        seed=0,
    )


def _bloch_qubit(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * phi)])


def random_bloch_angles(rng, count: int) -> np.ndarray:
    """``count`` uniform points on the Bloch sphere as (theta, phi) pairs."""
    # Uniform on the sphere: cos(theta) uniform in [-1, 1].
    params = np.empty(2 * count)
    params[0::2] = np.arccos(rng.uniform(-1.0, 1.0, size=count))
    params[1::2] = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return params


def product_state(params) -> np.ndarray:
    """Amplitudes of the product of three Bloch qubits (theta, phi interleaved)."""
    psi = np.array([1.0 + 0j])
    for q in range(3):
        psi = np.kron(psi, _bloch_qubit(params[2 * q], params[2 * q + 1]))
    return psi


def biseparable_state(cut: int, params) -> np.ndarray:
    """Amplitudes of (single qubit at `cut`) x (pair on the other two parties).

    params: 2 Bloch angles, then 8 reals for the pair vector (re, im
    interleaved); the pair part is normalized on the fly.
    """
    single = _bloch_qubit(params[0], params[1])
    raw = np.asarray(params[2:10], dtype=float)
    pair = (raw[0::2] + 1j * raw[1::2]).reshape(2, 2)
    pair = pair / np.linalg.norm(pair)
    return np.moveaxis(np.multiply.outer(single, pair), 0, cut).reshape(8)


def _phased_cat(amplitudes) -> np.ndarray:
    """(e^{ia}|0...0> + e^{ib}|1...1>)/sqrt(2), a and b the end phases given."""
    amplitudes = np.asarray(amplitudes)
    cat = np.zeros(amplitudes.size, dtype=complex)
    cat[[0, -1]] = np.exp(1j * np.angle(amplitudes[[0, -1]])) * qcore.SQRT2_INV
    return cat


def max_quantum_local_radius(restarts: int = DEFAULT_RESTARTS,
                             seed: int = DEFAULT_SEED) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over pure product states.

    For a product state the point is prod_k (x_k + i y_k) over the qubits'
    equatorial Bloch components, so r^2 = prod_k (x_k^2 + y_k^2) <= 1.
    Each seeded start is moved to the equator at its own azimuths.
    """
    rng = _seeded_rng(restarts, seed)
    starts = [random_bloch_angles(rng, 3) for _ in range(restarts)]
    for params in starts:
        params[0::2] = np.pi / 2.0
    value = _certify("quantum_local", 1.0, [product_state(p) for p in starts])
    return OptimizationResult(
        model_class="quantum_local",
        best_value=value,
        argmax={"bloch_angles": [float(v) for v in starts[0]]},
        restarts_used=restarts, seed=seed,
    )


def biseparable_radius_eigen_oracle(sweep: int = 720) -> float:
    """Exact biseparable maximum of <M>^2 + <M'>^2 by eigensolve.

    Because cos(phi) M + sin(phi) M' is a qubit-3 local rotation of M,
    the biseparable radius maximum is the square of the biseparable
    maximum of <M> itself. For a cut that maximum is
    max over alpha of lambda_max(cos(alpha) A + sin(alpha) B) with
    M = X_cut (x) A + Y_cut (x) B, swept over a fine angle grid. All
    three cuts give 2, so the certified radius maximum is 4 -- strictly
    below the class-membership bound 8, which is therefore not tight.
    """
    best = -np.inf
    for cut in range(3):
        a_mat = np.zeros((4, 4), dtype=complex)
        b_mat = np.zeros((4, 4), dtype=complex)
        for coeff, settings in mermin.M_TERMS:
            factors = [qcore.PAULI[settings[p]] for p in range(3) if p != cut]
            target = a_mat if settings[cut] == "X" else b_mat
            target += coeff * np.kron(factors[0], factors[1])
        for alpha in np.linspace(0.0, 2.0 * np.pi, sweep, endpoint=False):
            top = np.linalg.eigvalsh(
                np.cos(alpha) * a_mat + np.sin(alpha) * b_mat
            )[-1]
            best = max(best, float(top) ** 2)
    return best


def max_biseparable_radius(restarts: int = DEFAULT_RESTARTS,
                           seed: int = DEFAULT_SEED) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over states product across at least one cut.

    The supremum 4 is attained on every cut (single qubit on the equator,
    pair in a phased Bell state), well inside the membership bound 8.
    """
    rng = _seeded_rng(restarts, seed)
    starts = []
    for cut in range(3):
        for _ in range(restarts):
            params = np.concatenate([random_bloch_angles(rng, 1), rng.standard_normal(8)])
            params[0] = np.pi / 2.0
            pair = _phased_cat(params[2::2] + 1j * params[3::2])
            params[2::2], params[3::2] = pair.real, pair.imag
            starts.append((cut, params))
    value = _certify("biseparable", 4.0,
                     [biseparable_state(cut, p) for cut, p in starts])
    best_cut, best_params = starts[0]
    return OptimizationResult(
        model_class="biseparable",
        best_value=value,
        argmax={
            "cut": best_cut,
            "params": [float(v) for v in best_params],
            "per_cut_maxima": {str(c): value for c in range(3)},
            "attained": True,
            "membership_bound": 8.0,
        },
        restarts_used=restarts, seed=seed,
    )


def operator_square_sum_top_eigenvalue() -> float:
    """Largest eigenvalue of the matrix M^2 + M'^2.

    This is 32, not the radius maximum: <M>^2 + <M'>^2 <= <M^2 + M'^2>
    is loose because GHZ is a +-4 eigenstate of a rotated copy of M for
    every rotation angle. Kept as a documented upper bound only.
    """
    m_mat, mp_mat = _mermin_matrices()
    return float(np.linalg.eigvalsh(m_mat @ m_mat + mp_mat @ mp_mat)[-1])


def quantum_radius_eigen_oracle(sweep: int = 720) -> float:
    """Independent eigensolve certificate of the quantum radius maximum.

    By duality, max over states of <M>^2 + <M'>^2 equals the max over
    phi of lambda_max(cos(phi) M + sin(phi) M')^2. Rotating the qubit-3
    Pauli frame shows every such combination is unitarily equivalent to
    M itself, so the swept top eigenvalue is constant at 4 and the
    certified radius maximum is 16.
    """
    m_mat, mp_mat = _mermin_matrices()
    best = -np.inf
    for phi in np.linspace(0.0, 2.0 * np.pi, sweep, endpoint=False):
        top = np.linalg.eigvalsh(np.cos(phi) * m_mat + np.sin(phi) * mp_mat)[-1]
        best = max(best, float(top) ** 2)
    return best


def max_quantum_radius(restarts: int = DEFAULT_RESTARTS,
                       seed: int = DEFAULT_SEED,
                       warm_start: StateVector | None = None) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over all pure three-qubit states.

    Each start (the warm start first, when given) is moved to the phased
    GHZ state with its own first and last phases; the reported state has
    the global phase fixed so its |000> amplitude is real positive.
    """
    rng = _seeded_rng(restarts, seed)
    raws = [rng.standard_normal(16) for _ in range(restarts)]
    starts = [] if warm_start is None else [warm_start.amplitudes]
    starts += [raw[0::2] + 1j * raw[1::2] for raw in raws]
    witnesses = [_phased_cat(psi) for psi in starts]
    value = _certify("quantum", 16.0, witnesses)
    best_psi = witnesses[0] * np.exp(-1j * np.angle(witnesses[0][0]))
    return OptimizationResult(
        model_class="quantum",
        best_value=value,
        argmax={
            "state_re": [float(v) for v in best_psi.real],
            "state_im": [float(v) for v in best_psi.imag],
        },
        restarts_used=restarts, seed=seed,
    )


def noise_threshold(bound: str, tol: float = 1e-6) -> float:
    """Smallest visibility at which white-noise-mixed GHZ violates a bound.

    White noise I/8 is traceless against every term of M and M', so
    v*GHZ + (1-v)*I/8 sits at v times the GHZ point (4, 0). The threshold
    is the bound's limit over 4 (2/4 locality, 1/4 quantum locality),
    returned once the GHZ point is confirmed within 1e-12. Being exact,
    it meets any accuracy ``tol`` in (0, inf).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if bound not in THRESHOLD_LIMITS:
        raise ValueError(f"unknown bound {bound!r}")
    ghz = mermin.evaluate_point(make_ghz())
    if abs(complex(ghz.m_value, ghz.mprime_value) - 4.0) > WITNESS_TOL:
        raise RestartBudgetExhausted(f"GHZ point {ghz!r} is not (4, 0)")
    return THRESHOLD_LIMITS[bound] / 4.0
