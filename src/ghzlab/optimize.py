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
(e^{ia}|000> + e^{ib}|111>)/sqrt(2). One seeded start (one per cut) moves in
one exact step onto the maximizer with its own phases; ``restarts`` is only
echoed. Each radius maximum leaves through ``_certify``, which builds the
result only once the identity holds exactly on the operator matrices and
every such witness is 8 amplitudes of norm 1 (so finite) reaching the value,
both within SELF_CHECK_TOL. The eigensolve oracles are independent
references: an exact quarter-turn check, then one eigensolve (one per cut).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SelfCheckFailed
from . import locality, mermin, qcore
from .qcore import SELF_CHECK_TOL, Observable, make_ghz, observable_matrix

#: diag(1, i) on qubit 3 of three, and on the first qubit of a pair.
QUBIT3_TURN = qcore.tensor([np.ones(2), np.ones(2), [1, 1j]])
PAIR_TURN = qcore.tensor([[1, 1j], np.ones(2)])
#: Limit of each bound that GHZ violates, so that noisy GHZ crosses it.
_GHZ_BOUNDS = mermin.report(mermin.evaluate_point(make_ghz())).to_json_dict()["bounds"]
THRESHOLD_LIMITS = {name: limit for name, (_, limit) in mermin.BOUNDS.items()
                    if not _GHZ_BOUNDS[name]}


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


def _mermin_matrices():
    return tuple(observable_matrix(Observable(terms))
                 for terms in (mermin.M_TERMS, mermin.MPRIME_TERMS))


def _mermin_terms(which: str) -> tuple:
    if which not in ("m", "mprime"):
        raise ValueError(f"which must be 'm' or 'mprime', got {which!r}")
    return mermin.M_TERMS if which == "m" else mermin.MPRIME_TERMS


def _check_quarter_turn(first, second, phases) -> None:
    """Check that conjugating by diag(phases) maps first -> second -> -first.

    U_a = diag(1, e^{ia}) on one qubit multiplies the qubit's off-diagonal
    blocks by e^{+-ia}. The first step (a = pi/2) says ``second`` is
    ``first`` with those blocks times +-i; the second rules out any block of
    ``first`` diagonal on the qubit. So cos(a) first + sin(a) second =
    U_a first U_a^H for every a. Entries are 0, +-1 and +-i: exact.
    """
    turn = np.outer(phases, np.conj(phases))
    if not (np.array_equal(first * turn, second)
            and np.array_equal(second * turn, -first)):
        raise SelfCheckFailed("quarter turn does not rotate the operator pair; "
                              "operator code corrupt")


def _certify(model_class: str, value: float, witnesses, argmax: dict,
             restarts: int, seed: int) -> OptimizationResult:
    """The result at ``value`` once the pair identity and every witness confirm it: a
    witness is this module's own maximizer, not input, so it is checked as a result."""
    m_mat, mp_mat = _mermin_matrices()
    corner = np.zeros((8, 8), dtype=complex)
    corner[0, 7] = 8.0
    if not np.array_equal(m_mat + 1j * mp_mat, corner):
        raise SelfCheckFailed("M + iM' != 8|000><111|; operator code corrupt")
    for psi in witnesses:
        if np.shape(psi) != (8,):
            raise SelfCheckFailed(f"{model_class} witness has shape {np.shape(psi)}, not (8,)")
        norm2 = float(np.vdot(psi, psi).real)
        reached = float(abs(mermin.pure_mermin_values(psi)) ** 2)
        if not (abs(norm2 - 1.0) <= SELF_CHECK_TOL and abs(reached - value) <= SELF_CHECK_TOL):
            raise SelfCheckFailed(f"{model_class} witness with |psi|^2 = {norm2} "
                                  f"reached {reached}, closed form {value}")
    return OptimizationResult(model_class, float(value), argmax, int(restarts), int(seed))


def max_local_mermin(which: str = "m") -> OptimizationResult:
    """Exact max of |<M>| (or |<M'>|) over the 64 deterministic strategies."""
    terms = _mermin_terms(which)
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
    terms = _mermin_terms(which)
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
    return qcore.tensor([_bloch_qubit(params[2 * q], params[2 * q + 1]) for q in range(3)])


def biseparable_state(cut: int, params) -> np.ndarray:
    """Amplitudes of (single qubit at `cut`) x (pair on the other two parties).

    params: 2 Bloch angles, then 8 reals for the pair vector (re, im
    interleaved); the pair part is normalized on the fly.
    """
    single = _bloch_qubit(params[0], params[1])
    raw = np.asarray(params[2:10], dtype=float)
    pair = (raw[0::2] + 1j * raw[1::2]).reshape(2, 2)
    pair = pair / np.linalg.norm(pair)
    return np.moveaxis(qcore.tensor([single, pair.reshape(4)]).reshape(2, 2, 2), 0, cut).reshape(8)


def _phased_cat(amplitudes) -> np.ndarray:
    """(e^{ia}|0...0> + e^{ib}|1...1>)/sqrt(2), a and b the end phases given."""
    amplitudes = np.asarray(amplitudes)
    cat = np.zeros(amplitudes.size, dtype=complex)
    cat[[0, -1]] = np.exp(1j * np.angle(amplitudes[[0, -1]])) * qcore.SQRT2_INV
    return cat


def max_quantum_local_radius(restarts: int = locality.DEFAULT_RESTARTS,
                             seed: int = locality.DEFAULT_SEED) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over pure product states.

    For a product state the point is prod_k (x_k + i y_k) over the qubits'
    equatorial Bloch components, so r^2 = prod_k (x_k^2 + y_k^2) <= 1.
    One seeded start is moved to the equator at its own azimuths.
    """
    rng = locality.seeded_rng(restarts, seed)
    params = random_bloch_angles(rng, 3)
    params[0::2] = np.pi / 2.0
    return _certify("quantum_local", 1.0, [product_state(params)],
                    {"bloch_angles": [float(v) for v in params]}, restarts, seed)


def biseparable_radius_eigen_oracle() -> float:
    """Exact biseparable maximum of <M>^2 + <M'>^2 by eigensolve.

    The qubit-3 quarter turn makes cos(phi) M + sin(phi) M' a local
    rotation of M, so the radius maximum is the square of the biseparable
    maximum of <M>: for a cut, with M = X_cut (x) A + Y_cut (x) B, the
    largest lambda_max(cos(a) A + sin(a) B). The quarter turn A -> -B -> -A
    on the pair's first qubit makes each a rotation of A. All three cuts
    give lambda_max(A) = 2, so the radius maximum is 4 -- strictly below
    the class-membership bound 8, which is therefore not tight.
    """
    m_mat, mp_mat = _mermin_matrices()
    _check_quarter_turn(m_mat, mp_mat, QUBIT3_TURN)
    best = -np.inf
    for cut in range(3):
        # Cut qubit first: <1|M|0> = A + iB and <0|M|1> = A - iB.
        m_cut = np.moveaxis(m_mat.reshape((2,) * 6), (cut, 3 + cut), (0, 3)).reshape(8, 8)
        lower, upper = m_cut[4:, :4], m_cut[:4, 4:]
        a_mat, b_mat = (lower + upper) / 2.0, (lower - upper) / 2j
        _check_quarter_turn(a_mat, -b_mat, PAIR_TURN)
        best = max(best, float(np.linalg.eigvalsh(a_mat)[-1]) ** 2)
    return best


def max_biseparable_radius(restarts: int = locality.DEFAULT_RESTARTS,
                           seed: int = locality.DEFAULT_SEED) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over states product across at least one cut.

    The supremum 4 is attained on every cut (single qubit on the equator,
    pair in a phased Bell state), well inside the membership bound 8. One
    seeded start per cut is moved there; the first is reported.
    """
    rng = locality.seeded_rng(restarts, seed)
    starts = []
    for _ in range(3):
        params = np.concatenate([random_bloch_angles(rng, 1), rng.standard_normal(8)])
        params[0] = np.pi / 2.0
        pair = _phased_cat(params[2::2] + 1j * params[3::2])
        params[2::2], params[3::2] = pair.real, pair.imag
        starts.append(params)
    argmax = {"cut": 0, "params": [float(v) for v in starts[0]],
              "per_cut_maxima": {str(c): 4.0 for c in range(3)},
              "attained": True, "membership_bound": mermin.CLASSES["two-entangled-compatible"]}
    return _certify("biseparable", 4.0, [biseparable_state(cut, p) for cut, p in enumerate(starts)],
                    argmax, restarts, seed)


def operator_square_sum_top_eigenvalue() -> float:
    """Largest eigenvalue of the matrix M^2 + M'^2.

    This is 32, not the radius maximum: <M>^2 + <M'>^2 <= <M^2 + M'^2>
    is loose because GHZ is a +-4 eigenstate of a rotated copy of M for
    every rotation angle. Kept as a documented upper bound only.
    """
    m_mat, mp_mat = _mermin_matrices()
    return float(np.linalg.eigvalsh(m_mat @ m_mat + mp_mat @ mp_mat)[-1])


def quantum_radius_eigen_oracle() -> float:
    """Independent eigensolve certificate of the quantum radius maximum.

    By duality, max over states of <M>^2 + <M'>^2 equals the max over
    phi of lambda_max(cos(phi) M + sin(phi) M')^2. The qubit-3 quarter
    turn M -> M' -> -M, checked exactly, makes every such combination a
    rotation of M itself, so one eigensolve gives the maximum:
    lambda_max(M)^2 = 16.
    """
    m_mat, mp_mat = _mermin_matrices()
    _check_quarter_turn(m_mat, mp_mat, QUBIT3_TURN)
    return float(np.linalg.eigvalsh(m_mat)[-1]) ** 2


def max_quantum_radius(restarts: int = locality.DEFAULT_RESTARTS,
                       seed: int = locality.DEFAULT_SEED) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over all pure three-qubit states.

    One seeded start is moved to the phased GHZ state with its own first
    and last phases; the reported state has the global phase fixed so its
    |000> amplitude is real positive.
    """
    rng = locality.seeded_rng(restarts, seed)
    raw = rng.standard_normal(16)
    witness = _phased_cat(raw[0::2] + 1j * raw[1::2])
    best_psi = witness * np.exp(-1j * np.angle(witness[0]))
    argmax = {"state_re": [float(v) for v in best_psi.real],
              "state_im": [float(v) for v in best_psi.imag]}
    return _certify("quantum", 16.0, [witness], argmax, restarts, seed)


def noise_threshold(bound: str, tol: float = qcore.DEFAULT_TOL) -> float:
    """Smallest visibility at which white-noise-mixed GHZ violates a bound.

    White noise I/8 is traceless against every term of M and M', so
    v*GHZ + (1-v)*I/8 sits at v times the GHZ point (4, 0). The threshold
    is the bound's limit over 4, for a peak and a radius of 4v alike, returned
    once the GHZ point is confirmed within SELF_CHECK_TOL. Being exact, it meets any
    accuracy ``tol`` in (0, inf).
    """
    tol = qcore.read_number(tol, "tol")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not isinstance(bound, str) or bound not in THRESHOLD_LIMITS:
        raise ValueError(f"unknown bound {bound!r}")
    ghz = mermin.evaluate_point(make_ghz())
    if abs(complex(ghz.m_value, ghz.mprime_value) - 4.0) > SELF_CHECK_TOL:
        raise SelfCheckFailed(f"GHZ point {ghz!r} is not (4, 0)")
    return THRESHOLD_LIMITS[bound] / 4.0
