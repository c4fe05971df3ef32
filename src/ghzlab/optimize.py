"""Maxima of the Mermin pair over model classes, plus noise thresholds.

Class maxima (certified targets):

    local (64 strategies)        |<M>|max = 2      exact enumeration
    realistic (free products)    |<M>|max = 4      sum of |coefficients|
    quantum-local (products)     r^2 max  = 1      closed form + exact check
    biseparable (one cut)        r^2 max  = 4      closed form + exact check
    quantum (all pure states)    r^2 max  = 16     closed form + exact check

where r^2 = <M>^2 + <M'>^2. Since M + iM' = (X + iY)^{(x)3} = 8|000><111|,
r^2 = 64 |psi_000|^2 |psi_111|^2. One function, ``_max_radius``, gives the three radius
maxima from ``mermin.PARTITIONS``: a product of k factors has r^2 <= 4^{3-k}, reached by
a product of phased cats (|0...0> + e^{ia}|1...1>)/sqrt(2) at phases from one seeded
``uniforms`` draw of exactly its free phases; ``restarts`` is only echoed. Each radius
maximum leaves through ``_certify``, which builds the result only once the identity holds
exactly on the operator matrices and every witness is 8 amplitudes of norm 1 (so finite)
reaching the value, both within SELF_CHECK_TOL, and writes the first witness as the
argmax. ``_radius_eigen_oracle``, the dual of ``_max_radius`` over the same partitions,
checks two identities exactly, then runs one eigensolve per factor size.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import SelfCheckFailed
from . import locality, mermin, qcore
from .qcore import SELF_CHECK_TOL, Observable, observable_matrix

#: Limit of each bound that GHZ violates, so that noisy GHZ crosses it.
_GHZ_BOUNDS = mermin.report(mermin.evaluate_point(qcore.ghz_density())).to_json_dict()["bounds"]
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
    if not isinstance(which, str) or which not in ("m", "mprime"):
        raise ValueError(f"which must be 'm' or 'mprime', got {which!r}")
    return mermin.M_TERMS if which == "m" else mermin.MPRIME_TERMS


def _certify(model_class: str, value: float, witnesses,
             restarts: int, seed: int) -> OptimizationResult:
    """The result at ``value``, with the first witness's amplitudes as its argmax, once the
    pair identity and every witness confirm it: a witness is this module's own maximizer,
    not input, so it is checked as a result."""
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
    first = witnesses[0] + 0.0  # -0.0 + 0.0 is 0.0: no signed zero is written
    argmax = {"state_re": first.real.tolist(), "state_im": first.imag.tolist()}
    return OptimizationResult(model_class, float(value), argmax,
                              qcore.read_count(restarts, "restarts", 1), int(seed))


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


def seeded_rng(seed: int) -> random.Random:
    """``random.Random(seed)``, the one generator (``seed`` an integer >= 0)."""
    return random.Random(qcore.read_count(seed, "seed", 0))


def uniforms(rng, low: float, high: float, shape) -> np.ndarray:
    """low + (high - low) u of ``shape``, u one block of ``rng.random()`` draws in [0, 1)."""
    block = np.fromiter(iter(rng.random, None), float, np.prod(shape, dtype=int))
    return low + (high - low) * block.reshape(shape)


def complex_normals(rng, shape) -> np.ndarray:
    """Standard complex normals of the tuple ``shape`` by Box-Muller, from one block of
    uniforms (u1, u2): sqrt(-2 log(1 - u1)) e^{2 pi i u2}, each part a standard normal."""
    radius, turn = uniforms(rng, 0.0, 1.0, (2, *shape))
    return np.sqrt(-2.0 * np.log1p(-radius)) * np.exp(2j * np.pi * turn)


def _phased_cat(qubits: int, phase: float) -> np.ndarray:
    """(|0...0> + e^{i phase}|1...1>)/sqrt(2) on ``qubits`` qubits: for one qubit, the
    equatorial qubit at azimuth ``phase``."""
    cat = np.zeros(2 ** qubits, dtype=complex)
    cat[[0, -1]] = qcore.SQRT2_INV, np.exp(1j * phase) * qcore.SQRT2_INV
    return cat


def _max_radius(model_class: str, restarts: int, seed: int) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over the products of ``mermin.PARTITIONS[model_class]``.

    M + iM' = (X + iY)^{(x)3} factorizes, so a product of k factors has the product of its
    factors' points, each 2^n conj(psi_0...0) psi_1...1 on n qubits. By AM-GM its modulus is
    2^n |psi_0...0 psi_1...1| <= 2^{n-1} (|psi_0...0|^2 + |psi_1...1|^2) <= 2^{n-1}, equal at
    a phased cat, so r^2 <= 4^{sum (n-1)} = 4^{3-k}. One seeded draw phases every factor.
    """
    partitions = mermin.PARTITIONS[model_class]
    phases = uniforms(seeded_rng(seed), 0.0, 2.0 * np.pi, (len(partitions), len(partitions[0])))
    witnesses = [np.moveaxis(qcore.tensor([_phased_cat(len(f), a) for f, a in zip(partition, row)])
                             .reshape(2, 2, 2), (0, 1, 2), sum(partition, ())).reshape(8)
                 for partition, row in zip(partitions, phases)]
    return _certify(model_class, 4.0 ** (3 - len(partitions[0])), witnesses, restarts, seed)


def max_quantum_local_radius(restarts: int = locality.DEFAULT_RESTARTS,
                             seed: int = locality.DEFAULT_SEED) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over pure product states: 1, at three equatorial qubits."""
    return _max_radius("quantum_local", restarts, seed)


def _radius_eigen_oracle(model_class: str) -> float:
    """``_max_radius``' dual: the max of <M>^2 + <M'>^2 over the products of
    ``mermin.PARTITIONS[model_class]``, by eigensolve. M + iM' = A_3, A_n = (X + iY)^{(x)n} =
    2^n |0...0><1...1| (checked exactly), so a product's <A_3> is its factors' <A_n> multiplied,
    and max |<A_n>| is A_n's numerical radius (Horn and Johnson, Topics in Matrix Analysis, 1991,
    ch. 1). diag(1, e^{ia}) on the first qubit maps A_n to e^{-ia} A_n iff A_n lives in that
    qubit's |0><1| block, which the quarter turn a = pi/2 checks exactly; so every phase of A_n
    is unitarily similar to it, and its radius is lambda_max((A_n + A_n^H)/2) = 2^{n-1}, one
    eigensolve per factor size. The max is the largest (prod lambda_max)^2: 1, 4 or 16."""
    m_mat, mp_mat = _mermin_matrices()
    raising = qcore.PAULI["X"] + 1j * qcore.PAULI["Y"]
    if not np.array_equal(qcore.tensor([raising] * 3), m_mat + 1j * mp_mat):
        raise SelfCheckFailed("M + iM' != (X + iY)^(x)3; operator code corrupt")
    partitions = mermin.PARTITIONS[model_class]
    radius = {}
    for n in sorted({len(factor) for partition in partitions for factor in partition}):
        a_n = qcore.tensor([raising] * n)
        turn = qcore.tensor([np.array([1, 1j])] + [np.ones(2)] * (n - 1))
        if not np.array_equal(a_n * np.outer(turn, turn.conj()), -1j * a_n):
            raise SelfCheckFailed(f"quarter turn does not map (X + iY)^(x){n} to -i times it")
        radius[n] = float(np.linalg.eigvalsh((a_n + a_n.conj().T) / 2)[-1])
    return max(math.prod(radius[len(factor)] for factor in p) for p in partitions) ** 2


def biseparable_radius_eigen_oracle() -> float:
    """Exact biseparable maximum of <M>^2 + <M'>^2 by eigensolve: 4, below the membership bound 8."""
    return _radius_eigen_oracle("biseparable")


def max_biseparable_radius(restarts: int = locality.DEFAULT_RESTARTS,
                           seed: int = locality.DEFAULT_SEED) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over states product across a cut: 4, witnessed on each cut."""
    return _max_radius("biseparable", restarts, seed)


def operator_square_sum_top_eigenvalue() -> float:
    """Largest eigenvalue of the matrix M^2 + M'^2.

    This is 32, not the radius maximum: <M>^2 + <M'>^2 <= <M^2 + M'^2>
    is loose because GHZ is a +-4 eigenstate of a rotated copy of M for
    every rotation angle. Kept as a documented upper bound only.
    """
    m_mat, mp_mat = _mermin_matrices()
    return float(np.linalg.eigvalsh(m_mat @ m_mat + mp_mat @ mp_mat)[-1])


def quantum_radius_eigen_oracle() -> float:
    """Exact quantum maximum of <M>^2 + <M'>^2 by eigensolve: 16."""
    return _radius_eigen_oracle("quantum")


def max_quantum_radius(restarts: int = locality.DEFAULT_RESTARTS,
                       seed: int = locality.DEFAULT_SEED) -> OptimizationResult:
    """Max of <M>^2 + <M'>^2 over all pure three-qubit states: 16, at a phased GHZ state."""
    return _max_radius("quantum", restarts, seed)


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
    ghz = mermin.evaluate_point(qcore.ghz_density())
    if abs(complex(ghz.m_value, ghz.mprime_value) - 4.0) > SELF_CHECK_TOL:
        raise SelfCheckFailed(f"GHZ point {ghz!r} is not (4, 0)")
    return THRESHOLD_LIMITS[bound] / 4.0
