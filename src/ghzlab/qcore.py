"""Complex linear algebra for three-qubit states.

Conventions used everywhere in the package:

* Basis order is qubit-1 major: amplitude index ``b1 b2 b3`` in binary,
  with bit 0 meaning "up" and measurement outcome +1.
* sigma_y eigenvectors are ``(|up> + 1j*s*|down>)/sqrt(2)`` for outcome
  ``s``; no alternative phase, so amplitude tables are bit-reproducible.
* Outcome probabilities are ``Re diag(U^H rho U)`` for pure
  (``rho = |psi><psi|``) and mixed states alike; see ``basis_change``.
* Tolerances: 1e-12 for exact algebraic identities and normalization,
  1e-10 for eigenchecks and imaginary residuals.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ImaginaryResidual, VisibilityOutOfRange

SQRT2_INV = 1.0 / np.sqrt(2.0)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Eigenvectors of sigma_x and sigma_y as columns, outcome +1 then -1.
EIGENBASES = {
    "x": SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=complex),
    "y": SQRT2_INV * np.array([[1, 1], [1j, -1j]], dtype=complex),
}

#: The 8 outcome triples in canonical order (+1 before -1, party-1 major).
OUTCOMES = list(itertools.product((+1, -1), repeat=3))

#: Settings patterns appearing in the four perfect-correlation identities.
PATTERNS = ("xxx", "xyy", "yxy", "yyx")


def _as_complex_vector(amplitudes) -> np.ndarray:
    arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state of three qubits (or two, for the EPR contrast)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _as_complex_vector(self.amplitudes))
        dim = self.amplitudes.size
        if dim not in (4, 8):
            raise ValueError(f"expected 4 or 8 amplitudes, got {dim}")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("state has a non-finite amplitude")
        norm2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")

    @property
    def num_qubits(self) -> int:
        return int(np.log2(self.amplitudes.size))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of three qubits as an 8x8 (or 4x4) matrix."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] not in (4, 8):
            raise ValueError(f"expected a 4x4 or 8x8 matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix has a non-finite entry")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("density matrix not Hermitian within 1e-12")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        # White-noise mixing can leave eigenvalues a hair below zero.
        if np.min(np.linalg.eigvalsh(mat)) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def num_qubits(self) -> int:
        return int(np.log2(self.entries.shape[0]))


@dataclass(frozen=True)
class Observable:
    """Real linear combination of tensor products of per-qubit Paulis.

    Each term is ``(coefficient, settings)`` with settings a string over
    {X, Y, Z, I}, qubit-1 leftmost. Real coefficients on Hermitian
    factors keep the whole observable Hermitian by construction.
    """

    terms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        norm = []
        for coeff, settings in self.terms:
            settings = settings.upper()
            if any(ch not in PAULI for ch in settings):
                raise ValueError(f"bad Pauli settings {settings!r}")
            norm.append((float(coeff), settings))
        if len({len(s) for _, s in norm}) > 1:
            raise ValueError("all terms must act on the same number of qubits")
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def single(cls, settings: str, coeff: float = 1.0) -> "Observable":
        return cls(((coeff, settings),))


@dataclass(frozen=True)
class AmplitudeTable:
    """Amplitudes of a pure state in a per-party sigma_x/sigma_y eigenbasis.

    ``entries[(i, j, k)]`` is the amplitude of the joint eigenvector with
    outcomes ``i, j, k`` in {+1, -1}, keyed in OUTCOMES order.
    """

    settings: str
    entries: dict

    def __post_init__(self):
        if any(ch not in "xy" for ch in self.settings.lower()):
            raise ValueError(f"settings must be over {{x, y}}, got {self.settings!r}")
        object.__setattr__(self, "settings", self.settings.lower())
        total = sum(abs(a) ** 2 for a in self.entries.values())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"amplitude table not normalized: {total!r}")


def make_ghz() -> StateVector:
    """The three-qubit state (|up,up,up> + |down,down,down>)/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = SQRT2_INV
    amps[7] = SQRT2_INV
    return StateVector(amps)


def maximally_mixed(num_qubits: int = 3) -> DensityMatrix:
    dim = 2 ** num_qubits
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def observable_matrix(obs: Observable) -> np.ndarray:
    """Kronecker-product expansion with qubit-1 as the leftmost factor."""
    dim = 2 ** len(obs.terms[0][1])
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, settings in obs.terms:
        term = np.array([[1.0 + 0j]])
        for ch in settings:
            term = np.kron(term, PAULI[ch])
        total += coeff * term
    return total


def require_three_qubits(state):
    """The state itself, refused with a one-line message unless it has three qubits."""
    if state.num_qubits != 3:
        raise ValueError(f"expected a three-qubit state, got {state.num_qubits} qubits")
    return state


def density_entries(state) -> np.ndarray:
    """The density matrix of a state: |psi><psi| for a pure one."""
    if isinstance(state, StateVector):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    if isinstance(state, DensityMatrix):
        return state.entries
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(state)}")


def expectation(state, obs: Observable) -> float:
    """Tr(rho O); the imaginary residual must vanish."""
    value = complex(np.trace(density_entries(state) @ observable_matrix(obs)))
    if abs(value.imag) >= 1e-10:
        raise ImaginaryResidual(f"imaginary residual {value.imag!r} in expectation")
    return value.real


def eigencheck(state: StateVector, obs: Observable, eigenvalue: float) -> bool:
    """True iff ||O|psi> - lambda|psi>|| < 1e-10."""
    return eigen_residual(state, obs, eigenvalue) < 1e-10


def eigen_residual(state: StateVector, obs: Observable, eigenvalue: float) -> float:
    mat = observable_matrix(obs)
    return float(np.linalg.norm(mat @ state.amplitudes - eigenvalue * state.amplitudes))


def basis_change(settings: str, dim: int) -> np.ndarray:
    """U: joint x/y eigenvectors, one setting per qubit, as columns in OUTCOMES order."""
    settings = settings.lower()
    if 2 ** len(settings) != dim or not set(settings) <= set(EIGENBASES):
        raise ValueError(f"one setting per qubit required (x or y): {settings!r}, dim {dim}")
    return functools.reduce(np.kron, [EIGENBASES[ch] for ch in settings], np.ones((1, 1)))


def amplitude_table(state: StateVector, settings: str) -> AmplitudeTable:
    """Expand a pure state over a per-party x/y eigenbasis: U^H psi."""
    amps = basis_change(settings, state.amplitudes.size).conj().T @ state.amplitudes
    outcomes = itertools.product((+1, -1), repeat=len(settings))
    return AmplitudeTable(settings, dict(zip(outcomes, amps.tolist())))


def outcome_probabilities(state, settings: str) -> np.ndarray:
    """Joint outcome probabilities in OUTCOMES order: Re diag(U^H rho U)."""
    rho = density_entries(state)
    u = basis_change(settings, rho.shape[0])
    return np.sum(u.conj() * (rho @ u), axis=0).real


def outcome_signs(parties: int = 3) -> np.ndarray:
    """Product of the outcomes of each joint outcome, in OUTCOMES order."""
    return np.prod(list(itertools.product((+1, -1), repeat=parties)), axis=1)


def signed_probability_sum(table: AmplitudeTable) -> float:
    """Sum over outcomes of (product of outcomes) * |amplitude|^2."""
    probs = np.abs(np.fromiter(table.entries.values(), dtype=complex)) ** 2
    return float(outcome_signs(len(table.settings)) @ probs)


def signed_sum_for_state(state, settings: str) -> float:
    """Sum over outcomes of (product of outcomes) * probability."""
    return float(outcome_signs(len(settings)) @ outcome_probabilities(state, settings))


def mix_with_white_noise(state, visibility: float) -> DensityMatrix:
    """v * rho + (1 - v) * I/dim."""
    if not 0.0 <= visibility <= 1.0:
        raise VisibilityOutOfRange(f"visibility {visibility!r} outside [0, 1]")
    rho = density_entries(state)
    dim = rho.shape[0]
    return DensityMatrix(visibility * rho + (1.0 - visibility) * np.eye(dim) / dim)


# --- state file format -----------------------------------------------------
#
# Pure state:    {"dim": 8, "re": [8 reals], "im": [8 reals]}
# Mixed state:   {"dim": 8, "re": [[...]], "im": [[...]]}

def state_to_json_dict(state) -> dict:
    if isinstance(state, StateVector):
        arr = state.amplitudes
        return {"dim": arr.size, "re": arr.real.tolist(), "im": arr.imag.tolist()}
    if isinstance(state, DensityMatrix):
        mat = state.entries
        return {"dim": mat.shape[0], "re": mat.real.tolist(), "im": mat.imag.tolist()}
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(state)}")


def state_from_json_dict(doc: dict):
    try:
        dim = int(doc["dim"])
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    data = re + 1j * im
    if data.shape == (dim,):
        return StateVector(data)
    if data.shape == (dim, dim):
        return DensityMatrix(data)
    raise ValueError(f"state arrays have shape {data.shape}, expected ({dim},) or ({dim}, {dim})")


def save_state(state, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json_dict(state), fh)
        fh.write("\n")


def load_state(path):
    with open(path) as fh:
        return state_from_json_dict(json.load(fh))
