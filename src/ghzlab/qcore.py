"""Complex linear algebra for three-qubit states.

Conventions used everywhere in the package:

* Basis order is qubit-1 major, the order ``tensor`` builds products in:
  amplitude index ``b1 b2 b3`` in binary, bit 0 meaning "up" and outcome +1.
* sigma_y eigenvectors are ``(|up> + 1j*s*|down>)/sqrt(2)`` for outcome
  ``s``; no alternative phase, so amplitude tables are bit-reproducible.
* Outcome probabilities are ``Re diag(U^H rho U)`` for pure
  (``rho = |psi><psi|``) and mixed states alike; see ``basis_change``.
* An x/y Pauli product P flips all three qubits, P|j> = phase_j |7-j>, so x/y
  correlators are ``Re sum_j phase_j rho[j, 7-j]``; see ``anti_diagonal``.
* Tolerances: READ_SLACK for every constructor's check, EIGEN_TOL for eigenchecks,
  IMAG_TOL (derived from READ_SLACK) per unit of coefficient for imaginary residuals,
  SELF_CHECK_TOL for the self-checks' exact identities, DEFAULT_TOL where none is given.
* Every number handed to the package is read by ``read_numbers``, a count or
  seed by ``read_count``; both refuse, never coerce, what is not a finite
  number in float range (an integer from a least value, for a count).
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SelfCheckFailed

SQRT2_INV = 1.0 / np.sqrt(2.0)

#: The one slack of every constructor's checks. An accepted state has
#: r^2 <= 16 (1 + 9 READ_SLACK)^2 < 16 + mermin.SLACK, so ``report`` takes it.
READ_SLACK = 1e-12

#: Largest ||O|psi> - lambda|psi>|| that eigencheck and verify accept.
EIGEN_TOL = 1e-10
#: Largest Im Tr(rho O) per unit of sum |coeff| that ``expectation`` drops: rho's anti-Hermitian
#: part (<= READ_SLACK/2) meets a Pauli product's 8 unit entries: 4 READ_SLACK, + 16 eps rounding.
IMAG_TOL = 4 * READ_SLACK + 16 * float(np.finfo(float).eps)
#: Tolerance of the exact identities that the self-checks confirm.
SELF_CHECK_TOL = 1e-12
#: Tolerance of each library call that takes one when none is given; threshold echoes it.
DEFAULT_TOL = 1e-6

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

#: Product of the three outcomes of each triple, in OUTCOMES order.
OUTCOME_SIGNS = np.prod(OUTCOMES, axis=1)
OUTCOME_SIGNS.setflags(write=False)

#: Settings patterns appearing in the four perfect-correlation identities.
PATTERNS = ("xxx", "xyy", "yxy", "yyx")
#: The 8 x/y setting triples ``read_settings`` takes, lower-cased.
SETTINGS = frozenset(map("".join, itertools.product(EIGENBASES, repeat=3)))
#: I/8, read-only: scaling by 1/8 is exact, so the noise term keeps the bits of (1 - v) I / 8.
WHITE_NOISE = np.eye(8) / 8
WHITE_NOISE.setflags(write=False)


def read_numbers(values, what: str, dtype=float) -> np.ndarray:
    """``values`` as a finite, read-only array of ``dtype`` (float or complex):
    an ndarray numpy casts safely to it (bool aside) passes whole, anything else
    must hold only real (complex) numbers, never bools. ``what`` names one entry."""
    number = numbers.Complex if dtype is complex else numbers.Real
    noun = f"a {number.__name__.lower()} number"
    if not (isinstance(values, np.ndarray) and values.dtype.kind != "b"
            and np.can_cast(values.dtype, dtype)):
        try:
            values = np.array(values, dtype=object)
        except ValueError as exc:  # sequences of arrays that do not stack
            raise ValueError(f"{what} must be {noun}, got a ragged array") from exc
        for entry in values.ravel():
            if not isinstance(entry, number) or isinstance(entry, bool):
                raise ValueError(f"{what} must be {noun}, got {type(entry).__name__}")
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"{what} is too large for a float") from exc
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} is non-finite")
    arr.setflags(write=False)
    return arr


def read_number(value, what: str) -> float:
    """One real number, read by ``read_numbers``; ``what`` names it. A finite
    Python float is already one, so it is returned as it is."""
    if type(value) is float and math.isfinite(value):
        return value
    arr = read_numbers(value, what)
    if arr.shape:
        raise ValueError(f"{what} must be a real number, got shape {arr.shape}")
    return float(arr)


def read_count(value, what: str, minimum: int) -> int:
    """A count or seed: an int or numpy integer, never a bool, at least ``minimum``."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of three qubits: 8 amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = read_numbers(self.amplitudes, "amplitude", complex)
        if amps.shape != (8,):
            got = amps.size if amps.ndim == 1 else f"shape {amps.shape}"
            raise ValueError(f"expected a three-qubit state (8 amplitudes), got {got}")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > READ_SLACK:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state of three qubits as an 8x8 matrix."""

    entries: np.ndarray

    def __post_init__(self):
        mat = read_numbers(self.entries, "density matrix entry", complex)
        if mat.shape != (8, 8):
            raise ValueError(f"expected a three-qubit state (an 8x8 matrix), got shape {mat.shape}")
        if abs(mat - mat.conj().T).max() > READ_SLACK:
            raise ValueError(f"density matrix not Hermitian within {READ_SLACK:g}")
        tr = complex(mat.trace())
        if abs(tr - 1.0) > READ_SLACK:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        # White-noise mixing can leave eigenvalues a hair below zero; eigvalsh ascends.
        if np.linalg.eigvalsh(mat)[0] < -READ_SLACK:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", mat)


@dataclass(frozen=True)
class Observable:
    """Real linear combination of three-qubit Pauli products.

    Each term is ``(coefficient, settings)`` with settings three characters
    over {X, Y, Z, I}, qubit-1 leftmost; there is at least one term. Real
    coefficients on Hermitian factors keep the whole observable Hermitian
    by construction.
    """

    terms: tuple

    def __post_init__(self):
        terms = self.terms if isinstance(self.terms, (tuple, list)) else (self.terms,)
        if not terms:
            raise ValueError("an observable needs at least one term")
        for term in terms:
            if not isinstance(term, (tuple, list)) or len(term) != 2:
                raise ValueError(f"expected a (coefficient, settings) pair, got {term!r}")
        coeffs = read_numbers([coeff for coeff, _ in terms], "coefficient")
        if coeffs.ndim != 1:
            raise ValueError(f"coefficient must be a real number, got shape {coeffs.shape[1:]}")
        settings = [s.upper() if isinstance(s, str) else s for _, s in terms]
        for s in settings:
            if not isinstance(s, str) or len(s) != 3 or any(ch not in PAULI for ch in s):
                raise ValueError(f"expected three Pauli settings, got {s!r}")
        object.__setattr__(self, "terms", tuple(zip(coeffs.tolist(), settings)))

    @classmethod
    def single(cls, settings: str, coeff: float = 1.0) -> "Observable":
        return cls(((coeff, settings),))


def make_ghz() -> StateVector:
    """The three-qubit state (|up,up,up> + |down,down,down>)/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[[0, 7]] = SQRT2_INV
    return StateVector(amps)


def tensor(factors) -> np.ndarray:
    """Kronecker product of the factors, qubit 1's the leftmost."""
    return functools.reduce(np.kron, factors)


def observable_matrix(obs: Observable) -> np.ndarray:
    """The sum over terms of coefficient times the Pauli product."""
    if not isinstance(obs, Observable):
        raise TypeError(f"expected Observable, got {type(obs)}")
    return sum(coeff * tensor([PAULI[ch] for ch in settings]) for coeff, settings in obs.terms)


def density_entries(state) -> np.ndarray:
    """The density matrix of a state: |psi><psi| for a pure one."""
    if isinstance(state, StateVector):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    if isinstance(state, DensityMatrix):
        return state.entries
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(state)}")


def anti_diagonal(state) -> np.ndarray:
    """c_j = rho[j, 7-j], what every x/y correlator reads: psi_j conj(psi_{7-j}) if pure."""
    if isinstance(state, StateVector):
        return state.amplitudes * state.amplitudes[::-1].conj()
    return density_entries(state)[:, ::-1].diagonal()


def pure_amplitudes(state) -> np.ndarray:
    """The amplitudes of a pure state; a mixed one has none."""
    if not isinstance(state, StateVector):
        raise TypeError(f"expected StateVector, got {type(state)}")
    return state.amplitudes


def expectation(state, obs: Observable) -> float:
    """Tr(rho O); an imaginary part past IMAG_TOL * sum |coeff| raises SelfCheckFailed."""
    value = complex(np.trace(density_entries(state) @ observable_matrix(obs)))
    if abs(value.imag) > IMAG_TOL * sum(abs(coeff) for coeff, _ in obs.terms):
        raise SelfCheckFailed(f"imaginary residual {value.imag!r} in expectation")
    return value.real


def eigencheck(state: StateVector, obs: Observable, eigenvalue: float) -> bool:
    """True iff ||O|psi> - lambda|psi>|| < EIGEN_TOL."""
    return eigen_residual(state, obs, eigenvalue) < EIGEN_TOL


def eigen_residual(state: StateVector, obs: Observable, eigenvalue: float) -> float:
    psi, eigenvalue = pure_amplitudes(state), read_number(eigenvalue, "eigenvalue")
    return float(np.linalg.norm(observable_matrix(obs) @ psi - eigenvalue * psi))


def read_settings(settings) -> str:
    """Three x/y settings, one per qubit, lower-cased."""
    settings = settings.lower() if isinstance(settings, str) else settings
    if not isinstance(settings, str) or settings not in SETTINGS:
        raise ValueError(f"one setting per qubit required (x or y): {settings!r}")
    return settings


def basis_change(settings: str) -> np.ndarray:
    """U: joint x/y eigenvectors, one setting per qubit, as columns in OUTCOMES order."""
    return tensor([EIGENBASES[ch] for ch in read_settings(settings)])


@functools.cache
def _flip_phases(settings: str) -> np.ndarray:
    """Read-only phase_j with P|j> = phase_j |7-j>: P[7-j, j], copied out of P because
    a dot product with the strided view rounds differently."""
    phases = tensor([PAULI[ch] for ch in settings.upper()])[::-1].diagonal().copy()
    phases.setflags(write=False)
    return phases


def amplitude_table(state: StateVector, settings: str) -> np.ndarray:
    """Amplitudes of a pure state in a per-party x/y eigenbasis, U^H psi, in
    OUTCOMES order."""
    return basis_change(settings).conj().T @ pure_amplitudes(state)


def outcome_probabilities(state, settings: str) -> np.ndarray:
    """Joint outcome probabilities in OUTCOMES order: Re diag(U^H rho U)."""
    u = basis_change(settings)
    return np.sum(u.conj() * (density_entries(state) @ u), axis=0).real


def signed_probability_sum(amplitudes) -> float:
    """Sum over outcomes of (product of outcomes) * |amplitude|^2 over an ``amplitude_table``."""
    return float(OUTCOME_SIGNS @ np.abs(amplitudes) ** 2)


def signed_sum_for_state(state, settings: str) -> float:
    """Sum over outcomes of (product of outcomes) * probability: Re sum_j phase_j rho[j, 7-j]."""
    return float((_flip_phases(read_settings(settings)) @ anti_diagonal(state)).real)


def mix_with_white_noise(state, visibility: float) -> DensityMatrix:
    """v * rho + (1 - v) * I/8."""
    visibility = read_number(visibility, "visibility")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility {visibility!r} outside [0, 1]")
    return DensityMatrix(visibility * density_entries(state) + (1.0 - visibility) * WHITE_NOISE)


# --- state file format -----------------------------------------------------
#
# Pure state:    {"dim": 8, "re": [8 reals], "im": [8 reals]}
# Mixed state:   {"dim": 8, "re": [[...]], "im": [[...]]}

#: Most characters ``load_state`` reads; a full-precision mixed state takes under 5,000.
MAX_STATE_CHARS = 1 << 20


def state_to_json_dict(state) -> dict:
    arr = state.amplitudes if isinstance(state, StateVector) else density_entries(state)
    return {"dim": arr.shape[0], "re": arr.real.tolist(), "im": arr.imag.tolist()}


def state_from_json_dict(doc: dict):
    try:
        dim, re, im = doc["dim"], doc["re"], doc["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    re, im = read_numbers(re, "state entry"), read_numbers(im, "state entry")
    if re.shape != im.shape:
        raise ValueError(f"state arrays re and im differ in shape: {re.shape} and {im.shape}")
    # No string, no boolean, and no rounding of 8.7.
    if type(dim) not in (int, float) or re.shape not in ((dim,), (dim, dim)):
        raise ValueError(f"state arrays have shape {re.shape}, "
                         f"expected ({dim!r},) or ({dim!r}, {dim!r})")
    return (StateVector if re.ndim == 1 else DensityMatrix)(re + 1j * im)


def load_state(path):
    with open(path) as fh:
        text = fh.read(MAX_STATE_CHARS + 1)
    if len(text) > MAX_STATE_CHARS:
        raise ValueError(f"state file longer than {MAX_STATE_CHARS} characters")
    try:
        return state_from_json_dict(json.loads(text))
    except RecursionError as exc:  # arrays nested deeper than the parser goes
        raise ValueError(f"malformed state document: {exc}") from exc
