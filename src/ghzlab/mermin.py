"""The GHZ-Mermin operator pair, the four bounds, and the region diagram.

M + iM' = (X + iY)^{(x)3} = 8|000><111|, expanded in ``qcore.MERMIN_EXPANSION``, puts GHZ
at (+4, 0) in the (<M>, <M'>) plane and a product state at prod_k (x_k + i*y_k) of its
equatorial Bloch components. M_TERMS and MPRIME_TERMS are its real and imaginary terms:

    M  = XXX - XYY - YXY - YYX
    M' = XXY + XYX + YXX - YYY

BOUNDS holds the four bounds on a point (m, m'), CLASSES the radius classes, PARTITIONS
the factor partitions from which one ``optimize`` function makes every radius witness;
every limit is written there and nowhere else. Every comparison is
``value - SLACK <= limit``: a value within SLACK above a limit is on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .qcore import MERMIN_EXPANSION, PATTERNS, anti_diagonal, read_count, read_number

#: (coefficient, settings) terms; M's four signs are GHZ's perfect correlations on PATTERNS.
M_TERMS = tuple((MERMIN_EXPANSION[p].real, p.upper()) for p in PATTERNS)
MPRIME_TERMS = tuple((coeff.imag, s.upper()) for s, coeff in MERMIN_EXPANSION.items() if coeff.imag)

#: Fewest vertices per circle of ``figure1_regions``, and how many it draws by default.
MIN_SAMPLES = 8
DEFAULT_SAMPLES = 256

#: A value at most SLACK above a limit is on it: rounding never makes a violation.
SLACK = 1e-9
#: The four bounds, in report order: name -> (shape, limit). A square bounds
#: max(|m|, |m'|), a circle the radius, compared as r^2 - SLACK <= limit * limit.
BOUNDS = MappingProxyType({"locality": ("square", 2.0), "quantum_locality": ("circle", 1.0),
                           "realism": ("square", 4.0), "quantum": ("circle", 4.0)})
#: Each class by the largest r^2 it holds; a point takes the first that holds it.
#: 8 is the biseparable membership bound, above the biseparable maximum 4, and
#: perfbench/child.py's ``_klass`` checks ``report`` against it: move both together.
CLASSES = MappingProxyType({"separable-compatible": 1.0, "two-entangled-compatible": 8.0,
                            "three-entangled": np.inf})
#: Each radius class by its witnesses' factor partitions of qubits (0, 1, 2), one per cut
#: for biseparable: a product of k factors has r^2 <= 4^(3 - k).
PARTITIONS = MappingProxyType({"quantum_local": (((0,), (1,), (2,)),),
                               "biseparable": (((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1))),
                               "quantum": (((0, 1, 2),),)})


@dataclass(frozen=True)
class MerminPoint:
    """(<M>, <M'>), each coordinate read by ``read_number`` as ``m`` and ``mprime``."""

    m_value: float
    mprime_value: float

    def __post_init__(self):
        object.__setattr__(self, "m_value", read_number(self.m_value, "m"))
        object.__setattr__(self, "mprime_value", read_number(self.mprime_value, "mprime"))

    @property
    def radius_squared(self) -> float:
        """m^2 + m'^2: inf past float range, outside every bound."""
        return self.m_value * self.m_value + self.mprime_value * self.mprime_value


@dataclass(frozen=True)
class InequalityReport:
    """The point, whether it satisfies each bound (``satisfies_<name>_bound``), its class."""

    point: MerminPoint
    satisfies_locality_bound: bool
    satisfies_quantum_locality_bound: bool
    satisfies_realism_bound: bool
    satisfies_quantum_bound: bool
    entanglement_class: str

    def to_json_dict(self) -> dict:
        return {
            "m": self.point.m_value,
            "mprime": self.point.mprime_value,
            "bounds": {name: getattr(self, f"satisfies_{name}_bound") for name in BOUNDS},
            "class": self.entanglement_class,
        }


def evaluate_point(state) -> MerminPoint:
    """(<M>, <M'>) for a pure or mixed three-qubit state.

    M + iM' = (X + iY)^{(x)3} = 8|000><111|, so <M> + i<M'> = 8 rho_{111,000}, or
    8 conj(psi_000) psi_111: entry 7 of ``qcore.anti_diagonal``, which every signed sum reads.
    """
    value = 8.0 * anti_diagonal(state)[7]
    return MerminPoint(float(value.real), float(value.imag))


def pure_mermin_values(amplitudes) -> np.ndarray:
    """<(X + iY)^{(x)n}> = 2^n conj(psi_0...0) psi_1...1 for a batch of pure n-qubit
    states, ``amplitudes`` an array of shape (..., 2^n): for three qubits, <M> + i<M'>,
    the same product as ``evaluate_point``. The operator factorizes, so a product
    state's value is the product of its factors' values."""
    return amplitudes.shape[-1] * (amplitudes[..., -1] * amplitudes[..., 0].conj())


def report(point: MerminPoint) -> InequalityReport:
    """The four flags and the class of a point, refused if its quantum flag is
    false. The locality bound is Mermin's max(|m|, |m'|) <= 2: necessary for a
    local model, not sufficient; ``locality.polytope_membership`` is the full test."""
    if not isinstance(point, MerminPoint):
        raise TypeError(f"expected MerminPoint, got {type(point)}")
    r2 = point.radius_squared
    value = {"square": max(abs(point.m_value), abs(point.mprime_value)), "circle": r2}
    holds = {f"satisfies_{name}_bound": value[shape] - SLACK <= (
        limit * limit if shape == "circle" else limit) for name, (shape, limit) in BOUNDS.items()}
    if not holds["satisfies_quantum_bound"]:
        raise ValueError(f"radius^2 = {r2} exceeds the quantum bound {BOUNDS['quantum'][1] ** 2:g}")
    return InequalityReport(point, entanglement_class=next(
        name for name, limit in CLASSES.items() if r2 - SLACK <= limit), **holds)


def figure1_regions(samples: int = DEFAULT_SAMPLES) -> list:
    """Boundary polylines of the four bounds in the (m, m') plane, innermost first.

    Returns ("<bound>_<shape>", vertices) pairs, stably sorted by limit; circles
    carry ``samples`` vertices, squares their four corners. Curves are closed
    implicitly (last vertex connects back to the first). Circle vertex k is
    i^q e^{i pi r / (2 samples)}, (q, r) = divmod(4k, samples): a quarter turn is
    exact, and no vertex has a signed zero.
    """
    samples = read_count(samples, "samples", MIN_SAMPLES)
    quarter, rest = divmod(4 * np.arange(samples), samples)
    circle = np.array([1, 1j, -1, -1j])[quarter] * np.exp(0.5j * np.pi * rest / samples)
    unit = {"circle": np.column_stack([circle.real, circle.imag]),
            "square": np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])}
    return [(f"{name}_{shape}", limit * unit[shape])
            for name, (shape, limit) in sorted(BOUNDS.items(), key=lambda item: item[1][1])]
