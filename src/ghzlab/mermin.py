"""The GHZ-Mermin operator pair, the four bounds, and the region diagram.

The pair (M, M') is fixed so that the GHZ state sits at (+4, 0) in the
(<M>, <M'>) plane and product states at the complex product
prod_k (x_k + i*y_k) of their equatorial Bloch components:

    M  = XXX - XYY - YXY - YYX
    M' = XXY + XYX + YXX - YYY

BOUNDS holds the four bounds on a point (m, m'), CLASSES the radius
classes; every limit is written there and nowhere else. Every comparison
is ``value - SLACK <= limit``: a value within SLACK above a limit is on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .qcore import PATTERNS, density_entries, read_count, read_number

#: Each pattern of PATTERNS weighed by GHZ's perfect correlation on it, the
#: one place these four signs are written.
M_TERMS = tuple((sign, pattern.upper())
                for sign, pattern in zip((+1.0, -1.0, -1.0, -1.0), PATTERNS))
MPRIME_TERMS = ((+1.0, "XXY"), (+1.0, "XYX"), (+1.0, "YXX"), (-1.0, "YYY"))

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
    """The point, whether it satisfies each bound (fields in BOUNDS order), its class."""

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

    M + iM' = (X + iY)^{(x)3} = 8|000><111|, so <M> + i<M'> is one matrix
    element: 8 conj(psi_000) psi_111, or 8 rho_{111,000} for a mixed state.
    """
    value = 8.0 * density_entries(state)[7, 0]
    return MerminPoint(float(value.real), float(value.imag))


def pure_mermin_values(amplitudes) -> np.ndarray:
    """<M> + i<M'> = 8 conj(psi_000) psi_111 for a batch of pure states,
    ``amplitudes`` an array of shape (..., 8); the same product as
    ``evaluate_point``."""
    return 8.0 * (amplitudes[..., 7] * amplitudes[..., 0].conj())


def report(point: MerminPoint) -> InequalityReport:
    """The four flags and the class of a point, refused if its quantum flag is
    false. The locality bound is Mermin's max(|m|, |m'|) <= 2: necessary for a
    local model, not sufficient; ``locality.polytope_membership`` is the full test."""
    if not isinstance(point, MerminPoint):
        raise TypeError(f"expected MerminPoint, got {type(point)}")
    r2 = point.radius_squared
    value = {"square": max(abs(point.m_value), abs(point.mprime_value)), "circle": r2}
    holds = {name: value[shape] - SLACK <= (limit * limit if shape == "circle" else limit)
             for name, (shape, limit) in BOUNDS.items()}
    if not holds["quantum"]:
        raise ValueError(f"radius^2 = {r2} exceeds the quantum bound {BOUNDS['quantum'][1] ** 2:g}")
    return InequalityReport(point, *holds.values(),
                            next(name for name, limit in CLASSES.items() if r2 - SLACK <= limit))


def figure1_regions(samples: int = DEFAULT_SAMPLES) -> list:
    """Boundary polylines of the four bounds in the (m, m') plane, innermost first.

    Returns ("<bound>_<shape>", vertices) pairs, stably sorted by limit; circles
    carry ``samples`` vertices, squares their four corners. Curves are closed
    implicitly (last vertex connects back to the first).
    """
    samples = read_count(samples, "samples", MIN_SAMPLES)
    theta = 2.0 * np.pi * np.arange(samples) / samples
    unit = {"circle": np.column_stack([np.cos(theta), np.sin(theta)]),
            "square": np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])}
    return [(f"{name}_{shape}", limit * unit[shape])
            for name, (shape, limit) in sorted(BOUNDS.items(), key=lambda item: item[1][1])]
