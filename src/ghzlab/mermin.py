"""The GHZ-Mermin operator pair, the four bounds, and the region diagram.

The pair (M, M') is fixed so that the GHZ state sits at (+4, 0) in the
(<M>, <M'>) plane and product states at the complex product
prod_k (x_k + i*y_k) of their equatorial Bloch components:

    M  = XXX - XYY - YXY - YYX
    M' = XXY + XYX + YXX - YYY

Bounds evaluated on a point (m, m'):

    locality            max(|m|, |m'|) <= 2
    quantum locality    m^2 + m'^2     <= 1
    realism             max(|m|, |m'|) <= 4
    quantum             m^2 + m'^2     <= 16

All comparisons are non-strict: a point exactly on a bound satisfies it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PointOutsideQuantumRegion
from .qcore import Observable, density_entries, require_three_qubits

M_TERMS = ((+1.0, "XXX"), (-1.0, "XYY"), (-1.0, "YXY"), (-1.0, "YYX"))
MPRIME_TERMS = ((+1.0, "XXY"), (+1.0, "XYX"), (+1.0, "YXX"), (-1.0, "YYY"))

CLASS_SEPARABLE = "separable-compatible"
CLASS_TWO_ENTANGLED = "two-entangled-compatible"
CLASS_THREE_ENTANGLED = "three-entangled"


@dataclass(frozen=True)
class MerminPair:
    m: Observable
    mprime: Observable


@dataclass(frozen=True)
class MerminPoint:
    m_value: float
    mprime_value: float

    @property
    def radius_squared(self) -> float:
        return self.m_value ** 2 + self.mprime_value ** 2


@dataclass(frozen=True)
class InequalityReport:
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
            "bounds": {
                "locality": self.satisfies_locality_bound,
                "quantum_locality": self.satisfies_quantum_locality_bound,
                "realism": self.satisfies_realism_bound,
                "quantum": self.satisfies_quantum_bound,
            },
            "class": self.entanglement_class,
        }


def make_mermin_pair() -> MerminPair:
    return MerminPair(Observable(M_TERMS), Observable(MPRIME_TERMS))


def witness_value(terms, correlations) -> float:
    """sum_k coeff_k <settings_k> for M_TERMS or MPRIME_TERMS, given the
    triple correlations keyed by lowercase settings ("xxx", "xyy", ...)."""
    return sum(coeff * correlations[settings.lower()] for coeff, settings in terms)


def evaluate_point(state) -> MerminPoint:
    """(<M>, <M'>) for a pure or mixed three-qubit state.

    M + iM' = (X + iY)^{(x)3} = 8|000><111|, so <M> + i<M'> is one matrix
    element: 8 conj(psi_000) psi_111, or 8 rho_{111,000} for a mixed state.
    """
    rho = density_entries(state)
    require_three_qubits(state)
    value = 8.0 * rho[7, 0]
    return MerminPoint(float(value.real), float(value.imag))


def report(point: MerminPoint) -> InequalityReport:
    """Check the four bounds and classify the point by its radius."""
    r2 = point.radius_squared
    if r2 > 16.0 + 1e-9:
        raise PointOutsideQuantumRegion(
            f"radius^2 = {r2!r} exceeds the quantum bound 16"
        )
    peak = max(abs(point.m_value), abs(point.mprime_value))
    if r2 <= 1.0:
        klass = CLASS_SEPARABLE
    elif r2 <= 8.0:
        klass = CLASS_TWO_ENTANGLED
    else:
        klass = CLASS_THREE_ENTANGLED
    return InequalityReport(
        point=point,
        satisfies_locality_bound=peak <= 2.0,
        satisfies_quantum_locality_bound=r2 <= 1.0,
        satisfies_realism_bound=peak <= 4.0,
        satisfies_quantum_bound=r2 <= 16.0,
        entanglement_class=klass,
    )


def figure1_regions(samples: int = 256) -> list:
    """Boundary polylines of the four bounds in the (m, m') plane.

    Returns (name, vertices) pairs; circles carry ``samples`` vertices,
    squares their four corners. Curves are closed implicitly (last vertex
    connects back to the first).
    """
    if samples < 8:
        raise ValueError(f"samples must be >= 8, got {samples}")
    theta = 2.0 * np.pi * np.arange(samples) / samples
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    return [
        ("quantum_locality_circle", 1.0 * circle),
        ("locality_square", 2.0 * square),
        ("realism_square", 4.0 * square),
        ("quantum_circle", 4.0 * circle),
    ]
