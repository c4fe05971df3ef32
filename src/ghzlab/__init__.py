"""Numerical analysis of locality versus quantum mechanics for the
three-qubit GHZ state: perfect-correlation identities, the sign-assignment
contradiction, local-polytope membership, and exact maxima of the Mermin
operator pair over local, realistic, quantum-local, biseparable, and
unrestricted quantum models.
"""
from . import locality, mermin, optimize, qcore
from .errors import SelfCheckFailed

__all__ = [
    "locality",
    "mermin",
    "optimize",
    "qcore",
    "SelfCheckFailed",
]

__version__ = "0.1.0"
