"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it: 2 (bad input)
unless a class says otherwise.
"""


class GhzlabError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class ImaginaryResidual(GhzlabError):
    """An expectation value came out with a non-negligible imaginary part."""


class VisibilityOutOfRange(GhzlabError):
    """White-noise visibility must lie in [0, 1]."""


class PointOutsideQuantumRegion(GhzlabError):
    """A Mermin-plane point lies outside the quantum disc of radius 4."""


class MalformedTable(GhzlabError):
    """A correlation table block is negative or does not normalize."""


class ToleranceOutOfRange(GhzlabError):
    """Tolerance must be a positive number below 1."""


class SelfCheckFailed(GhzlabError):
    """An internal self-check failed: the code, not the input, is wrong.

    Raised when M + iM' = 8|000><111| fails on the operator matrices, when
    a quarter turn of one qubit does not map M -> M' -> -M (or a cut's pair
    operators A -> -B -> -A) exactly, when a state the closed form predicts
    (a maximizer built from a seeded start, the GHZ point behind the noise
    thresholds, or the HR pair witness at 1/2) misses its value by more than
    1e-12, when a seeded point of the discs violates an HR pair by less than
    1/2, when the parity identity or an analytic witness of ``locality``
    fails its own check, or when the membership search runs out of pivots.
    The CLI exits with code 1.
    """

    exit_code = 1
