"""Exception hierarchy shared across the package."""


class GhzlabError(Exception):
    """Base class for all package-specific errors."""


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


class RestartBudgetExhausted(GhzlabError):
    """A seeded witness missed the certified closed-form maximum.

    Raised when M + iM' = 8|000><111| fails on the operator matrices, or
    when a state the closed form predicts (a maximizer built from a seeded
    start, or the GHZ point behind the noise thresholds) misses its value
    by more than 1e-12. The CLI maps it to exit code 1.
    """


class NoViolation(GhzlabError):
    """No visibility in [0, 1] violates the bound."""
