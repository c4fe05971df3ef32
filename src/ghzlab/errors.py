"""SelfCheckFailed, the one exception class: a failed internal check, such as an
imaginary expectation residual (CLI exit 1). Refused input raises ValueError (exit 2)."""


class SelfCheckFailed(RuntimeError):
    """An internal self-check failed: the code, not the input, is wrong.

    Raised when M + iM' = 8|000><111| or (X + iY)^{(x)3} fails on the operator
    matrices, when a quarter turn of one qubit does not map a factor's (X + iY)^{(x)n}
    to -i times it exactly, when a witness, a maximizer at seeded phases
    (checked as a result, never read as input), is not 8 amplitudes of norm 1
    reaching its closed form, when the GHZ point behind the noise thresholds or
    the HR pair witness at 1/2 misses its value (each within SELF_CHECK_TOL),
    when two patterns of an HR pair do not share exactly one party's setting, when
    the parity identity or an analytic witness of ``locality`` fails its own
    check, when the membership search runs out of pivots, or when Tr(rho O) keeps an
    imaginary part above IMAG_TOL * sum |coeff|: 4 READ_SLACK plus rounding (qcore).
    """
