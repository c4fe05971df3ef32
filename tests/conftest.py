import re

import numpy as np
import pytest

from ghzlab import qcore

#: The maximally mixed state I/8: GHZ at visibility 0.
WHITE_NOISE = qcore.mix_with_white_noise(qcore.make_ghz(), 0.0)

#: Entries that no number reader takes, each with its message: ``what`` names
#: the entry and ``noun`` is "a real number" or "a complex number".
BAD_ENTRIES = [
    pytest.param(np.nan, "{what} is non-finite", id="nan"),
    pytest.param(np.inf, "{what} is non-finite", id="inf"),
    pytest.param(-np.inf, "{what} is non-finite", id="-inf"),
    pytest.param("0.5", "{what} must be {noun}, got str", id="str"),
    pytest.param(b"1", "{what} must be {noun}, got bytes", id="bytes"),
    pytest.param(True, "{what} must be {noun}, got bool", id="true"),
    pytest.param(np.True_, "{what} must be {noun}, got bool", id="numpy-true"),
    pytest.param(None, "{what} must be {noun}, got NoneType", id="none"),
    pytest.param([0.5], "{what} must be {noun}, got list", id="nested-list"),
    pytest.param(10 ** 400, "{what} is too large for a float", id="huge-int"),
]
#: BAD_ENTRIES for the real readers, which also refuse a complex entry.
BAD_REAL_ENTRIES = BAD_ENTRIES + [
    pytest.param(0.5 + 0j, "{what} must be {noun}, got complex", id="complex")]
#: BAD_REAL_ENTRIES for a reader of one number, to which a list is a shape.
BAD_SCALARS = [param for param in BAD_REAL_ENTRIES if param.id != "nested-list"] + [
    pytest.param([0.5], "{what} must be {noun}, got shape (1,)", id="list")]


def refusal(template: str, what: str, noun: str = "a real number") -> str:
    """The exact-match pattern of a BAD_ENTRIES message."""
    return f"^{re.escape(template.format(what=what, noun=noun))}$"


def random_pure_state(rng) -> qcore.StateVector:
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return qcore.StateVector(raw / np.linalg.norm(raw))


def random_bloch_qubit(rng) -> np.ndarray:
    theta = np.arccos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.cos(theta / 2.0),
                     np.sin(theta / 2.0) * np.exp(1j * phi)])


def random_product_state(rng) -> qcore.StateVector:
    psi = np.array([1.0 + 0j])
    for _ in range(3):
        psi = np.kron(psi, random_bloch_qubit(rng))
    return qcore.StateVector(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
