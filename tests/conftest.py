import numpy as np
import pytest

from ghzlab import qcore

#: The maximally mixed state I/8: GHZ at visibility 0.
WHITE_NOISE = qcore.mix_with_white_noise(qcore.make_ghz(), 0.0)


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
