"""The Mermin plane's symmetries as a test oracle, with each map written here.

Since M + iM' = 8|000><111|, the point m + im' is 8 conj(psi_000) psi_111, or
8 rho_{111,000}, and three maps of a state act on it in closed form:

- a permutation of the qubits fixes |000> and |111>, so (m, m') keeps its bits;
- XXX conjugation reverses the amplitudes, so (m, m') goes to (m, -m');
- diag(1, e^{i phi_k}) on qubit k multiplies psi_111 by e^{i(phi_1 + phi_2 + phi_3)},
  which rotates m + im' by that phase and keeps the radius, so ``report``'s class
  and its two circle flags. Its two square flags are not phase-invariant.

Each map is checked on seeded Haar states and on their white-noise mixtures.
"""
import itertools

import numpy as np

from ghzlab import mermin, qcore

#: Haar states per test, each also mixed with white noise at a drawn visibility.
COUNT = 1000
#: How far a rounded map may move a coordinate.
MAP_TOL = 1e-12
#: The bounds on the radius, which a phase leaves alone.
CIRCLES = tuple(name for name, (shape, _) in mermin.BOUNDS.items() if shape == "circle")


def states(seed: int):
    """(amplitudes, visibility, rng) for COUNT seeded Haar states."""
    rng = np.random.default_rng(seed)
    for _ in range(COUNT):
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        yield raw / np.linalg.norm(raw), rng.uniform(0.0, 1.0), rng


def points(amplitudes, visibility) -> list:
    """The points of the pure state and of its white-noise mixture."""
    pure = qcore.StateVector(amplitudes)
    return [mermin.evaluate_point(state)
            for state in (pure, qcore.mix_with_white_noise(pure, visibility))]


def bits(point) -> bytes:
    return np.array([point.m_value, point.mprime_value]).tobytes()


def flags(point, names=tuple(mermin.BOUNDS)) -> tuple:
    """The class and the named flags that ``report`` gives the point."""
    document = mermin.report(point).to_json_dict()
    return document["class"], tuple(document["bounds"][name] for name in names)


def test_qubit_permutations_keep_the_point_bits():
    for amplitudes, visibility, _ in states(1):
        expected = [bits(point) for point in points(amplitudes, visibility)]
        for order in itertools.permutations(range(3)):
            permuted = amplitudes.reshape(2, 2, 2).transpose(order).reshape(8)
            assert [bits(point) for point in points(permuted, visibility)] == expected, order


def test_xxx_conjugation_reflects_mprime():
    for amplitudes, visibility, _ in states(2):
        for point, flipped in zip(points(amplitudes, visibility),
                                  points(amplitudes[::-1], visibility)):
            assert abs(flipped.m_value - point.m_value) <= MAP_TOL
            assert abs(flipped.mprime_value + point.mprime_value) <= MAP_TOL
            assert flags(flipped) == flags(point)


def test_local_phases_rotate_the_point():
    for amplitudes, visibility, rng in states(3):
        phi = rng.uniform(0.0, 2.0 * np.pi, 3)
        turn = np.kron(np.kron([1, np.exp(1j * phi[0])], [1, np.exp(1j * phi[1])]),
                       [1, np.exp(1j * phi[2])])
        for point, turned in zip(points(amplitudes, visibility),
                                 points(turn * amplitudes, visibility)):
            expected = np.exp(1j * phi.sum()) * complex(point.m_value, point.mprime_value)
            assert abs(complex(turned.m_value, turned.mprime_value) - expected) <= MAP_TOL
            assert flags(turned, CIRCLES) == flags(point, CIRCLES)


def test_square_flags_are_not_phase_invariant():
    # cos(a)|000> + e^{i phase} sin(a)|111> with 4 sin(2a) = 2.5 sits at 2.5 e^{i phase}:
    # max(|m|, |m'|) is 2.5 > 2 on the axis and 2.5/sqrt(2) < 2 on the diagonal.
    a = np.arcsin(2.5 / 4.0) / 2.0
    kept, locality = [], []
    for phase in (0.0, np.pi / 4.0):
        amplitudes = np.zeros(8, dtype=complex)
        amplitudes[[0, 7]] = np.cos(a), np.exp(1j * phase) * np.sin(a)
        point = mermin.evaluate_point(qcore.StateVector(amplitudes))
        assert abs(complex(point.m_value, point.mprime_value) - 2.5 * np.exp(1j * phase)) <= MAP_TOL
        kept.append(flags(point, CIRCLES))
        locality.append(mermin.report(point).satisfies_locality_bound)
    assert kept[0] == kept[1]
    assert locality == [False, True]
