import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lmgsqueeze.algebra import build_space, collective_operator
from lmgsqueeze.states import BlochAngles, SpinState, coherent_state, rotate_state, rotation


def mean_spin(state):
    return np.array(
        [
            state.expectation(collective_operator(state.space, lbl)).real
            for lbl in ("Sx", "Sy", "Sz")
        ]
    )


def test_polar_state_is_top_dicke_state():
    space = build_space(8)
    for phi in (0.0, 1.0, 4.0):
        state = coherent_state(space, BlochAngles(0.0, phi))
        assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-12


def test_equatorial_y_state():
    space = build_space(12)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    ms = mean_spin(state)
    assert abs(ms[1] - 6.0) < 1e-10
    assert abs(ms[0]) < 1e-10 and abs(ms[2]) < 1e-10


def binomial_amplitudes(n, theta, phi):
    # closed-form coherent-state amplitudes, the independent reference:
    # c_m ~ sqrt(C(2j, j-m)) cos^(j+m)(theta/2) sin^(j-m)(theta/2) e^(-i m phi).
    # The e^(-i m phi) phase (not e^(+i m phi)) is fixed by requiring the mean
    # spin to point along (sin t cos p, sin t sin p, cos t), +y at phi = pi/2.
    j = n / 2
    m = j - np.arange(n + 1)
    comb = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    amps = (
        np.sqrt(comb)
        * np.cos(theta / 2) ** (j + m)
        * np.sin(theta / 2) ** (j - m)
        * np.exp(-1j * m * phi)
    )
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("n,theta,phi", [(4, math.pi / 2, 0.0), (7, 0.8, 2.1), (10, 2.4, 5.5)])
def test_matches_binomial_closed_form(n, theta, phi):
    space = build_space(n)
    state = coherent_state(space, BlochAngles(theta, phi))
    reference = binomial_amplitudes(n, theta, phi)
    overlap = abs(np.vdot(reference, state.amplitudes))
    assert abs(overlap - 1.0) < 1e-10


def test_mean_spin_direction_grid():
    space = build_space(14)
    for theta in np.linspace(0.0, math.pi, 5):
        for phi in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
            angles = BlochAngles(float(theta), float(phi))
            state = coherent_state(space, angles)
            assert np.max(np.abs(mean_spin(state) - 7.0 * angles.direction())) < 1e-9


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_rotation_unitary(axis):
    space = build_space(9)
    u = rotation(space, axis, 0.7).matrix
    assert np.max(np.abs(u @ u.conj().T - np.eye(space.dim))) < 1e-10


def test_full_turn_pair_is_identity():
    space = build_space(6)
    u = rotation(space, "z", 2 * math.pi).matrix @ rotation(space, "z", -2 * math.pi).matrix
    assert np.max(np.abs(u - np.eye(space.dim))) < 1e-12


def test_y_quarter_turn_gives_equatorial_state():
    space = build_space(10)
    top = np.zeros(space.dim, dtype=complex)
    top[0] = 1.0
    rotated = rotation(space, "y", math.pi / 2).matrix @ top
    target = coherent_state(space, BlochAngles(math.pi / 2, 0.0)).amplitudes
    assert abs(abs(np.vdot(target, rotated)) - 1.0) < 1e-10


def test_pulse_conjugation_identity():
    # R_{z,-pi/2} Sx^2 R_{z,+pi/2} == Sy^2
    space = build_space(8)
    sx = collective_operator(space, "Sx").matrix
    sy = collective_operator(space, "Sy").matrix
    r_minus = rotation(space, "z", -math.pi / 2).matrix
    r_plus = rotation(space, "z", math.pi / 2).matrix
    conjugated = r_minus @ (sx @ sx) @ r_plus
    assert np.max(np.abs(conjugated - sy @ sy)) < 1e-10


def test_rotation_preserves_norm():
    space = build_space(15)
    state = coherent_state(space, BlochAngles(1.1, 0.3))
    for axis, angle in (("x", 0.4), ("y", 100.0), ("z", -3.3)):
        state = rotate_state(state, axis, angle)
    assert abs(state.norm() - 1.0) < 1e-12


def test_rotate_state_matches_matrix():
    space = build_space(7)
    state = coherent_state(space, BlochAngles(0.9, 1.8))
    fast = rotate_state(state, "y", 0.6).amplitudes
    dense = rotation(space, "y", 0.6).matrix @ state.amplitudes
    assert np.max(np.abs(fast - dense)) < 1e-12


def test_angle_validation():
    with pytest.raises(ValueError):
        BlochAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochAngles(0.5, 2 * math.pi)
    with pytest.raises(ValueError):
        rotation(build_space(2), "q", 0.1)


def test_coherent_state_with_supplied_generator_eig():
    from lmgsqueeze.states import coherent_generator_eig

    space = build_space(9)
    for theta, phi in ((0.0, 0.0), (0.7, 1.9), (math.pi, 5.0)):
        angles = BlochAngles(theta, phi)
        supplied = coherent_state(space, angles, coherent_generator_eig(space, phi))
        assert np.array_equal(supplied.amplitudes, coherent_state(space, angles).amplitudes)


def test_first_use_from_many_threads_matches_serial():
    n, threads = 40, 8
    psi = coherent_state(build_space(n), BlochAngles(1.0, 0.3)).amplitudes

    def work(space):
        state = SpinState(psi, space)
        ops = [collective_operator(space, lbl).matrix for lbl in ("Sx", "Sy", "Sz")]
        return ops + [rotate_state(state, axis, 0.7).amplitudes for axis in ("x", "y")]

    serial = work(build_space(n))
    space = build_space(n)
    barrier = threading.Barrier(threads)

    def first_use():
        barrier.wait(timeout=60)  # every thread reaches the space before anything is built
        return work(space)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so first uses interleave
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(first_use) for _ in range(threads)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        for got, want in zip(result, serial, strict=True):
            assert np.array_equal(got, want)
        # every thread receives the one copy the space keeps
        for got, kept in zip(result, results[0][:3]):
            assert got is kept
    assert results[0][0] is not serial[0]
