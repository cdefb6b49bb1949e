import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmgsqueeze.algebra import build_space, collective_operator
from lmgsqueeze.canonical import from_chi_gamma, realize_hamiltonian
from lmgsqueeze.errors import MeanSpinVanished, NoMinimumFound
from lmgsqueeze.experiments import evolve_trace
from lmgsqueeze.metrics import (
    batch_squeezing,
    first_local_minimum,
    fit_loglog_slope,
    minimize_hamiltonian,
    minimize_over_time,
    squeezing_parameter,
)
from lmgsqueeze.propagate import Eigenbasis, evolve, evolve_batch
from lmgsqueeze.states import BlochAngles, SpinState, coherent_state, rotation


def brute_force_xi2(state, n_angles=3600):
    """Independent oracle: scan perpendicular directions for the minimal
    variance, building everything from raw operator expectation values."""
    space = state.space
    s_ops = [collective_operator(space, lbl) for lbl in ("Sx", "Sy", "Sz")]
    psi = state.amplitudes
    mean = np.array([np.vdot(psi, op @ psi).real for op in s_ops])
    direction = mean / np.linalg.norm(mean)
    seed = np.array([1.0, 0.0, 0.0])
    if abs(direction @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    n1 = np.cross(direction, seed)
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(direction, n1)
    best = np.inf
    for psi_angle in np.linspace(0.0, 2 * math.pi, n_angles, endpoint=False):
        axis = math.cos(psi_angle) * n1 + math.sin(psi_angle) * n2
        op = axis[0] * s_ops[0] + axis[1] * s_ops[1] + axis[2] * s_ops[2]
        first = np.vdot(psi, op @ psi).real
        second = np.vdot(op @ psi, op @ psi).real
        best = min(best, second - first**2)
    return 4.0 * best / space.n_spins


@pytest.mark.parametrize("n", [1, 2, 17, 100, 200])
def test_coherent_state_is_sql_reference(n):
    space = build_space(n)
    for theta in np.linspace(0.0, math.pi, 5):
        for phi in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
            state = coherent_state(space, BlochAngles(float(theta), float(phi)))
            assert squeezing_parameter(state).xi2 == pytest.approx(1.0, abs=1e-9)


def test_early_oat_squeezing_monotone():
    model = from_chi_gamma(1.0, 0.0, 100)
    space = build_space(100)
    ham = realize_hamiltonian(model, space)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    previous = 1.0
    for t in np.linspace(2e-4, 2e-3, 8):
        xi2 = squeezing_parameter(evolve(state, ham, float(t))).xi2
        assert xi2 < previous
        previous = xi2
    assert previous < 1.0


@pytest.mark.parametrize("seed", range(6))
def test_matches_angular_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24))
    gamma = float(rng.uniform(0.0, 0.5))
    model = from_chi_gamma(1.0, gamma, n)
    space = build_space(n)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    t = float(rng.uniform(0.0, 0.5 / n))
    evolved = evolve(state, realize_hamiltonian(model, space), t)
    xi2 = squeezing_parameter(evolved).xi2
    oracle = brute_force_xi2(evolved)
    assert oracle - xi2 == pytest.approx(0.0, abs=1e-6)
    assert oracle >= xi2 - 1e-12  # the scan can only overestimate the minimum


def test_n4_quarter_gamma_brute_force():
    model = from_chi_gamma(1.0, 0.25, 4)
    space = build_space(4)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    evolved = evolve(state, realize_hamiltonian(model, space), 0.11)
    assert brute_force_xi2(evolved) == pytest.approx(
        squeezing_parameter(evolved).xi2, abs=1e-6
    )


def test_global_rotation_invariance():
    rng = np.random.default_rng(11)
    space = build_space(30)
    model = from_chi_gamma(1.0, 0.2, 30)
    state = evolve(
        coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2)),
        realize_hamiltonian(model, space),
        0.01,
    )
    xi2 = squeezing_parameter(state).xi2
    for _ in range(4):
        rotated = state.amplitudes
        for axis, angle in zip("zyz", rng.uniform(0, 2 * math.pi, size=3)):
            rotated = rotation(space, axis, float(angle)) @ rotated
        assert squeezing_parameter(SpinState(rotated, space)).xi2 == pytest.approx(
            xi2, abs=1e-8
        )


def test_axis_perpendicular_to_mean_spin():
    space = build_space(40)
    model = from_chi_gamma(1.0, 0.3, 40)
    state = coherent_state(space, BlochAngles(1.2, 0.7))
    evolved = evolve(state, realize_hamiltonian(model, space), 0.02)
    sample = squeezing_parameter(evolved)
    assert abs(sample.min_variance_axis @ sample.mean_spin) < 1e-9 * np.linalg.norm(
        sample.mean_spin
    )


def test_degenerate_covariance_at_t0():
    # coherent state: isotropic perpendicular variance; must not crash and
    # both principal variances equal N/4
    space = build_space(24)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    sample = squeezing_parameter(state)
    assert sample.xi2 == pytest.approx(1.0, abs=1e-9)
    n1 = sample.min_variance_axis
    n2 = np.cross(sample.mean_spin / np.linalg.norm(sample.mean_spin), n1)
    for axis in (n1, n2):
        op = sum(
            float(axis[i]) * collective_operator(space, lbl)
            for i, lbl in enumerate(("Sx", "Sy", "Sz"))
        )
        psi = state.amplitudes
        var = np.vdot(op @ psi, op @ psi).real - np.vdot(psi, op @ psi).real ** 2
        assert var == pytest.approx(space.n_spins / 4.0, abs=1e-8)


def test_mean_spin_vanished():
    space = build_space(8)
    amps = np.zeros(space.dim, dtype=complex)
    amps[4] = 1.0  # |j, 0>: zero mean spin
    with pytest.raises(MeanSpinVanished):
        squeezing_parameter(SpinState(amps, space))


def test_first_local_minimum_selection():
    values = np.array([1.0, 0.8, 0.5, 0.6, 0.3, 0.9])
    assert first_local_minimum(values) == 2
    assert first_local_minimum(np.array([1.0, 0.9, 0.8])) is None


def test_minimize_tracks_first_dip_not_revival():
    # long horizon includes the mirror dip near chi t = pi; the reported
    # minimum must stay in the first dip
    short = minimize_over_time(
        from_chi_gamma(1.0, 0.0, 10), BlochAngles(math.pi / 2, math.pi / 2),
        horizon=10.0, grid_points=400,
    )
    long = minimize_over_time(
        from_chi_gamma(1.0, 0.0, 10), BlochAngles(math.pi / 2, math.pi / 2),
        horizon=33.0, grid_points=1400,
    )
    assert long.minimum.t == pytest.approx(short.minimum.t, rel=1e-3)


def test_no_minimum_found_on_short_horizon():
    with pytest.raises(NoMinimumFound):
        minimize_over_time(
            from_chi_gamma(1.0, 0.25, 40),
            BlochAngles(math.pi / 2, math.pi / 2),
            horizon=0.05,
            grid_points=100,
        )


def test_grid_points_precondition():
    with pytest.raises(ValueError):
        minimize_over_time(
            from_chi_gamma(1.0, 0.25, 10),
            BlochAngles(math.pi / 2, math.pi / 2),
            grid_points=50,
        )


@pytest.mark.parametrize("n", [100, 400])
def test_default_horizon_brackets_one_axis_twisting(n):
    # the one-axis-twisting minimum sits at chi N t ~ N^(1/3), past a fixed
    # horizon of 5 already at N = 100; the default grows with N
    model = from_chi_gamma(1.0, 0.0, n)
    angles = BlochAngles(math.pi / 2, math.pi / 2)
    trace = minimize_over_time(model, angles)
    t_min, _, xi2_min, bracketed = evolve_trace(model, angles).tables["minimum"].rows[0]
    assert bracketed
    assert (trace.minimum.t, trace.minimum.xi2) == (t_min, xi2_min)


@pytest.mark.parametrize("times", [[], [0.0], [0.0, 0.2, 0.1], [0.0, 0.1, 0.1, 0.2]])
def test_minimize_hamiltonian_needs_increasing_times(times):
    space = build_space(6)
    ham = realize_hamiltonian(from_chi_gamma(1.0, 0.1, 6), space)
    psi = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    with pytest.raises(ValueError, match="times"):
        minimize_hamiltonian(space, ham, psi, times, allow_unbracketed=True)


@settings(max_examples=150)
@given(
    gamma=st.floats(0.0, 0.5),
    n=st.integers(2, 16),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi),
    start=st.floats(0.0, 1.0),
    steps=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=40),
)
def test_minimize_hamiltonian_on_nonuniform_times(gamma, n, theta, phi, start, steps):
    space = build_space(n)
    basis = Eigenbasis.of(realize_hamiltonian(from_chi_gamma(1.0, gamma, n), space))
    psi = coherent_state(space, BlochAngles(theta, phi))
    times = (start + np.concatenate([[0.0], np.cumsum(steps)])) / n  # chi N t units
    xi2 = batch_squeezing(space, evolve_batch(psi, basis, times))[0]
    k = first_local_minimum(xi2)

    sampled = minimize_hamiltonian(space, basis, psi, times, refine=False, allow_unbracketed=True)
    if k is None:
        # unbracketed fallback: the smallest finite sample
        assert not sampled.minimum.bracketed
        if np.any(np.isfinite(xi2)):
            best = int(np.nanargmin(xi2))
            assert (sampled.minimum.t, sampled.minimum.xi2) == (times[best], xi2[best])
        return
    assert sampled.minimum.bracketed
    assert (sampled.minimum.t, sampled.minimum.xi2) == (times[k], xi2[k])

    refined = minimize_hamiltonian(space, basis, psi, times, allow_unbracketed=True).minimum
    assert refined.bracketed
    assert times[k - 1] <= refined.t <= times[k + 1]
    # the search evaluates one state at a time, the scan a batch: allow
    # their last-digit rounding difference
    assert refined.xi2 <= xi2[k] * (1.0 + 1e-12)


def test_gamma_ordering_at_fixed_n():
    ang = BlochAngles(math.pi / 2, math.pi / 2)
    quarter = minimize_over_time(from_chi_gamma(1.0, 0.25, 60), ang, horizon=8.0)
    tenth = minimize_over_time(from_chi_gamma(1.0, 0.1, 60), ang, horizon=8.0)
    assert quarter.minimum.xi2 < tenth.minimum.xi2
    assert quarter.minimum.t < tenth.minimum.t


def test_refinement_improves_on_grid():
    ang = BlochAngles(math.pi / 2, math.pi / 2)
    coarse = minimize_over_time(
        from_chi_gamma(1.0, 0.3, 40), ang, horizon=8.0, grid_points=150, refine=False
    )
    refined = minimize_over_time(
        from_chi_gamma(1.0, 0.3, 40), ang, horizon=8.0, grid_points=150, refine=True
    )
    assert refined.minimum.xi2 <= coarse.minimum.xi2


def test_trace_samples_match_batch_values():
    from lmgsqueeze.metrics import SqueezingSample, batch_squeezing, trace_from_states
    from lmgsqueeze.propagate import evolve_batch

    space = build_space(12)
    ham = realize_hamiltonian(from_chi_gamma(1.0, 0.1, 12), space)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    times = np.linspace(0.0, 0.3, 9)
    states = evolve_batch(state, ham, times)
    trace = trace_from_states(space, times, states)
    xi2, contrast, mean, axes = batch_squeezing(space, states)
    assert len(trace.samples) == len(times)
    for i, sample in enumerate(trace.samples):
        assert isinstance(sample, SqueezingSample)
        assert type(sample.t) is float and sample.t == times[i]
        assert type(sample.xi2) is float and sample.xi2 == xi2[i]
        assert type(sample.contrast) is float and sample.contrast == contrast[i]
        assert np.array_equal(sample.mean_spin, mean[:, i])
        assert np.array_equal(sample.min_variance_axis, axes[:, i])


def _first_local_minimum_loop(values):
    """The element-by-element scan that first_local_minimum replaced."""
    v = np.asarray(values)
    for k in range(1, len(v) - 1):
        if not (np.isfinite(v[k - 1]) and np.isfinite(v[k]) and np.isfinite(v[k + 1])):
            continue
        if v[k] <= v[k - 1] and v[k] < v[k + 1]:
            return k
    return None


# few distinct values, so plateaus and non-finite neighbours are common
_TRACE_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(_TRACE_VALUES, max_size=50))
def test_first_local_minimum_matches_loop(values):
    arr = np.array(values, dtype=float)
    assert first_local_minimum(arr) == _first_local_minimum_loop(arr)


def kitagawa_ueda_xi2(n, t):
    """Closed-form xi^2 of one-axis twisting under Sx^2 (chi = 1) from a
    coherent state along y, with mu = 2t (Kitagawa & Ueda, PRA 47, 5138, 1993)."""
    mu = 2.0 * t
    a = 1.0 - np.cos(mu) ** (n - 2)
    b = 4.0 * np.sin(mu / 2.0) * np.cos(mu / 2.0) ** (n - 2)
    return 1.0 + (n - 1) * (a - np.sqrt(a * a + b * b)) / 4.0


def one_axis_twisting_xi2(n):
    """Simulated xi^2 at gamma = 0 from (pi/2, pi/2), at 199 times up to
    3 / N^(2/3), past the first minimum."""
    space = build_space(n)
    hamiltonian = realize_hamiltonian(from_chi_gamma(1.0, 0.0, n), space)
    basis = Eigenbasis.of_quadratic_form(hamiltonian)
    times = np.linspace(0.0, 3.0 / n ** (2.0 / 3.0), 200)[1:]
    psi = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    xi2, _, _, _ = batch_squeezing(space, evolve_batch(psi, basis, times))
    return times, xi2


@pytest.mark.parametrize("n", [50, 200, 1000])
def test_one_axis_twisting_matches_closed_form(n):
    times, xi2 = one_axis_twisting_xi2(n)
    assert np.max(np.abs(xi2 / kitagawa_ueda_xi2(n, times) - 1.0)) < 1e-9


def test_one_axis_twisting_minimum_scales_as_n_to_minus_two_thirds():
    ns = (100, 200, 500, 1000)
    slope = fit_loglog_slope(ns, [one_axis_twisting_xi2(n)[1].min() for n in ns])
    assert slope == pytest.approx(-2.0 / 3.0, abs=0.01)
