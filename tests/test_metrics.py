import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.linalg import expm

from lmgsqueeze import metrics
from lmgsqueeze.algebra import build_space, collective_operator
from lmgsqueeze.canonical import from_chi_gamma, model_eigenbasis, realize_hamiltonian
from lmgsqueeze.errors import MeanSpinVanished, NoMinimumFound
from lmgsqueeze.experiments import evolve_trace
from lmgsqueeze.metrics import (
    REFINE_XTOL,
    _batch_moments,
    _operator_moments,
    batch_squeezing,
    first_local_minimum,
    fit_loglog_slope,
    minimize_hamiltonian,
    minimize_over_time,
    squeezing_parameter,
    trace_from_states,
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
    ham = Eigenbasis.of(realize_hamiltonian(model, space))
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
    evolved = evolve(state, Eigenbasis.of(realize_hamiltonian(model, space)), t)
    xi2 = squeezing_parameter(evolved).xi2
    oracle = brute_force_xi2(evolved)
    assert oracle - xi2 == pytest.approx(0.0, abs=1e-6)
    assert oracle >= xi2 - 1e-12  # the scan can only overestimate the minimum


def test_n4_quarter_gamma_brute_force():
    model = from_chi_gamma(1.0, 0.25, 4)
    space = build_space(4)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    evolved = evolve(state, Eigenbasis.of(realize_hamiltonian(model, space)), 0.11)
    assert brute_force_xi2(evolved) == pytest.approx(
        squeezing_parameter(evolved).xi2, abs=1e-6
    )


def test_global_rotation_invariance():
    rng = np.random.default_rng(11)
    space = build_space(30)
    model = from_chi_gamma(1.0, 0.2, 30)
    state = evolve(
        coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2)),
        Eigenbasis.of(realize_hamiltonian(model, space)),
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
    evolved = evolve(state, Eigenbasis.of(realize_hamiltonian(model, space)), 0.02)
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
    ham = Eigenbasis.of(realize_hamiltonian(from_chi_gamma(1.0, 0.1, 6), space))
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
    assert not sampled.minimum.refined

    refined = minimize_hamiltonian(space, basis, psi, times, allow_unbracketed=True).minimum
    assert refined.bracketed
    assert times[k - 1] <= refined.t <= times[k + 1]
    # a search that could not run (flat bracket) keeps the sample, unrefined
    assert refined.refined or refined == sampled.minimum
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


def scipy_golden(func, xa, xb, xc):
    """scipy's golden search on the bracket, or None where it refuses one
    whose middle value is not below both ends."""
    try:
        result = optimize.minimize_scalar(
            func, bracket=(xa, xb, xc), method="golden", options={"xtol": REFINE_XTOL}
        )
    except ValueError:
        return None
    return result.x, result.fun


def captured_xi2_search(monkeypatch):
    """minimize_hamiltonian's xi^2 objective and bracket at N = 20, as it
    hands them to the golden search."""
    captured = []
    golden = metrics._golden

    def spy(func, xa, xb, xc, tol):
        captured.append((func, xa, xb, xc))
        return golden(func, xa, xb, xc, tol)

    monkeypatch.setattr(metrics, "_golden", spy)
    minimize_over_time(from_chi_gamma(1.0, 0.1, 20), BlochAngles(math.pi / 2, math.pi / 2))
    (search,) = captured
    return search


@pytest.mark.parametrize(
    "func, bracket, flat",
    [
        # the first interior point on the longer side, right then left; on
        # these brackets the way it is rounded shows in the last bits found
        (lambda x: (x - 0.2) ** 2, (0.0, 0.1, 0.4), False),
        (lambda x: (x - 0.95) ** 2, (0.0, 0.9, 1.1), False),
        # equal sides and a staircase full of ties between f1 and f2
        (lambda x: float(math.floor(8.0 * abs(x - 0.5))), (0.0, 0.5, 1.0), False),
        # a minimum at 0 meets the relative stopping test only near the
        # smallest floats, after 803 steps
        (lambda x: x * x, (-1.0, 0.1, 1.0), False),
        # the middle is not below both ends: a plateau on either side, a slope
        (lambda x: max(x, 0.5), (0.0, 0.5, 1.0), True),
        (lambda x: max(1.0 - x, 0.5), (0.0, 0.5, 1.0), True),
        (lambda x: x, (0.0, 0.5, 1.0), True),
        # None: the real xi^2 objective of minimize_hamiltonian
        (None, None, False),
    ],
)
def test_golden_search_returns_scipys_bits(monkeypatch, func, bracket, flat):
    if func is None:
        func, *bracket = captured_xi2_search(monkeypatch)
    expected = scipy_golden(func, *bracket)
    assert (expected is None) == flat
    assert metrics._golden(func, *bracket, REFINE_XTOL) == expected


def test_an_objective_error_is_not_read_as_a_flat_bracket(monkeypatch):
    def broken(*args):
        raise ValueError("objective failed")

    with pytest.raises(ValueError, match="objective failed"):
        metrics._golden(broken, 0.0, 0.5, 1.0, REFINE_XTOL)
    # the grid scan has run when the search starts: only the search fails
    monkeypatch.setattr(metrics, "evolve", broken)
    with pytest.raises(ValueError, match="objective failed"):
        minimize_over_time(from_chi_gamma(1.0, 0.1, 20), BlochAngles(math.pi / 2, math.pi / 2))


def test_trace_samples_match_batch_values():
    from lmgsqueeze.metrics import SqueezingSample, batch_squeezing, trace_from_states
    from lmgsqueeze.propagate import evolve_batch

    space = build_space(12)
    ham = Eigenbasis.of(realize_hamiltonian(from_chi_gamma(1.0, 0.1, 12), space))
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


def _spin_pair(space):
    """The dense (Sx, Sy) that _operator_moments applies."""
    return collective_operator(space, "Sx"), collective_operator(space, "Sy")


def _batch_moments_pairwise(space, states):
    """The moments as they were taken before each applied block was
    conjugated once: one conjugate per (a, b) pair."""
    applied = [collective_operator(space, lbl) @ states for lbl in ("Sx", "Sy")]
    applied.append(space.m_values()[:, None] * states)
    conj = states.conj()
    mean = np.array([np.sum(conj * applied[a], axis=0).real for a in range(3)])
    second = np.empty((3, 3, states.shape[1]))
    for a in range(3):
        for b in range(a, 3):
            second[a, b] = second[b, a] = np.sum(applied[a].conj() * applied[b], axis=0).real
    return mean, second


@pytest.mark.parametrize("n", [3, 100])
def test_batch_moments_equal_the_pairwise_conjugates_bit_for_bit(n):
    # the golden search's moments size schedules through predicted_optimal_time
    space = build_space(n)
    basis = Eigenbasis.of(realize_hamiltonian(from_chi_gamma(1.0, 0.1, n), space))
    psi = coherent_state(space, BlochAngles(1.1, 0.4))
    states = evolve_batch(psi, basis, np.linspace(0.0, 2.0 / n, 37))
    moments = _operator_moments(space, states, _spin_pair(space))
    for got, expected in zip(moments, _batch_moments_pairwise(space, states)):
        assert np.array_equal(got, expected)


def _state_columns(n, kinds, seed):
    """One normalized column per entry of ``kinds``: a random state, a Dicke
    state |j, m> with a random phase, or a pole |j, +-j>."""
    rng = np.random.default_rng(seed)
    states = np.zeros((n + 1, len(kinds)), dtype=complex)
    for c, kind in enumerate(kinds):
        if kind == "random":
            states[:, c] = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            states[:, c] /= np.linalg.norm(states[:, c])
        else:
            index = rng.integers(n + 1) if kind == "dicke" else rng.choice([0, n])
            states[index, c] = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return states


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    kinds=st.lists(st.sampled_from(["random", "dicke", "pole"]), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_moments_equal_the_operator_products(n, kinds, seed):
    space = build_space(n)
    states = _state_columns(n, kinds, seed)
    j = n / 2.0
    pair = _spin_pair(space)
    for got, expected in zip(_batch_moments(space, states), _operator_moments(space, states, pair)):
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * j * (j + 1)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 120), width=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@example(n=100, width=300, seed=0)
@example(n=1, width=2, seed=0)  # rows of one band entry: numpy may iterate down the column
def test_each_column_keeps_its_bits_at_every_batch_width(n, width, seed):
    # the moments reduce each state's row on its own, so no chunk width,
    # block width or writer layout can move a column's last digits
    space = build_space(n)
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["random", "dicke", "pole"], size=width, p=[0.8, 0.1, 0.1])
    states = _state_columns(n, list(kinds), seed)
    batch = batch_squeezing(space, states)
    for c in range(width):
        alone = batch_squeezing(space, states[:, c : c + 1])
        for together, single in zip(batch, alone):
            assert np.array_equal(together[..., c : c + 1], single, equal_nan=True)


def _cross_product_squeezing(n, mean, second):
    """The xi^2 kernel before its explicit components: np.cross frames,
    np.linalg.norm lengths, boolean-mask copies and np.sum projections."""
    length = np.linalg.norm(mean, axis=0)
    contrast = length / (n / 2.0)
    valid = contrast >= metrics.CONTRAST_EPS
    k = mean.shape[1]
    xi2 = np.full(k, np.nan)
    axes = np.full((3, k), np.nan)
    if np.any(valid):
        dirs = mean[:, valid] / length[valid]
        ref = np.zeros((3, dirs.shape[1]))
        ref[np.argmin(np.abs(dirs), axis=0), np.arange(dirs.shape[1])] = 1.0
        n1 = np.cross(ref.T, dirs.T).T
        n1 /= np.linalg.norm(n1, axis=0)
        n2 = np.cross(dirs.T, n1.T).T
        sec = second[:, :, valid]
        mn = mean[:, valid]

        def cov(u, v):
            quad = np.einsum("ik,ijk,jk->k", u, sec, v)
            return quad - np.sum(u * mn, axis=0) * np.sum(v * mn, axis=0)

        c11 = cov(n1, n1)
        c22 = cov(n2, n2)
        c12 = cov(n1, n2)
        half_tr = 0.5 * (c11 + c22)
        radius = np.sqrt((0.5 * (c11 - c22)) ** 2 + c12**2)
        lam = half_tr - radius
        xi2[valid] = 4.0 * lam / n
        vx = np.where(radius > 1e-12 * np.maximum(half_tr, 1.0), c12, 0.0)
        vy = np.where(radius > 1e-12 * np.maximum(half_tr, 1.0), lam - c11, 0.0)
        vnorm = np.hypot(vx, vy)
        degenerate = vnorm < 1e-30
        vx = np.where(degenerate, 1.0, vx)
        vy = np.where(degenerate, 0.0, vy)
        vnorm = np.where(degenerate, 1.0, vnorm)
        axes[:, valid] = n1 * (vx / vnorm) + n2 * (vy / vnorm)
    return xi2, contrast, mean, axes


_MOMENT_KINDS = ("plain", "faint", "isotropic", "tied")


def _moment_columns(n, kinds, seed):
    """First and symmetrized second moments, one column per entry of
    ``kinds``: a random mean spin, one whose contrast is below or just above
    CONTRAST_EPS, one with an isotropic perpendicular covariance, or one
    whose |components| tie (zeros among them)."""
    rng = np.random.default_rng(seed)
    k = len(kinds)
    mean = rng.normal(size=(3, k)) * (n / 4.0)
    spread = rng.normal(size=(3, 3, k))
    second = np.einsum("iak,jak->ijk", spread, spread) * n + np.einsum("ik,jk->ijk", mean, mean)
    for c, kind in enumerate(kinds):
        if kind == "faint":
            contrast = rng.uniform(0.0, 2.0 * metrics.CONTRAST_EPS)
            mean[:, c] *= contrast * (n / 2.0) / np.linalg.norm(mean[:, c])
        elif kind == "isotropic":
            second[:, :, c] = rng.uniform(0.0, n) * np.eye(3) + np.outer(mean[:, c], mean[:, c])
        elif kind == "tied":
            mean[:, c] = rng.choice([-1.0, 0.0, 1.0], size=3) * rng.uniform(0.1, n / 2.0)
            if not mean[:, c].any():
                mean[rng.integers(3), c] = n / 2.0
    return mean, second


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 1000),
    mix=st.sets(st.sampled_from(_MOMENT_KINDS), min_size=1),
    width=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=100, mix={"plain"}, width=128, seed=0)  # every column valid: no mask copies
@example(n=4, mix={"faint"}, width=2, seed=4)  # no column valid
@example(n=24, mix={"isotropic", "tied"}, width=300, seed=1)
def test_squeezing_kernel_keeps_the_bits_of_the_cross_product_kernel(n, mix, width, seed):
    # the golden objective's refined time sizes every schedule, so the
    # explicit-component kernel must return np.cross's bits, signed zeros too
    rng = np.random.default_rng(seed)
    kinds = list(rng.choice(sorted(mix), size=width))
    mean, second = _moment_columns(n, kinds, seed)
    got = metrics._squeezing(build_space(n), mean, second)
    for new, old in zip(got, _cross_product_squeezing(n, mean, second)):
        assert np.array_equal(new, old, equal_nan=True)
        assert np.array_equal(np.signbit(new), np.signbit(old))


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


def _xi2_objective(space, basis, psi):
    """minimize_hamiltonian's golden-search objective: xi^2 of one state."""
    sx_sy = _spin_pair(space)

    def objective(t):
        state = evolve(psi, basis, t).amplitudes[:, None]
        xi2 = metrics._squeezing(space, *metrics._operator_moments(space, state, sx_sy))[0]
        return float(xi2[0]) if np.isfinite(xi2[0]) else np.inf

    return objective


def _chunked_scan_matches_whole_grid(space, basis, psi, times):
    """Compare minimize_hamiltonian, at the current chunk width, with one
    whole-grid scan followed by the golden search; return the scan."""
    whole = metrics.trace_from_states(space, times, evolve_batch(psi, basis, times))
    k = first_local_minimum(whole.xi2)
    sampled = minimize_hamiltonian(space, basis, psi, times, refine=False, allow_unbracketed=True)
    refined = minimize_hamiltonian(space, basis, psi, times, allow_unbracketed=True).minimum
    assert sampled.minimum.bracketed == refined.bracketed == (k is not None)
    if k is None:
        # nothing bracketed: every time is sampled and the smallest is kept
        assert sampled.t.size == times.size
        assert (refined.t, refined.xi2) == (whole.minimum.t, whole.minimum.xi2)
        end = times.size
    else:
        # the scan ends one sample past the bracket the whole grid gives
        assert sampled.t.size == k + 2
        assert int(np.searchsorted(times, sampled.minimum.t)) == k
        found = metrics._golden(
            _xi2_objective(space, basis, psi), times[k - 1], times[k], times[k + 1], REFINE_XTOL
        )
        expected = (times[k], whole.xi2[k]) if found is None else found
        assert (refined.t, refined.xi2) == expected
        assert refined.refined == (found is not None)
        end = k + 2
    assert np.array_equal(sampled.t, times[:end])
    assert np.allclose(sampled.xi2, whole.xi2[:end], rtol=1e-12, atol=0.0, equal_nan=True)
    return sampled


def _lmg_setup(gamma=0.1, n=20):
    space = build_space(n)
    basis = model_eigenbasis(from_chi_gamma(1.0, gamma, n), space)
    return space, basis, coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))


def _first_minimum_index(space, basis, psi, times):
    return first_local_minimum(
        metrics.trace_from_states(space, times, evolve_batch(psi, basis, times)).xi2
    )


CHUNK_WIDTHS = [1, 2, 3, metrics.SCAN_CHUNK]


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
@pytest.mark.parametrize("side", [-1, 0, 1])
def test_chunked_scan_finds_a_minimum_beside_a_chunk_edge(monkeypatch, width, side):
    # the minimum is the last sample of a chunk (-1), the first (0) or the
    # second (1): its bracket straddles the edge or has just crossed it
    monkeypatch.setattr(metrics, "SCAN_CHUNK", width)
    space, basis, psi = _lmg_setup()
    base = np.linspace(0.0, 0.3, 400)
    key = _first_minimum_index(space, basis, psi, base)
    index = max(width + side, 1)
    times = base[key - index :]
    scan = _chunked_scan_matches_whole_grid(space, basis, psi, times)
    assert scan.minimum.bracketed and scan.t.size == index + 2


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
def test_chunked_scan_of_an_unbracketed_trace_samples_every_time(monkeypatch, width):
    monkeypatch.setattr(metrics, "SCAN_CHUNK", width)
    space, basis, psi = _lmg_setup()
    base = np.linspace(0.0, 0.3, 400)
    times = base[: _first_minimum_index(space, basis, psi, base)]  # still decreasing
    scan = _chunked_scan_matches_whole_grid(space, basis, psi, times)
    assert not scan.minimum.bracketed and scan.t.size == times.size


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
@pytest.mark.parametrize("side", [-1, 0])
def test_chunked_scan_skips_a_collapsed_sample_beside_a_chunk_edge(monkeypatch, width, side):
    # one-axis twisting at N = 20 loses its contrast near chi t = pi/2 (xi2
    # is nan there) and revives at chi t = pi; the grid jumps from the
    # first minimum into the collapse, so that minimum has a nan neighbour
    # and the first bracketed minimum is the revival's
    monkeypatch.setattr(metrics, "SCAN_CHUNK", width)
    space, basis, psi = _lmg_setup(gamma=0.0)
    base = np.linspace(0.0, 0.3, 400)
    key = _first_minimum_index(space, basis, psi, base)
    index = max(width + side, 2)  # where the first collapsed sample lands
    collapse = np.linspace(math.pi / 2 - 0.05, math.pi / 2 + 0.05, 3)
    revival = math.pi + base[1:]
    times = np.concatenate((base[key - index + 1 : key + 1], collapse, revival))
    whole = metrics.trace_from_states(space, times, evolve_batch(psi, basis, times))
    assert np.isnan(whole.xi2[index]) and np.isfinite(whole.xi2[index - 1])
    scan = _chunked_scan_matches_whole_grid(space, basis, psi, times)
    assert scan.minimum.bracketed and scan.minimum.t > math.pi


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
def test_chunked_scan_finds_a_plateau_across_a_chunk_edge(monkeypatch, width):
    # xi^2 rounded to 1e-3 is flat at its minimum: the plateau's samples are
    # equal, and the first minimum is the plateau's last sample (<= on the
    # left, < on the right); its bracket is flat, so it is not refined
    exact = metrics._squeezing

    def rounded(space, mean, second):
        xi2, *rest = exact(space, mean, second)
        return (np.round(xi2, 3), *rest)

    monkeypatch.setattr(metrics, "_squeezing", rounded)
    monkeypatch.setattr(metrics, "SCAN_CHUNK", width)
    space, basis, psi = _lmg_setup()
    base = np.linspace(0.0, 0.3, 400)
    xi2 = metrics.trace_from_states(space, base, evolve_batch(psi, basis, base)).xi2
    key = first_local_minimum(xi2)
    start = key
    while xi2[start - 1] == xi2[key]:
        start -= 1
    assert key - start >= 2  # a plateau of three samples or more
    times = base[start - width + 1 :]  # the plateau starts at a chunk's last sample
    scan = _chunked_scan_matches_whole_grid(space, basis, psi, times)
    assert scan.xi2[width - 1] == scan.xi2[width] == scan.minimum.xi2
    assert not minimize_hamiltonian(space, basis, psi, times).minimum.refined


def test_scan_stops_within_one_chunk_of_an_early_bracket(monkeypatch):
    # a first minimum near sample 10 of 300 costs at most one chunk past it
    columns = []
    exact = metrics.batch_squeezing

    def spy(space, states):
        columns.append(states.shape[1])
        return exact(space, states)

    space, basis, psi = _lmg_setup()
    times = np.linspace(0.0, 4.9, 300)
    monkeypatch.setattr(metrics, "batch_squeezing", spy)
    trace = minimize_hamiltonian(space, basis, psi, times, refine=False)
    k = int(np.searchsorted(times, trace.minimum.t))
    assert 8 <= k <= 12
    assert sum(columns) <= k + 2 + metrics.SCAN_CHUNK < times.size


def linearized_xi2(gamma, chi_n_t):
    """Holstein-Primakoff xi^2 of |pi/2, pi/2> under chi (Sx^2 + gamma Sy^2).

    For large N the fluctuations (Sx, Sz) about the mean spin along +y
    evolve linearly, as M = exp(tA) with A = 2 chi j [[0, gamma],
    [1 - gamma, 0]] (M = 1 + tA at gamma = 0), so xi^2 is the least
    eigenvalue of M M^T, up to corrections of order 1/N.
    """
    m = expm(chi_n_t * np.array([[0.0, gamma], [1.0 - gamma, 0.0]]))  # 2 chi j t = chi N t
    return np.linalg.eigvalsh(m @ m.T)[0]


@settings(max_examples=15, deadline=None)
@given(n=st.integers(10, 400), gamma=st.floats(0.0, 0.5))
@example(n=1000, gamma=0.5)
def test_xi2_approaches_the_holstein_primakoff_limit(n, gamma):
    # N |xi^2 / xi^2_lin - 1| <= 2 up to chi N t = 1.5: the largest value,
    # about 1.42, is at gamma = 1/2 and chi N t = 1.5 for N from 200 to 1000
    space = build_space(n)
    psi = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    chi_n_t = np.linspace(0.0, 1.5, 16)
    times = chi_n_t / n
    basis = model_eigenbasis(from_chi_gamma(1.0, gamma, n), space)
    xi2 = trace_from_states(space, times, evolve_batch(psi, basis, times)).xi2
    linear = np.array([linearized_xi2(gamma, x) for x in chi_n_t])
    assert np.max(n * np.abs(xi2 / linear - 1.0)) <= 2.0
