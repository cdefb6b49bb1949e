import csv
import gc
import itertools
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmgsqueeze import algebra, experiments, propagate
from lmgsqueeze.algebra import build_space
from lmgsqueeze.canonical import from_chi_gamma, model_eigenbasis, realize_hamiltonian
from lmgsqueeze.errors import ConfigError
from lmgsqueeze.experiments import (
    ALLOWED_SCOPES,
    NoiseSpec,
    compare_pulsed,
    evolve_trace,
    noise_monte_carlo,
    predicted_optimal_time,
    prediction_horizon,
    scaling_study,
    sweep_gamma,
    sweep_initial_state,
    write_result,
)
from lmgsqueeze.metrics import default_horizon, minimize_hamiltonian
from lmgsqueeze.pulses import design, effective_hamiltonian, schedule
from lmgsqueeze.propagate import Eigenbasis, FreeSegment, run_schedule
from lmgsqueeze.states import BlochAngles, coherent_state

N_SMALL = 24
CHANNEL_SCOPES = [(ch, sc) for ch, scopes in ALLOWED_SCOPES.items() for sc in scopes]


def small_model(gamma=0.1):
    return from_chi_gamma(1.0, gamma, N_SMALL)


def test_single_point_sweep_reduces_to_minimize():
    model = small_model(0.25)
    horizon = 6.0
    result = sweep_initial_state(
        model, theta_points=3, phi_points=4, horizon=horizon, grid_points=200
    )
    row = result.tables["grid"].rows[5]  # theta index 1, phi index 1
    assert row[:2] == (math.pi / 2, math.pi / 2)
    space = build_space(N_SMALL)
    psi = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    direct = minimize_hamiltonian(
        space,
        model_eigenbasis(model, space),
        psi,
        np.linspace(0.0, horizon / (model.chi * N_SMALL), 200),
        refine=False,
        allow_unbracketed=True,
    )
    assert row[2] == direct.minimum.xi2
    assert row[3] == direct.minimum.t


def test_sweep_grid_argmin_at_equator():
    result = sweep_initial_state(
        small_model(0.25), theta_points=9, phi_points=8, grid_points=150
    )
    theta0, phi0, xi2_min = result.tables["argmin"].rows[0]
    # best cell adjoins (pi/2, pi/2) or its pi-rotated twin (pi/2, 3pi/2)
    assert theta0 == pytest.approx(math.pi / 2, abs=math.pi / 8 + 1e-12)
    dphi = min(abs(phi0 - math.pi / 2), abs(phi0 - 3 * math.pi / 2))
    assert dphi <= 2 * math.pi / 8 + 1e-12
    assert xi2_min < 1.0


@pytest.mark.parametrize("gamma", [0.05, 0.15, 0.35, 0.45])
def test_optimal_initial_state_constant_in_gamma(gamma):
    # the best initial cell stays on the (pi/2, pi/2) orbit as gamma varies
    result = sweep_initial_state(
        from_chi_gamma(1.0, gamma, 40), theta_points=9, phi_points=8, grid_points=200
    )
    theta0, phi0, _ = result.tables["argmin"].rows[0]
    assert theta0 == pytest.approx(math.pi / 2, abs=1e-12)
    d_phi = min(abs(phi0 - math.pi / 2), abs(phi0 - 3 * math.pi / 2))
    assert d_phi == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", ["theta_points", "phi_points"])
@pytest.mark.parametrize("points", [0, 1])
def test_sweep_rejects_empty_grid(name, points):
    # one theta value would leave the x rotation's image theta = pi off the grid
    with pytest.raises(ConfigError, match=name):
        sweep_initial_state(small_model(), **{name: points})


@settings(max_examples=150)
@given(
    gamma=st.floats(0.0, 0.5),
    n=st.integers(2, 16),
    theta_points=st.integers(2, 9),
    phi_points=st.integers(2, 9),
)
def test_sweep_rows_match_direct_minimization(gamma, n, theta_points, phi_points):
    # every row, computed or copied from a pi-rotated twin, is the first
    # minimum from its own initial state
    model = from_chi_gamma(1.0, gamma, n)
    grid_points = 100
    result = sweep_initial_state(
        model, theta_points=theta_points, phi_points=phi_points, grid_points=grid_points
    )
    space = build_space(n)
    basis = Eigenbasis.of(realize_hamiltonian(model, space))
    t_max = default_horizon(n) / (model.chi * n)
    for theta, phi, xi2, t_min, _, bracketed in result.tables["grid"].rows:
        psi = coherent_state(space, BlochAngles(theta, phi))
        direct = minimize_hamiltonian(
            space, basis, psi, np.linspace(0.0, t_max, grid_points), refine=False,
            allow_unbracketed=True, every_sample=True,
        )
        assert xi2 == pytest.approx(direct.minimum.xi2, rel=1e-10)
        # a coherent eigenstate of H has a flat trace, whose first minimum
        # rounding alone places; everywhere else the times are equal
        if np.nanmax(direct.xi2) - np.nanmin(direct.xi2) > 1e-9:
            assert (t_min, bracketed) == (direct.minimum.t, direct.minimum.bracketed)
    assert result.tables["argmin"].rows[0][1] < math.pi


@pytest.mark.parametrize(
    "grids, expected",
    [
        ({"theta_points": 33, "phi_points": 33}, 513),
        ({"theta_points": 33, "phi_points": 32}, 250),
        ({"theta_points": 9, "phi_points": 8}, 16),
    ],
)
def test_sweep_computes_one_point_per_orbit(monkeypatch, grids, expected):
    computed = []
    sweep_column = experiments._sweep_column

    def counting(task):
        computed.extend(task[4])
        return sweep_column(task)

    monkeypatch.setattr(experiments, "_sweep_column", counting)
    sweep_initial_state(from_chi_gamma(1.0, 0.2, 4), grid_points=100, **grids)
    assert len(computed) == expected


def test_sweep_factors_one_coherent_generator(monkeypatch):
    # every grid point starts from the azimuth-0 state of its theta, turned
    # by its phi about z: one generator for the whole grid, none per column
    factored = []
    factor = experiments.coherent_generator_eig

    def counting(space, *args):
        factored.append(args)
        return factor(space, *args)

    monkeypatch.setattr(experiments, "coherent_generator_eig", counting)
    sweep_initial_state(from_chi_gamma(1.0, 0.2, 4), theta_points=33, phi_points=33, grid_points=100)
    assert factored == [()]


def test_sweep_factors_its_generator_before_the_model(monkeypatch):
    # the generator's dense complex eigh runs before the model basis, its
    # squares and its phase table exist, so it starts from the generator
    # alone: one complex (N+1)^2
    n = 200
    entries = []
    eig = algebra.hamiltonian_eig

    def measured(hamiltonian):
        if np.iscomplexobj(hamiltonian):
            entries.append(tracemalloc.get_traced_memory()[0] - base)
        return eig(hamiltonian)

    monkeypatch.setattr(algebra, "hamiltonian_eig", measured)
    model = from_chi_gamma(1.0, 0.1, n)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sweep_initial_state(model, theta_points=2, phi_points=2, grid_points=100)
    finally:
        tracemalloc.stop()
    assert len(entries) == 1
    assert entries[0] <= 1.1 * 16 * (n + 1) ** 2


def matched_orbit_representatives(thetas: np.ndarray, phis: np.ndarray) -> dict:
    """For each grid point (phi index k, theta index i), the (k', i') whose
    result it shares: the smallest of its images under the pi rotations about
    x, z and y that land on the grid (to 1e-12), or itself.  A pole point's
    images also include every point of either pole."""

    def match(values, images):  # on the circle; theta differences stay below pi
        dist = np.abs(images[:, None] - values[None, :]) % (2.0 * math.pi)
        hit = np.minimum(dist, 2.0 * math.pi - dist) <= 1e-12
        return np.where(hit.any(axis=1), hit.argmax(axis=1), -1).tolist()

    flip, keep = match(thetas, math.pi - thetas), list(range(len(thetas)))
    maps = ((match(phis, -phis), flip), (match(phis, phis + math.pi), keep),
            (match(phis, math.pi - phis), flip))  # x, z, y
    poles = [i for i, theta in enumerate(thetas) if min(theta, math.pi - theta) <= 1e-12]
    rep = {}
    for k, i in itertools.product(range(len(phis)), range(len(thetas))):
        images = [(pk[k], ti[i]) for pk, ti in maps if min(pk[k], ti[i]) >= 0]
        if i in poles:  # every phi gives one state up to a global phase
            images += [(q, pole) for q in range(len(phis)) for pole in poles]
        rep[k, i] = min((rep[q] for q in images if q < (k, i)), default=(k, i))
    return rep


@settings(max_examples=300)
@given(theta_points=st.integers(2, 60), phi_points=st.integers(1, 60))
@example(theta_points=33, phi_points=33)
@example(theta_points=33, phi_points=32)
def test_orbit_index_maps_match_float_matching(theta_points, phi_points):
    # the pi rotations as index maps on the uniform grid are exactly the maps
    # found by matching the rotated grid values against the grid
    thetas = np.linspace(0.0, math.pi, theta_points)
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    assert experiments._orbit_representatives(theta_points, phi_points) == (
        matched_orbit_representatives(thetas, phis)
    )


def test_long_thin_sweep_memory_is_linear_in_its_points():
    model = from_chi_gamma(1.0, 0.2, 2)
    sweep_initial_state(model, theta_points=2, phi_points=4, grid_points=100)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sweep_initial_state(model, theta_points=2, phi_points=2000, grid_points=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / (2 * 2000) < 1000


@pytest.mark.parametrize("theta, phi", [(1.0, 0.7), (0.6, 2.0)])
def test_sign_flipped_outputs_are_the_mirrored_physical_dynamics(theta, phi):
    # experiments simulate the folded model chi (Sx^2 + gamma Sy^2); under a
    # flip the physical Hamiltonian is its negative, and as H is real in the
    # Dicke basis, running it backwards maps (theta, phi) to (theta, -phi)
    model = from_chi_gamma(1.0, 0.7, 20)
    assert model.sign_flipped
    space = build_space(20)
    physical = Eigenbasis.of(model.sign * realize_hamiltonian(model, space))
    mirrored = BlochAngles(theta, -phi % (2.0 * math.pi))
    reported = evolve_trace(model, mirrored, grid_points=300).tables["trace"].rows
    times = np.array([row[0] for row in reported])
    xi2 = np.array([row[2] for row in reported])
    psi = coherent_state(space, BlochAngles(theta, phi))
    direct = minimize_hamiltonian(
        space, physical, psi, times, allow_unbracketed=True, every_sample=True
    )
    assert np.max(np.abs(direct.xi2 - xi2)) < 1e-12
    unmirrored = evolve_trace(model, BlochAngles(theta, phi), grid_points=300).tables["trace"]
    assert np.max(np.abs(direct.xi2 - [row[2] for row in unmirrored.rows])) > 0.1


@pytest.mark.parametrize(
    "run, field",
    [
        (lambda: sweep_gamma(N_SMALL, [0.75]), "gammas"),
        (lambda: sweep_gamma(N_SMALL, [-0.1]), "gammas"),
        (
            lambda: noise_monte_carlo(
                small_model(), design(small_model(), "z", "A"), NoiseSpec("pulse_area", 0.1), 0, 0
            ),
            "n_runs",
        ),
    ],
)
def test_out_of_range_experiment_argument_is_a_config_error(run, field):
    # an array field names the bad element, as gammas[i]
    with pytest.raises(ConfigError, match=f"^{field}(\\[\\d+\\])?: "):
        run()


def test_sweep_gamma_checks_every_gamma_before_building_a_space(monkeypatch):
    def refuse(n_spins):
        raise AssertionError("a space was built before the grid was checked")

    monkeypatch.setattr(experiments, "build_space", refuse)
    with pytest.raises(ConfigError, match=r"^gammas\[3\]: must lie in \[0, 0\.5\], got 0\.9$"):
        sweep_gamma(400, [0.1, 0.2, 0.3, 0.9])


def test_sweep_gamma_monotone_and_endpoints():
    gammas = [0.0, 0.25, 0.5]
    result = sweep_gamma(N_SMALL, gammas, horizon=8.0, grid_points=400)
    rows = result.tables["gamma_sweep"].rows
    xi2 = [r[1] for r in rows]
    # the minimum deepens with gamma at any N; the time ordering is an
    # N ~ 100 property checked in the acceptance suite
    assert xi2[0] > xi2[1] > xi2[2]
    # endpoints equal the direct simulations exactly (same code path, same grid)
    for gamma, row in zip(gammas, rows):
        space = build_space(N_SMALL)
        model = from_chi_gamma(1.0, gamma, N_SMALL)
        psi = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
        direct = minimize_hamiltonian(
            space,
            model_eigenbasis(model, space),
            psi,
            np.linspace(0.0, 8.0 / (1.0 * N_SMALL), 400),
        )
        assert row[1] == direct.minimum.xi2
        assert row[2] == direct.minimum.t


def test_compare_pulsed_ordering():
    result = compare_pulsed(small_model(0.1))
    minima = {row[0]: row for row in result.tables["minima"].rows}
    assert minima["pulsed_z"][3] == pytest.approx(minima["tat"][3], rel=0.05)
    assert minima["pulsed_z"][1] < minima["pulsed_y"][1]
    assert minima["lmg"][3] > minima["pulsed_z"][3]
    assert minima["lmg"][3] > minima["pulsed_y"][3]


def recorded_pulse_axes(monkeypatch) -> list:
    """The axis of every rotate_state call the schedule executor makes."""
    axes = []
    rotate = propagate.rotate_state

    def recording(state, axis, angle):
        axes.append(axis)
        return rotate(state, axis, angle)

    monkeypatch.setattr(propagate, "rotate_state", recording)
    return axes


def test_compare_pulsed_runs_y_pulses_in_the_toggling_frame(monkeypatch):
    # the y schedule's pulse pairs become free segments: no y rotation is
    # applied and no basis of Sy is built; the z pulses are still applied
    spaces = []

    def recording_space(n_spins):
        spaces.append(build_space(n_spins))
        return spaces[-1]

    monkeypatch.setattr(experiments, "build_space", recording_space)
    axes = recorded_pulse_axes(monkeypatch)
    compare_pulsed(from_chi_gamma(1.0, 0.1, 20))
    (space,) = spaces
    assert "eigy" not in space._built and "eigx" not in space._built
    assert axes and set(axes) == {"z"}


def test_compare_pulsed_enters_each_dense_eigh_holding_two_matrices_at_most(monkeypatch):
    # no dense Sx or Sy is kept and one effective-Hamiltonian basis at most
    # is alive: each dense eigh (the coherent generator, then the y and the
    # z h_eff) starts from the matrix it factors and the space's two real
    # squares, two complex (N+1)^2 in all
    n = 200
    entries = []
    eig = algebra.hamiltonian_eig

    def measured(hamiltonian):
        entries.append(tracemalloc.get_traced_memory()[0] - base)
        return eig(hamiltonian)

    monkeypatch.setattr(algebra, "hamiltonian_eig", measured)
    model = from_chi_gamma(1.0, 0.1, n)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compare_pulsed(model)
    finally:
        tracemalloc.stop()
    assert len(entries) == 3
    assert max(entries) <= 2.1 * 16 * (n + 1) ** 2


def kept_arrays(value):
    """Every array inside an object a space keeps."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from kept_arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from kept_arrays(item)
    elif hasattr(value, "__dict__"):
        yield from kept_arrays(vars(value))


def test_spaces_keep_no_complex_array(monkeypatch):
    # what a space keeps is real: the squares, the moment weights and the
    # x basis (built here by the y pulses that pulse-area runs keep); dense
    # complex operators and bases are held by their callers only while they
    # use them
    spaces = []

    def recording_space(n_spins):
        spaces.append(build_space(n_spins))
        return spaces[-1]

    monkeypatch.setattr(experiments, "build_space", recording_space)
    model = from_chi_gamma(1.0, 0.1, 20)
    compare_pulsed(model)
    runs = (("y", "pulse_area", "per_pulse"), ("z", "atom_number", "per_run"))
    for axis, channel, scope in runs:
        noise = NoiseSpec(channel, 0.2, scope)
        noise_monte_carlo(model, design(model, axis), noise, 4, seed=1, cycles=40)
    assert len(spaces) > 3 and any("eigx" in space._built for space in spaces)
    for space in spaces:
        assert not any(np.iscomplexobj(array) for array in kept_arrays(space._built))


def test_compare_pulsed_factors_one_coherent_generator(monkeypatch):
    # the three initial states turn through one azimuth-0 generator, so the
    # complex dense factorizations are it and the two effective Hamiltonians
    factored = []
    of = Eigenbasis.of.__func__

    def counting(cls, hamiltonian):
        if np.iscomplexobj(hamiltonian):
            factored.append(1)
        return of(cls, hamiltonian)

    monkeypatch.setattr(Eigenbasis, "of", classmethod(counting))
    compare_pulsed(from_chi_gamma(1.0, 0.1, 12))
    assert len(factored) == 3


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("channel,scope", CHANNEL_SCOPES)
def test_noise_runs_take_y_pairs_in_the_toggling_frame(monkeypatch, channel, scope, sigma):
    # drawn pulse errors, and a gamma drawn per segment, keep their y pulses
    # as rotations; every other run takes its y pairs in the toggling frame,
    # and agrees with the same draws with the y pulses applied as rotations
    model = from_chi_gamma(1.0, 0.1, 10)
    args = (model, design(model, "y", "A"), NoiseSpec(channel, sigma, scope))
    kwargs = dict(n_runs=3, seed=4, total_time=0.3, cycles=6)
    axes = recorded_pulse_axes(monkeypatch)
    toggled = noise_monte_carlo(*args, **kwargs)
    drawn = channel in ("pulse_area", "pulse_phase") or (channel, scope) == ("gamma", "per_segment")
    assert ("y" in axes) == (sigma > 0.0 and drawn)
    monkeypatch.setattr(propagate, "toggled_cycle", lambda space, segments, form: segments)
    stepped = noise_monte_carlo(*args, **kwargs)
    for name in ("runs", "trace_stats"):
        rows = np.array(toggled.tables[name].rows, dtype=float)
        assert np.allclose(rows, np.array(stepped.tables[name].rows, dtype=float), rtol=1e-12, atol=0)


def test_compare_pulsed_reference_minima_are_the_one_search():
    # the bare and reference minima are minimize_hamiltonian on the z
    # schedule's cycle times, golden-refined
    model = from_chi_gamma(1.0, 0.1, 20)
    initial = BlochAngles(1.2, 0.7)
    result = compare_pulsed(model, lmg_initial=initial)
    minima = {row[0]: row for row in result.tables["minima"].rows}
    times = np.array([row[2] for row in result.tables["traces"].rows if row[0] == "pulsed_z"])
    space = build_space(20)
    design_z = design(model, "z", "A")
    for name, hamiltonian, psi in (
        ("lmg", model_eigenbasis(model, space), coherent_state(space, initial)),
        (
            "tat",
            Eigenbasis.of(effective_hamiltonian(design_z, model, space)),
            coherent_state(space, design_z.optimal_initial),
        ),
    ):
        direct = minimize_hamiltonian(space, hamiltonian, psi, times, allow_unbracketed=True)
        assert (minima[name][1], minima[name][3]) == (direct.minimum.t, direct.minimum.xi2)


def test_compare_pulsed_marks_minima_that_were_never_refined(tmp_path):
    # from (pi/2, 0) the gamma = 0 trace is flat (xi2 = 1 +- 1e-15): the
    # golden search finds no bracket and the grid point is kept
    model = from_chi_gamma(1.0, 0.0, 20)
    initial = BlochAngles(math.pi / 2, 0.0)
    result = compare_pulsed(model, lmg_initial=initial)
    write_result(result, tmp_path)
    with open(tmp_path / "minima.csv") as fh:
        refined = {row["trace"]: row["refined"] for row in csv.DictReader(fh)}
    assert refined == {"lmg": "0", "tat": "1", "pulsed_z": "0", "pulsed_y": "0"}
    lmg_times = np.array([row[2] for row in result.tables["traces"].rows if row[0] == "lmg"])
    space = build_space(20)
    sampled = minimize_hamiltonian(
        space,
        model_eigenbasis(model, space),
        coherent_state(space, initial),
        lmg_times,
        refine=False,
        allow_unbracketed=True,
    )
    assert result.tables["minima"].rows[0][1] == sampled.minimum.t
    assert sampled.minimum.t in lmg_times


# |chi_eff| N t of the first two-axis-twisting minimum from the optimal state
MEASURED_TAT_MINIMA = {20: 1.72, 100: 2.50, 400: 3.20, 1000: 3.66}


def test_prediction_horizon_covers_the_twisting_minimum():
    for n, tau in MEASURED_TAT_MINIMA.items():
        assert prediction_horizon(n) >= tau + 1.0
        # the minimum grows like ln(2N)/2, which the horizon tracks
        assert abs(tau - math.log(2 * n) / 2) < 0.2
    for n in (20, 100):
        model = from_chi_gamma(1.0, 0.1, n)
        design_ = design(model, "z", "A")
        space = build_space(n)
        psi = coherent_state(space, design_.optimal_initial)
        t_pred = predicted_optimal_time(design_, model, space, psi)[0]
        assert t_pred * abs(design_.chi_eff) * n == pytest.approx(MEASURED_TAT_MINIMA[n], abs=0.01)
    # exactly the old fixed 5.0 up to N = 1490, so no benchmark grid moves
    assert {prediction_horizon(n) for n in (1, 20, 1000, 1490)} == {5.0}
    assert prediction_horizon(1491) > 5.0
    # at N = 20,000 a fixed 5.0 would fall short of the extrapolated minimum
    tau = math.log(2 * 20_000) / 2
    assert tau > 5.0
    assert prediction_horizon(20_000) == pytest.approx(tau + 1.0, rel=1e-15)


@pytest.mark.parametrize("gamma", [0.05, 0.25, 0.4])
def test_z_scheme_squeezes_faster_than_y_for_any_gamma(gamma):
    result = compare_pulsed(from_chi_gamma(1.0, gamma, 30))
    minima = {row[0]: row for row in result.tables["minima"].rows}
    assert minima["pulsed_z"][1] < minima["pulsed_y"][1]
    assert minima["pulsed_z"][3] == pytest.approx(minima["pulsed_y"][3], rel=0.1)


def test_sweep_workers_do_not_change_results():
    model = small_model(0.25)
    serial = sweep_initial_state(model, theta_points=5, phi_points=4, grid_points=150)
    parallel = sweep_initial_state(
        model, theta_points=5, phi_points=4, grid_points=150, workers=2
    )
    assert serial.tables["grid"].rows == parallel.tables["grid"].rows
    assert serial.tables["argmin"].rows == parallel.tables["argmin"].rows


def test_map_starts_no_more_processes_than_tasks(monkeypatch):
    # a process pool forks all of its workers at its first submit
    import concurrent.futures

    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, function, tasks):
            return map(function, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert experiments._map(abs, [1, -2, 3], 64) == [1, 2, 3]
    assert pools == [3]
    # one task runs in this process
    assert experiments._map(abs, [-1], 8) == [1]
    assert pools == [3]


def test_noise_tables_share_the_compare_pulsed_time_axis():
    # both sample the one z schedule at its boundary times, so the noise
    # statistics line up with the pulsed trace row by row, to the bit
    model = from_chi_gamma(1.0, 0.1, 20)
    pulsed = compare_pulsed(model, max_step=0.05).tables["traces"].rows
    pulsed_z = [row[2:4] for row in pulsed if row[0] == "pulsed_z"]
    noise = NoiseSpec("pulse_separation", 0.0)
    result = noise_monte_carlo(model, design(model, "z", "A"), noise, n_runs=2, seed=0)
    stats = [row[1:3] for row in result.tables["trace_stats"].rows]
    assert len(stats) == 114
    assert np.array(stats).tobytes() == np.array(pulsed_z).tobytes()
    t_min = {row[5:7] for row in result.tables["runs"].rows}
    assert t_min <= set(pulsed_z)


def test_compare_pulsed_tat_limit_traces_coincide():
    result = compare_pulsed(small_model(0.5))
    traces = {}
    for name, index, t, chi_n_t, xi2 in result.tables["traces"].rows:
        traces.setdefault(name, []).append((index, t, xi2))
    lengths = {name: len(rows) for name, rows in traces.items()}
    assert len(set(lengths.values())) == 1
    reference = traces["tat"]
    for name in ("lmg", "pulsed_z", "pulsed_y"):
        for (i0, t0, x0), (i1, t1, x1) in zip(reference, traces[name]):
            assert t1 == pytest.approx(t0, abs=1e-15)
            assert x1 == pytest.approx(x0, abs=1e-9)


def test_scaling_study_small():
    result = scaling_study(0.1, [16, 24, 32], grid_points=600)
    slopes = dict(result.tables["slopes"].rows)
    assert set(slopes) == {"OAT", "TAT", "LMG", "pulsed"}
    assert slopes["TAT"] < slopes["OAT"] < 0.0
    rows = result.tables["scaling"].rows
    assert len(rows) == 12
    for variant, n, xi2_min, t_min, chi_n_t in rows:
        assert 0.0 < xi2_min < 1.0
        assert t_min > 0.0


def test_scaling_study_factors_one_coherent_generator_per_n(monkeypatch):
    # the variants' initial state and the pulsed one turn through one
    # azimuth-0 generator per space
    from lmgsqueeze import states

    factored = []
    factor = states.coherent_generator_eig

    def recording(space):
        factored.append(space.n_spins)
        return factor(space)

    for module in (states, experiments):
        monkeypatch.setattr(module, "coherent_generator_eig", recording)
    scaling_study(0.1, [10, 20], grid_points=100)
    assert factored == [10, 20]


@pytest.mark.parametrize("n_grid", [[20], [20, 20], [20, 20.0]])
def test_scaling_rejects_fewer_than_two_distinct_sizes(n_grid):
    with pytest.raises(ConfigError, match="n_grid"):
        scaling_study(0.1, n_grid, variants=("OAT",))


@pytest.mark.parametrize(
    "n_grid, field",
    [
        ([8.5, 12], "n_grid[0]"),
        ([8, 0], "n_grid[1]"),
        ([8, -4], "n_grid[1]"),
        ([math.inf, 8], "n_grid[0]"),
    ],
)
def test_scaling_refuses_a_size_that_is_not_a_positive_integer(n_grid, field):
    # not truncated: 8.5 would run and record N = 8
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: must be (an integer|>= 1),"):
        scaling_study(0.1, n_grid, variants=("OAT",))


def test_scaling_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        scaling_study(0.1, [8, 12], variants=("OAT", "bogus"))
    # a repeated variant would give its slope fit twice as many minima as N
    with pytest.raises(ConfigError, match="variants"):
        scaling_study(0.1, [10, 20], variants=("OAT", "OAT"))


@pytest.mark.parametrize("axis", ["z", "y"])
@pytest.mark.parametrize("channel,scope", CHANNEL_SCOPES)
def test_noise_zero_sigma_reproduces_schedule(channel, scope, axis):
    model = small_model(0.1)
    design_ = design(model, axis, "A")
    result = noise_monte_carlo(model, design_, NoiseSpec(channel, 0.0, scope), n_runs=3, seed=5)
    rows = result.tables["runs"].rows
    assert len({row[4] for row in rows}) == 1  # all runs identical
    summary = result.tables["summary"].rows[0]
    assert summary[0] == summary[1]  # noiseless equals median
    # and the trajectory agrees with the clean run_schedule path
    sch = schedule(design_, model, result.descriptor["parameters"]["total_time"])
    psi = coherent_state(build_space(N_SMALL), design_.optimal_initial)
    trace = run_schedule(psi, sch, model)
    stats = result.tables["trace_stats"].rows
    clean = trace.xi2
    assert len(stats) == len(clean)
    for row, xi2 in zip(stats, clean):
        assert row[3] == pytest.approx(xi2, abs=1e-12)


# ``runs`` rows (n_spins, gamma, chi, xi2_min, t_min_nominal, chiN_t_min,
# clamped_segments) at N = 12, gamma = 0.1, z axis, sigma = 0.1, seed 1, as
# recorded from an earlier build.  They pin the order of the draws on each
# channel's stream.
GOLDEN_RUNS = {
    ("pulse_separation", "per_segment"): (
        (12, 0.1, 1.0, 0.1197001429348769, 0.33555360095959286, 4.026643211515115, 0),
        (12, 0.1, 1.0, 0.11970697293629051, 0.33555360095959286, 4.026643211515115, 0),
        (12, 0.1, 1.0, 0.11972848436378432, 0.3396962380084767, 4.07635485610172, 0),
    ),
    ("pulse_separation", "per_run"): (
        (12, 0.1, 1.0, 0.1197468690306227, 0.3396962380084767, 4.07635485610172, 0),
        (12, 0.1, 1.0, 0.11973703060519429, 0.3894078825950831, 4.672894591140997, 0),
        (12, 0.1, 1.0, 0.11973677344719509, 0.3769799714484315, 4.523759657381178, 0),
    ),
    ("pulse_area", "per_pulse"): (
        (12, 0.1, 1.0, 0.24851390588636293, 0.24441558588414788, 2.9329870306097745, 0),
        (12, 0.1, 1.0, 0.14306519206027404, 0.40183579374173467, 4.822029524900816, 0),
        (12, 0.1, 1.0, 0.20524191001573922, 0.3894078825950831, 4.672894591140997, 0),
    ),
    ("pulse_area", "per_run"): (
        (12, 0.1, 1.0, 0.1603713632267715, 0.302412504568522, 3.6289500548222637, 0),
        (12, 0.1, 1.0, 0.19014973465940077, 0.28169931932410264, 3.3803918318892316, 0),
        (12, 0.1, 1.0, 0.1417929333652269, 0.31484041571517357, 3.7780849885820826, 0),
    ),
    ("pulse_phase", "per_pulse"): (
        (12, 0.1, 1.0, 0.3089922730397429, 0.26927140817745104, 3.2312568981294127, 0),
        (12, 0.1, 1.0, 0.4926942899121838, 0.19884657834642538, 2.3861589401571046, 0),
        (12, 0.1, 1.0, 0.3319030566483758, 0.39769315669285077, 4.772317880314209, 0),
    ),
    ("pulse_phase", "per_run"): (
        (12, 0.1, 1.0, 0.1197618277038514, 0.3396962380084767, 4.07635485610172, 0),
        (12, 0.1, 1.0, 0.11976484790823072, 0.3396962380084767, 4.07635485610172, 0),
        (12, 0.1, 1.0, 0.11975604269161859, 0.3396962380084767, 4.07635485610172, 0),
    ),
    ("gamma", "per_run"): (
        (12, 0.09376927041661594, 1.0, 0.11971548997630006, 0.3396962380084767, 4.07635485610172, 0),
        (12, 0.10387100237951259, 1.0, 0.1197869871116423, 0.3396962380084767, 4.07635485610172, 0),
        (12, 0.11636230744065675, 1.0, 0.11988302097451194, 0.33555360095959286, 4.026643211515115, 0),
    ),
    ("gamma", "per_segment"): (
        (12, 0.1, 1.0, 0.1197523482166994, 0.3396962380084767, 4.07635485610172, 0),
        (12, 0.1, 1.0, 0.11976224670301801, 0.3396962380084767, 4.07635485610172, 0),
        (12, 0.1, 1.0, 0.11974410462135292, 0.3396962380084767, 4.07635485610172, 0),
    ),
    ("chi", "per_run"): (
        (12, 0.1, 1.0501319595286511, 0.1197562477272817, 0.32312568981294126, 3.877508277755295, 0),
        (12, 0.1, 1.0369944382305323, 0.11975523386486724, 0.3272683268618251, 3.9272199223419015, 0),
        (12, 0.1, 0.8965027854564804, 0.11973700961367466, 0.3769799714484315, 4.523759657381178, 0),
    ),
    ("chi", "per_segment"): (
        (12, 0.1, 1.0, 0.11999706686007568, 0.33555360095959286, 4.026643211515115, 0),
        (12, 0.1, 1.0, 0.11979038463014409, 0.33555360095959286, 4.026643211515115, 0),
        (12, 0.1, 1.0, 0.11969060651924697, 0.3438388750573606, 4.126066500688327, 0),
    ),
    ("atom_number", "per_run"): (
        (12, 0.1, 1.0, 0.11975436024765962, 0.3396962380084767, 4.07635485610172, 0),
        (12, 0.1, 1.0, 0.11975436024765962, 0.3396962380084767, 4.07635485610172, 0),
        (14, 0.1, 1.0, 0.10575258047785903, 0.302412504568522, 3.6289500548222637, 0),
    ),
}


# The same rows for the y design, whose nominal pulse pairs run in the
# toggling frame unless the pulses themselves are drawn.
GOLDEN_RUNS_Y = {
    ("pulse_separation", "per_segment"): (
        (12, 0.1, 1.0, 0.12022955886927396, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.1, 1.0, 0.11991870544220677, 0.47073804988128604, 5.648856598575432, 0),
        (12, 0.1, 1.0, 0.11968495712318254, 0.4665722264310092, 5.59886671717211, 0),
    ),
    ("pulse_separation", "per_run"): (
        (12, 0.1, 1.0, 0.1197745163904127, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.1, 1.0, 0.11975424317865684, 0.5373912250857159, 6.448694701028591, 0),
        (12, 0.1, 1.0, 0.11976457173555133, 0.5165621078343317, 6.19874529401198, 0),
    ),
    ("pulse_area", "per_pulse"): (
        (12, 0.1, 1.0, 0.1920813415760403, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.1, 1.0, 0.12477367704591025, 0.5582203423371003, 6.698644108045203, 0),
        (12, 0.1, 1.0, 0.1691325674139561, 0.5582203423371003, 6.698644108045203, 0),
    ),
    ("pulse_area", "per_run"): (
        (12, 0.1, 1.0, 0.14645936731058504, 0.42074816847796365, 5.0489780217355635, 0),
        (12, 0.1, 1.0, 0.16506326289554352, 0.39158740432602557, 4.699048851912307, 0),
        (12, 0.1, 1.0, 0.1343209105145918, 0.43741146227907113, 5.248937547348854, 0),
    ),
    ("pulse_phase", "per_pulse"): (
        (12, 0.1, 1.0, 0.27421999224647003, 0.4998988140332241, 5.998785768398689, 0),
        (12, 0.1, 1.0, 0.5554770735041336, 0.22912028976522772, 2.7494434771827327, 0),
        (12, 0.1, 1.0, 0.39633784387510823, 0.5582203423371003, 6.698644108045203, 0),
    ),
    ("pulse_phase", "per_run"): (
        (12, 0.1, 1.0, 0.12008114689568927, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.1, 1.0, 0.12017164812211807, 0.4624064029807323, 5.548876835768787, 0),
        (12, 0.1, 1.0, 0.1198636663697729, 0.4665722264310092, 5.59886671717211, 0),
    ),
    ("gamma", "per_run"): (
        (12, 0.09376927041661594, 1.0, 0.11972938036020035, 0.45824057953045544, 5.4988869543654655, 0),
        (12, 0.10387100237951259, 1.0, 0.11981932699080507, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.11636230744065675, 1.0, 0.11999081928791593, 0.4790696967818398, 5.748836361382078, 0),
    ),
    ("gamma", "per_segment"): (
        (12, 0.1, 1.0, 0.11978935847223404, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.1, 1.0, 0.11977559250571683, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.1, 1.0, 0.11978585699757242, 0.4665722264310092, 5.59886671717211, 0),
    ),
    ("chi", "per_run"): (
        (12, 0.1, 1.0501319595286511, 0.11978483747380686, 0.441577285729348, 5.298927428752176, 0),
        (12, 0.1, 1.0369944382305323, 0.11978318413961968, 0.4499089326299017, 5.398907191558821, 0),
        (12, 0.1, 0.8965027854564804, 0.11976381529571374, 0.5207279312846085, 6.248735175415302, 0),
    ),
    ("chi", "per_segment"): (
        (12, 0.1, 1.0, 0.11993857044687495, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.1, 1.0, 0.11988389755776414, 0.45824057953045544, 5.4988869543654655, 0),
        (12, 0.1, 1.0, 0.11968542111582714, 0.4624064029807323, 5.548876835768787, 0),
    ),
    ("atom_number", "per_run"): (
        (12, 0.1, 1.0, 0.11977743752548875, 0.4665722264310092, 5.59886671717211, 0),
        (12, 0.1, 1.0, 0.11977743752548875, 0.4665722264310092, 5.59886671717211, 0),
        (14, 0.1, 1.0, 0.10579209039272339, 0.41658234502768676, 4.998988140332241, 0),
    ),
}


def assert_runs_match(axis, channel, scope, golden):
    model = from_chi_gamma(1.0, 0.1, 12)
    result = noise_monte_carlo(
        model, design(model, axis, "A"), NoiseSpec(channel, 0.1, scope), n_runs=3, seed=1
    )
    rows = result.tables["runs"].rows
    assert [row[0] for row in rows] == [0, 1, 2]
    for row, expected in zip(rows, golden[channel, scope], strict=True):
        assert row[1:] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("channel,scope", CHANNEL_SCOPES)
def test_noise_runs_match_recorded_draws(channel, scope):
    assert_runs_match("z", channel, scope, GOLDEN_RUNS)


@pytest.mark.parametrize("channel,scope", CHANNEL_SCOPES)
def test_y_noise_runs_match_recorded_draws(channel, scope):
    assert_runs_match("y", channel, scope, GOLDEN_RUNS_Y)


def test_noise_determinism_and_worker_independence():
    model = small_model(0.1)
    design_ = design(model, "z", "A")
    noise = NoiseSpec("pulse_separation", 0.10)
    first = noise_monte_carlo(model, design_, noise, n_runs=6, seed=42)
    second = noise_monte_carlo(model, design_, noise, n_runs=6, seed=42)
    assert first.tables["runs"].rows == second.tables["runs"].rows
    parallel = noise_monte_carlo(model, design_, noise, n_runs=6, seed=42, workers=2)
    assert parallel.tables["runs"].rows == first.tables["runs"].rows
    different = noise_monte_carlo(model, design_, noise, n_runs=6, seed=43)
    assert different.tables["runs"].rows != first.tables["runs"].rows


def test_noise_atom_number_rounding():
    model = small_model(0.1)
    design_ = design(model, "z", "A")
    result = noise_monte_carlo(
        model, design_, NoiseSpec("atom_number", 1e-4), n_runs=50, seed=1
    )
    sampled = [row[1] for row in result.tables["runs"].rows]
    deviants = sum(1 for n in sampled if n != N_SMALL)
    assert deviants <= 1  # std is 2.4e-3 atoms; rounding almost never moves N


def test_atom_number_noise_retains_no_operators():
    def call(n_spins, n_runs, seed):
        model = from_chi_gamma(1.0, 0.1, n_spins)
        noise = NoiseSpec("atom_number", 0.2)
        noise_monte_carlo(model, design(model, "z", "A"), noise, n_runs, seed, cycles=5)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    call(4, 2, 0)  # first-call imports and setup stay out of the measurement
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        first = call(60, 30, 0)
        second = call(60, 30, 1)
    finally:
        tracemalloc.stop()
    # each drawn atom number's operators go with its run
    assert first - base < 1_000_000
    assert second - first < 500_000


@pytest.mark.parametrize(
    "channel,sigma,scope",
    [
        ("chi", 0.01, "per_segment"),
        ("gamma", 1e-3, "per_segment"),
        ("pulse_separation", 0.05, "per_run"),
        ("pulse_area", 2e-4, "per_run"),
        ("pulse_phase", 1e-3, "per_run"),
    ],
)
def test_noise_alternate_scopes_run(channel, sigma, scope):
    model = small_model(0.1)
    design_ = design(model, "z", "A")
    result = noise_monte_carlo(
        model, design_, NoiseSpec(channel, sigma, scope=scope), n_runs=6, seed=13
    )
    summary = result.tables["summary"].rows[0]
    assert summary[4] < 0.10
    assert result.descriptor["notes"]["max_norm_error"] < 1e-10
    # distinct runs actually see distinct draws
    minima = {row[4] for row in result.tables["runs"].rows}
    assert len(minima) > 1


def test_per_run_clamping_counts_every_cycle():
    # a per-run separation factor below zero clamps every free segment of
    # every cycle, since each cycle of such a run is the same
    model = small_model(0.1)
    design_ = design(model, "z", "A")
    result = noise_monte_carlo(
        model, design_, NoiseSpec("pulse_separation", 3.0, "per_run"), n_runs=8, seed=2
    )
    params = result.descriptor["parameters"]
    sch = schedule(design_, model, params["total_time"])
    free_per_cycle = sum(isinstance(seg, FreeSegment) for seg in sch.segments)
    counts = [row[7] for row in result.tables["runs"].rows]
    assert set(counts) == {0, free_per_cycle * params["cycles"]}
    assert result.tables["summary"].rows[0][5] == sum(counts)


def test_noisy_trajectories_stay_unit_norm():
    model = small_model(0.1)
    design_ = design(model, "z", "A")
    result = noise_monte_carlo(
        model, design_, NoiseSpec("pulse_phase", 1e-2), n_runs=5, seed=3
    )
    assert result.descriptor["notes"]["max_norm_error"] < 1e-10


def test_noise_on_y_axis_schedule():
    model = small_model(0.1)
    design_ = design(model, "y", "A")
    result = noise_monte_carlo(
        model, design_, NoiseSpec("pulse_phase", 1e-3), n_runs=6, seed=21
    )
    assert result.tables["summary"].rows[0][4] < 0.10
    assert result.descriptor["notes"]["max_norm_error"] < 1e-10


def test_noise_on_degenerate_no_pulse_schedule():
    model = small_model(0.5)
    design_ = design(model, "z", "A")
    assert design_.no_pulse
    result = noise_monte_carlo(
        model, design_, NoiseSpec("pulse_separation", 0.10), n_runs=6, seed=8
    )
    assert result.tables["summary"].rows[0][4] < 0.10


def test_noise_channel_validation():
    with pytest.raises(ConfigError):
        NoiseSpec("laser_power", 0.1)
    with pytest.raises(ConfigError):
        NoiseSpec("atom_number", 0.1, scope="per_pulse")
    with pytest.raises(ConfigError):
        NoiseSpec("chi", -0.1)
    with pytest.raises(ConfigError, match="relative_sigma"):
        NoiseSpec("pulse_area", math.inf)
    assert NoiseSpec("chi", 0.01).resolved_scope == "per_run"
    assert NoiseSpec("chi", 0.01, scope="per_segment").resolved_scope == "per_segment"


@pytest.mark.parametrize(
    "channel,sigma",
    [
        ("pulse_area", 2e-4),
        ("pulse_phase", 1e-3),
        ("gamma", 1e-4),
        ("chi", 0.01),
    ],
)
def test_noise_channels_stay_near_optimum(channel, sigma):
    model = small_model(0.1)
    design_ = design(model, "z", "A")
    result = noise_monte_carlo(
        model, design_, NoiseSpec(channel, sigma), n_runs=10, seed=7
    )
    summary = result.tables["summary"].rows[0]
    assert summary[4] < 0.10  # relative dB deviation


def test_write_result_creates_only_expected_files(tmp_path):
    model = small_model(0.1)
    result = sweep_gamma(N_SMALL, [0.0, 0.5], horizon=8.0, grid_points=400)
    out = tmp_path / "run"
    files = write_result(result, out)
    assert sorted(os.listdir(out)) == ["descriptor.json", "gamma_sweep.csv"]
    with open(out / "gamma_sweep.csv") as fh:
        header = fh.readline().strip()
    assert header == "gamma,xi2_min,t_min,chiN_t_min"
    assert sorted(os.listdir(tmp_path)) == ["run"]


def test_default_horizon_covers_measured_minima():
    # slowest case (gamma = 0) measured at tau ~ 1.5 (N/2)^(1/3)
    for n in (50, 100, 200, 400, 1000):
        assert default_horizon(n) > 1.6 * (n / 2.0) ** (1.0 / 3.0)
