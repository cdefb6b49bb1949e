import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmgsqueeze import propagate
from lmgsqueeze.algebra import build_space, collective_operator, quadratic_form
from lmgsqueeze.canonical import CouplingMatrix, canonicalize, frame_unitary, from_chi_gamma, realize_hamiltonian
from lmgsqueeze.errors import NotHermitian, TooLarge
from lmgsqueeze.metrics import squeezing_parameter
from lmgsqueeze.experiments import NoiseSpec, noise_monte_carlo
from lmgsqueeze.propagate import (
    Eigenbasis,
    FreeSegment,
    PulseSchedule,
    PulseSegment,
    evolve,
    evolve_batch,
    evolve_full_product_space,
    run_schedule,
    schedule_unitary,
)
from lmgsqueeze.pulses import design, effective_hamiltonian, schedule
from lmgsqueeze.states import BlochAngles, SpinState, coherent_state


def test_zero_hamiltonian_and_zero_time():
    space = build_space(6)
    state = coherent_state(space, BlochAngles(1.0, 2.0))
    unchanged = evolve(state, np.zeros((space.dim, space.dim)), 1.7)
    assert np.max(np.abs(unchanged.amplitudes - state.amplitudes)) < 1e-12
    same = evolve(state, collective_operator(space, "Sz"), 0.0)
    assert np.max(np.abs(same.amplitudes - state.amplitudes)) < 1e-12


def test_sz_period_integer_j():
    space = build_space(6)  # j = 3, integer
    state = coherent_state(space, BlochAngles(0.7, 0.4))
    evolved = evolve(state, collective_operator(space, "Sz"), 2 * math.pi)
    assert abs(abs(np.vdot(state.amplitudes, evolved.amplitudes)) - 1.0) < 1e-10


def test_not_hermitian_rejected():
    space = build_space(4)
    state = coherent_state(space, BlochAngles(0.7, 0.4))
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        evolve(state, mat, 0.1)


def test_evolution_composes():
    space = build_space(10)
    ham = realize_hamiltonian(from_chi_gamma(1.0, 0.3, 10), space)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    one_shot = evolve(state, ham, 0.37)
    two_step = evolve(evolve(state, ham, 0.17), ham, 0.2)
    assert np.max(np.abs(one_shot.amplitudes - two_step.amplitudes)) < 1e-10


def test_batch_matches_single():
    space = build_space(8)
    ham = realize_hamiltonian(from_chi_gamma(1.0, 0.2, 8), space)
    state = coherent_state(space, BlochAngles(math.pi / 2, 0.0))
    times = np.array([0.0, 0.05, 0.11])
    batch = evolve_batch(state, ham, times)
    for i, t in enumerate(times):
        single = evolve(state, ham, float(t))
        assert np.max(np.abs(batch[:, i] - single.amplitudes)) < 1e-12


def test_norm_drift_over_many_segments():
    # 2500 cycles x 4 segments = 1e4 segments applied one by one
    from lmgsqueeze.propagate import hamiltonian_eig
    from lmgsqueeze.states import rotate_state

    space = build_space(20)
    model = from_chi_gamma(1.0, 0.1, 20)
    sched = schedule(design(model, "z", "A"), model, total_time=0.5, cycles=2500)
    ham = realize_hamiltonian(model, space)
    w, v = hamiltonian_eig(ham)
    state = coherent_state(space, BlochAngles(math.pi / 2, 0.0))
    for _ in range(sched.cycle_count):
        state = rotate_state(state, "z", math.pi / 2)
        state = SpinState(
            v @ (np.exp(-1j * w * sched.t2) * (v.conj().T @ state.amplitudes)), space
        )
        state = rotate_state(state, "z", -math.pi / 2)
        state = SpinState(
            v @ (np.exp(-1j * w * sched.t1) * (v.conj().T @ state.amplitudes)), space
        )
    assert abs(state.norm() - 1.0) < 1e-10


def test_zero_cycles_leaves_state():
    space = build_space(6)
    model = from_chi_gamma(1.0, 0.1, 6)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    sched = PulseSchedule(segments=(FreeSegment(duration=0.1),), cycle_count=0, t1=0.1, t2=0.0)
    trace = run_schedule(state, sched, model)
    assert len(trace.samples) == 1
    assert trace.samples[0].xi2 == pytest.approx(squeezing_parameter(state).xi2, abs=1e-12)


def test_one_cycle_matches_closed_form():
    # U_cycle == exp(-i Ha chi t1) exp(-i Hb chi t2) with Hb the pulse-conjugated form
    space = build_space(6)
    model = from_chi_gamma(1.0, 0.1, 6)
    for axis, conj_coeffs in (("z", (0.1, 1.0, 0.0)), ("y", (0.0, 0.1, 1.0))):
        sched = schedule(design(model, axis, "A"), model, total_time=0.01, cycles=1)
        got = schedule_unitary(sched, model, space)
        w_a, v_a = np.linalg.eigh(quadratic_form(space, 1.0, 0.1, 0.0).matrix)
        w_b, v_b = np.linalg.eigh(quadratic_form(space, *conj_coeffs).matrix)
        expected = (
            (v_a * np.exp(-1j * w_a * sched.t1)) @ v_a.conj().T
            @ (v_b * np.exp(-1j * w_b * sched.t2)) @ v_b.conj().T
        )
        assert np.max(np.abs(got - expected)) < 1e-12


def test_bch_error_second_order():
    # one-cycle propagator vs effective generator: error ratio ~ 4 per halving
    space = build_space(20)
    model = from_chi_gamma(1.0, 0.1, 20)
    design_ = design(model, "z", "A")
    h_eff = effective_hamiltonian(design_, model, space).matrix
    w, v = np.linalg.eigh(h_eff)
    errors = []
    t_c = 0.1 / (model.chi * model.n_spins)
    for _ in range(4):
        sched = schedule(design_, model, total_time=t_c, cycles=1)
        u_cycle = schedule_unitary(sched, model, space)
        u_eff = (v * np.exp(-1j * w * t_c)) @ v.conj().T
        errors.append(np.linalg.norm(u_cycle - u_eff, 2))
        t_c /= 2.0
    for a, b in zip(errors, errors[1:]):
        assert a / b == pytest.approx(4.0, rel=0.2)


def test_full_space_projection_at_t0():
    angles = BlochAngles(1.1, 0.7)
    coupling = CouplingMatrix(chi=np.diag([1.0, 0.3, 0.0]))
    projected = evolve_full_product_space(5, coupling, angles, 0.0)
    reference = coherent_state(build_space(5), angles)
    assert abs(abs(np.vdot(reference.amplitudes, projected.amplitudes)) - 1.0) < 1e-10


def dicke_side_evolution(coupling, n, angles, t):
    model = canonicalize(coupling, n)
    space = build_space(n)
    u_frame = frame_unitary(model, space)
    psi = coherent_state(space, angles)
    canonical = SpinState(u_frame @ psi.amplitudes, space)
    ham = realize_hamiltonian(model, space)
    evolved = evolve(canonical, model.sign * ham.matrix, t)
    lab = u_frame.conj().T @ evolved.amplitudes
    return lab * np.exp(-1j * model.dropped_constant * t), model


@pytest.mark.parametrize(
    "diag,n", [((1.0, 0.0, 0.0), 4), ((1.0, 0.4, 0.0), 6)]
)
def test_full_space_oracle_diagonal(diag, n):
    coupling = CouplingMatrix(chi=np.diag(diag))
    angles = BlochAngles(math.pi / 2, math.pi / 2)
    model = canonicalize(coupling, n)
    t = 1.0 / (model.chi * n)
    full = evolve_full_product_space(n, coupling, angles, t)
    assert abs(np.linalg.norm(full.amplitudes) - 1.0) < 1e-9
    lab, _ = dicke_side_evolution(coupling, n, angles, t)
    assert abs(np.vdot(lab, full.amplitudes)) >= 1.0 - 1e-8


def test_full_space_oracle_quarter_anisotropy():
    # canonical chi = 1, gamma = 0.25 at N = 6, t = 0.1
    coupling = CouplingMatrix(chi=np.diag([0.5, 0.125, 0.0]))
    model = canonicalize(coupling, 6)
    assert model.chi == pytest.approx(1.0, abs=1e-12)
    assert model.gamma == pytest.approx(0.25, abs=1e-12)
    angles = BlochAngles(math.pi / 2, math.pi / 2)
    full = evolve_full_product_space(6, coupling, angles, 0.1)
    lab, _ = dicke_side_evolution(coupling, 6, angles, 0.1)
    assert abs(np.vdot(lab, full.amplitudes)) >= 1.0 - 1e-8


def test_full_space_oracle_off_diagonal():
    mat = np.array([[0.8, 0.2, -0.1], [0.2, 0.1, 0.05], [-0.1, 0.05, -0.3]])
    coupling = CouplingMatrix(chi=mat)
    angles = BlochAngles(0.9, 4.0)
    n = 6
    model = canonicalize(coupling, n)
    t = 1.5 / (model.chi * n)
    full = evolve_full_product_space(n, coupling, angles, t)
    assert abs(np.linalg.norm(full.amplitudes) - 1.0) < 1e-9
    lab, _ = dicke_side_evolution(coupling, n, angles, t)
    assert abs(np.vdot(lab, full.amplitudes)) >= 1.0 - 1e-8


def test_full_space_size_cap():
    with pytest.raises(TooLarge):
        evolve_full_product_space(
            13, CouplingMatrix(chi=np.diag([1.0, 0.0, 0.0])), BlochAngles(0.5, 0.5), 0.1
        )


def test_segment_duration_validation():
    with pytest.raises(ValueError):
        FreeSegment(duration=-0.1)
    PulseSegment(axis="z", angle=-math.pi / 2)  # any finite angle is fine


def test_eig_cache_safe_under_concurrent_use():
    from concurrent.futures import ThreadPoolExecutor

    space = build_space(12)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    hams = [
        realize_hamiltonian(from_chi_gamma(1.0, g, 12), space)
        for g in (0.0, 0.1, 0.2, 0.3)
    ]
    expected = [evolve(state, h, 0.05).amplitudes for h in hams]

    def task(k):
        return evolve(state, hams[k % 4], 0.05).amplitudes

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(task, range(64)))
    for k, amps in enumerate(results):
        assert np.max(np.abs(amps - expected[k % 4])) < 1e-14


def test_prebuilt_eigenbasis_matches_hamiltonian_argument():
    from lmgsqueeze.propagate import Eigenbasis

    space = build_space(10)
    model = from_chi_gamma(1.0, 0.2, 10)
    ham = realize_hamiltonian(model, space)
    basis = Eigenbasis.of(ham)
    assert Eigenbasis.of(basis) is basis
    assert np.array_equal(basis.vh, basis.v.conj().T)
    state = coherent_state(space, BlochAngles(math.pi / 2, 0.3))
    assert np.array_equal(
        evolve(state, basis, 0.13).amplitudes, evolve(state, ham, 0.13).amplitudes
    )
    times = np.linspace(0.0, 0.2, 7)
    assert np.array_equal(evolve_batch(state, basis, times), evolve_batch(state, ham, times))

    sched = schedule(design(model, "y", "A"), model, total_time=0.05, cycles=6)
    explicit = PulseSchedule(
        segments=tuple(
            FreeSegment(seg.duration, ham) if isinstance(seg, FreeSegment) else seg
            for seg in sched.segments
        ),
        cycle_count=sched.cycle_count,
        t1=sched.t1,
        t2=sched.t2,
    )
    reference = run_schedule(state, sched, model)
    for trace in (
        run_schedule(state, sched, model, model_basis=basis),
        run_schedule(state, explicit, model),
    ):
        for field in ("t", "xi2", "contrast", "mean_spin", "min_variance_axis"):
            assert np.array_equal(getattr(trace, field), getattr(reference, field))
        assert trace.minimum == reference.minimum


def test_not_hermitian_rejected_on_every_basis_build():
    from lmgsqueeze.propagate import Eigenbasis

    mat = np.zeros((5, 5), dtype=complex)
    mat[0, 1] = 1.0
    for _ in range(2):
        with pytest.raises(NotHermitian):
            Eigenbasis.of(mat)


def test_run_schedule_rejects_model_of_another_size():
    from lmgsqueeze.errors import DimensionMismatch
    from lmgsqueeze.propagate import Eigenbasis

    model = from_chi_gamma(1.0, 0.1, 6)
    sched = schedule(design(model, "z", "A"), model, total_time=0.05, cycles=2)
    space = build_space(8)
    state = coherent_state(space, BlochAngles(math.pi / 2, 0.0))
    basis = Eigenbasis.of(realize_hamiltonian(from_chi_gamma(1.0, 0.1, 8), space))
    for kwargs in ({}, {"model_basis": basis}):
        with pytest.raises(DimensionMismatch):
            run_schedule(state, sched, model, **kwargs)


# Coefficients are either zero or not tiny, so no entry of H is subnormal.
COEFFICIENT = st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


@settings(max_examples=200)
@given(a=COEFFICIENT, b=COEFFICIENT, c=COEFFICIENT, n=st.integers(1, 40), tau=st.floats(0.0, 10.0))
@example(a=1.0, b=0.1, c=0.0, n=40, tau=3.0)
@example(a=1.0, b=0.1, c=0.0, n=39, tau=3.0)
def test_quadratic_form_basis_matches_dense(a, b, c, n, tau):
    space = build_space(n)
    ham = quadratic_form(space, a, b, c).matrix
    norm = np.linalg.norm(ham, 2)
    parity = Eigenbasis.of_quadratic_form(ham)
    dense = Eigenbasis.of(ham)
    assert np.max(np.abs(parity.w - dense.w)) <= 1e-12 * norm
    assert np.max(np.abs((parity.v * parity.w) @ parity.vh - ham)) <= 1e-12 * norm
    assert np.max(np.abs(parity.vh @ parity.v - np.eye(space.dim))) <= 1e-12
    rng = np.random.default_rng(n)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    amps /= np.linalg.norm(amps)
    t = tau / norm if norm > 0.0 else tau
    assert np.max(np.abs(parity.propagate(amps, t) - dense.propagate(amps, t))) <= 1e-12


@pytest.mark.parametrize("n", [1, 40, 1000])
def test_quadratic_form_basis_casimir_oracle(n):
    # a (Sx^2 + Sy^2) = a (S^2 - Sz^2): diagonal, so both parity blocks are
    # uncoupled, with spectrum a (j(j+1) - m^2) and Dicke eigenvectors
    a = 0.7
    space = build_space(n)
    j, m = space.j, space.m_values()
    ham = quadratic_form(space, a, a, 0.0).matrix
    energies = a * (j * (j + 1) - m**2)
    basis = Eigenbasis.of_quadratic_form(ham)
    scale = np.max(np.abs(energies))
    assert np.max(np.abs(basis.w - np.sort(energies))) <= 1e-12 * scale
    t = 0.9 / scale
    for index in (0, space.dim // 2, space.dim - 1):
        dicke = np.zeros(space.dim, dtype=complex)
        dicke[index] = 1.0
        expected = np.exp(-1j * energies[index] * t) * dicke
        assert np.max(np.abs(basis.propagate(dicke, t) - expected)) <= 1e-12


def test_quadratic_form_basis_rejects_other_matrices():
    space = build_space(6)
    sx = collective_operator(space, "Sx").matrix
    sy = collective_operator(space, "Sy").matrix
    asymmetric = quadratic_form(space, 1.0, 0.2, 0.0).matrix.copy()
    asymmetric[0, 2] += 0.1
    for bad in (sx, sx @ sy + sy @ sx, asymmetric, np.ones((3, 4))):
        with pytest.raises(ValueError):
            Eigenbasis.of_quadratic_form(bad)


def test_per_segment_gamma_noise_skips_dense_eigensolver(monkeypatch):
    calls = []
    dense = propagate.hamiltonian_eig

    def counting(hamiltonian):
        calls.append(1)
        return dense(hamiltonian)

    monkeypatch.setattr(propagate, "hamiltonian_eig", counting)
    model = from_chi_gamma(1.0, 0.1, 12)
    result = noise_monte_carlo(
        model,
        design(model, "z", "A"),
        NoiseSpec("gamma", 0.1, "per_segment"),
        n_runs=2,
        seed=0,
        total_time=0.4,
        cycles=8,
    )
    assert len(calls) <= 1
    assert np.all(np.isfinite([row[4] for row in result.tables["runs"].rows]))
