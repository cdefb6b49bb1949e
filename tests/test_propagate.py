import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from lmgsqueeze import algebra, propagate
from lmgsqueeze.algebra import build_space, collective_operator, quadratic_form
from lmgsqueeze.canonical import (
    CouplingMatrix,
    LMGModel,
    canonicalize,
    frame_unitary,
    from_chi_gamma,
    model_eigenbasis,
    realize_hamiltonian,
)
from lmgsqueeze.errors import NotHermitian, TooLarge
from lmgsqueeze.metrics import squeezing_parameter, trace_from_states
from lmgsqueeze.experiments import NoiseSpec, noise_monte_carlo, predicted_optimal_time
from lmgsqueeze.propagate import (
    Eigenbasis,
    FreeSegment,
    PulseSchedule,
    PulseSegment,
    evolve,
    evolve_batch,
    evolve_full_product_space,
    run_cycles,
    run_schedule,
    schedule_unitary,
    toggled_cycle,
)
from lmgsqueeze.pulses import design, effective_hamiltonian, schedule
from lmgsqueeze.states import (
    BlochAngles,
    SpinState,
    coherent_state,
    rotate_state,
)


def test_zero_hamiltonian_and_zero_time():
    space = build_space(6)
    state = coherent_state(space, BlochAngles(1.0, 2.0))
    unchanged = evolve(state, Eigenbasis.of(np.zeros((space.dim, space.dim))), 1.7)
    assert np.max(np.abs(unchanged.amplitudes - state.amplitudes)) < 1e-12
    same = evolve(state, Eigenbasis.of(collective_operator(space, "Sz")), 0.0)
    assert np.max(np.abs(same.amplitudes - state.amplitudes)) < 1e-12


def test_sz_period_integer_j():
    space = build_space(6)  # j = 3, integer
    state = coherent_state(space, BlochAngles(0.7, 0.4))
    evolved = evolve(state, Eigenbasis.of(collective_operator(space, "Sz")), 2 * math.pi)
    assert abs(abs(np.vdot(state.amplitudes, evolved.amplitudes)) - 1.0) < 1e-10


def test_not_hermitian_rejected():
    space = build_space(4)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        Eigenbasis.of(mat)


def test_evolution_composes():
    space = build_space(10)
    ham = Eigenbasis.of(realize_hamiltonian(from_chi_gamma(1.0, 0.3, 10), space))
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    one_shot = evolve(state, ham, 0.37)
    two_step = evolve(evolve(state, ham, 0.17), ham, 0.2)
    assert np.max(np.abs(one_shot.amplitudes - two_step.amplitudes)) < 1e-10


def test_batch_matches_single():
    space = build_space(8)
    ham = Eigenbasis.of(realize_hamiltonian(from_chi_gamma(1.0, 0.2, 8), space))
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
        w_a, v_a = np.linalg.eigh(quadratic_form(space, 1.0, 0.1, 0.0))
        w_b, v_b = np.linalg.eigh(quadratic_form(space, *conj_coeffs))
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
    h_eff = effective_hamiltonian(design_, model, space)
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
    evolved = evolve(canonical, Eigenbasis.of(model.sign * ham), t)
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
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            FreeSegment(duration=bad)
    model = from_chi_gamma(1.0, 0.1, 6)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            schedule(design(model, "z", "A"), model, bad, cycles=3)
    PulseSegment(axis="z", angle=-math.pi / 2)  # any finite angle is fine
    # a block of states takes one duration per column
    FreeSegment(duration=np.array([0.1, 0.0]))
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            FreeSegment(duration=np.array([0.1, bad]))


def test_eig_cache_safe_under_concurrent_use():
    from concurrent.futures import ThreadPoolExecutor

    space = build_space(12)
    state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    hams = [
        Eigenbasis.of(realize_hamiltonian(from_chi_gamma(1.0, g, 12), space))
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
    refactored = Eigenbasis.of(ham)
    (block,) = basis.blocks
    state = coherent_state(space, BlochAngles(math.pi / 2, 0.3))
    # the one stored matrix v is applied as v^H on the way in
    inline = block.v @ (np.exp(-1j * basis.w * 0.13) * (block.v.conj().T @ state.amplitudes))
    assert np.array_equal(evolve(state, basis, 0.13).amplitudes, inline)
    assert np.array_equal(
        evolve(state, basis, 0.13).amplitudes, evolve(state, refactored, 0.13).amplitudes
    )
    times = np.linspace(0.0, 0.2, 7)
    assert np.array_equal(
        evolve_batch(state, basis, times), evolve_batch(state, refactored, times)
    )
    assert np.array_equal(
        evolve_batch(state, basis, times, basis.phases(times)),
        evolve_batch(state, refactored, times),
    )
    with pytest.raises(ValueError, match="phase table"):
        evolve_batch(state, basis, times[1:], basis.phases(times))

    # run_schedule factors the model's Hamiltonian as its parity blocks
    basis = model_eigenbasis(model, space)
    sched = schedule(design(model, "y", "A"), model, total_time=0.05, cycles=6)
    explicit = PulseSchedule(
        segments=tuple(
            FreeSegment(seg.duration, basis) if isinstance(seg, FreeSegment) else seg
            for seg in sched.segments
        ),
        cycle_count=sched.cycle_count,
        t1=sched.t1,
        t2=sched.t2,
    )
    reference = run_schedule(state, sched, model)
    fields = ("t", "xi2", "contrast", "mean_spin", "min_variance_axis")
    trace = run_schedule(state, sched, model, model_basis=basis)
    for field in fields:
        assert np.array_equal(getattr(trace, field), getattr(reference, field))
    assert trace.minimum == reference.minimum
    # free segments that carry their own basis are not the model's, so their
    # pulses are stepped, which rounds differently from the toggling frame
    trace = run_schedule(state, explicit, model)
    for field in fields:
        assert np.max(np.abs(getattr(trace, field) - getattr(reference, field))) <= 1e-12
    assert abs(trace.minimum.xi2 - reference.minimum.xi2) <= 1e-12
    # a segment takes its Hamiltonian factored, never as a matrix
    with pytest.raises(TypeError, match="Eigenbasis"):
        FreeSegment(0.1, ham)


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
    # the parity basis keeps only its two real blocks, the even and the odd
    # rows, and every way of applying it agrees with the dense basis
    space = build_space(n)
    ham = quadratic_form(space, a, b, c)
    norm = np.linalg.norm(ham, 2)
    parity = Eigenbasis.of_quadratic_form(ham)
    dense = Eigenbasis.of(ham)
    sizes = [block.v.shape for block in parity.blocks]
    assert sizes == [((n + 2) // 2,) * 2, ((n + 1) // 2,) * 2]
    assert not any(np.iscomplexobj(block.v) for block in parity.blocks)
    assert np.max(np.abs(np.sort(parity.w) - dense.w)) <= 1e-12 * norm
    for block in parity.blocks:
        w, rows = parity.w[block.cols], block.rows
        vh = block.v.conj().T
        assert np.max(np.abs((block.v * w) @ vh - ham[rows, rows])) <= 1e-12 * norm
        assert np.max(np.abs(vh @ block.v - np.eye(w.size))) <= 1e-12
    rng = np.random.default_rng(n)
    amps = rng.normal(size=(space.dim, 4)) + 1j * rng.normal(size=(space.dim, 4))
    amps /= np.linalg.norm(amps, axis=0)
    t = tau / norm if norm > 0.0 else tau
    per_column = t * np.array([0.0, 0.5, 1.0, 1.7])
    for x, time in ((amps[:, 0], t), (amps, t), (amps, per_column)):
        assert np.max(np.abs(parity.propagate(x, time) - dense.propagate(x, time))) <= 1e-12
    # one phase table serves every state sampled on its time grid
    times = np.linspace(0.0, t, 6)
    phases = parity.phases(times)
    for x in amps.T:
        state = SpinState(x, space)
        sampled = evolve_batch(state, parity, times, phases)
        assert np.max(np.abs(sampled - evolve_batch(state, dense, times))) <= 1e-12
    eye = np.eye(space.dim, dtype=complex)
    assert np.max(np.abs(parity.propagate(eye, t) - dense.propagate(eye, t))) <= 1e-12


@settings(max_examples=100)
@given(a=COEFFICIENT, b=COEFFICIENT, c=COEFFICIENT, n=st.integers(1, 40), size=st.floats(0.0, 50.0))
@example(a=1.0, b=0.1, c=0.0, n=40, size=50.0)
@example(a=-2.0, b=0.5, c=1.5, n=1, size=50.0)
def test_banded_form_matches_the_parity_basis(a, b, c, n, size):
    # a form applied once is stepped through its bands by a truncated Taylor
    # series (several substeps once ||H t|| > 4): it agrees with the
    # eigenbasis of the same form, keeps the norm, and steps each column of
    # a block with its own coefficients and duration as if it were alone
    space = build_space(n)
    ham = quadratic_form(space, a, b, c)
    norm = np.linalg.norm(ham, 2)
    t = size / norm if norm > 0.0 else size
    banded = algebra.BandedForm(space, a, b, c)
    basis = Eigenbasis.of_quadratic_form(ham)
    rng = np.random.default_rng(n)
    amps = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    amps /= np.linalg.norm(amps, axis=0)
    for x in (amps[:, 0], amps):
        got = banded.propagate(x, t)
        assert np.max(np.abs(got - basis.propagate(x, t))) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(got, axis=0) - 1.0)) <= 1e-13
    forms = [(a, b, c), (b, c, a), (-c, a, b)]
    durations = t * np.array([1.0, 0.3, 0.0])
    block = algebra.BandedForm(space, *zip(*forms)).propagate(amps, durations)
    for r, (form, duration) in enumerate(zip(forms, durations)):
        alone = algebra.BandedForm(space, *form).propagate(amps[:, r], duration)
        assert np.max(np.abs(block[:, r] - alone)) <= 1e-12


@pytest.mark.parametrize("n", [1, 40, 1000])
def test_quadratic_form_basis_casimir_oracle(n):
    # a (Sx^2 + Sy^2) = a (S^2 - Sz^2): diagonal, so both parity blocks are
    # uncoupled, with spectrum a (j(j+1) - m^2) and Dicke eigenvectors
    a = 0.7
    space = build_space(n)
    j, m = space.j, space.m_values()
    ham = quadratic_form(space, a, a, 0.0)
    energies = a * (j * (j + 1) - m**2)
    basis = Eigenbasis.of_quadratic_form(ham)
    scale = np.max(np.abs(energies))
    assert np.max(np.abs(np.sort(basis.w) - np.sort(energies))) <= 1e-12 * scale
    t = 0.9 / scale
    for index in (0, space.dim // 2, space.dim - 1):
        dicke = np.zeros(space.dim, dtype=complex)
        dicke[index] = 1.0
        expected = np.exp(-1j * energies[index] * t) * dicke
        assert np.max(np.abs(basis.propagate(dicke, t) - expected)) <= 1e-12


def test_quadratic_form_basis_rejects_other_matrices():
    space = build_space(6)
    sx = collective_operator(space, "Sx")
    sy = collective_operator(space, "Sy")
    asymmetric = quadratic_form(space, 1.0, 0.2, 0.0).copy()
    asymmetric[0, 2] += 0.1
    for bad in (sx, sx @ sy + sy @ sx, asymmetric, np.ones((3, 4))):
        with pytest.raises(ValueError):
            Eigenbasis.of_quadratic_form(bad)


def test_per_segment_gamma_noise_skips_dense_eigensolver(monkeypatch):
    # every dense eigensolve goes through hamiltonian_eig: the pulse axes
    # and coherent-state generators (nonzero first off-diagonal) do, and of
    # the quadratic forms only the effective Hamiltonian that sizes the
    # schedule
    calls = []
    dense = propagate.hamiltonian_eig

    def counting(hamiltonian):
        if not np.any(np.diagonal(hamiltonian, 1)):
            calls.append(1)
        return dense(hamiltonian)

    monkeypatch.setattr(algebra, "hamiltonian_eig", counting)
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


def _inline_rotation(space, axis, angle):
    """exp(-i angle S_axis) as the dense formula written out before
    Eigenbasis applied it."""
    if axis == "z":
        return np.diag(np.exp(-1j * angle * space.m_values()))
    w, v = np.linalg.eigh(collective_operator(space, "S" + axis))
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


@pytest.mark.parametrize("n", [1, 20, 101])
def test_eigenbasis_kernel_keeps_the_inline_bytes(n):
    # The seed-0 references depend on the rounding of the coherent states,
    # so each must equal, bit for bit, the formula it replaced: at azimuth 0
    # (the states that size schedules) the generator exponential, and at any
    # other azimuth the z phase exp(-i phi m) on that state.  The pulsed
    # reference applies only z pulses (its x and y pulse pairs run in the
    # toggling frame); x and y pulses reach the outputs only as drawn noise
    # pulses, such as the tilts of a z pulse, and test_states checks them
    # against expm.
    space = build_space(n)
    sx, sy = collective_operator(space, "Sx"), collective_operator(space, "Sy")
    w, v = np.linalg.eigh(math.sin(0.0) * sx - math.cos(0.0) * sy)
    for theta in (0.0, math.pi / 2, 17 * math.pi / 32, math.pi):
        inline = v @ (np.exp(1j * theta * w) * np.conj(v[0, :]))
        inline = inline / np.linalg.norm(inline)
        for phi in (0.0, 1.5232, 4.76):
            coherent = coherent_state(space, BlochAngles(theta, phi)).amplitudes
            expected = inline if phi == 0.0 else np.exp(-1j * phi * space.m_values()) * inline
            assert np.array_equal(coherent, expected)

    # The model's Hamiltonian is factored as its two real parity blocks,
    # which round differently from the dense formula but agree with it.
    model = from_chi_gamma(1.0, 0.1, n)
    w, v = np.linalg.eigh(realize_hamiltonian(model, space))
    for axis in ("z", "y"):
        sched = schedule(design(model, axis, "A"), model, total_time=0.05, cycles=3)
        inline = np.eye(space.dim, dtype=complex)
        for seg in sched.segments:
            if isinstance(seg, FreeSegment):
                step = (v * np.exp(-1j * w * seg.duration)) @ v.conj().T
            else:
                step = _inline_rotation(space, seg.axis, seg.angle)
            inline = step @ inline
        assert np.max(np.abs(schedule_unitary(sched, model, space) - inline)) <= 1e-12


def inline_sample(basis, amplitudes, phases):
    """The kernel's product with v^H held as a matrix: the conjugated copy
    of a complex v, the transpose of a real one."""
    out = np.empty(amplitudes.shape[:1] + phases.shape[1:], dtype=complex)
    for block in basis.blocks:
        vh = block.v.conj().T if np.iscomplexobj(block.v) else block.v.T
        coeffs = algebra._matmul(vh, amplitudes[block.rows])
        if coeffs.ndim < phases.ndim:
            coeffs = coeffs[:, None]
        out[block.rows] = algebra._matmul(block.v, phases[block.cols] * coeffs)
    return out


@pytest.mark.parametrize("dim", [21, 102, 1001])
def test_sample_applies_the_stored_v_as_its_adjoint_bit_for_bit(dim):
    # a basis keeps v only and applies v^H as conj(v.T @ conj(a)); its bits
    # must be those of the product with v^H, since schedules are sized by a
    # golden-refined minimum to its last bits
    rng = np.random.default_rng(dim)

    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    w = rng.normal(size=dim)
    dense = Eigenbasis(w, (algebra.Block(slice(None), slice(None), complex_normal(dim, dim)),))
    half = (dim + 1) // 2
    parity = Eigenbasis(
        w,
        (
            algebra.Block(slice(0, None, 2), slice(0, half), rng.normal(size=(half, half))),
            algebra.Block(
                slice(1, None, 2), slice(half, None), rng.normal(size=(dim - half,) * 2)
            ),
        ),
    )
    vector, block = complex_normal(dim), complex_normal(dim, 7)
    cases = (
        (vector, complex_normal(dim)),
        (vector, complex_normal(dim, 5)),
        (block, complex_normal(dim, 7)),
    )
    for basis in (dense, parity):
        for amplitudes, phases in cases:
            expected = inline_sample(basis, amplitudes, phases)
            assert np.array_equal(basis.sample(amplitudes, phases), expected)


@pytest.mark.parametrize("n", [20, 101])
def test_predicted_time_basis_is_the_inline_dense_eigh(n):
    # Schedules are sized by the golden-refined first minimum of the
    # effective Hamiltonian, to its last bits, so its basis and the states
    # sampled from it must equal the dense formula bit for bit.
    space = build_space(n)
    model = from_chi_gamma(1.0, 0.1, n)
    for axis in ("z", "y"):
        design_ = design(model, axis, "A")
        w, v = np.linalg.eigh(effective_hamiltonian(design_, model, space))
        psi = coherent_state(space, design_.optimal_initial)
        _, h_eff = predicted_optimal_time(design_, model, space, psi)
        (block,) = h_eff.blocks
        assert np.array_equal(h_eff.w, w) and np.array_equal(block.v, v)
        times = np.linspace(0.0, 5.0 / (abs(design_.chi_eff) * n), 40)
        coeffs = v.conj().T @ psi.amplitudes
        inline = v @ (np.exp(-1j * np.outer(w, times)) * coeffs[:, None])
        assert np.array_equal(evolve_batch(psi, h_eff, times), inline)
        inline = v @ (np.exp(-1j * w * times[7]) * coeffs)
        assert np.array_equal(evolve(psi, h_eff, times[7]).amplitudes, inline)


def block_and_cycle(n, axis):
    """Three coherent states as the columns of a block, and one schedule
    cycle with its free Hamiltonian factored."""
    space = build_space(n)
    model = from_chi_gamma(1.0, 0.1, n)
    sched = schedule(design(model, axis, "A"), model, total_time=0.3, cycles=1)
    basis = Eigenbasis.of(realize_hamiltonian(model, space))
    cycle = tuple(
        FreeSegment(seg.duration, basis) if isinstance(seg, FreeSegment) else seg
        for seg in sched.segments
    )
    angles = (BlochAngles(math.pi / 2, 0.3), BlochAngles(0.4, 2.0), BlochAngles(2.9, 5.1))
    block = np.column_stack([coherent_state(space, a).amplitudes for a in angles])
    return space, block, cycle


@pytest.mark.parametrize("columns", [1, 3])
def test_repeated_cycle_unitary_matches_stepping(monkeypatch, columns):
    space, block, cycle = block_and_cycle(12, "y")
    state = SpinState(block[:, 0] if columns == 1 else block, space)
    pulses = []

    def counting(state, axis, angle):
        pulses.append(axis)
        return rotate_state(state, axis, angle)

    monkeypatch.setattr(propagate, "rotate_state", counting)
    per_cycle = sum(isinstance(seg, PulseSegment) for seg in cycle)
    for count in (space.dim - 2, space.dim - 1, space.dim, space.dim + 9):
        pulses.clear()
        states = run_cycles(state, (cycle,) * count)
        # the unitary is built by stepping one cycle of the identity
        switched = len(pulses) == per_cycle
        assert len(pulses) == (per_cycle if switched else count * per_cycle)
        # an iterator of cycles is always stepped segment by segment
        stepped = run_cycles(state, iter((cycle,) * count))
        assert switched == (count >= space.dim)
        assert states.shape == stepped.shape == state.amplitudes.shape + (count + 1,)
        assert np.max(np.abs(states - stepped)) < 1e-12


@pytest.mark.parametrize("axis", ["z", "y"])
def test_block_columns_match_vectors_stepped_alone(axis):
    # per-column durations and angles, applied to the block at once
    space, block, cycle = block_and_cycle(15, axis)
    scale = np.array([1.0, 0.5, 1.7])

    def per_column(seg, r=None):
        factor = scale if r is None else scale[r]
        if isinstance(seg, FreeSegment):
            return FreeSegment(seg.duration * factor, seg.hamiltonian)
        return PulseSegment(seg.axis, seg.angle * factor)

    cycles = [tuple(per_column(seg) for seg in cycle)] * 4
    states = run_cycles(SpinState(block, space), cycles)
    assert states.shape == (space.dim, 3, 5)
    for r in range(3):
        alone = [tuple(per_column(seg, r) for seg in cycle)] * 4
        s_alone = run_cycles(SpinState(block[:, r], space), alone)
        assert np.max(np.abs(states[:, r] - s_alone)) < 1e-12


def tilted(segments):
    """The segments with each pulse tilted as a pulse-phase noise draw
    realizes it: about an axis tipped by delta at azimuth beta."""
    delta, beta = 0.07, 1.3
    out = []
    for seg in segments:
        if isinstance(seg, FreeSegment):
            out.append(seg)
            continue
        tilt_axis = {"z": "y", "y": "x", "x": "z"}[seg.axis]
        out += [
            PulseSegment(seg.axis, -beta),
            PulseSegment(tilt_axis, -delta),
            seg,
            PulseSegment(tilt_axis, delta),
            PulseSegment(seg.axis, beta),
        ]
    return tuple(out)


@pytest.mark.parametrize("axis,tilt", [("z", False), ("y", False), ("z", True)])
def test_schedule_unitary_is_one_stepped_cycle(axis, tilt):
    n = 14
    space = build_space(n)
    model = from_chi_gamma(1.0, 0.1, n)
    sched = schedule(design(model, axis, "A"), model, total_time=0.2, cycles=2)
    if tilt:
        sched = PulseSchedule(tilted(sched.segments), 1, sched.t1, sched.t2)
    basis = model_eigenbasis(model, space)
    cycle = tuple(
        FreeSegment(seg.duration, basis) if isinstance(seg, FreeSegment) else seg
        for seg in sched.segments
    )
    psi = coherent_state(space, BlochAngles(1.3, 0.6))
    states = run_cycles(psi, (cycle,))
    unitary = schedule_unitary(sched, model, space)
    assert np.max(np.abs(unitary @ psi.amplitudes - states[:, 1])) <= 1e-12


UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    axis=st.tuples(UNIT, UNIT, UNIT).filter(lambda v: np.linalg.norm(v) >= 1e-2),
    angle=st.floats(-math.pi, math.pi),
    a=COEFFICIENT,
    b=COEFFICIENT,
    c=COEFFICIENT,
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 6.28),
    tau=st.floats(0.0, 0.25),
)
def test_global_rotation_leaves_xi2_and_dynamics_unchanged(
    n, axis, angle, a, b, c, theta, phi, tau
):
    # U = exp(-i angle n.S), the frame unitary of the turn by angle about n,
    # rotates the state and H together: a change of frame, so xi^2 of U psi
    # is xi^2 of psi, and U psi evolved under U H U^dag is U applied to psi
    # evolved under H
    space = build_space(n)
    frame = Rotation.from_rotvec(angle * np.array(axis) / np.linalg.norm(axis)).as_matrix()
    u = frame_unitary(LMGModel(1.0, 0.1, frame, False, n, 0.0), space)
    form = quadratic_form(space, a, b, c)
    ham = Eigenbasis.of(form)
    t = tau / n
    psi = evolve(coherent_state(space, BlochAngles(theta, phi)), ham, t)
    rotated = SpinState(u @ psi.amplitudes, space)
    assert abs(squeezing_parameter(rotated).xi2 - squeezing_parameter(psi).xi2) <= 1e-10
    later = evolve(psi, ham, t).amplitudes
    rotated_later = evolve(rotated, Eigenbasis.of(u @ form @ u.conj().T), t).amplitudes
    assert np.max(np.abs(rotated_later - u @ later)) <= 1e-10


def stepped(cycle, basis):
    """The cycle with ``basis`` in each free segment left to the model: its
    pulses are applied as rotations, not moved into the toggling frame."""
    return tuple(
        FreeSegment(seg.duration, seg.hamiltonian or basis) if isinstance(seg, FreeSegment) else seg
        for seg in cycle
    )


def assert_traces_agree(trace, reference, space):
    """xi^2, contrast, mean spin (in units of j) and the minimal-variance
    axis of two traces agree to 1e-12."""
    for field, scale in (("xi2", 1.0), ("contrast", 1.0), ("mean_spin", space.j)):
        assert np.max(np.abs(getattr(trace, field) - getattr(reference, field))) <= 1e-12 * scale
    assert np.max(np.abs(trace.min_variance_axis - reference.min_variance_axis)) <= 1e-12


def running_sum(sched):
    """Elapsed time at each cycle boundary: each free duration added in turn."""
    elapsed, times = 0.0, [0.0]
    for _ in range(sched.cycle_count):
        for seg in sched.segments:
            if isinstance(seg, FreeSegment):
                elapsed = elapsed + seg.duration
        times.append(elapsed)
    return np.array(times)


@pytest.mark.parametrize("axis,gamma", [("z", 0.1), ("y", 0.1), ("z", 0.5)])
def test_schedule_times_are_the_running_sum_of_free_durations(axis, gamma):
    # gamma = 1/2 is the no-pulse schedule, one free segment per cycle
    model = from_chi_gamma(1.0, gamma, 100)
    sched = schedule(design(model, axis, "A"), model, total_time=0.1, max_step=0.05)
    assert sched.cycle_count == 200
    assert sched.times.tobytes() == running_sum(sched).tobytes()
    psi = coherent_state(build_space(100), BlochAngles(1.2, 0.3))
    assert run_schedule(psi, sched, model).t.tobytes() == sched.times.tobytes()


def test_pulse_only_schedule_times_are_zeros():
    sched = PulseSchedule((PulseSegment("z", 0.3), PulseSegment("x", 0.2)), 4, 0.0, 0.0)
    assert sched.times.tobytes() == running_sum(sched).tobytes() == np.zeros(5).tobytes()


@pytest.mark.parametrize("n", [12, 40])
def test_run_schedule_toggles_y_pairs_like_stepped_pulses(n):
    space = build_space(n)
    model = from_chi_gamma(1.0, 0.1, n)
    sched = schedule(design(model, "y", "A"), model, total_time=0.3)
    # the y pair becomes one free segment; the model's free segment is kept
    toggled = toggled_cycle(space, sched.segments, model.coefficients)
    assert [type(seg) for seg in toggled] == [FreeSegment, FreeSegment]
    assert [seg.duration for seg in toggled] == [sched.t2, sched.t1]
    assert toggled[0].hamiltonian is not None and toggled[1].hamiltonian is None
    psi = coherent_state(space, design(model, "y", "A").optimal_initial)
    trace = run_schedule(psi, sched, model)
    cycle = stepped(sched.segments, model_eigenbasis(model, space))
    states = run_cycles(psi, (cycle,) * sched.cycle_count)
    reference = trace_from_states(space, sched.times, states)
    assert_traces_agree(trace, reference, space)


def test_toggled_cycle_keeps_z_pairs_and_other_pulses():
    space = build_space(10)
    model = from_chi_gamma(1.0, 0.2, 10)
    z_cycle = schedule(design(model, "z", "A"), model, total_time=0.1, cycles=2).segments
    assert toggled_cycle(space, z_cycle, model.coefficients) == z_cycle
    basis = model_eigenbasis(model, space)
    kept = (
        (PulseSegment("y", math.pi / 2), FreeSegment(0.1), PulseSegment("y", math.pi / 2)),
        (PulseSegment("x", 0.3), FreeSegment(0.1), PulseSegment("x", -0.3)),
        (PulseSegment("y", math.pi / 2), FreeSegment(0.1, basis), PulseSegment("y", -math.pi / 2)),
        (PulseSegment("y", math.pi / 2), FreeSegment(0.1), PulseSegment("x", -math.pi / 2)),
    )
    for cycle in kept:
        assert toggled_cycle(space, cycle, model.coefficients) == cycle


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_x_pair_cycle_toggles_like_stepped_pulses(sign):
    n = 16
    space = build_space(n)
    model = from_chi_gamma(1.0, 0.3, n)
    segments = (
        PulseSegment("x", sign * math.pi / 2),
        FreeSegment(0.03),
        PulseSegment("x", -sign * math.pi / 2),
        FreeSegment(0.05),
    )
    sched = PulseSchedule(segments, cycle_count=7, t1=0.05, t2=0.03)
    cycle = stepped(segments, model_eigenbasis(model, space))
    psi = coherent_state(space, BlochAngles(1.1, 0.4))
    trace = run_schedule(psi, sched, model)
    states = run_cycles(psi, (cycle,) * sched.cycle_count)
    reference = trace_from_states(space, sched.times, states)
    assert_traces_agree(trace, reference, space)
    unitary = run_cycles(SpinState(np.eye(space.dim, dtype=complex), space), (cycle,))
    assert np.max(np.abs(schedule_unitary(sched, model, space) - unitary[..., 1])) <= 1e-12
