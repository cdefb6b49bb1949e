"""The noise Monte Carlo steps its runs in blocks, one column per run, or
one column for runs that follow one trajectory.  Each run must come out as
if it had been stepped alone, segment by segment, no output may depend on
which runs share a block or on the worker count, and a block recomputes
nothing the nominal run already holds."""

import math
import os

import numpy as np
import pytest

from lmgsqueeze import experiments
from lmgsqueeze.algebra import build_space, second_moment_operators
from lmgsqueeze.canonical import from_chi_gamma, model_eigenbasis
from lmgsqueeze.errors import TooLarge
from lmgsqueeze.experiments import ALLOWED_SCOPES, NoiseSpec, noise_monte_carlo, write_result
from lmgsqueeze.metrics import batch_squeezing
from lmgsqueeze.propagate import (
    Eigenbasis,
    FreeSegment,
    PulseSegment,
    realized_cycle,
    run_cycles,
    run_schedule,
)
from lmgsqueeze.pulses import design, schedule
from lmgsqueeze.states import coherent_state

CHANNEL_SCOPES = [(ch, sc) for ch, scopes in ALLOWED_SCOPES.items() for sc in scopes]
N_BLOCK = 12


def step_alone(model, sch, initial, noise, seed_seq, sigma):
    """One run drawn and stepped on its own, one segment at a time, as the
    Monte Carlo did before runs were blocked: (xi2 trace, (n_spins, gamma,
    chi), clamped segments)."""
    # one stream per channel, spawned in ALLOWED_SCOPES order
    streams = {
        name: np.random.Generator(np.random.PCG64(child))
        for name, child in zip(ALLOWED_SCOPES, seed_seq.spawn(len(ALLOWED_SCOPES)))
    }
    channel, scope = noise.channel, noise.resolved_scope
    gamma, chi, n_spins = model.gamma, model.chi, model.n_spins

    def active(name, scope_name):
        return channel == name and sigma > 0.0 and scope == scope_name

    def draw(name):
        return 1.0 + sigma * streams[name].standard_normal()

    def draw_tilt():
        stream = streams["pulse_phase"]
        delta = sigma * (math.pi / 2.0) * stream.standard_normal()
        return delta, stream.uniform(0.0, 2.0 * math.pi)

    if active("gamma", "per_run"):
        gamma = gamma * draw("gamma")
    if active("chi", "per_run"):
        chi = chi * draw("chi")
    if active("atom_number", "per_run"):
        n_spins = max(1, int(round(n_spins * draw("atom_number"))))
    space = build_space(n_spins)
    moments = second_moment_operators(space)

    def free_basis(g):
        return Eigenbasis.of_quadratic_form(chi * (moments["xx"] + g * moments["yy"]))

    basis = free_basis(gamma)
    area = draw("pulse_area") if active("pulse_area", "per_run") else 1.0
    tilt = draw_tilt() if active("pulse_phase", "per_run") else None
    separation = draw("pulse_separation") if active("pulse_separation", "per_run") else 1.0
    clamped = 0

    def realize(seg):
        nonlocal clamped
        if isinstance(seg, FreeSegment):
            factor = separation
            if active("pulse_separation", "per_segment"):
                factor = draw("pulse_separation")
            if active("chi", "per_segment"):
                factor *= draw("chi")
            duration = seg.duration * factor
            if duration < 0.0:
                clamped += 1
                duration = 0.0
            if active("gamma", "per_segment"):
                return (FreeSegment(duration, free_basis(gamma * draw("gamma"))),)
            return (FreeSegment(duration, basis),)
        factor = draw("pulse_area") if active("pulse_area", "per_pulse") else area
        tilt_now = draw_tilt() if active("pulse_phase", "per_pulse") else tilt
        if tilt_now is None:
            return (PulseSegment(seg.axis, seg.angle * factor),)
        delta, beta = tilt_now
        tilt_axis = {"z": "y", "y": "x", "x": "z"}[seg.axis]
        return (
            PulseSegment(seg.axis, -beta),
            PulseSegment(tilt_axis, -delta),
            PulseSegment(seg.axis, seg.angle * factor),
            PulseSegment(tilt_axis, delta),
            PulseSegment(seg.axis, beta),
        )

    def realize_cycle():
        return tuple(out for seg in sch.segments for out in realize(seg))

    if sigma == 0.0 or scope == "per_run":
        cycle = realize_cycle()
        clamped *= sch.cycle_count
        cycles = (cycle for _ in range(sch.cycle_count))
    else:
        cycles = (realize_cycle() for _ in range(sch.cycle_count))
    # a generator of cycles is always stepped segment by segment
    states = run_cycles(coherent_state(space, initial), cycles)
    xi2, _, _, _ = batch_squeezing(space, states)
    return xi2, (n_spins, gamma, chi), clamped


def block_setup(axis="z"):
    model = from_chi_gamma(1.0, 0.1, N_BLOCK)
    design_ = design(model, axis, "A")
    # 20 cycles: runs whose cycle is the same in every column take the
    # one-cycle unitary at dim 13, larger drawn atom numbers still step
    return model, design_, schedule(design_, model, 0.4, cycles=20)


@pytest.mark.parametrize("sigma", [0.0, 0.1, 3.0])
@pytest.mark.parametrize("channel,scope", CHANNEL_SCOPES)
def test_blocks_match_each_run_stepped_alone(channel, scope, sigma):
    model, design_, sch = block_setup()
    noise = NoiseSpec(channel, sigma, scope)
    n_runs, seed = 5, 11
    space = build_space(N_BLOCK)
    initial = design_.optimal_initial
    psi0 = coherent_state(space, initial)
    # a z design toggles no pulse: every channel's nominal blocks step this cycle
    cycle = realized_cycle(space, sch.segments, model.coefficients, model_eigenbasis(model, space))
    outcomes = experiments._noise_outcomes(
        space, model, sch, initial, noise, n_runs, seed, 1, psi0, cycle
    )
    # the noiseless reference is the schedule run on its own
    noiseless = run_schedule(psi0, sch, model).xi2
    want_ref = step_alone(model, sch, initial, noise, np.random.SeedSequence(0), 0.0)
    np.testing.assert_allclose(noiseless, want_ref[0], rtol=1e-12, atol=0.0)
    wanted = [
        step_alone(model, sch, initial, noise, child, sigma)
        for child in np.random.SeedSequence(seed).spawn(n_runs)
    ]
    for (xi2, realized, clamped, norm_error), want in zip(outcomes, wanted):
        np.testing.assert_allclose(xi2, want[0], rtol=1e-12, atol=0.0)
        assert realized == want[1]
        assert clamped == want[2]
        assert norm_error < 1e-12
    if sigma == 3.0 and channel == "pulse_separation":
        assert sum(outcome[2] for outcome in outcomes) > 0  # clamping is exercised


def test_noiseless_trace_is_bit_identical_across_channels():
    # every channel's noiseless minimum is the schedule's own, run_schedule's
    model, design_, sch = block_setup("y")
    psi = coherent_state(build_space(N_BLOCK), design_.optimal_initial)
    want = float(np.nanmin(run_schedule(psi, sch, model).xi2))
    for channel, scope in CHANNEL_SCOPES:
        noise = NoiseSpec(channel, 0.1, scope)
        result = noise_monte_carlo(
            model, design_, noise, n_runs=2, seed=2, total_time=0.4, cycles=20
        )
        (summary,) = result.tables["summary"].rows
        assert summary[0] == want, (channel, scope)


@pytest.mark.parametrize(
    "channel,scope",
    [
        ("pulse_separation", "per_segment"),
        ("pulse_phase", "per_run"),
        ("atom_number", "per_run"),
        ("gamma", "per_segment"),
    ],
)
def test_worker_count_changes_no_output_byte(tmp_path, monkeypatch, channel, scope):
    model, design_, sch = block_setup()
    # blocks of 4 runs at N = 12, so 10 runs end on a partial block
    monkeypatch.setattr(experiments, "BLOCK_BYTES", 4 * 16 * (N_BLOCK + 1) * (sch.cycle_count + 1))
    noise = NoiseSpec(channel, 0.1, scope)
    for workers in (1, 2, 3):
        result = noise_monte_carlo(
            model, design_, noise, n_runs=10, seed=6, total_time=0.4, cycles=20, workers=workers
        )
        write_result(result, tmp_path / str(workers))
    for table in ("runs", "trace_stats", "summary"):
        files = [(tmp_path / str(w) / f"{table}.csv").read_bytes() for w in (1, 2, 3)]
        assert files[1] == files[0] and files[2] == files[0], table
    assert os.listdir(tmp_path / "1") == os.listdir(tmp_path / "3")


def test_per_segment_gamma_shares_one_block_and_factors_no_segment(monkeypatch):
    # each segment's drawn gamma is a column of one banded form: the runs
    # share a block, and no eigenbasis is factored per segment, so doubling
    # the cycles factors no more of them
    model, design_, _ = block_setup()
    factored, blocks = [], []
    of_quadratic_form = Eigenbasis.of_quadratic_form.__func__

    def counting(cls, matrix):
        factored.append(1)
        return of_quadratic_form(cls, matrix)

    mapped = experiments._map

    def recording(function, tasks, workers):
        blocks.append([len(task[-1]) for task in tasks])
        return mapped(function, tasks, workers)

    monkeypatch.setattr(Eigenbasis, "of_quadratic_form", classmethod(counting))
    monkeypatch.setattr(experiments, "_map", recording)
    counts = []
    for cycles in (20, 40):
        factored.clear()
        noise = NoiseSpec("gamma", 0.1, "per_segment")
        noise_monte_carlo(model, design_, noise, n_runs=3, seed=4, total_time=0.4, cycles=cycles)
        counts.append(len(factored))
    assert counts[0] == counts[1]
    assert blocks == [[3], [3]]


def test_runs_on_one_trajectory_are_scored_once(monkeypatch):
    # atom-number runs that drew one N follow one trajectory: the block steps
    # it as one column and takes its xi2 once, not once per run
    model, design_, _ = block_setup()
    stepped, scored = [], []
    stepping, scoring = experiments.run_cycles, experiments.batch_squeezing

    def counting_steps(state, cycles):
        stepped.append(state.amplitudes.shape)
        return stepping(state, cycles)

    def counting_scores(space, states):
        scored.append(states.shape)
        return scoring(space, states)

    monkeypatch.setattr(experiments, "run_cycles", counting_steps)
    monkeypatch.setattr(experiments, "batch_squeezing", counting_scores)
    noise = NoiseSpec("atom_number", 0.1)
    n_runs = 12
    result = noise_monte_carlo(model, design_, noise, n_runs, seed=5, total_time=0.4, cycles=20)
    n_drawn = {row[1] for row in result.tables["runs"].rows}
    # the noiseless run steps one vector first, then each block a (dim, R) array
    noiseless, *blocks = stepped
    columns = sum(shape[1] for shape in blocks)
    assert len(noiseless) == 1
    assert columns == len(n_drawn) < n_runs
    # each stepped column, and the noiseless run, is scored once
    assert len(scored) == columns + 1


@pytest.mark.parametrize("channel", ["pulse_separation", "pulse_area"])
@pytest.mark.parametrize("axis", ["z", "y"])
def test_blocks_reuse_the_nominal_state_and_basis(monkeypatch, axis, channel):
    # blocks on the nominal (N, gamma, chi) take the coherent state and the
    # realized cycle that the noiseless reference runs on: the state, the
    # free parity basis and, for the y design, the toggled parity basis are
    # each built once per Monte Carlo, however many blocks there are
    model, design_, sch = block_setup(axis)
    monkeypatch.setattr(experiments, "BLOCK_BYTES", 2 * 16 * (N_BLOCK + 1) * (sch.cycle_count + 1))
    states, factored, blocks = [], [], []
    prepare = experiments.coherent_state
    of_quadratic_form = Eigenbasis.of_quadratic_form.__func__
    mapped = experiments._map

    def counting_states(space, angles, *args):
        states.append(angles)
        return prepare(space, angles, *args)

    def counting_bases(cls, matrix):
        factored.append(1)
        return of_quadratic_form(cls, matrix)

    def recording(function, tasks, workers):
        blocks.append(len(tasks))
        return mapped(function, tasks, workers)

    monkeypatch.setattr(experiments, "coherent_state", counting_states)
    monkeypatch.setattr(Eigenbasis, "of_quadratic_form", classmethod(counting_bases))
    monkeypatch.setattr(experiments, "_map", recording)
    noise = NoiseSpec(channel, 0.1)
    noise_monte_carlo(model, design_, noise, n_runs=6, seed=7, total_time=0.4, cycles=20)
    assert blocks == [3]
    assert states == [design_.optimal_initial]
    assert len(factored) == {"z": 1, "y": 2}[axis]


def test_an_oversized_drawn_atom_number_is_refused_before_any_block(monkeypatch):
    # every run is drawn before any block is stepped, so the largest drawn N
    # is refused before any work is done for the others
    stepped = []
    step_block = experiments._noise_block

    def refusing(n_spins):
        if n_spins > 40:
            raise TooLarge(f"n_spins={n_spins}")
        return build_space(n_spins)

    def counting(block):
        stepped.append(1)
        return step_block(block)

    monkeypatch.setattr(experiments, "build_space", refusing)
    monkeypatch.setattr(experiments, "_noise_block", counting)
    model = from_chi_gamma(1.0, 0.1, 20)
    noise = NoiseSpec("atom_number", 0.5)
    with pytest.raises(TooLarge, match="n_spins=46"):
        noise_monte_carlo(model, design(model, "z", "A"), noise, n_runs=30, seed=3)
    assert stepped == []
