"""Each library entry point refuses, before it allocates or spawns, the
traces, grids and workers it would need: memory equal to a trace's bound is
admitted and one byte less is refused, the measured peak of a scan, a
schedule run and a noise block stays within that bound, and a worker count outside
[1, MAX_WORKERS] is refused before any space is built.  Every other value
rule has one owner too, the function that reads the value: it raises a
ConfigError (also a ValueError) whose message starts with the value's key.
Experiments that size a schedule only after an eigensolve apply the
schedule's rules (pulses.require_timing) before they build a space."""

import gc
import math
import tracemalloc

import pytest

from lmgsqueeze import algebra, experiments, metrics
from lmgsqueeze.algebra import build_space
from lmgsqueeze.canonical import from_chi_gamma, model_eigenbasis
from lmgsqueeze.errors import ConfigError, TooLarge
from lmgsqueeze.experiments import (
    MAX_WORKERS,
    NoiseSpec,
    compare_pulsed,
    evolve_trace,
    noise_monte_carlo,
    scaling_study,
    sweep_gamma,
    sweep_initial_state,
)
from lmgsqueeze.metrics import SCAN_CHUNK, SCAN_SAMPLE_BYTES, TRACE_BLOCKS, TRACE_FIXED_BYTES
from lmgsqueeze.metrics import minimize_hamiltonian, minimize_over_time
from lmgsqueeze.metrics import scan_times
from lmgsqueeze.propagate import run_schedule
from lmgsqueeze.pulses import design, schedule
from lmgsqueeze.states import BlochAngles, coherent_state

N, K = 4, 200  # more samples than one scan chunk
INITIAL = BlochAngles(math.pi / 2.0, math.pi / 2.0)


def every_sample_bytes(n, k):
    return TRACE_FIXED_BYTES + TRACE_BLOCKS * 16 * (n + 1) * k + SCAN_SAMPLE_BYTES * k


def chunked_bytes(n, k):
    held = TRACE_BLOCKS * 16 * (n + 1) * min(k, SCAN_CHUNK)
    return TRACE_FIXED_BYTES + held + SCAN_SAMPLE_BYTES * k


MODEL = from_chi_gamma(1.0, 0.1, N)
ENTRY_POINTS = {
    "evolve_trace": (
        lambda: evolve_trace(MODEL, INITIAL, grid_points=K),
        every_sample_bytes(N, K),
    ),
    "sweep_gamma": (
        lambda: sweep_gamma(N, [0.0, 0.1], grid_points=K),
        chunked_bytes(N, K),
    ),
    "minimize_over_time": (
        lambda: minimize_over_time(MODEL, INITIAL, grid_points=K),
        chunked_bytes(N, K),
    ),
    # sized at its largest N, before the loop reaches it
    "scaling_study": (
        lambda: scaling_study(0.1, [N + 2, N], variants=["LMG"], grid_points=K),
        chunked_bytes(N + 2, K),
    ),
    # its scans also share one phase table of N+1 complex phases per time
    "sweep_initial_state": (
        lambda: sweep_initial_state(MODEL, theta_points=3, phi_points=4, grid_points=K),
        chunked_bytes(N, K) + 16 * (N + 1) * K,
    ),
}


def set_memory(monkeypatch, available):
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": available}
    monkeypatch.setattr(algebra.os, "sysconf", memory.__getitem__)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_one_byte_less_than_their_traces(monkeypatch, entry):
    call, needed = ENTRY_POINTS[entry]
    set_memory(monkeypatch, needed)
    call()
    set_memory(monkeypatch, needed - 1)
    with pytest.raises(TooLarge, match="traces of"):
        call()


@pytest.mark.parametrize("n, k", [(1, 100), (1, 500), (1, 2000), (2, 100), (N, K), (20, 500)])
@pytest.mark.parametrize("every_sample", [True, False])
def test_a_scan_peaks_within_its_trace_bound(monkeypatch, n, k, every_sample):
    # tracemalloc peak of one scan against the bytes require_trace_memory
    # asks for; a tiny scan's fixed buffers are TRACE_FIXED_BYTES (without
    # them N = 2, K = 100 needs 2.7 KB more than its blocks and sample bytes)
    model = from_chi_gamma(1.0, 0.1, n)
    space = build_space(n)
    basis = model_eigenbasis(model, space)
    psi0 = coherent_state(space, INITIAL)
    _, times = scan_times(model.chi, n, None, k)

    def scan():
        options = dict(refine=False, allow_unbracketed=True, every_sample=every_sample)
        minimize_hamiltonian(space, basis, psi0, times, **options)

    scan()  # the space's moment weights are built once, outside the peak
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scan()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    asked = []
    monkeypatch.setattr(metrics, "require_memory", lambda needed, what: asked.append(needed))
    metrics.require_trace_memory(n, k, every_sample)
    assert asked == [(every_sample_bytes if every_sample else chunked_bytes)(n, k)]
    assert peak <= asked[0]


def noise_bytes(n, k, n_runs, columns):
    """A noise Monte Carlo's chunked trace: a chunk of SCAN_CHUNK state
    columns, but one boundary at least of each of the ``columns`` runs of
    its widest block, and xi^2 of every run at each of its ``k`` boundaries."""
    held = TRACE_BLOCKS * 16 * (n + 1) * columns * min(k, max(1, SCAN_CHUNK // columns))
    per_sample = SCAN_SAMPLE_BYTES + experiments.NOISE_RUN_SAMPLE_BYTES * n_runs
    return TRACE_FIXED_BYTES + held + per_sample * k


def test_noise_sizes_the_trace_of_its_largest_drawn_atom_number(monkeypatch):
    # seed 2 draws N = 8, 19, 27, 16, 15, 28 around the nominal 20: the run
    # at N = 28 scores a wider chunk of states than the nominal schedule, which fits
    model = from_chi_gamma(1.0, 0.1, 20)
    noise = NoiseSpec("atom_number", 0.5)
    cycles = 4000
    # the six runs drew six atom numbers: each block steps one run
    assert noise_bytes(20, cycles + 1, 6, 1) < noise_bytes(28, cycles + 1, 6, 1)

    def run():
        return noise_monte_carlo(model, design(model, "z"), noise, 6, seed=2, cycles=cycles)

    set_memory(monkeypatch, noise_bytes(28, cycles + 1, 6, 1))
    drawn = [row[1] for row in run().tables["runs"].rows]
    assert max(drawn) == 28
    set_memory(monkeypatch, noise_bytes(28, cycles + 1, 6, 1) - 1)
    with pytest.raises(TooLarge, match="n_spins=28"):
        run()


def traced_peak(call, warm: bool = True) -> int:
    """tracemalloc peak of ``call()`` over what was allocated before it;
    with ``warm``, a first call builds what a space keeps, outside the peak."""
    if warm:
        call()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def asked_bytes(monkeypatch) -> list:
    """The bytes each trace check asks require_memory for, as they come."""
    asked = []
    monkeypatch.setattr(metrics, "require_memory", lambda needed, what: asked.append(needed))
    return asked


@pytest.mark.parametrize("n, cycles", [(1, 400), (1, 2000), (4, 400), (20, 400), (20, 2000)])
@pytest.mark.parametrize("axis", ["z", "y"])
def test_a_schedule_run_peaks_within_its_trace_bound(monkeypatch, n, cycles, axis):
    # run_schedule scores its boundary states a chunk at a time; the bound
    # pulses.schedule asks for covers its peak once the chunk is full (below
    # about SCAN_CHUNK cycles the run's fixed objects, its realized cycle
    # and half unitaries, weigh more: 5-7 KB at N = 1)
    model = from_chi_gamma(1.0, 0.1, n)
    space = build_space(n)
    basis = model_eigenbasis(model, space)
    design_ = design(model, axis)
    sch = schedule(design_, model, 0.4, cycles=cycles)
    psi0 = coherent_state(space, design_.optimal_initial)
    peak = traced_peak(lambda: run_schedule(psi0, sch, model, basis))
    asked = asked_bytes(monkeypatch)
    schedule(design_, model, 0.4, cycles=cycles)
    assert asked == [chunked_bytes(n, cycles + 1)]
    assert peak <= asked[0]


NOISE_CHANNELS = [
    ("pulse_separation", "per_segment"),
    ("pulse_phase", "per_pulse"),
    ("gamma", "per_segment"),
    ("pulse_area", "per_run"),
]


@pytest.mark.parametrize("channel, scope", NOISE_CHANNELS)
@pytest.mark.parametrize("n, n_runs, cycles", [(4, 24, 400), (40, 24, 400), (4, 200, 100)])
def test_a_noise_block_peaks_within_its_trace_bound(monkeypatch, channel, scope, n, n_runs, cycles):
    # each block scores its runs' boundary states a chunk at a time (one
    # boundary of 200 runs at N = 4); the bound _noise_outcomes asks for,
    # the last trace check of the Monte Carlo, covers every block's peak.
    # At N = 40 and 50 cycles it does not: xi^2 of a chunk below numpy's
    # temporary-elision size holds 5.5 blocks, not TRACE_BLOCKS (496 KB
    # against 452 KB)
    model = from_chi_gamma(1.0, 0.1, n)
    noise = NoiseSpec(channel, 0.1, scope)
    peaks, mapped = [], experiments._map

    def traced(function, tasks, workers):
        # the noiseless run has built what the space keeps
        peaks.extend(traced_peak(lambda: function(task), warm=False) for task in tasks)
        return mapped(function, tasks, workers)

    monkeypatch.setattr(experiments, "_map", traced)
    asked = asked_bytes(monkeypatch)
    noise_monte_carlo(model, design(model, "z"), noise, n_runs, 3, total_time=0.4, cycles=cycles)
    assert asked[-1] == noise_bytes(n, cycles + 1, n_runs, n_runs)
    assert peaks and max(peaks) <= asked[-1]


@pytest.mark.parametrize("channel, scope", NOISE_CHANNELS[:2])
def test_a_noise_monte_carlo_grows_by_its_per_sample_bytes(channel, scope):
    # boundary states are scored as they are stepped: from 50 to 400 cycles
    # the peak grows by no more than the bytes per boundary _noise_outcomes
    # counts (holding every state would add 16 (N+1) B per run and boundary)
    model = from_chi_gamma(1.0, 0.1, 40)
    noise = NoiseSpec(channel, 0.1, scope)

    def run(cycles):
        return noise_monte_carlo(model, design(model, "z"), noise, 24, 3, 0.05, 0.4, cycles)

    low, high = (traced_peak(lambda c=c: run(c)) for c in (50, 400))
    per_sample = SCAN_SAMPLE_BYTES + experiments.NOISE_RUN_SAMPLE_BYTES * 24
    assert high - low <= per_sample * 350


@pytest.mark.parametrize("workers", [0, -3, MAX_WORKERS + 1])
def test_worker_counts_out_of_range_are_refused_before_any_space(monkeypatch, workers):
    def unreached(n_spins):
        raise AssertionError("space built before the worker count was checked")

    monkeypatch.setattr(experiments, "build_space", unreached)
    model = from_chi_gamma(1.0, 0.1, 10)
    with pytest.raises(ConfigError, match=r"^workers: "):
        sweep_initial_state(model, theta_points=3, phi_points=4, workers=workers)
    noise = NoiseSpec("chi", 0.1)
    with pytest.raises(ConfigError, match=r"^workers: "):
        noise_monte_carlo(model, design(model, "z"), noise, 2, seed=0, workers=workers)


DESIGN = design(MODEL, "z")
OWNERS = {
    "chi": lambda: from_chi_gamma(-1.0, 0.1, N),
    "gamma": lambda: from_chi_gamma(1.0, 1.5, N),
    "n_spins": lambda: from_chi_gamma(1.0, 0.1, 0),
    "theta": lambda: BlochAngles(4.0, 0.0),
    "phi": lambda: BlochAngles(1.0, 7.0),
    "axis": lambda: design(MODEL, "w"),
    "branch": lambda: design(MODEL, "z", "C"),
    "max_step": lambda: schedule(DESIGN, MODEL, 1.0, max_step=-1.0),
    "cycles": lambda: schedule(DESIGN, MODEL, 1.0, cycles=0),
    "total_time": lambda: schedule(DESIGN, MODEL, -3.0),
    "horizon": lambda: scan_times(1.0, N, -1.0, 100),
    "grid_points": lambda: scan_times(1.0, N, None, 50),
    "seed": lambda: noise_monte_carlo(MODEL, DESIGN, NoiseSpec("chi", 0.1), 2, seed=-1),
    "gammas": lambda: sweep_gamma(N, []),
    "variants": lambda: scaling_study(0.1, [N, N + 2], variants=[]),
    # counts are integers by one rule, not truncated inside numpy
    "theta_points": lambda: sweep_initial_state(MODEL, theta_points=2.5),
    "n_runs": lambda: noise_monte_carlo(MODEL, DESIGN, NoiseSpec("chi", 0.1), 2.5, seed=0),
}


@pytest.mark.parametrize("field", sorted(OWNERS))
def test_each_value_is_refused_by_its_owner_by_name(monkeypatch, field):
    def unreached(n_spins):
        raise AssertionError("a space was built before the value was refused")

    monkeypatch.setattr(experiments, "build_space", unreached)
    with pytest.raises(ConfigError, match=rf"^{field}: ") as err:
        OWNERS[field]()
    # library callers that catch ValueError keep working
    assert isinstance(err.value, ValueError)


def noise_run(**timing):
    return noise_monte_carlo(MODEL, DESIGN, NoiseSpec("chi", 0.1), 2, seed=0, **timing)


def pulsed_scaling(**options):
    return scaling_study(0.1, [N, N + 2], variants=["LMG", "pulsed"], **options)


# experiments that size a schedule only after an eigensolve and a scan
SCHEDULE_VALUES = {
    "compare_pulsed-max_step": ("max_step", lambda: compare_pulsed(MODEL, max_step=-1.0)),
    "noise-max_step": ("max_step", lambda: noise_run(max_step=math.inf)),
    "noise-cycles": ("cycles", lambda: noise_run(cycles=0)),
    "noise-cycles-float": ("cycles", lambda: noise_run(cycles=2.5)),
    "noise-total_time": ("total_time", lambda: noise_run(total_time=-3.0)),
    "scaling-max_step": ("max_step", lambda: pulsed_scaling(pulsed_step_product=math.nan)),
    "scaling-axis": ("axis", lambda: pulsed_scaling(axis="w")),
    "scaling-branch": ("branch", lambda: pulsed_scaling(branch="C")),
}


@pytest.mark.parametrize("case", sorted(SCHEDULE_VALUES))
def test_schedule_values_are_refused_before_a_space_is_built(monkeypatch, case):
    field, call = SCHEDULE_VALUES[case]

    def unreached(n_spins):
        raise AssertionError("a space was built before the schedule values were refused")

    monkeypatch.setattr(experiments, "build_space", unreached)
    with pytest.raises(ConfigError, match=rf"^{field}: "):
        call()


@pytest.mark.parametrize("grid_points", [150.5, 50])
def test_every_trace_refuses_a_grid_that_is_not_a_count_of_at_least_100(grid_points):
    for call in (
        lambda: evolve_trace(MODEL, INITIAL, grid_points=grid_points),
        lambda: sweep_gamma(N, [0.1], grid_points=grid_points),
        lambda: minimize_over_time(MODEL, INITIAL, grid_points=grid_points),
        lambda: scaling_study(0.1, [N, N + 2], variants=["LMG"], grid_points=grid_points),
        lambda: sweep_initial_state(MODEL, theta_points=3, phi_points=2, grid_points=grid_points),
    ):
        with pytest.raises(ConfigError, match=r"^grid_points: "):
            call()
