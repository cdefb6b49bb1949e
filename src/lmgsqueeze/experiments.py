"""Experiment harness: parameter sweeps, pulsed-vs-reference comparisons,
size scaling, and the Gaussian-noise Monte Carlo.

Every experiment returns an ExperimentResult holding named tables plus a
descriptor, and is bit-reproducible from (parameters, seed): each noise run
spawns one child seed per channel from its own child of one root
SeedSequence and draws only from its active channel's, so worker
partitioning cannot change any draw.  A noise run is the nominal run plus
the draws of its one channel (a drawn N or gamma, free evolutions
stretched by a separation or a chi, scaled or tilted pulses, or per-segment
Hamiltonians applied as ``algebra.BandedForm``s), executed by
``propagate.run_cycles`` as the noiseless run is.  Runs that drew one (N,
gamma) are stepped together, one column each of a block, in blocks fixed
by the draws alone, so the worker count cannot change any byte either;
blocks on the nominal model start from the noiseless run's coherent state
and perturb the one cycle (``propagate.realized_cycle``) realized for it.

Emitted tables (one CSV per table, RFC-4180-style, LF line endings, floats
at 17 significant digits):

- evolve:              trace(t, chiN_t, xi2, contrast, ms_x, ms_y, ms_z),
                       minimum(t_min, chiN_t_min, xi2_min, bracketed)
- sweep-initial-state: grid(theta, phi, xi2_min, t_min, chiN_t_min,
                       bracketed), argmin(theta0, phi0, xi2_min)
- sweep-gamma:         gamma_sweep(gamma, xi2_min, t_min, chiN_t_min)
- compare-pulsed:      traces(trace, index, t, chiN_t, xi2),
                       minima(trace, t_min, chiN_t_min, xi2_min, chi_eff,
                       refined)
- scaling:             scaling(variant, n_spins, xi2_min, t_min,
                       chiN_t_min), slopes(variant, slope)
- noise:               runs(run, n_spins, gamma, chi, xi2_min,
                       t_min_nominal, chiN_t_min, clamped_segments),
                       trace_stats(cycle, t, chiN_t, xi2_median, xi2_low,
                       xi2_high), summary(noiseless_xi2_min, median_xi2_min,
                       noiseless_db, median_db, db_rel_dev, clamped_segments)

Times are reported both in seconds and in the dimensionless chi*N*t of the
nominal model.
"""

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .algebra import BandedForm, Eigenbasis, build_space, quadratic_form, require_count
from .algebra import DENSE_BYTES_PER_DIM2, require_memory
from .canonical import LMGModel, from_chi_gamma, model_eigenbasis
from .errors import ConfigError
from .metrics import batch_squeezing, fit_loglog_slope, minimize_hamiltonian
from .metrics import require_trace_memory, scan_times
from .propagate import FreeSegment, PulseSegment, realized_cycle, run_cycles, run_schedule
from .pulses import PulseDesign, design, effective_hamiltonian, require_timing, schedule
from .states import BlochAngles, SpinState, coherent_generator_eig, coherent_state, rotation

# Each channel and its scopes, the default first; the key order fixes the
# order in which the per-run channel streams are spawned.
ALLOWED_SCOPES = {
    "pulse_separation": ("per_segment", "per_run"),
    "pulse_area": ("per_pulse", "per_run"),
    "pulse_phase": ("per_pulse", "per_run"),
    "gamma": ("per_run", "per_segment"),
    "chi": ("per_run", "per_segment"),
    "atom_number": ("per_run",),
}
NOISE_CHANNELS = tuple(ALLOWED_SCOPES)
# Schedules run this many predicted times long: the pulsed minimum lies on
# the cycle grid and is moved from the effective Hamiltonian's by the
# stroboscopic error, so a trace that ends past it still brackets it.
SCHEDULE_SPAN = 1.2
# Noise runs that share a space and a free basis are stepped together in
# blocks of BLOCK_BYTES / (16 (N+1) (cycles+1)) runs (N = 100 with 165
# cycles: 31 runs).  The width fixes the width of every product, and so its
# rounding, until the seed-0 benchmark reference is re-recorded (ROADMAP
# item 7); it no longer bounds the states a block holds, which run_cycles
# yields SCAN_CHUNK columns at a time.
BLOCK_BYTES = 8 * 2**20
# Bytes a noise Monte Carlo keeps per run and cycle boundary beside its
# chunked trace: the run's xi^2 in its block's batches and their join, in
# the outcomes, in the stacked table and in nanargmin's copy of it.  The
# tracemalloc peak grows by 8-25 B per run and boundary beyond
# SCAN_SAMPLE_BYTES from 400 to 1600 cycles (N = 4 and 40, 24 and 200 runs).
NOISE_RUN_SAMPLE_BYTES = 32


@dataclass(frozen=True)
class NoiseSpec:
    """One Gaussian noise channel with a relative standard deviation; a chi
    factor v scales free durations, as a separation does: v <= 0 clamps them.
    A gamma factor v runs the drawn form chi (Sx^2 + gamma v Sy^2), whatever
    its sign: gamma v outside [0, 1/2] is stepped as drawn, neither clamped
    nor folded into the range that ``canonical.from_chi_gamma`` keeps."""

    channel: str
    relative_sigma: float
    scope: str | None = None

    def __post_init__(self):
        if self.channel not in NOISE_CHANNELS:
            raise ConfigError(
                f"channel: unknown noise channel {self.channel!r}; "
                f"expected one of {NOISE_CHANNELS}"
            )
        if not 0.0 <= self.relative_sigma < math.inf:
            raise ConfigError(
                f"relative_sigma: must be finite and >= 0, got {self.relative_sigma!r}"
            )
        if self.scope is not None and self.scope not in ALLOWED_SCOPES[self.channel]:
            raise ConfigError(
                f"scope: {self.scope!r} not supported for channel "
                f"{self.channel!r}; allowed: {ALLOWED_SCOPES[self.channel]}"
            )

    @property
    def resolved_scope(self) -> str:
        return self.scope if self.scope is not None else ALLOWED_SCOPES[self.channel][0]


@dataclass(frozen=True)
class Table:
    columns: tuple
    rows: tuple


@dataclass
class ExperimentResult:
    descriptor: dict
    tables: dict = field(default_factory=dict)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_result(result: ExperimentResult, out_dir) -> list:
    """Write descriptor.json plus one CSV per table into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    desc_path = os.path.join(out_dir, "descriptor.json")
    with open(desc_path, "w") as fh:
        json.dump(result.descriptor, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(desc_path)
    for name, table in result.tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.columns)
            for row in table.rows:
                writer.writerow([_fmt(v) for v in row])
        written.append(path)
    return written


def _descriptor(experiment: str, params: dict, seed=None, notes: dict | None = None) -> dict:
    desc = {
        "tool": "lmgsqueeze",
        "version": __version__,
        "experiment": experiment,
        "parameters": params,
    }
    if seed is not None:
        desc["rng"] = {
            "bit_generator": "PCG64",
            "seed": int(seed),
            "streams": "SeedSequence.spawn per run; six channel streams per run",
        }
    if notes:
        desc["notes"] = notes
    return desc


# ---------------------------------------------------------------------------
# single-trace experiment
# ---------------------------------------------------------------------------

def evolve_trace(
    model: LMGModel,
    initial: BlochAngles,
    horizon: float | None = None,
    grid_points: int = 2000,
) -> ExperimentResult:
    """Squeezing trace and first minimum for one model and initial state."""
    require_trace_memory(model.n_spins, grid_points, every_sample=True)
    horizon, times = scan_times(model.chi, model.n_spins, horizon, grid_points)
    space = build_space(model.n_spins)
    psi0 = coherent_state(space, initial)
    basis = model_eigenbasis(model, space)
    trace = minimize_hamiltonian(
        space, basis, psi0, times, allow_unbracketed=True, every_sample=True
    )
    chi_n = model.chi * model.n_spins
    rows = tuple(
        zip(trace.t, trace.t * chi_n, trace.xi2, trace.contrast, *trace.mean_spin)
    )
    result = ExperimentResult(
        descriptor=_descriptor(
            "evolve",
            {
                "n_spins": model.n_spins,
                "chi": model.chi,
                "gamma": model.gamma,
                "initial": {"theta": initial.theta, "phi": initial.phi},
                "horizon": horizon,
                "grid_points": grid_points,
            },
        )
    )
    result.tables["trace"] = Table(
        columns=("t", "chiN_t", "xi2", "contrast", "ms_x", "ms_y", "ms_z"), rows=rows
    )
    result.tables["minimum"] = Table(
        columns=("t_min", "chiN_t_min", "xi2_min", "bracketed"),
        rows=(
            (
                trace.minimum.t,
                trace.minimum.t * chi_n,
                trace.minimum.xi2,
                trace.minimum.bracketed,
            ),
        ),
    )
    return result


# Each worker is a process, and a process pool may start all of them at once.
MAX_WORKERS = 64


def _require_workers(workers: int) -> None:
    """Refuse a worker count outside [1, MAX_WORKERS], before anything is built."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigError(f"workers: must lie in [1, {MAX_WORKERS}], got {workers}")


def _map(function, tasks: list, workers: int) -> list:
    """``function`` of each task, in order; in one process per task, up to ``workers``."""
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here, so that a one-process call never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(function, tasks))
    return [function(task) for task in tasks]


# ---------------------------------------------------------------------------
# initial-state sweep
# ---------------------------------------------------------------------------

def _sweep_column(task):
    """First minima down one phi column of the initial-state grid, one per
    theta, from the azimuth-0 coherent state of each theta (one 1-D array
    each) turned by phi about z; the whole grid shares one phase table of
    the model's basis."""
    space, basis, phases, phi, states, times = task
    outcomes = []
    for amps in states:
        psi0 = SpinState(rotation(space, "z", phi, of=amps), space)
        trace = minimize_hamiltonian(
            space, basis, psi0, times, refine=False, allow_unbracketed=True, phases=phases
        )
        outcomes.append((trace.minimum.t, trace.minimum.xi2, trace.minimum.bracketed))
    return outcomes


def sweep_bytes(theta_points: int, phi_points: int) -> int:
    """Lower bound on the memory sweep_initial_state holds at once for its
    grid: 256 B of Python objects per grid point (its row, orbit
    representative and outcome; tracemalloc at N = 2: 390 B per point on an
    80 x 80 grid, 474 B on a 2 x 2000 one)."""
    return 256 * theta_points * phi_points


def _orbit_representatives(theta_points: int, phi_points: int) -> dict:
    """For each point (phi index k, theta index i) of the uniform grid, the
    smallest member of its orbit under the pi rotations about x, z and y that
    map the grid onto itself: x always, z and y when phi_points is even.
    With the identity they form a group, so every orbit is complete.  At the
    poles every phi gives one state up to a global phase, and x joins the
    two poles, so all pole points make one orbit, represented by (0, 0)."""
    t, p = theta_points, phi_points
    rep = {}
    for k, i in itertools.product(range(p), range(t)):
        if i in (0, t - 1):
            rep[k, i] = (0, 0)
            continue
        orbit = [(k, i), (-k % p, t - 1 - i)]  # x
        if p % 2 == 0:
            orbit += [((k + p // 2) % p, i), ((p // 2 - k) % p, t - 1 - i)]  # z, y
        rep[k, i] = min(orbit)
    return rep


def sweep_initial_state(
    model: LMGModel,
    theta_points: int = 33,
    phi_points: int = 33,
    horizon: float | None = None,
    grid_points: int = 300,
    workers: int = 1,
) -> ExperimentResult:
    """Map of the first squeezing minimum over the initial-state sphere.

    The grid is theta_points values of theta in [0, pi] by phi_points values
    of phi in [0, 2*pi), both uniform and at least 2.  Grid points whose
    trace is still decreasing at the horizon record the minimum seen so far
    with bracketed = 0; they cannot beat a bracketed optimum, so the argmin
    is unaffected.

    H is invariant under pi rotations about x, (theta, phi) -> (pi - theta,
    2pi - phi), z, (theta, phi + pi), and y, (pi - theta, pi - phi), and so
    is xi^2.  x maps every grid onto itself, z and y only those with
    phi_points even; at the poles, theta = 0 or pi, every phi gives the same
    state up to a global phase.  One point per orbit is computed, the one
    with the smallest (phi index, theta index), so phi < pi; the others copy
    its row.  The argmin scans only computed points, so a tie goes to the
    phi < pi twin.  Every point starts from the azimuth-0 coherent state of
    its theta, prepared once, turned by its phi about z, and is sampled
    through one phase table of the model's parity basis.
    """
    _require_workers(workers)
    theta_points = require_count(theta_points, "theta_points", least=2)
    phi_points = require_count(phi_points, "phi_points", least=2)
    grid = f"a {theta_points} x {phi_points} sweep grid"
    require_memory(sweep_bytes(theta_points, phi_points), f"the objects of {grid}")
    # its scans share one phase table: N+1 phases per time
    require_trace_memory(model.n_spins, grid_points, False, sample_bytes=16 * (model.n_spins + 1))
    horizon, times = scan_times(model.chi, model.n_spins, horizon, grid_points)
    thetas = np.linspace(0.0, math.pi, theta_points)
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    space = build_space(model.n_spins)
    # the generator first, and dropped before the model is factored: no
    # dense complex basis is alive beside the model's
    generator = coherent_generator_eig(space)
    start = [coherent_state(space, BlochAngles(th, 0.0), generator).amplitudes for th in thetas]
    del generator
    basis = model_eigenbasis(model, space)
    phases = basis.phases(times)
    rep = _orbit_representatives(theta_points, phi_points)
    own = {}
    for k, i in rep:
        if rep[k, i] == (k, i):
            own.setdefault(k, []).append(i)
    tasks = [
        (space, basis, phases, phis[k], [start[i] for i in rows], times) for k, rows in own.items()
    ]
    columns = _map(_sweep_column, tasks, workers)
    outcomes = {(k, i): o for k, column in zip(own, columns) for i, o in zip(own[k], column)}

    chi_n = model.chi * model.n_spins
    rows = []
    best = None
    for i, th in enumerate(thetas):
        for k, ph in enumerate(phis):
            t_min, xi2_min, bracketed = outcomes[rep[k, i]]
            rows.append((th, ph, xi2_min, t_min, t_min * chi_n, bracketed))
            if rep[k, i] == (k, i) and np.isfinite(xi2_min) and (best is None or xi2_min < best[2]):
                best = (th, ph, xi2_min)

    result = ExperimentResult(
        descriptor=_descriptor(
            "sweep-initial-state",
            {
                "n_spins": model.n_spins,
                "chi": model.chi,
                "gamma": model.gamma,
                "theta_points": len(thetas),
                "phi_points": len(phis),
                "horizon": horizon,
                "grid_points": grid_points,
            },
        )
    )
    result.tables["grid"] = Table(
        columns=("theta", "phi", "xi2_min", "t_min", "chiN_t_min", "bracketed"),
        rows=tuple(rows),
    )
    result.tables["argmin"] = Table(
        columns=("theta0", "phi0", "xi2_min"), rows=(best,)
    )
    return result


# ---------------------------------------------------------------------------
# gamma sweep
# ---------------------------------------------------------------------------

def sweep_gamma(
    n_spins: int,
    gamma_grid,
    chi: float = 1.0,
    horizon: float | None = None,
    grid_points: int = 2000,
) -> ExperimentResult:
    """(gamma, xi2_min, t_min) from the fixed initial state |pi/2, pi/2>."""
    if len(gamma_grid) == 0:
        raise ConfigError("gammas: expected at least one gamma value")
    for i, gamma in enumerate(gamma_grid):
        if not 0.0 <= gamma <= 0.5:
            raise ConfigError(f"gammas[{i}]: must lie in [0, 0.5], got {gamma}")
    models = [from_chi_gamma(chi, float(gamma), n_spins) for gamma in gamma_grid]
    require_trace_memory(n_spins, grid_points, every_sample=False)
    horizon, times = scan_times(chi, n_spins, horizon, grid_points)
    space = build_space(n_spins)
    psi0 = coherent_state(space, BlochAngles(theta=math.pi / 2.0, phi=math.pi / 2.0))
    rows = []
    for gamma, model in zip(gamma_grid, models):
        trace = minimize_hamiltonian(space, model_eigenbasis(model, space), psi0, times)
        rows.append(
            (
                float(gamma),
                trace.minimum.xi2,
                trace.minimum.t,
                trace.minimum.t * chi * n_spins,
            )
        )
    result = ExperimentResult(
        descriptor=_descriptor(
            "sweep-gamma",
            {
                "n_spins": n_spins,
                "chi": chi,
                "gammas": [float(g) for g in gamma_grid],
                "horizon": horizon,
                "grid_points": grid_points,
            },
        )
    )
    result.tables["gamma_sweep"] = Table(
        columns=("gamma", "xi2_min", "t_min", "chiN_t_min"), rows=tuple(rows)
    )
    return result


# ---------------------------------------------------------------------------
# pulsed-vs-reference comparison
# ---------------------------------------------------------------------------

def prediction_horizon(n_spins: int) -> float:
    """Dimensionless |chi_eff| N t that the predicted-time scan covers.

    The two-axis-twisting minimum sits near ln(2N)/2 (measured 1.72, 2.50,
    3.20, 3.66 at N = 20, 100, 400, 1000), so the horizon keeps a margin of
    1 above it; it is 5.0 up to N = 1490.
    """
    return max(5.0, math.log(2.0 * n_spins) / 2.0 + 1.0)


def predicted_optimal_time(
    design_: PulseDesign, model: LMGModel, space, psi0: SpinState
) -> tuple:
    """First-minimum time of the design's effective Hamiltonian from
    ``psi0``, the coherent state at ``design_.optimal_initial`` (used to size
    schedules), returned with that Hamiltonian's Eigenbasis.

    The basis is dense, not parity blocks: schedule lengths follow this
    golden-refined time to its last bits, as recorded with the dense basis.
    """
    h_eff = Eigenbasis.of(effective_hamiltonian(design_, model, space))
    n = model.n_spins
    _, times = scan_times(abs(design_.chi_eff), n, prediction_horizon(n), 2000)
    return minimize_hamiltonian(space, h_eff, psi0, times).minimum.t, h_eff


def compare_pulsed(
    model: LMGModel,
    branch: str = "A",
    max_step: float = 0.05,
    lmg_initial: BlochAngles | None = None,
) -> ExperimentResult:
    """Four squeezing traces: bare model, effective-twisting reference at the
    z-scheme strength, and the z- and y-pulsed schedules.

    The bare and reference traces are sampled on the z schedule's cycle grid
    (so at gamma = 1/2 all four traces coincide row by row) and their minima
    are then refined continuously; pulsed minima live on cycle boundaries.
    """
    if lmg_initial is None:
        lmg_initial = BlochAngles(theta=math.pi / 2.0, phi=math.pi / 2.0)
    require_timing(max_step)
    design_z = design(model, "z", branch)
    design_y = design(model, "y", branch)
    space = build_space(model.n_spins)
    chi_n = model.chi * model.n_spins

    generator = coherent_generator_eig(space)
    psi_z, psi_y, psi_lmg = (
        coherent_state(space, angles, generator)
        for angles in (design_z.optimal_initial, design_y.optimal_initial, lmg_initial)
    )
    del generator  # not held while the effective Hamiltonians are factored
    # y first, keeping only its time: the z basis, kept for the reference
    # trace, is then the one effective-Hamiltonian basis ever alive
    t_pred_y = predicted_optimal_time(design_y, model, space, psi_y)[0]
    t_pred_z, h_ref = predicted_optimal_time(design_z, model, space, psi_z)
    schedule_z = schedule(design_z, model, SCHEDULE_SPAN * t_pred_z, max_step=max_step)
    # the reference traces below sample every z cycle boundary in one chunk
    require_trace_memory(model.n_spins, schedule_z.cycle_count + 1, every_sample=True)
    schedule_y = schedule(design_y, model, SCHEDULE_SPAN * t_pred_y, max_step=max_step)

    h_lmg = model_eigenbasis(model, space)
    trace_z = run_schedule(psi_z, schedule_z, model, model_basis=h_lmg)
    trace_y = run_schedule(psi_y, schedule_y, model, model_basis=h_lmg)

    lmg_trace, ref_trace = (
        minimize_hamiltonian(space, h, psi, trace_z.t, allow_unbracketed=True, every_sample=True)
        for h, psi in ((h_lmg, psi_lmg), (h_ref, psi_z))
    )

    rows = []
    minima_rows = []
    for name, trace, chi_eff in (
        ("lmg", lmg_trace, model.chi),
        ("tat", ref_trace, design_z.chi_eff),
        ("pulsed_z", trace_z, design_z.chi_eff),
        ("pulsed_y", trace_y, design_y.chi_eff),
    ):
        rows += [(name, i, t, t * chi_n, xi2) for i, (t, xi2) in enumerate(zip(trace.t, trace.xi2))]
        minimum = trace.minimum
        minima_rows.append(
            (name, minimum.t, minimum.t * chi_n, minimum.xi2, chi_eff, minimum.refined)
        )
    result = ExperimentResult(
        descriptor=_descriptor(
            "compare-pulsed",
            {
                "n_spins": model.n_spins,
                "chi": model.chi,
                "gamma": model.gamma,
                "branch": branch,
                "max_step": max_step,
                "initial": {"theta": lmg_initial.theta, "phi": lmg_initial.phi},
            },
            notes={
                "initial_states": "bare trace from configured initial; reference and "
                "pulsed traces start from each effective form's optimal state",
                "cycles_z": schedule_z.cycle_count,
                "cycles_y": schedule_y.cycle_count,
            },
        )
    )
    result.tables["traces"] = Table(
        columns=("trace", "index", "t", "chiN_t", "xi2"), rows=tuple(rows)
    )
    result.tables["minima"] = Table(
        columns=("trace", "t_min", "chiN_t_min", "xi2_min", "chi_eff", "refined"),
        rows=tuple(minima_rows),
    )
    return result


# ---------------------------------------------------------------------------
# size scaling
# ---------------------------------------------------------------------------

def scaling_study(
    gamma: float,
    n_grid,
    variants=("OAT", "TAT", "LMG", "pulsed"),
    chi: float = 1.0,
    axis: str = "z",
    branch: str = "A",
    pulsed_step_product: float = 5.0,
    grid_points: int = 2000,
) -> ExperimentResult:
    """xi2_min against N for each variant, with fitted log-log slopes.

    The pulsed variant bounds the cycle time by N^2 chi t_c <=
    ``pulsed_step_product`` (not the fixed N chi t_c of a single-size run):
    the accumulated stroboscopic error at fixed N chi t_c grows linearly in
    N and would corrupt the fitted slope, whereas this bound keeps it a
    constant fraction of xi2_min.  The default 5.0 reproduces the single-size
    bound 0.05 at N = 100.
    """
    n_grid = [require_count(n, f"n_grid[{i}]") for i, n in enumerate(n_grid)]
    if len(set(n_grid)) < 2:
        raise ConfigError(f"n_grid: a slope needs at least two distinct N, got {n_grid}")
    known = ("OAT", "TAT", "LMG", "pulsed")
    for variant in variants:
        if variant not in known:
            raise ConfigError(f"variants: unknown variant {variant!r}")
    if not variants or len(set(variants)) < len(variants):
        raise ConfigError(f"variants: expected distinct variants, got {list(variants)}")
    require_trace_memory(max(n_grid), grid_points, every_sample=False)
    if "pulsed" in variants:
        # refused before the first scan: the design (one for every N) and the
        # cycle bound, whose smallest value is at the largest N
        design_ = design(from_chi_gamma(chi, gamma, n_grid[0]), axis, branch)
        require_timing(pulsed_step_product / max(n_grid))
    initial = BlochAngles(theta=math.pi / 2.0, phi=math.pi / 2.0)
    rows = []
    minima = {v: [] for v in variants}
    for n in n_grid:
        space = build_space(n)
        generator = coherent_generator_eig(space)
        psi0 = coherent_state(space, initial, generator)
        if "pulsed" in variants:
            psi_eff = coherent_state(space, design_.optimal_initial, generator)
        del generator  # not held while the effective Hamiltonian is factored
        for variant in variants:
            if variant == "pulsed":
                model = from_chi_gamma(chi, gamma, n)
                t_pred = predicted_optimal_time(design_, model, space, psi_eff)[0]
                sch = schedule(design_, model, SCHEDULE_SPAN * t_pred, max_step=pulsed_step_product / n)
                minimum = run_schedule(psi_eff, sch, model).minimum
            else:
                g = {"OAT": 0.0, "TAT": 0.5, "LMG": gamma}[variant]
                model = from_chi_gamma(chi, g, n)
                _, times = scan_times(chi, n, None, grid_points)
                basis = model_eigenbasis(model, space)
                minimum = minimize_hamiltonian(space, basis, psi0, times).minimum
            rows.append((variant, n, minimum.xi2, minimum.t, minimum.t * chi * n))
            minima[variant].append(minimum.xi2)

    slope_rows = tuple(
        (variant, fit_loglog_slope(n_grid, minima[variant]))
        for variant in variants
    )
    result = ExperimentResult(
        descriptor=_descriptor(
            "scaling",
            {
                "gamma": gamma,
                "chi": chi,
                "n_grid": n_grid,
                "variants": list(variants),
                "axis": axis,
                "branch": branch,
                "pulsed_step_product": pulsed_step_product,
                "grid_points": grid_points,
            },
        )
    )
    result.tables["scaling"] = Table(
        columns=("variant", "n_spins", "xi2_min", "t_min", "chiN_t_min"),
        rows=tuple(rows),
    )
    result.tables["slopes"] = Table(columns=("variant", "slope"), rows=slope_rows)
    return result


# ---------------------------------------------------------------------------
# noise Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class _Run:
    """One trajectory: the nominal run plus the draws of its one active
    channel, from that channel's stream.  A per-run draw changes its model
    (n_spins, gamma) or is its one ``drawn`` value (a separation, area or
    chi factor, or a tilt); ``chi`` stays nominal (a time scale: NoiseSpec).
    A drawn ``gamma`` is kept as drawn, whatever its sign (NoiseSpec)."""

    noise: NoiseSpec
    stream: "np.random.Generator"  # a string: numpy loads numpy.random on first use
    n_spins: int
    gamma: float
    chi: float
    drawn: float | tuple | None = None

    def draw(self):
        """One draw of the channel: a relative factor 1 + sigma * N(0, 1),
        or for pulse_phase a tilt (angle, azimuth)."""
        sigma = self.noise.relative_sigma
        if self.noise.channel == "pulse_phase":
            delta = sigma * (math.pi / 2.0) * self.stream.standard_normal()
            return delta, self.stream.uniform(0.0, 2.0 * math.pi)
        return 1.0 + sigma * self.stream.standard_normal()

    def free_form(self, gamma_factor: float = 1.0) -> tuple:
        """The (a, b, c) of chi (Sx^2 + gamma Sy^2), gamma scaled by ``gamma_factor``."""
        return (self.chi, self.chi * (self.gamma * gamma_factor), 0.0)


def _new_run(noise: NoiseSpec, model: LMGModel, seed) -> _Run:
    """A run of ``model`` with its per-run draw made.  ``seed`` spawns one
    child per channel, in NOISE_CHANNELS order; only the active channel's
    child becomes a stream."""
    child = seed.spawn(len(NOISE_CHANNELS))[NOISE_CHANNELS.index(noise.channel)]
    stream = np.random.Generator(np.random.PCG64(child))
    run = _Run(noise, stream, model.n_spins, model.gamma, model.chi)
    if noise.relative_sigma > 0.0 and noise.resolved_scope == "per_run":
        value = run.draw()
        if noise.channel == "atom_number":
            run.n_spins = max(1, int(round(run.n_spins * value)))
        elif noise.channel == "gamma":
            run.gamma = run.gamma * value
        else:
            run.drawn = value
    return run


def _perturbation(noise: NoiseSpec) -> tuple:
    """(kind, banded): the kind of segment the channel perturbs, None at
    sigma = 0 or where a per-run N or gamma changes the model, and whether
    each free segment is one BandedForm (a per-segment gamma).  Runs that
    perturb pulses or band their free segments keep their pulses as rotations."""
    model_draw = noise.channel in ("gamma", "atom_number")
    if noise.relative_sigma == 0.0 or (model_draw and noise.resolved_scope == "per_run"):
        return None, False
    kind = PulseSegment if noise.channel in ("pulse_area", "pulse_phase") else FreeSegment
    return kind, noise.channel == "gamma"


def _noise_block(block: tuple) -> list:
    """Simulate the (possibly noisy) trajectories of a block (space, nominal
    state, nominal cycle, schedule, initial angles, runs).  Its runs share
    one (n_spins, gamma) and are stepped as the columns of one array:
    the cycle, with the kind of segment the active channel acts on
    (``_perturbation``) perturbed as each run draws, and every other segment
    as it is.  The cycle is None when the block drew its N or its gamma, and
    the state when it drew its N: the block builds them, and realizes its
    own cycle with x and y pulse pairs toggled, since such a run draws no
    pulse.  A per-segment gamma makes each free segment one BandedForm,
    applied once, whose column r takes the gamma run r drew for it.

    Returns, per run: the xi2 value at every cycle boundary (nan where the
    contrast collapses; each block of boundary states is scored as
    ``run_cycles`` yields it), its realized (n_spins, gamma, chi), the count of
    clamped negative durations and the norm error.  Runs of a channel that
    perturbs no segment follow one trajectory, stepped and scored once, as
    one column.  A drawn atom number gets a space of its own, dropped with
    the block.
    """
    space, psi0, cycle, sch, initial, runs = block
    run, noise = runs[0], runs[0].noise
    kind, banded = _perturbation(noise)
    per_segment = noise.relative_sigma > 0.0 and noise.resolved_scope != "per_run"
    # runs that perturb no segment follow one trajectory, stepped as one column
    columns = runs[:1] if kind is None else runs
    if cycle is None:  # the block drew its N or its form
        if psi0 is None:
            space = build_space(run.n_spins)
            psi0 = coherent_state(space, initial)
        form = run.free_form()
        basis = Eigenbasis.of_quadratic_form(quadratic_form(space, *form))
        cycle = realized_cycle(space, sch.segments, form, basis)
    clamped = np.zeros(len(columns), dtype=int)

    def realize(seg) -> tuple:
        """The segments that realize one nominal segment in every column."""
        if kind is None or not isinstance(seg, kind):
            return (seg,)
        values = np.array([r.draw() if per_segment else r.drawn for r in columns])
        if banded:
            # one form per segment, applied once: each run's drawn gamma
            # sets the coefficients of its column
            forms = [r.free_form(value) for r, value in zip(columns, values)]
            return (FreeSegment(seg.duration, BandedForm(space, *zip(*forms))),)
        if kind is FreeSegment:  # a drawn separation or chi scales the duration
            durations = seg.duration * values
            negative = durations < 0.0
            clamped[negative] += 1
            return (FreeSegment(np.where(negative, 0.0, durations), seg.hamiltonian),)
        if noise.channel == "pulse_area":
            return (PulseSegment(seg.axis, seg.angle * values),)
        delta, beta = values.T
        tilt_axis = {"z": "y", "y": "x", "x": "z"}[seg.axis]
        return (
            PulseSegment(seg.axis, -beta),
            PulseSegment(tilt_axis, -delta),
            seg,
            PulseSegment(tilt_axis, delta),
            PulseSegment(seg.axis, beta),
        )

    def realize_cycle() -> tuple:
        return tuple(out for seg in cycle for out in realize(seg))

    if not per_segment:
        # nothing is drawn per segment or pulse: every cycle is the same
        cycles = (realize_cycle(),) * sch.cycle_count
        clamped = clamped * sch.cycle_count
    else:
        # realized one cycle at a time, so draws follow segment order and a
        # per-segment form lives only as long as its cycle
        cycles = (realize_cycle() for _ in range(sch.cycle_count))
    amps = np.repeat(psi0.amplitudes[:, None], len(columns), axis=1)
    parts = []
    for states in run_cycles(SpinState(amps, space), cycles):
        # one xi2 per state column, run r's boundaries in row r
        xi2 = batch_squeezing(space, states.reshape(space.dim, -1))[0]
        parts.append(xi2.reshape(len(columns), -1))
    traces = np.concatenate(parts, axis=1)

    scored = []
    for c, r in enumerate(columns):
        # the noise perturbs parameters, never the state: evolution stays
        # unitary (the last block ends with the final states)
        norm_error = abs(float(np.linalg.norm(states[:, c, -1])) - 1.0)
        chi = r.chi * r.drawn if noise.channel == "chi" and r.drawn is not None else r.chi
        scored.append((traces[c], (r.n_spins, r.gamma, chi), int(clamped[c]), norm_error))
    return scored * len(runs) if kind is None else scored


def _noise_outcomes(space, model, sch, initial, noise, n_runs, seed, workers, psi0, cycle) -> list:
    """Each noisy run's outcome, as ``_noise_block`` returns it, in run order.

    The runs are grouped by their (n_spins, gamma), which fixes the space
    and the free Hamiltonian they share (its Eigenbasis, or per segment one
    BandedForm with a column per run), and cut into blocks of at most
    BLOCK_BYTES, so no block depends on the worker count.  Blocks on the
    nominal N take ``psi0``, the coherent state at ``initial``, and blocks
    on the nominal (N, gamma) take ``cycle``, the nominal cycle their runs
    perturb, chi runs included.
    """
    runs = [_new_run(noise, model, child) for child in np.random.SeedSequence(seed).spawn(n_runs)]
    n_max = max(run.n_spins for run in runs)  # refuse an oversized drawn N before any block
    build_space(n_max)
    drawn = [run.n_spins for run in runs if run.n_spins != model.n_spins]
    if drawn:
        # a block on a drawn N builds and factors in a space of its own while
        # the nominal space, its basis and its cycle stay alive: both count
        # (measured at N = 1000 with draws near it: 130 B per dim^2 of the
        # nominal space, growing by 135 between N = 600 and 1000)
        n = max(drawn)
        require_memory(
            DENSE_BYTES_PER_DIM2 * ((model.n_spins + 1) ** 2 + (n + 1) ** 2),
            f"dense operators at n_spins={model.n_spins} and a drawn n_spins={n}",
        )
    groups = {}
    for index, run in enumerate(runs):
        groups.setdefault((run.n_spins, run.gamma), []).append(index)
    tasks, blocks = [], []
    for key, indices in groups.items():
        width = max(1, BLOCK_BYTES // (16 * (key[0] + 1) * (sch.cycle_count + 1)))
        state = psi0 if key[0] == model.n_spins else None
        nominal = cycle if key == (model.n_spins, model.gamma) else None
        for i in range(0, len(indices), width):
            blocks.append(indices[i : i + width])
            tasks.append((space, state, nominal, sch, initial, [runs[j] for j in blocks[-1]]))
    # a block steps one column per run at most: the widest sets the chunk
    require_trace_memory(
        n_max,
        sch.cycle_count + 1,
        every_sample=False,
        sample_bytes=NOISE_RUN_SAMPLE_BYTES * n_runs,
        columns=max(len(block) for block in blocks),
    )
    outcomes = [None] * n_runs
    for block, block_outcomes in zip(blocks, _map(_noise_block, tasks, workers)):
        for index, outcome in zip(block, block_outcomes):
            outcomes[index] = outcome
    return outcomes


def noise_monte_carlo(
    model: LMGModel,
    design_: PulseDesign,
    noise: NoiseSpec,
    n_runs: int,
    seed: int,
    max_step: float = 0.05,
    total_time: float | None = None,
    cycles: int | None = None,
    workers: int = 1,
) -> ExperimentResult:
    """Repeated pulsed trajectories with one Gaussian noise channel active.

    Schedule timing is fixed by the nominal design; the noise perturbs the
    realized dynamics (the experimenter does not know the true parameters).
    xi2 minima are taken over the cycle boundaries, at the schedule's times.
    """
    _require_workers(workers)
    n_runs = require_count(n_runs, "n_runs")
    seed = require_count(seed, "seed", least=0)
    require_timing(max_step, total_time, cycles)
    space = build_space(model.n_spins)
    psi0 = coherent_state(space, design_.optimal_initial)
    if total_time is None:
        total_time = SCHEDULE_SPAN * predicted_optimal_time(design_, model, space, psi0)[0]
    sch = schedule(design_, model, total_time, max_step=max_step, cycles=cycles)
    # one realized nominal cycle serves the noiseless run and every block on
    # the nominal model; runs that keep their pulses take it untoggled
    basis = model_eigenbasis(model, space)
    cycle = realized_cycle(space, sch.segments, model.coefficients, basis)
    blocks = run_cycles(psi0, (cycle,) * sch.cycle_count)
    ref_min = float(np.nanmin(np.concatenate([batch_squeezing(space, b)[0] for b in blocks])))
    kind, banded = _perturbation(noise)
    if kind is PulseSegment or banded:
        cycle = realized_cycle(space, sch.segments, None, basis)
    outcomes = _noise_outcomes(
        space, model, sch, design_.optimal_initial, noise, n_runs, seed, workers, psi0, cycle
    )

    chi_n = model.chi * model.n_spins
    times = sch.times
    traces, realized, clamped, norm_errors = zip(*outcomes)
    xi2 = np.vstack(traces)
    best = np.nanargmin(xi2, axis=1)
    minima = xi2[np.arange(n_runs), best]
    total_clamped = sum(clamped)
    run_rows = tuple(
        (r, *realized[r], minima[r], times[best[r]], times[best[r]] * chi_n, clamped[r])
        for r in range(n_runs)
    )
    stats_rows = tuple(
        zip(
            range(len(times)),
            times,
            times * chi_n,
            [np.nanmedian(column) for column in xi2.T],
            np.nanmin(xi2, axis=0),
            np.nanmax(xi2, axis=0),
        )
    )
    median_min = float(np.median(minima))
    median_db = 10.0 * math.log10(median_min)
    ref_db = 10.0 * math.log10(ref_min)

    result = ExperimentResult(
        descriptor=_descriptor(
            "noise",
            {
                "n_spins": model.n_spins,
                "chi": model.chi,
                "gamma": model.gamma,
                "axis": design_.axis,
                "branch": design_.branch,
                "channel": noise.channel,
                "relative_sigma": noise.relative_sigma,
                "scope": noise.resolved_scope,
                "n_runs": n_runs,
                "max_step": max_step,
                "total_time": total_time,
                "cycles": sch.cycle_count,
            },
            seed=seed,
            notes={
                "scope_rationale": "pulse timing/area/phase jitter is shot-to-shot "
                "(per pulse or segment); gamma, chi, and atom number are "
                "calibration uncertainties (per run)",
                "pulse_phase_model": "per-pulse tilt of the rotation axis; tilt "
                "angle ~ N(0, (sigma*pi/2)^2), azimuth uniform in the "
                "perpendicular plane",
                "clamped_segments": total_clamped,
                "max_norm_error": max(0.0, *norm_errors),
            },
        )
    )
    result.tables["runs"] = Table(
        columns=(
            "run",
            "n_spins",
            "gamma",
            "chi",
            "xi2_min",
            "t_min_nominal",
            "chiN_t_min",
            "clamped_segments",
        ),
        rows=tuple(run_rows),
    )
    result.tables["trace_stats"] = Table(
        columns=("cycle", "t", "chiN_t", "xi2_median", "xi2_low", "xi2_high"),
        rows=stats_rows,
    )
    result.tables["summary"] = Table(
        columns=(
            "noiseless_xi2_min",
            "median_xi2_min",
            "noiseless_db",
            "median_db",
            "db_rel_dev",
            "clamped_segments",
        ),
        rows=(
            (
                ref_min,
                median_min,
                ref_db,
                median_db,
                abs(median_db - ref_db) / abs(ref_db),
                total_clamped,
            ),
        ),
    )
    return result
