"""Experiment harness: parameter sweeps, pulsed-vs-reference comparisons,
size scaling, and the Gaussian-noise Monte Carlo.

Every experiment returns an ExperimentResult holding named tables plus a
descriptor, and is bit-reproducible from (parameters, seed): randomness is
drawn from per-run child streams spawned from one root SeedSequence, and
each noise channel owns a dedicated stream per run, so inactive channels
consume nothing and worker partitioning cannot change any draw.  A noise run
is the nominal pulse schedule with its segments perturbed (stretched free
evolutions, scaled or tilted pulses, per-run or per-segment Hamiltonians),
executed by the same ``propagate.run_cycles`` as the noiseless schedule.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .algebra import build_space, second_moment_operators
from .canonical import LMGModel, from_chi_gamma, realize_hamiltonian
from .errors import ConfigError
from .metrics import batch_squeezing, default_horizon, fit_loglog_slope, minimize_hamiltonian
from .propagate import Eigenbasis, FreeSegment, PulseSegment, run_cycles, run_schedule
from .pulses import PulseDesign, design, effective_hamiltonian, schedule
from .states import BlochAngles, SpinState, coherent_generator_eig, coherent_state

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


@dataclass(frozen=True)
class NoiseSpec:
    """One Gaussian noise channel with a relative standard deviation."""

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
    horizon = default_horizon(model.n_spins) if horizon is None else horizon
    space = build_space(model.n_spins)
    hamiltonian = realize_hamiltonian(model, space)
    psi0 = coherent_state(space, initial)
    times = np.linspace(0.0, horizon / (model.chi * model.n_spins), grid_points)
    trace = minimize_hamiltonian(space, hamiltonian, psi0, times, allow_unbracketed=True)
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


# ---------------------------------------------------------------------------
# initial-state sweep
# ---------------------------------------------------------------------------

def _sweep_column(task):
    """First minima down one phi column of the initial-state grid, one per
    theta; the column shares one coherent-state generator eigendecomposition."""
    space, basis, phi, thetas, times = task
    generator_eig = coherent_generator_eig(space, phi)
    outcomes = []
    for theta in thetas:
        psi0 = coherent_state(space, BlochAngles(theta=theta, phi=phi), generator_eig)
        trace = minimize_hamiltonian(
            space, basis, psi0, times, refine=False, allow_unbracketed=True
        )
        outcomes.append((trace.minimum.t, trace.minimum.xi2, trace.minimum.bracketed))
    return outcomes


def sweep_bytes(theta_points: int, phi_points: int) -> int:
    """Lower bound on the memory sweep_initial_state holds at once for its
    grid: 256 B of Python objects per grid point (its row, orbit
    representative and outcome) and the three float64 n x n arrays of
    ``_orbit_representatives``, n the longer axis (tracemalloc: 290 B per
    point on an 80 x 80 grid, 24 n^2 B on a 2 x 400 one)."""
    return 256 * theta_points * phi_points + 24 * max(theta_points, phi_points) ** 2


def _orbit_representatives(thetas: np.ndarray, phis: np.ndarray) -> dict:
    """For each grid point (phi index k, theta index i), the (k', i') whose
    result it shares: the smallest of its images under the pi rotations about
    x, z and y that land on the grid (to 1e-12), or itself."""

    def match(values, images):  # on the circle; theta differences stay below pi
        dist = np.abs(images[:, None] - values[None, :]) % (2.0 * math.pi)
        hit = np.minimum(dist, 2.0 * math.pi - dist) <= 1e-12
        return np.where(hit.any(axis=1), hit.argmax(axis=1), -1).tolist()

    flip, keep = match(thetas, math.pi - thetas), list(range(len(thetas)))
    maps = ((match(phis, -phis), flip), (match(phis, phis + math.pi), keep),
            (match(phis, math.pi - phis), flip))  # x, z, y
    rep = {}
    for k, i in itertools.product(range(len(phis)), range(len(thetas))):
        images = [(pk[k], ti[i]) for pk, ti in maps if min(pk[k], ti[i]) >= 0]
        rep[k, i] = min((rep[q] for q in images if q < (k, i)), default=(k, i))
    return rep


def sweep_initial_state(
    model: LMGModel,
    theta_grid=None,
    phi_grid=None,
    theta_points: int = 33,
    phi_points: int = 33,
    horizon: float | None = None,
    grid_points: int = 300,
    workers: int = 1,
) -> ExperimentResult:
    """Map of the first squeezing minimum over the initial-state sphere.

    Explicit grids win over the point counts; the default grids cover
    [0, pi] x [0, 2*pi).  Grid points whose trace is still decreasing at the
    horizon record the minimum seen so far with bracketed = 0; they cannot
    beat a bracketed optimum, so the argmin is unaffected.

    H is invariant under pi rotations about x, (theta, phi) -> (pi - theta,
    2pi - phi), z, (theta, phi + pi), and y, (pi - theta, pi - phi), and so
    is xi^2.  A map joins two points only where its image is a grid point:
    x on any default grid, z and y only when phi_points is even.  One point
    per orbit is computed, the one with the smallest (phi index, theta
    index), so phi < pi on default grids; the others copy its row.  The
    argmin scans only computed points, so a tie goes to the phi < pi twin.
    """
    horizon = default_horizon(model.n_spins) if horizon is None else horizon
    thetas = (
        np.asarray(theta_grid, dtype=float)
        if theta_grid is not None
        else np.linspace(0.0, math.pi, theta_points)
    )
    phis = (
        np.asarray(phi_grid, dtype=float)
        if phi_grid is not None
        else np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    )
    if np.any(thetas < 0.0) or np.any(thetas > math.pi):
        raise ConfigError("theta_grid: values must lie in [0, pi]")
    if np.any(phis < 0.0) or np.any(phis >= 2.0 * math.pi):
        raise ConfigError("phi_grid: values must lie in [0, 2*pi)")
    for name, values in (("theta_grid", thetas), ("phi_grid", phis)):
        if values.size == 0:
            raise ConfigError(f"{name}: the grid is empty")
    times = np.linspace(0.0, horizon / (model.chi * model.n_spins), grid_points)
    space = build_space(model.n_spins)
    basis = Eigenbasis.of(realize_hamiltonian(model, space))
    rep = _orbit_representatives(thetas, phis)
    own = {}
    for k, i in rep:
        if rep[k, i] == (k, i):
            own.setdefault(k, []).append(i)
    tasks = [(space, basis, phis[k], thetas[rows], times) for k, rows in own.items()]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(_sweep_column, tasks))
    else:
        columns = [_sweep_column(t) for t in tasks]
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
    horizon = default_horizon(n_spins) if horizon is None else horizon
    space = build_space(n_spins)
    psi0 = coherent_state(space, BlochAngles(theta=math.pi / 2.0, phi=math.pi / 2.0))
    times = np.linspace(0.0, horizon / (chi * n_spins), grid_points)
    rows = []
    for gamma in gamma_grid:
        if not 0.0 <= gamma <= 0.5:
            raise ConfigError(f"gammas: values must lie in [0, 0.5], got {gamma}")
        model = from_chi_gamma(chi, float(gamma), n_spins)
        trace = minimize_hamiltonian(space, realize_hamiltonian(model, space), psi0, times)
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

def predicted_optimal_time(design_: PulseDesign, model: LMGModel, space) -> tuple:
    """First-minimum time of the design's effective Hamiltonian from the
    coherent state it squeezes best (used to size schedules), returned with
    that Hamiltonian's Eigenbasis and that state."""
    h_eff = Eigenbasis.of(effective_hamiltonian(design_, model, space))
    psi0 = coherent_state(space, design_.optimal_initial)
    times = np.linspace(0.0, 5.0 / (abs(design_.chi_eff) * model.n_spins), 2000)
    return minimize_hamiltonian(space, h_eff, psi0, times).minimum.t, h_eff, psi0


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
    space = build_space(model.n_spins)
    chi_n = model.chi * model.n_spins

    design_z = design(model, "z", branch)
    design_y = design(model, "y", branch)
    t_pred_z, h_ref, psi_z = predicted_optimal_time(design_z, model, space)
    t_pred_y, _, psi_y = predicted_optimal_time(design_y, model, space)
    schedule_z = schedule(design_z, model, 1.2 * t_pred_z, max_step=max_step)
    schedule_y = schedule(design_y, model, 1.2 * t_pred_y, max_step=max_step)

    h_lmg = Eigenbasis.of(realize_hamiltonian(model, space))
    trace_z = run_schedule(psi_z, schedule_z, model, model_basis=h_lmg)
    trace_y = run_schedule(psi_y, schedule_y, model, model_basis=h_lmg)

    psi_lmg = coherent_state(space, lmg_initial)
    lmg_trace = minimize_hamiltonian(space, h_lmg, psi_lmg, trace_z.t, allow_unbracketed=True)
    ref_trace = minimize_hamiltonian(space, h_ref, psi_z, trace_z.t, allow_unbracketed=True)
    lmg_min, ref_min = lmg_trace.minimum, ref_trace.minimum

    rows = []
    for name, trace in (
        ("lmg", lmg_trace),
        ("tat", ref_trace),
        ("pulsed_z", trace_z),
        ("pulsed_y", trace_y),
    ):
        for i, (t, xi2) in enumerate(zip(trace.t, trace.xi2)):
            rows.append((name, i, t, t * chi_n, xi2))

    minima_rows = (
        ("lmg", lmg_min.t, lmg_min.t * chi_n, lmg_min.xi2, model.chi, True),
        ("tat", ref_min.t, ref_min.t * chi_n, ref_min.xi2, design_z.chi_eff, True),
        (
            "pulsed_z",
            trace_z.minimum.t,
            trace_z.minimum.t * chi_n,
            trace_z.minimum.xi2,
            design_z.chi_eff,
            False,
        ),
        (
            "pulsed_y",
            trace_y.minimum.t,
            trace_y.minimum.t * chi_n,
            trace_y.minimum.xi2,
            design_y.chi_eff,
            False,
        ),
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
        rows=minima_rows,
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
    if len({int(n) for n in n_grid}) < 2:
        raise ConfigError(f"n_grid: a slope needs at least two distinct N, got {list(n_grid)}")
    known = ("OAT", "TAT", "LMG", "pulsed")
    for variant in variants:
        if variant not in known:
            raise ConfigError(f"variants: unknown variant {variant!r}")
    if len(set(variants)) < len(variants):
        raise ConfigError(f"variants: each variant may appear once, got {list(variants)}")
    initial = BlochAngles(theta=math.pi / 2.0, phi=math.pi / 2.0)
    rows = []
    minima = {v: [] for v in variants}
    for n in n_grid:
        n = int(n)
        space = build_space(n)
        psi0 = coherent_state(space, initial)
        times = np.linspace(0.0, default_horizon(n) / (chi * n), grid_points)
        for variant in variants:
            if variant == "pulsed":
                model = from_chi_gamma(chi, gamma, n)
                design_ = design(model, axis, branch)
                t_pred, _, psi_eff = predicted_optimal_time(design_, model, space)
                sch = schedule(design_, model, 1.2 * t_pred, max_step=pulsed_step_product / n)
                minimum = run_schedule(psi_eff, sch, model).minimum
            else:
                g = {"OAT": 0.0, "TAT": 0.5, "LMG": gamma}[variant]
                model = from_chi_gamma(chi, g, n)
                hamiltonian = realize_hamiltonian(model, space)
                minimum = minimize_hamiltonian(space, hamiltonian, psi0, times).minimum
            rows.append((variant, n, minimum.xi2, minimum.t, minimum.t * chi * n))
            minima[variant].append(minimum.xi2)

    slope_rows = tuple(
        (variant, fit_loglog_slope([int(n) for n in n_grid], minima[variant]))
        for variant in variants
    )
    result = ExperimentResult(
        descriptor=_descriptor(
            "scaling",
            {
                "gamma": gamma,
                "chi": chi,
                "n_grid": [int(n) for n in n_grid],
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

def _channel_streams(seed_seq) -> dict:
    children = seed_seq.spawn(len(NOISE_CHANNELS))
    return {
        name: np.random.Generator(np.random.PCG64(child))
        for name, child in zip(NOISE_CHANNELS, children)
    }


def _noise_run(task: dict, initial_states: dict):
    """Simulate one (possibly noisy) pulsed trajectory: the nominal schedule
    with each of its segments perturbed as the noise channel draws.

    Returns the xi2 value at every cycle boundary (nan where the contrast
    collapses), the realized per-run parameters, and the count of clamped
    negative durations.  A drawn atom number gets a space of its own, dropped
    with the run.  ``initial_states``: initial amplitudes by atom number.
    """
    streams = _channel_streams(task["seed"])
    channel = task["channel"]
    sigma = task["sigma"]
    scope = task["scope"]
    gamma = task["gamma"]
    chi = task["chi"]
    nominal = task["space"]
    n_spins = nominal.n_spins

    def active(name, scope_name):
        return channel == name and sigma > 0.0 and scope == scope_name

    def draw(name):
        """A relative factor 1 + sigma * N(0, 1) from the channel's stream."""
        return 1.0 + sigma * streams[name].standard_normal()

    if active("gamma", "per_run"):
        gamma = gamma * draw("gamma")
    if active("chi", "per_run"):
        chi = chi * draw("chi")
    if active("atom_number", "per_run"):
        n_spins = max(1, int(round(n_spins * draw("atom_number"))))

    space = nominal if n_spins == nominal.n_spins else build_space(n_spins)
    moments = second_moment_operators(space)

    def free_basis(g):
        return Eigenbasis.of_quadratic_form(chi * (moments["xx"] + g * moments["yy"]))

    basis = free_basis(gamma)
    psi = initial_states.get(n_spins)
    if psi is None:
        initial = BlochAngles(theta=task["theta"], phi=task["phi"])
        psi = initial_states[n_spins] = coherent_state(space, initial).amplitudes

    def draw_tilt():
        stream = streams["pulse_phase"]
        delta = sigma * (math.pi / 2.0) * stream.standard_normal()
        return delta, stream.uniform(0.0, 2.0 * math.pi)

    area_factor = draw("pulse_area") if active("pulse_area", "per_run") else 1.0
    tilt = draw_tilt() if active("pulse_phase", "per_run") else None
    separation = draw("pulse_separation") if active("pulse_separation", "per_run") else 1.0

    clamped = 0

    def realize(seg) -> tuple:
        """The segments that realize one nominal segment in this run."""
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
        factor = draw("pulse_area") if active("pulse_area", "per_pulse") else area_factor
        angle = seg.angle * factor
        tilt_now = draw_tilt() if active("pulse_phase", "per_pulse") else tilt
        if tilt_now is None:
            return (PulseSegment(seg.axis, angle),)
        delta, beta = tilt_now
        tilt_axis = {"z": "y", "y": "x", "x": "z"}[seg.axis]
        return (
            PulseSegment(seg.axis, -beta),
            PulseSegment(tilt_axis, -delta),
            PulseSegment(seg.axis, angle),
            PulseSegment(tilt_axis, delta),
            PulseSegment(seg.axis, beta),
        )

    def realize_cycle() -> tuple:
        return tuple(out for seg in task["segments"] for out in realize(seg))

    if sigma == 0.0 or scope == "per_run":
        # nothing is drawn per segment or pulse: every cycle is the same
        cycles = itertools.repeat(realize_cycle(), task["cycles"])
        clamped *= task["cycles"]
    else:
        # realized one cycle at a time, so draws follow segment order and a
        # per-segment basis lives only as long as its cycle
        cycles = (realize_cycle() for _ in range(task["cycles"]))
    _, states = run_cycles(SpinState(psi, space), cycles)

    # the noise perturbs parameters, never the state: evolution stays unitary
    norm_error = abs(float(np.linalg.norm(states[:, -1])) - 1.0)
    xi2, _, _, _ = batch_squeezing(space, states)
    return xi2, (n_spins, gamma, chi), clamped, norm_error


def _noise_runs(tasks: list) -> list:
    """Outcomes of ``_noise_run`` for each task, in order; runs with the
    same atom number share one initial state."""
    initial_states = {}
    return [_noise_run(task, initial_states) for task in tasks]


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
    xi2 minima are taken over cycle-boundary samples.
    """
    if n_runs < 1:
        raise ConfigError(f"n_runs: must be >= 1, got {n_runs}")
    space = build_space(model.n_spins)
    if total_time is None:
        total_time = 1.2 * predicted_optimal_time(design_, model, space)[0]
    sch = schedule(design_, model, total_time, max_step=max_step, cycles=cycles)
    scope = noise.resolved_scope
    initial = design_.optimal_initial

    base = {
        "space": space,
        "gamma": model.gamma,
        "chi": model.chi,
        "segments": sch.segments,
        "cycles": sch.cycle_count,
        "theta": initial.theta,
        "phi": initial.phi,
        "channel": noise.channel,
        "scope": scope,
    }
    noiseless = dict(base, sigma=0.0, seed=np.random.SeedSequence(0))
    root = np.random.SeedSequence(seed)
    tasks = [noiseless] + [
        dict(base, sigma=noise.relative_sigma, seed=child)
        for child in root.spawn(n_runs)
    ]
    if workers > 1:
        chunks = [tasks[i : i + 8] for i in range(0, len(tasks), 8)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [out for chunk in pool.map(_noise_runs, chunks) for out in chunk]
    else:
        outcomes = _noise_runs(tasks)
    ref_xi2 = outcomes.pop(0)[0]
    ref_min = float(np.nanmin(ref_xi2))

    chi_n = model.chi * model.n_spins
    nominal_times = np.arange(sch.cycle_count + 1) * sch.cycle_time

    run_rows = []
    traces = []
    total_clamped = 0
    worst_norm_error = 0.0
    for run_index, (xi2, realized, clamped, norm_error) in enumerate(outcomes):
        traces.append(xi2)
        total_clamped += clamped
        worst_norm_error = max(worst_norm_error, norm_error)
        best = int(np.nanargmin(xi2))
        run_rows.append(
            (
                run_index,
                realized[0],
                realized[1],
                realized[2],
                float(xi2[best]),
                float(nominal_times[best]),
                float(nominal_times[best]) * chi_n,
                clamped,
            )
        )
    stack = np.vstack(traces)
    stats_rows = tuple(
        (
            k,
            float(nominal_times[k]),
            float(nominal_times[k]) * chi_n,
            float(np.nanmedian(stack[:, k])),
            float(np.nanmin(stack[:, k])),
            float(np.nanmax(stack[:, k])),
        )
        for k in range(stack.shape[1])
    )
    minima = np.array([row[4] for row in run_rows])
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
                "scope": scope,
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
                "max_norm_error": worst_norm_error,
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
