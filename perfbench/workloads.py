"""Workload definitions and output checks for the lmgsqueeze benchmark.

A workload is a fixed list of CLI experiments. ``make_workload`` builds it
from the workload seed alone, so the same seed always gives the same
configs. The checks read back the CSVs the CLI wrote; a failed check
counts the experiment call as failed.
"""

import csv
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# The y-schedule's cycle count grows as 1/(1 - 2 gamma), so gamma is drawn
# from a narrow band to keep the work per run nearly constant across seeds.
GAMMA_REF = 0.1
GAMMA_HALF_BAND = 0.005

# Runs per noise channel, chosen so that no channel dominates the workload
# (about 1.5 to 2.5 s each on a 2-core x86-64 host).
NOISE_CHANNELS = (
    ("pulse_separation", "per_segment", 24),
    ("pulse_phase", "per_pulse", 24),
    ("gamma", "per_segment", 4),
    ("atom_number", "per_run", 80),
)
NOISE_SIGMA = 0.10

# Optimal initial states of the sweep at gamma < 1/2: along +y or -y.
SWEEP_OPTIMA = ((math.pi / 2.0, math.pi / 2.0), (math.pi / 2.0, 1.5 * math.pi))

# Relative tolerance of the golden-section refinement (REFINE_XTOL in
# lmgsqueeze.metrics); refined times may move by up to twice this.
GOLDEN_XTOL = 1e-6
XI2_RTOL = 1e-8
INTEGER_COLUMNS = {"bracketed", "index", "run", "n_spins", "clamped_segments", "cycle", "refined"}
STRING_COLUMNS = {"trace"}
TIME_COLUMNS = {"t", "t_min", "chiN_t", "chiN_t_min", "t_min_nominal"}


@dataclass(frozen=True)
class Experiment:
    """One CLI call: ``lmgsqueeze <command> --config <tag>.json --out <tag>``."""

    tag: str
    command: str
    config: dict
    tables: tuple


WORKLOADS = ("sweep_n100", "pulsed_n1000", "noise_n100")


def _draw_gamma(seed: int) -> float:
    rng = random.Random(seed)
    return round(rng.uniform(GAMMA_REF - GAMMA_HALF_BAND, GAMMA_REF + GAMMA_HALF_BAND), 6)


def make_workload(name: str, seed: int) -> tuple:
    """The experiments of workload ``name`` at ``seed``, in run order."""
    if name == "sweep_n100":
        config = {
            "chi": 1.0,
            "gamma": _draw_gamma(seed),
            "n_spins": 100,
            "theta_points": 33,
            "phi_points": 33,
            "grid_points": 300,
            "workers": 1,
        }
        return (Experiment("sweep", "sweep-initial-state", config, ("grid", "argmin")),)
    if name == "pulsed_n1000":
        config = {
            "chi": 1.0,
            "gamma": _draw_gamma(seed),
            "n_spins": 1000,
            "max_step": 0.05,
            "workers": 1,
        }
        return (Experiment("pulsed", "compare-pulsed", config, ("traces", "minima")),)
    if name == "noise_n100":
        return tuple(
            Experiment(
                f"noise_{channel}",
                "noise",
                {
                    "chi": 1.0,
                    "gamma": GAMMA_REF,
                    "n_spins": 100,
                    "axis": "z",
                    "channel": channel,
                    "scope": scope,
                    "relative_sigma": NOISE_SIGMA,
                    "n_runs": n_runs,
                    "seed": seed,
                    "workers": 1,
                },
                ("runs", "trace_stats", "summary"),
            )
            for channel, scope, n_runs in NOISE_CHANNELS
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# Spans each workload must reach in a traced run.
_COMMON_SPANS = (
    "cli.validate_config",
    "algebra.second_moment_operators",
    "algebra.quadratic_form",
    "states.coherent_state",
    "propagate.hamiltonian_eig",
    "propagate.evolve_batch",
    "linalg.eigh",
    "metrics.batch_squeezing",
    "metrics.trace_from_states",
    "metrics.first_local_minimum",
    "metrics.minimize_hamiltonian",
    "experiments.write_result",
)
EXPECTED_SPANS = {
    "sweep_n100": _COMMON_SPANS + ("canonical.realize_hamiltonian",),
    "pulsed_n1000": _COMMON_SPANS
    + (
        "canonical.realize_hamiltonian",
        "states.rotate_state",
        "propagate.evolve",
        "propagate.run_schedule",
        "pulses.effective_hamiltonian",
        "experiments.predicted_optimal_time",
    ),
    "noise_n100": _COMMON_SPANS
    + (
        "states.rotate_state",
        "propagate.evolve",
        "pulses.effective_hamiltonian",
        "experiments.predicted_optimal_time",
        "experiments.noise_monte_carlo",
    ),
}


class CheckFailed(Exception):
    """An output check found a wrong or missing result."""


def read_table(out_dir: str, table: str) -> list:
    """Rows of ``<out_dir>/<table>.csv`` as dicts of strings."""
    path = os.path.join(out_dir, f"{table}.csv")
    if not os.path.isfile(path):
        raise CheckFailed(f"missing table {path}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_sweep(exp: Experiment, tables: dict, shared: dict) -> None:
    (best,) = tables["argmin"]
    theta0, phi0, xi2 = float(best["theta0"]), float(best["phi0"]), float(best["xi2_min"])
    d_theta = math.pi / (exp.config["theta_points"] - 1)
    d_phi = 2.0 * math.pi / exp.config["phi_points"]
    slack = 1.0 + 1e-9
    if not any(
        abs(theta0 - theta) <= d_theta * slack and abs(phi0 - phi) <= d_phi * slack
        for theta, phi in SWEEP_OPTIMA
    ):
        raise CheckFailed(f"argmin ({theta0}, {phi0}) not within one grid cell of {SWEEP_OPTIMA}")
    rows = [r for r in tables["grid"] if r["theta"] == best["theta0"] and r["phi"] == best["phi0"]]
    if len(rows) != 1 or rows[0]["bracketed"] != "1" or not xi2 < 1.0:
        raise CheckFailed(f"argmin not a bracketed minimum with xi2 < 1 (xi2 = {xi2})")


def _check_pulsed(exp: Experiment, tables: dict, shared: dict) -> None:
    # At N = 1000 and N chi t_c = 0.05 the per-cycle phase chi N^2 t_c is
    # about 50 rad, so the pulsed minima carry a large stroboscopic error
    # and are not compared with the two-axis-twisting reference; the
    # reference comparison at the default seed pins them instead.
    starts = [r for r in tables["traces"] if r["index"] == "0"]
    if len(starts) != 4 or not all(abs(float(r["xi2"]) - 1.0) <= 1e-9 for r in starts):
        raise CheckFailed("traces do not all start from a coherent state (xi2 = 1)")
    minima = {r["trace"]: r for r in tables["minima"]}
    xi2 = {name: float(r["xi2_min"]) for name, r in minima.items()}
    if not xi2["tat"] < xi2["lmg"]:
        raise CheckFailed(f"two-axis twisting {xi2['tat']} does not beat lmg {xi2['lmg']}")
    if not max(xi2["pulsed_z"], xi2["pulsed_y"]) < 1.0:
        raise CheckFailed("a pulsed trace does not squeeze")
    if not float(minima["pulsed_z"]["t_min"]) < float(minima["pulsed_y"]["t_min"]):
        raise CheckFailed("pulsed_z minimum is not earlier than pulsed_y")


def _check_noise(exp: Experiment, tables: dict, shared: dict) -> None:
    (summary,) = tables["summary"]
    noiseless = shared.setdefault("noiseless_xi2_min", summary["noiseless_xi2_min"])
    if summary["noiseless_xi2_min"] != noiseless:
        raise CheckFailed(f"noiseless_xi2_min {summary['noiseless_xi2_min']} != {noiseless}")
    values = [float(r["xi2_min"]) for r in tables["runs"]]
    values.append(float(summary["median_xi2_min"]))
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed("non-finite xi2_min")


CHECKS = {
    "sweep-initial-state": _check_sweep,
    "compare-pulsed": _check_pulsed,
    "noise": _check_noise,
}


def _values_match(column: str, got: str, want: str) -> bool:
    if column in INTEGER_COLUMNS or column in STRING_COLUMNS or got == want:
        return got == want
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    rtol = 2.0 * GOLDEN_XTOL if column in TIME_COLUMNS else XI2_RTOL
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)


def compare_reference(tables: dict, reference_dir: str) -> None:
    """Compare every table against the CSVs recorded at DEFAULT_SEED."""
    for name, rows in tables.items():
        want = read_table(reference_dir, name)
        if len(rows) != len(want):
            raise CheckFailed(f"{name}: {len(rows)} rows, reference has {len(want)}")
        for i, (row, ref) in enumerate(zip(rows, want)):
            if row.keys() != ref.keys():
                raise CheckFailed(f"{name}: columns {list(row)} != {list(ref)}")
            for column in row:
                if not _values_match(column, row[column], ref[column]):
                    raise CheckFailed(
                        f"{name} row {i} {column}: {row[column]} != reference {ref[column]}"
                    )


def check_experiment(exp: Experiment, out_dir: str, shared: dict, reference_dir=None) -> None:
    """Raise CheckFailed unless the outputs of ``exp`` in ``out_dir`` hold."""
    tables = {name: read_table(out_dir, name) for name in exp.tables}
    try:
        CHECKS[exp.command](exp, tables, shared)
        if reference_dir is not None:
            compare_reference(tables, reference_dir)
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
