"""Command-line front end: config parsing, experiment dispatch, data emission.

Configs are JSON (a single self-describing file); command-line flags override
config values.  A previously written descriptor.json is itself a valid
config: re-running it reproduces the original outputs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 domain error (for example an
isotropic coupling or an impossible pulse axis), 4 I/O error, 1 unexpected.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .algebra import TRACE_BLOCKS, require_memory
from .canonical import CouplingMatrix, canonicalize, from_chi_gamma
from .errors import ConfigError, LmgError
from .experiments import (
    NoiseSpec,
    _fmt,
    compare_pulsed,
    evolve_trace,
    noise_monte_carlo,
    scaling_study,
    sweep_bytes,
    sweep_gamma,
    sweep_initial_state,
    write_result,
)
from .metrics import SCAN_CHUNK, SCAN_SAMPLE_BYTES
from .pulses import design
from .states import BlochAngles

EXPERIMENTS = (
    "evolve",
    "sweep-initial-state",
    "sweep-gamma",
    "compare-pulsed",
    "scaling",
    "noise",
)
INSPECT_COMMANDS = ("canonicalize", "design")
# Each worker is a process, and a process pool may start all of them at once.
MAX_WORKERS = 64

_DEFAULTS = {
    "seed": 0,
    "workers": 1,
    "initial": {"theta": math.pi / 2.0, "phi": math.pi / 2.0},
    "axis": "z",
    "branch": "A",
    "max_step": 0.05,
    "horizon": None,
    "grid_points": None,
    "cycles": None,
    "total_time": None,
    "theta_points": 33,
    "phi_points": 33,
    "gammas": None,
    "n_grid": [50, 100, 200, 400],
    "variants": ["OAT", "TAT", "LMG", "pulsed"],
    "channel": None,
    "relative_sigma": None,
    "scope": None,
    "n_runs": 100,
    "output_dir": None,
}
_KNOWN_KEYS = {"experiment", "n_spins", "chi", "gamma", "coupling"} | set(_DEFAULTS)
# Model keys a command may leave out, filled with these values so that its
# config validates: the inspect commands need no N and default to chi = 1,
# gamma = 0; sweep-gamma sets gamma, and scaling N, at each of its points.
_FILLED = {"n_spins": 100, "chi": 1.0, "gamma": 0.0}
_OMITTABLE_KEYS = {
    "canonicalize": ("n_spins", "chi", "gamma"),
    "design": ("n_spins", "chi", "gamma"),
    "sweep-gamma": ("gamma",),
    "scaling": ("n_spins",),
}


def trace_bytes(experiment: str, n_spins: int, grid_points: int) -> int:
    """Memory an experiment holds at once for its traces on ``grid_points``
    times at ``n_spins``.  evolve samples the whole grid as one block; the
    sweeps and scaling scan it SCAN_CHUNK times at a time and keep
    SCAN_SAMPLE_BYTES per time, and the initial-state sweep also keeps one
    (N+1) x grid_points phase table for every point."""
    block = 16 * (n_spins + 1)
    if experiment == "evolve":
        return TRACE_BLOCKS * block * grid_points
    needed = TRACE_BLOCKS * block * min(grid_points, SCAN_CHUNK) + SCAN_SAMPLE_BYTES * grid_points
    if experiment == "sweep-initial-state":
        needed += block * grid_points
    return needed


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _require_number(cfg, key, lo=None, hi=None, allow_none=False, integer=False, positive=False):
    value = cfg.get(key)
    if value is None:
        if allow_none:
            return None
        _fail(key, "missing required field")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(key, f"must be finite, got {value!r}")
    if integer and int(value) != value:
        _fail(key, f"expected an integer, got {value!r}")
    if positive and value <= 0:
        _fail(key, f"must be > 0, got {value}")
    if lo is not None and value < lo:
        _fail(key, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        _fail(key, f"must be <= {hi}, got {value}")
    return int(value) if integer else float(value)


def _read_config(text: str | bytes) -> dict:
    """The config object of a JSON config or descriptor.json, as text or bytes."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "tool" in raw and "parameters" in raw:
        # descriptor.json round-trip: the embedded config is authoritative
        raw = raw.get("config", raw["parameters"])
        if not isinstance(raw, dict):
            raise ConfigError("descriptor does not embed a config object")
    return raw


def parse_config(text: str) -> dict:
    """Parse and validate a JSON config (or descriptor.json) into a resolved
    config dict with all defaults filled.  Unknown keys are rejected."""
    return validate_config(_read_config(text))


def validate_config(raw: dict) -> dict:
    for key in raw:
        if key not in _KNOWN_KEYS:
            _fail(key, "unknown key")

    cfg = dict(_DEFAULTS)
    cfg.update(raw)

    experiment = cfg.get("experiment")
    if experiment is None:
        _fail("experiment", "missing required field")
    if experiment not in EXPERIMENTS + INSPECT_COMMANDS:
        _fail(
            "experiment",
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS + INSPECT_COMMANDS}",
        )

    has_coupling = cfg.get("coupling") is not None
    has_direct = cfg.get("chi") is not None or cfg.get("gamma") is not None
    if has_coupling and has_direct:
        raise ConfigError(
            "coupling, chi/gamma: exactly one of a coupling matrix or direct "
            "(chi, gamma) may be given, got both"
        )
    if not has_coupling and not has_direct:
        raise ConfigError("coupling, chi/gamma: one of them is required")
    if has_coupling:
        coupling = cfg["coupling"]
        if not isinstance(coupling, (list, tuple)) or len(coupling) != 9:
            _fail("coupling", "expected a 9-element row-major array")
        cfg["coupling"] = [
            _require_number({f"coupling[{i}]": x}, f"coupling[{i}]")
            for i, x in enumerate(coupling)
        ]
    else:
        _require_number(cfg, "chi", positive=True)
        _require_number(cfg, "gamma", lo=0.0, hi=1.0)

    cfg["n_spins"] = _require_number(cfg, "n_spins", lo=1, integer=True)
    cfg["seed"] = _require_number(cfg, "seed", lo=0, integer=True)
    cfg["workers"] = _require_number(cfg, "workers", lo=1, hi=MAX_WORKERS, integer=True)

    initial = cfg.get("initial")
    if isinstance(initial, (list, tuple)) and len(initial) == 2:
        initial = {"theta": initial[0], "phi": initial[1]}
    if not isinstance(initial, dict) or set(initial) != {"theta", "phi"}:
        _fail("initial", 'expected {"theta": ..., "phi": ...} or a [theta, phi] pair')
    theta = _require_number(
        {"initial.theta": initial["theta"]}, "initial.theta", lo=0.0, hi=math.pi
    )
    phi = _require_number({"initial.phi": initial["phi"]}, "initial.phi", lo=0.0)
    if phi >= 2.0 * math.pi:
        _fail("initial.phi", f"must be < 2*pi, got {phi}")
    cfg["initial"] = {"theta": theta, "phi": phi}

    cfg["horizon"] = _require_number(cfg, "horizon", allow_none=True, positive=True)
    cfg["grid_points"] = _require_number(cfg, "grid_points", lo=100, allow_none=True, integer=True)
    if cfg["axis"] not in ("x", "y", "z"):
        _fail("axis", f"must be one of x, y, z, got {cfg['axis']!r}")
    if cfg["branch"] not in ("A", "B"):
        _fail("branch", f"must be A or B, got {cfg['branch']!r}")
    cfg["max_step"] = _require_number(cfg, "max_step", positive=True)
    cfg["cycles"] = _require_number(cfg, "cycles", lo=1, allow_none=True, integer=True)
    cfg["total_time"] = _require_number(cfg, "total_time", allow_none=True, positive=True)
    # counts, so that the sweep-grid size below is never a product of two
    # negatives; sweep_initial_state owns its >= 2 rule, which no other
    # experiment reads
    cfg["theta_points"] = _require_number(cfg, "theta_points", lo=0, integer=True)
    cfg["phi_points"] = _require_number(cfg, "phi_points", lo=0, integer=True)
    if cfg.get("gammas") is not None:
        if not isinstance(cfg["gammas"], (list, tuple)) or not cfg["gammas"]:
            _fail("gammas", "expected a non-empty array of gamma values")
        cfg["gammas"] = [
            _require_number({f"gammas[{i}]": g}, f"gammas[{i}]")
            for i, g in enumerate(cfg["gammas"])
        ]
    if not isinstance(cfg["n_grid"], (list, tuple)) or not cfg["n_grid"]:
        _fail("n_grid", "expected a non-empty array of spin counts")
    cfg["n_grid"] = [
        _require_number({f"n_grid[{i}]": n}, f"n_grid[{i}]", lo=1, integer=True)
        for i, n in enumerate(cfg["n_grid"])
    ]
    if not isinstance(cfg["variants"], (list, tuple)) or not cfg["variants"]:
        _fail("variants", "expected a non-empty array")
    cfg["variants"] = list(cfg["variants"])
    if not all(isinstance(v, str) for v in cfg["variants"]):
        _fail("variants", f"expected an array of names, got {cfg['variants']}")
    cfg["n_runs"] = _require_number(cfg, "n_runs", integer=True)

    # refuse, before anything is allocated, a trace or sweep grid whose arrays
    # would not fit in physical memory; only these experiments read grid_points
    # (compare-pulsed samples its z cycle grid, which pulses.schedule sizes)
    grid_readers = ("evolve", "sweep-initial-state", "sweep-gamma", "scaling")
    if cfg["grid_points"] is not None and experiment in grid_readers:
        n = max(cfg["n_grid"]) if experiment == "scaling" else cfg["n_spins"]
        require_memory(
            trace_bytes(experiment, n, cfg["grid_points"]),
            f"traces of grid_points={cfg['grid_points']} at n_spins={n}",
        )
    if experiment == "sweep-initial-state":
        grid = (cfg["theta_points"], cfg["phi_points"])
        require_memory(sweep_bytes(*grid), f"the objects of a {grid[0]} x {grid[1]} sweep grid")

    if experiment == "noise":
        if cfg.get("channel") is None:
            _fail("channel", "missing required field for the noise experiment")
        cfg["relative_sigma"] = _require_number(cfg, "relative_sigma")
        # the NoiseSpec constructor validates channel, scope, and sigma
        NoiseSpec(cfg["channel"], cfg["relative_sigma"], cfg.get("scope"))

    if cfg.get("output_dir") is not None and not isinstance(cfg["output_dir"], str):
        _fail("output_dir", "expected a path string")
    return cfg


def build_model(cfg: dict):
    if cfg.get("coupling") is not None:
        matrix = np.array(cfg["coupling"], dtype=float).reshape(3, 3)
        return canonicalize(CouplingMatrix(chi=matrix), cfg["n_spins"])
    return from_chi_gamma(cfg["chi"], cfg["gamma"], cfg["n_spins"])


def _summary(experiment: str, parts: dict, out_dir) -> str:
    body = " ".join(f"{k}={_fmt(v)}" for k, v in parts.items())
    return f"{experiment} {body} out={out_dir}"


def run(cfg: dict) -> int:
    """Dispatch a validated config, write outputs, print a one-line summary."""
    experiment = cfg["experiment"]
    model = build_model(cfg)
    initial = BlochAngles(theta=cfg["initial"]["theta"], phi=cfg["initial"]["phi"])

    if experiment == "canonicalize":
        print(
            f"chi={model.chi:.12g} gamma={model.gamma:.12g} "
            f"sign_flipped={str(model.sign_flipped).lower()} "
            f"dropped_constant={model.dropped_constant:.12g}"
        )
        for row in model.frame:
            print("frame: " + " ".join(f"{v: .12g}" for v in row))
        return 0

    if experiment == "design":
        design_ = design(model, cfg["axis"], cfg["branch"])
        ratio = "none" if design_.ratio_t2_t1 is None else f"{design_.ratio_t2_t1:.12g}"
        print(
            f"axis={design_.axis} branch={design_.branch} ratio_t2_t1={ratio} "
            f"chi_eff={design_.chi_eff:.12g} form={design_.effective_form} "
            f"no_pulse={str(design_.no_pulse).lower()}"
        )
        return 0

    out_dir = cfg.get("output_dir") or f"{experiment}-out"
    # the experiments own their default trace grids
    grid = {} if cfg["grid_points"] is None else {"grid_points": cfg["grid_points"]}

    if experiment == "evolve":
        result = evolve_trace(model, initial, horizon=cfg.get("horizon"), **grid)
        row = result.tables["minimum"].rows[0]
        parts = {"xi2_min": row[2], "t_min": row[0]}
    elif experiment == "sweep-initial-state":
        result = sweep_initial_state(
            model,
            theta_points=cfg["theta_points"],
            phi_points=cfg["phi_points"],
            horizon=cfg.get("horizon"),
            workers=cfg["workers"],
            **grid,
        )
        theta0, phi0, xi2_min = result.tables["argmin"].rows[0]
        parts = {"theta0": theta0, "phi0": phi0, "xi2_min": xi2_min}
    elif experiment == "sweep-gamma":
        gammas = cfg.get("gammas") or [round(0.05 * i, 10) for i in range(11)]
        result = sweep_gamma(
            cfg["n_spins"], gammas, chi=model.chi, horizon=cfg.get("horizon"), **grid
        )
        best = min(result.tables["gamma_sweep"].rows, key=lambda r: r[1])
        parts = {"gamma_best": best[0], "xi2_min": best[1], "t_min": best[2]}
    elif experiment == "compare-pulsed":
        result = compare_pulsed(
            model, branch=cfg["branch"], max_step=cfg["max_step"], lmg_initial=initial
        )
        minima = {row[0]: row for row in result.tables["minima"].rows}
        parts = {
            "xi2_min": minima["pulsed_z"][3],
            "t_min": minima["pulsed_z"][1],
        }
    elif experiment == "scaling":
        result = scaling_study(
            model.gamma,
            cfg["n_grid"],
            variants=cfg["variants"],
            chi=model.chi,
            axis=cfg["axis"],
            branch=cfg["branch"],
            # config max_step is the per-cycle bound at N = 100; the study
            # tightens it as 1/N to keep the stroboscopic error flat
            pulsed_step_product=cfg["max_step"] * 100.0,
            **grid,
        )
        parts = {
            f"slope_{row[0]}": row[1] for row in result.tables["slopes"].rows
        }
    else:  # noise
        design_ = design(model, cfg["axis"], cfg["branch"])
        noise = NoiseSpec(cfg["channel"], cfg["relative_sigma"], cfg.get("scope"))
        result = noise_monte_carlo(
            model,
            design_,
            noise,
            n_runs=cfg["n_runs"],
            seed=cfg["seed"],
            max_step=cfg["max_step"],
            total_time=cfg.get("total_time"),
            cycles=cfg.get("cycles"),
            workers=cfg["workers"],
        )
        summary = result.tables["summary"].rows[0]
        parts = {"median_xi2_min": summary[1], "noiseless_xi2_min": summary[0]}

    result.descriptor["config"] = dict(cfg)
    result.descriptor["model"] = {
        "chi": model.chi,
        "gamma": model.gamma,
        "sign_flipped": model.sign_flipped,
        "n_spins": model.n_spins,
        "dropped_constant": model.dropped_constant,
    }
    result.descriptor.setdefault("rng", {})["seed"] = cfg["seed"]
    write_result(result, out_dir)
    print(_summary(experiment, parts, out_dir))
    return 0


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="path to a JSON config (or descriptor.json)")
    parser.add_argument("--seed", type=int, help="root RNG seed")
    parser.add_argument("--workers", type=int, help="parallel worker cap")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--chi", type=float, help="canonical interaction strength")
    parser.add_argument("--gamma", type=float, help="anisotropy in [0, 1]")
    parser.add_argument("--n-spins", type=int, dest="n_spins", help="atom count")
    parser.add_argument(
        "--coupling",
        help="9 comma-separated row-major entries of the pairwise coupling",
    )
    parser.add_argument("--axis", choices=("x", "y", "z"), help="pulse axis")
    parser.add_argument("--branch", choices=("A", "B"), help="timing branch")
    parser.add_argument("--max-step", type=float, dest="max_step", help="N*chi*t_c bound")
    parser.add_argument("--cycles", type=int, help="explicit cycle count")
    parser.add_argument("--channel", help="noise channel name")
    parser.add_argument(
        "--relative-sigma", type=float, dest="relative_sigma", help="noise level"
    )
    parser.add_argument("--n-runs", type=int, dest="n_runs", help="Monte Carlo runs")


def _flag_overrides(args: argparse.Namespace) -> dict:
    overrides = {
        key: value
        for key, value in vars(args).items()
        if value is not None and key not in ("command", "config", "coupling", "out")
    }
    if args.coupling is not None:
        try:
            overrides["coupling"] = [float(x) for x in args.coupling.split(",")]
        except ValueError as exc:
            raise ConfigError(f"coupling: {exc}") from exc
    if args.out is not None:
        overrides["output_dir"] = args.out
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lmgsqueeze",
        description="Spin-squeezing simulator for quadratic collective-spin models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + INSPECT_COMMANDS:
        _add_common_flags(sub.add_parser(name))
    args = parser.parse_args(argv)

    try:
        raw = {}
        if args.config:
            with open(args.config, "rb") as fh:
                raw.update(_read_config(fh.read()))
        raw.update(_flag_overrides(args))
        raw["experiment"] = args.command
        for key in _OMITTABLE_KEYS.get(args.command, ()):
            # a coupling matrix gives chi and gamma, which may not be given twice
            if key == "n_spins" or "coupling" not in raw:
                raw.setdefault(key, _FILLED[key])
        cfg = validate_config(raw)
        return run(cfg)
    except ConfigError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except LmgError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
