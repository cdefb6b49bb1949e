"""Running an experiment leaves every module-level container of lmgsqueeze
as it was, so no process-wide cache can grow with use unnoticed: objects
built for a Dicke space belong to that space."""

import math
import sys

from lmgsqueeze import cli  # noqa: F401  (the snapshot covers every module)
from lmgsqueeze.canonical import from_chi_gamma
from lmgsqueeze.experiments import (
    NoiseSpec,
    compare_pulsed,
    evolve_trace,
    noise_monte_carlo,
    sweep_initial_state,
)
from lmgsqueeze.pulses import design
from lmgsqueeze.states import BlochAngles


def container_lengths() -> dict:
    """Length of each module-level dict, list and set, by (module, name)."""
    lengths = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lmgsqueeze" or name.startswith("lmgsqueeze.")):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                lengths[name, attr] = len(value)
    return lengths


def test_experiments_leave_module_state_unchanged():
    before = container_lengths()
    assert ("lmgsqueeze.experiments", "DEFAULT_SCOPES") in before
    model = from_chi_gamma(1.0, 0.1, 23)
    evolve_trace(model, BlochAngles(math.pi / 2, math.pi / 2), grid_points=200)
    compare_pulsed(model)
    sweep_initial_state(model, theta_points=5, phi_points=4, grid_points=100)
    noise = NoiseSpec("atom_number", 0.2)
    noise_monte_carlo(model, design(model, "z", "A"), noise, n_runs=10, seed=3, cycles=5)
    assert container_lengths() == before
