"""The noise Monte Carlo's per-run draws against their law.

A per-run gamma or chi is the nominal value times 1 + sigma Z, Z standard
normal, and a drawn atom number is N (1 + sigma Z) rounded.  The runs table
reports each realized value, so over a few hundred runs the
Kolmogorov-Smirnov distance between the realized values and that law must
stay below 1.95 / sqrt(runs), the critical value at the 0.1 % level
(Kolmogorov's asymptotic distribution).  A total time and a cycle count are
given, so no prediction scan runs.
"""

import math

import numpy as np
import pytest

from lmgsqueeze.canonical import from_chi_gamma
from lmgsqueeze.experiments import NoiseSpec, noise_monte_carlo
from lmgsqueeze.pulses import design

RUNS = 400
SIGMA = 0.1
SEED = 3
BOUND = 1.95 / math.sqrt(RUNS)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ks_distance(samples) -> float:
    """sup |F_n - Phi| of the samples against N(0, 1)."""
    x = np.sort(np.asarray(samples, dtype=float))
    cdf = np.array([normal_cdf(value) for value in x])
    n = x.size
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))


def realized_runs(channel: str, n_spins: int) -> dict:
    model = from_chi_gamma(1.0, 0.1, n_spins)
    result = noise_monte_carlo(
        model,
        design(model, "z", "A"),
        NoiseSpec(channel, SIGMA, "per_run"),
        RUNS,
        SEED,
        total_time=0.1,
        cycles=2,
    )
    table = result.tables["runs"]
    columns = {name: [row[i] for row in table.rows] for i, name in enumerate(table.columns)}
    return model, columns


@pytest.mark.parametrize("channel", ["gamma", "chi"])
def test_a_drawn_model_value_follows_its_gaussian_law(channel):
    model, columns = realized_runs(channel, 4)
    nominal = getattr(model, channel)
    scores = [(value / nominal - 1.0) / SIGMA for value in columns[channel]]
    assert ks_distance(scores) < BOUND


def test_a_drawn_atom_number_follows_its_rounded_gaussian_law():
    n = 40
    _, columns = realized_runs("atom_number", n)
    drawn = np.array(columns["n_spins"])
    assert np.all(drawn >= 1)
    for k in range(1, 2 * n + 1):
        empirical = np.mean(drawn <= k)
        assert abs(empirical - normal_cdf(((k + 0.5) / n - 1.0) / SIGMA)) < BOUND, k
