"""The noise channels against their physics, with no draw rule of the Monte
Carlo restated.

With instantaneous pulses a drawn chi only rescales time: chi v H for a
time t is chi H for a time v t.  And a per-run outcome is a deterministic
function f of the run's draw, so the Monte Carlo mean and variance of xi2
at each cycle boundary must match the integrals of f and f^2 over the
draw's law: Gauss-Hermite quadrature (``hermegauss``, the probabilists'
weight exp(-x^2/2)) for a factor 1 + sigma Z, times the trapezoid rule for
a uniform azimuth, and a sum over the rounded law of an atom number.  Each
f is ``run_schedule`` on a schedule or a model changed by hand.  The Monte
Carlo must fall within 4 standard errors of each integral; the variance is
compared too, since at sigma = 0.1 a mean alone barely tells some channels
from the nominal trace.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from lmgsqueeze import experiments
from lmgsqueeze.algebra import Eigenbasis, build_space, collective_operator
from lmgsqueeze.canonical import from_chi_gamma
from lmgsqueeze.experiments import NoiseSpec, noise_monte_carlo
from lmgsqueeze.propagate import FreeSegment, PulseSchedule, PulseSegment, run_schedule
from lmgsqueeze.pulses import design, schedule
from lmgsqueeze.states import coherent_state

N_QUAD = 8
SIGMA = 0.1
RUNS = 400
SEED = 5
CYCLES = 20
CHI_N_TIME = 3.2  # chi N t at the schedule's end: 0.4 at N = 8
GAMMA = 0.1


def nominal(axis: str, n_spins: int = N_QUAD):
    """(model, design, schedule, initial state) of a nominal pulsed run."""
    model = from_chi_gamma(1.0, GAMMA, n_spins)
    design_ = design(model, axis, "A")
    sch = schedule(design_, model, CHI_N_TIME / n_spins, cycles=CYCLES)
    return model, design_, sch, coherent_state(build_space(n_spins), design_.optimal_initial)


def rebuilt(sch, free=lambda seg: seg, pulse=lambda seg: (seg,)) -> PulseSchedule:
    """``sch`` with each free segment replaced by ``free(seg)`` and each
    pulse by the segments ``pulse(seg)``."""
    segments = []
    for seg in sch.segments:
        segments += [free(seg)] if isinstance(seg, FreeSegment) else pulse(seg)
    return PulseSchedule(tuple(segments), sch.cycle_count)


def stretched(sch, factor: float) -> PulseSchedule:
    return rebuilt(sch, free=lambda seg: FreeSegment(seg.duration * factor))


@pytest.mark.parametrize("factor", [0.9, 1.07, 1.2])
@pytest.mark.parametrize("axis", ["z", "y"])
@pytest.mark.parametrize("n_spins", [12, 100])
def test_a_chi_factor_is_a_time_scale(n_spins, axis, factor):
    # chi v (Sx^2 + gamma Sy^2) for the nominal durations is the nominal
    # model for every free duration times v: the pulses take no time
    model, _, sch, psi = nominal(axis, n_spins)
    scaled_model = from_chi_gamma(model.chi * factor, model.gamma, n_spins)
    want = run_schedule(psi, sch, scaled_model).xi2
    got = run_schedule(psi, stretched(sch, factor), model).xi2
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def monte_carlo(monkeypatch, model, design_, noise, n_runs=RUNS):
    """Each run's (xi2 at every cycle boundary, realized (n_spins, gamma,
    chi)) from ``noise_monte_carlo`` on the schedule of ``nominal``; the
    tables report minima only."""
    seen = []
    outcomes = experiments._noise_outcomes

    def keeping(*args):
        seen.extend(outcomes(*args))
        return seen

    monkeypatch.setattr(experiments, "_noise_outcomes", keeping)
    total_time = CHI_N_TIME / model.n_spins
    noise_monte_carlo(model, design_, noise, n_runs, SEED, total_time=total_time, cycles=CYCLES)
    return np.array([xi2 for xi2, *_ in seen]), [realized for _, realized, *_ in seen]


@pytest.mark.parametrize("axis", ["z", "y"])
@pytest.mark.parametrize("n_spins", [12, 100])
def test_each_chi_run_is_the_schedule_on_its_realized_model(monkeypatch, n_spins, axis):
    model, design_, sch, psi = nominal(axis, n_spins)
    traces, realized = monte_carlo(monkeypatch, model, design_, NoiseSpec("chi", SIGMA), n_runs=5)
    for xi2, (n, gamma, chi) in zip(traces, realized):
        assert (n, gamma) == (model.n_spins, model.gamma) and chi != model.chi
        want = run_schedule(psi, sch, from_chi_gamma(chi, gamma, n)).xi2
        np.testing.assert_allclose(xi2, want, rtol=1e-12, atol=0.0)


def law_moments(values: np.ndarray, weights: np.ndarray) -> tuple:
    """Mean, variance and fourth central moment per column of ``values``
    under probability ``weights``."""
    mean = weights @ values
    return mean, weights @ (values - mean) ** 2, weights @ (values - mean) ** 4


def assert_within_errors(samples: np.ndarray, moments: tuple):
    """The sample mean and variance of each column of ``samples`` within 4
    standard errors of the law's, the errors taken from the law's moments
    (1e-12 covers the columns that every run shares, such as the initial
    state's)."""
    mean, variance, fourth = moments
    n = len(samples)
    sample_variance = np.var(samples, axis=0, ddof=1)
    mean_error = np.sqrt(variance / n)
    variance_error = np.sqrt(np.maximum(fourth - variance**2, 0.0) / n)
    assert np.all(np.abs(samples.mean(axis=0) - mean) <= 4.0 * mean_error + 1e-12)
    assert np.all(np.abs(sample_variance - variance) <= 4.0 * variance_error + 1e-12)


def gaussian_nodes() -> tuple:
    """20-node Gauss-Hermite nodes and weights for a standard normal Z."""
    nodes, weights = hermegauss(20)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def gaussian_law(f) -> tuple:
    """``law_moments`` of f(1 + SIGMA Z) by Gauss-Hermite quadrature."""
    nodes, weights = gaussian_nodes()
    return law_moments(np.array([f(1.0 + SIGMA * x) for x in nodes]), weights)


def per_run_outcome(channel: str, model, sch, psi):
    """f(v): the xi2 trace of a run whose one per-run factor is v."""

    def outcome(v):
        if channel == "pulse_separation":
            return run_schedule(psi, stretched(sch, v), model)
        if channel == "pulse_area":
            scaled = rebuilt(sch, pulse=lambda seg: (PulseSegment(seg.axis, seg.angle * v),))
            return run_schedule(psi, scaled, model)
        if channel == "chi":
            return run_schedule(psi, sch, from_chi_gamma(model.chi * v, model.gamma, N_QUAD))
        return run_schedule(psi, sch, from_chi_gamma(model.chi, model.gamma * v, N_QUAD))

    return lambda v: outcome(v).xi2


@pytest.mark.parametrize("channel", ["pulse_separation", "pulse_area", "chi", "gamma"])
@pytest.mark.parametrize("axis", ["z", "y"])
def test_a_per_run_factor_matches_its_gaussian_quadrature(monkeypatch, axis, channel):
    model, design_, sch, psi = nominal(axis)
    traces, _ = monte_carlo(monkeypatch, model, design_, NoiseSpec(channel, SIGMA, "per_run"))
    assert_within_errors(traces, gaussian_law(per_run_outcome(channel, model, sch, psi)))


def tilted_pulse(space, axis: str, angle: float, tilt: float, azimuth: float) -> FreeSegment:
    """exp(-i angle n.S), n tilted by ``tilt`` from the pulse axis toward
    ``azimuth`` in the plane perpendicular to it: a free segment of duration
    |angle| under n.S (or -n.S), which applies that rotation exactly."""
    others = {"z": "xy", "y": "zx", "x": "yz"}[axis]
    direction = {axis: math.cos(tilt)}
    direction[others[0]] = math.sin(tilt) * math.cos(azimuth)
    direction[others[1]] = math.sin(tilt) * math.sin(azimuth)
    generator = sum(direction[a] * collective_operator(space, f"S{a}") for a in "xyz")
    return FreeSegment(abs(angle), Eigenbasis.of(math.copysign(1.0, angle) * generator))


@pytest.mark.parametrize("axis", ["z", "y"])
def test_a_per_run_tilt_matches_its_quadrature(monkeypatch, axis):
    # each pulse turns about one axis tilted by delta ~ N(0, (sigma pi/2)^2)
    # toward an azimuth uniform on [0, 2 pi): Gauss-Hermite in delta times
    # the trapezoid rule in the azimuth, whose 16 points agree with 32 to
    # 3e-10 in mean and variance, far inside the Monte Carlo's errors
    model, design_, sch, psi = nominal(axis)
    traces, _ = monte_carlo(monkeypatch, model, design_, NoiseSpec("pulse_phase", SIGMA, "per_run"))
    space = psi.space
    azimuths = 2.0 * math.pi * np.arange(16) / 16
    nodes, weights = gaussian_nodes()
    values = [
        run_schedule(
            psi,
            rebuilt(sch, pulse=lambda seg: (tilted_pulse(space, seg.axis, seg.angle, tilt, b),)),
            model,
        ).xi2
        for tilt in SIGMA * (math.pi / 2.0) * nodes
        for b in azimuths
    ]
    point_weights = np.repeat(weights / len(azimuths), len(azimuths))
    assert_within_errors(traces, law_moments(np.array(values), point_weights))


def test_a_drawn_atom_number_matches_its_rounded_law(monkeypatch):
    # N (1 + sigma Z) rounded to the nearest integer, at least 1: each N' is
    # the nominal schedule run on N' spins from the same coherent direction
    model, design_, sch, _ = nominal("z")
    traces, _ = monte_carlo(monkeypatch, model, design_, NoiseSpec("atom_number", SIGMA))

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    counts = np.arange(1, 2 * N_QUAD + 1)
    upper = [cdf(((k + 0.5) / N_QUAD - 1.0) / SIGMA) for k in counts]
    weights = np.diff([0.0] + upper)  # k = 1 takes every draw below 1.5
    values = np.array(
        [
            run_schedule(
                coherent_state(build_space(k), design_.optimal_initial),
                sch,
                from_chi_gamma(model.chi, model.gamma, k),
            ).xi2
            for k in counts
        ]
    )
    assert 1.0 - weights.sum() < 1e-12
    assert_within_errors(traces, law_moments(values, weights))
