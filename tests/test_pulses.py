import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmgsqueeze import algebra, pulses
from lmgsqueeze.algebra import (
    Eigenbasis,
    build_space,
    conjugated_coefficients,
    quadratic_form,
)
from lmgsqueeze.canonical import from_chi_gamma, realize_hamiltonian
from lmgsqueeze.errors import TooLarge, XAxisImpossible
from lmgsqueeze.experiments import NoiseSpec, noise_monte_carlo
from lmgsqueeze.metrics import SCAN_CHUNK, SCAN_SAMPLE_BYTES, TRACE_BLOCKS, TRACE_FIXED_BYTES
from lmgsqueeze.metrics import minimize_hamiltonian
from lmgsqueeze.propagate import FreeSegment, run_schedule
from lmgsqueeze.pulses import design, effective_hamiltonian, schedule
from lmgsqueeze.states import coherent_state, rotation
from oracles import FORM_COEFFICIENTS


def free_durations(sched) -> list:
    """The free durations of one cycle in run order: [t2, t1] for a pulsed
    design, [t_c] for free evolution."""
    return [seg.duration for seg in sched.segments if isinstance(seg, FreeSegment)]


def test_design_closed_forms_at_tenth():
    model = from_chi_gamma(1.0, 0.1, 100)
    z_a = design(model, "z", "A")
    assert z_a.ratio_t2_t1 == pytest.approx((0.1 - 2.0) / (0.2 - 1.0), abs=1e-12)
    assert z_a.ratio_t2_t1 == pytest.approx(2.375, abs=1e-12)
    assert z_a.chi_eff == pytest.approx(1.1 / 3.0, abs=1e-12)
    assert z_a.effective_form == "Sx2+2Sy2"
    y_a = design(model, "y", "A")
    assert y_a.ratio_t2_t1 == pytest.approx(1.1 / 1.9, abs=1e-12)
    assert y_a.chi_eff == pytest.approx(0.8 / 3.0, abs=1e-12)
    z_b = design(model, "z", "B")
    assert z_b.ratio_t2_t1 == pytest.approx(1.0 / 2.375, abs=1e-12)
    assert z_b.effective_form == "2Sx2+Sy2"


@pytest.mark.parametrize("max_step", [0.0, -0.05, math.nan, math.inf])
def test_schedule_refuses_a_step_bound_that_is_not_positive(max_step):
    # nan and inf would size the schedule by a failed or a one-cycle ceil
    model = from_chi_gamma(1.0, 0.1, 10)
    with pytest.raises(ValueError, match="max_step"):
        schedule(design(model, "z", "A"), model, 0.1, max_step=max_step)


@pytest.mark.parametrize("cycles", [0, -3, 2.5, math.nan])
def test_schedule_refuses_a_cycle_count_that_is_not_a_positive_integer(monkeypatch, cycles):
    # refused before the memory check, which must not see it, by the count
    # rule of every integer value (algebra.require_count); nan % 1 is nan
    rule = "an integer" if cycles % 1 else ">= 1"
    model = from_chi_gamma(1.0, 0.1, 10)
    design_ = design(model, "z", "A")

    def unreached(*args):
        raise AssertionError("memory checked before the cycle count")

    monkeypatch.setattr(pulses, "require_trace_memory", unreached)
    with pytest.raises(ValueError, match=rf"^cycles: must be {rule}, got"):
        schedule(design_, model, 1.0, cycles=cycles)
    monkeypatch.undo()
    noise = NoiseSpec("pulse_area", 0.1)
    with pytest.raises(ValueError, match=rf"^cycles: must be {rule}, got"):
        noise_monte_carlo(model, design_, noise, 2, seed=0, total_time=1.0, cycles=cycles)


def test_a_whole_float_cycle_count_runs_that_many_cycles():
    # one count rule for cycles as for n_runs: 3.0 is the integer 3
    model = from_chi_gamma(1.0, 0.1, 10)
    design_ = design(model, "z", "A")
    whole = schedule(design_, model, 1.0, cycles=3.0)
    assert whole == schedule(design_, model, 1.0, cycles=3)
    assert type(whole.cycle_count) is int
    noise = NoiseSpec("pulse_area", 0.1)
    runs = [
        noise_monte_carlo(model, design_, noise, 2, seed=0, total_time=1.0, cycles=count)
        for count in (3.0, 3)
    ]
    assert runs[0].descriptor == runs[1].descriptor
    assert runs[0].descriptor["parameters"]["cycles"] == 3


def test_oat_limit_recovers_known_ratio():
    model = from_chi_gamma(1.0, 0.0, 50)
    assert design(model, "z", "A").ratio_t2_t1 == pytest.approx(2.0, abs=1e-14)
    assert design(model, "z", "A").chi_eff == pytest.approx(1.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 0.49])
def test_x_axis_impossible(gamma):
    model = from_chi_gamma(1.0, gamma, 20)
    with pytest.raises(XAxisImpossible):
        design(model, "x", "A")


def test_already_tat_marker():
    model = from_chi_gamma(2.0, 0.5, 20)
    marker = design(model, "z", "A")
    assert marker.no_pulse
    assert marker.ratio_t2_t1 is None
    assert marker.chi_eff == pytest.approx(1.0, abs=1e-12)  # chi (1+gamma)/3 = chi/2
    assert marker.effective_form == "2Sx2+Sy2"


@pytest.mark.parametrize("gamma", np.linspace(0.0, 0.499, 25))
def test_ratio_positivity(gamma):
    model = from_chi_gamma(1.0, float(gamma), 10)
    for axis in ("z", "y"):
        for branch in ("A", "B"):
            assert design(model, axis, branch).ratio_t2_t1 > 0.0


@pytest.mark.parametrize("gamma", np.linspace(0.0, 0.49, 15))
@pytest.mark.parametrize("branch,target", [("A", 0.5), ("B", 2.0)])
def test_z_timing_consistency(gamma, branch, target):
    # (t1 + gamma t2) / (gamma t1 + t2) must hit 1/2 or 2 exactly
    model = from_chi_gamma(1.0, float(gamma), 10)
    sched = schedule(design(model, "z", branch), model, total_time=1.0, cycles=10)
    t2, t1 = free_durations(sched)
    ratio = (t1 + gamma * t2) / (gamma * t1 + t2)
    assert ratio == pytest.approx(target, abs=1e-12)


def test_effective_form_equivalence_to_two_axis():
    # Sx^2 + 2 Sy^2 - S^2 == Sy^2 - Sz^2
    space = build_space(12)
    lhs = quadratic_form(space, 1, 2, 0) - quadratic_form(space, 1, 1, 1)
    rhs = quadratic_form(space, 0, 1, -1)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_effective_hamiltonian_identities():
    space = build_space(10)
    model = from_chi_gamma(1.0, 0.1, 10)
    h_z = effective_hamiltonian(design(model, "z", "A"), model, space)
    target_z = (1.1 / 3.0) * quadratic_form(space, 1.0, 2.0, 0.0)
    assert np.max(np.abs(h_z - target_z)) < 1e-12
    h_y = effective_hamiltonian(design(model, "y", "A"), model, space)
    target_y = (0.8 / 3.0) * quadratic_form(space, 1.0, -1.0, 0.0) + (
        1.1 / 3.0
    ) * quadratic_form(space, 1.0, 1.0, 1.0)
    assert np.max(np.abs(h_y - target_y)) < 1e-12


@settings(max_examples=200)
@given(
    gamma=st.floats(0.0, 0.5, exclude_max=True),
    chi=st.floats(0.1, 10.0),
    axis=st.sampled_from(["z", "y"]),
    branch=st.sampled_from(["A", "B"]),
    n=st.integers(2, 30),
)
def test_effective_hamiltonian_is_design_form_for_all_gamma(gamma, chi, axis, branch, n):
    # the toggled average is chi_eff times the design's form plus a multiple
    # of S^2, which is c * I on the Dicke space
    model = from_chi_gamma(chi, gamma, n)
    space = build_space(n)
    design_ = design(model, axis, branch)
    h_eff = effective_hamiltonian(design_, model, space)
    form = FORM_COEFFICIENTS[design_.effective_form]
    rest = h_eff - design_.chi_eff * quadratic_form(space, *form)
    offset = rest - rest[0, 0] * np.eye(space.dim)
    assert np.max(np.abs(offset)) <= 1e-12 * np.max(np.abs(h_eff))


@settings(max_examples=150)
@given(
    n=st.integers(1, 30),
    coefficients=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    axis=st.sampled_from(["x", "y", "z"]),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_quarter_turn_swaps_the_other_two_coefficients(n, coefficients, axis, sign):
    # R^H Q(a, b, c) R for R = exp(-i theta S_axis), theta = +-pi/2: the rule
    # behind both the effective Hamiltonian and the toggling frame
    space = build_space(n)
    r = rotation(space, axis, sign * math.pi / 2)
    form = quadratic_form(space, *coefficients)
    swapped = quadratic_form(space, *conjugated_coefficients(axis, coefficients))
    scale = max(1.0, np.max(np.abs(form)))
    assert np.max(np.abs(r.conj().T @ form @ r - swapped)) <= 1e-12 * scale


def test_conjugated_coefficients_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        conjugated_coefficients("w", (1.0, 0.1, 0.0))


def test_schedule_respects_ratio_and_step():
    model = from_chi_gamma(1.0, 0.1, 100)
    design_ = design(model, "z", "A")
    sched = schedule(design_, model, total_time=0.08, max_step=0.05)
    assert sched.cycle_count == math.ceil(0.08 * 100 / 0.05)
    t2, t1 = free_durations(sched)
    assert t2 / t1 == pytest.approx(design_.ratio_t2_t1, rel=1e-12)
    assert sched.cycle_count * (t1 + t2) == pytest.approx(0.08, rel=1e-12)
    assert sched.cycle_count * model.n_spins * model.chi * (t1 + t2) >= 0.08 * 100


def test_max_step_halving_doubles_cycles():
    model = from_chi_gamma(1.0, 0.1, 100)
    design_ = design(model, "z", "A")
    total = 160 * 0.05 / (model.chi * 100)  # exactly 160 cycles at max_step=0.05
    coarse = schedule(design_, model, total, max_step=0.05)
    fine = schedule(design_, model, total, max_step=0.025)
    assert fine.cycle_count == 2 * coarse.cycle_count
    (fine_t2, fine_t1), (coarse_t2, coarse_t1) = free_durations(fine), free_durations(coarse)
    assert fine_t1 == pytest.approx(coarse_t1 / 2.0, rel=1e-12)
    assert fine_t2 == pytest.approx(coarse_t2 / 2.0, rel=1e-12)
    assert fine_t2 / fine_t1 == pytest.approx(coarse_t2 / coarse_t1, rel=1e-12)


def test_cycle_limit_convergence():
    # pulsed minimum approaches the effective-twisting minimum as the cycle
    # time shrinks
    n = 40
    model = from_chi_gamma(1.0, 0.1, n)
    space = build_space(n)
    design_ = design(model, "z", "A")
    h_eff = Eigenbasis.of(effective_hamiltonian(design_, model, space))
    psi = coherent_state(space, design_.optimal_initial)
    reference = minimize_hamiltonian(
        space, h_eff, psi, np.linspace(0.0, 5.0 / (abs(design_.chi_eff) * n), 2000)
    )
    deviations = []
    for max_step in (0.2, 0.1, 0.05, 0.025):
        sched = schedule(design_, model, 1.2 * reference.minimum.t, max_step=max_step)
        trace = run_schedule(psi, sched, model)
        deviations.append(abs(trace.minimum.xi2 - reference.minimum.xi2))
    assert all(a > b for a, b in zip(deviations, deviations[1:]))


def test_compare_axes_ordering():
    # the z scheme twists faster than the y scheme for every gamma in (0, 1/2)
    def strengths(gamma):
        model = from_chi_gamma(1.0, gamma, 30)
        return abs(design(model, "z").chi_eff), abs(design(model, "y").chi_eff)

    z, y = strengths(0.1)
    assert z == pytest.approx(1.1 / 3.0, abs=1e-12)
    assert y == pytest.approx(0.8 / 3.0, abs=1e-12)
    assert z > y
    z, y = strengths(0.0)
    assert z == pytest.approx(y, abs=1e-14)
    z, y = strengths(0.4999)
    assert y < 1e-3
    assert z == pytest.approx(0.5, abs=1e-3)


def test_no_pulse_schedule_is_free_evolution():
    model = from_chi_gamma(1.0, 0.5, 16)
    marker = design(model, "z", "A")
    sched = schedule(marker, model, total_time=0.1, max_step=0.05)
    assert len(sched.segments) == 1
    assert free_durations(sched) == [0.1 / sched.cycle_count]
    space = build_space(16)
    psi = coherent_state(space, marker.optimal_initial)
    trace = run_schedule(psi, sched, model)
    direct = minimize_hamiltonian(
        space,
        Eigenbasis.of(realize_hamiltonian(model, space)),
        psi,
        np.linspace(0.0, 0.1, sched.cycle_count + 1),
        refine=False,
        allow_unbracketed=True,
    )
    assert np.allclose(trace.xi2, direct.xi2, atol=1e-9)


def test_design_validation():
    model = from_chi_gamma(1.0, 0.1, 10)
    with pytest.raises(ValueError):
        design(model, "w", "A")
    with pytest.raises(ValueError):
        design(model, "z", "C")
    with pytest.raises(ValueError):
        schedule(design(model, "z", "A"), model, total_time=0.0)


def test_schedule_refuses_a_step_count_too_large_to_round():
    # N chi T / max_step overflows to inf, which ceil cannot round: the count
    # is sized before it is rounded
    model = from_chi_gamma(1.0, 0.1, 10)
    with pytest.raises(TooLarge, match="traces of inf times"):
        schedule(design(model, "z", "A"), model, 1.0, max_step=5e-324)


def test_schedule_refuses_cycle_counts_beyond_memory(monkeypatch):
    # the y scheme slows as gamma -> 1/2: 900,593 cycles at N = 100 and
    # gamma = 0.4999, the boundary states scored a chunk at a time and xi^2
    # kept at each boundary
    model = from_chi_gamma(1.0, 0.4999, 100)
    design_ = design(model, "y", "A")
    with pytest.raises(TooLarge):
        schedule(design_, model, 1.0, cycles=10**15)
    cycles = 900_593
    chunk = TRACE_BLOCKS * 16 * 101 * SCAN_CHUNK
    needed = TRACE_FIXED_BYTES + chunk + SCAN_SAMPLE_BYTES * (cycles + 1)
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": needed}
    monkeypatch.setattr(algebra.os, "sysconf", memory.__getitem__)
    assert schedule(design_, model, 1.0, cycles=cycles).cycle_count == cycles
    with pytest.raises(TooLarge):
        schedule(design_, model, 1.0, cycles=cycles + 1)
