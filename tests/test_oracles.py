"""The pulse engine against the 2^N product-space oracle.

In the product space a collective spin is S_a = (1/2) sum_j sigma_a^j, free
evolution is the exponential of a quadratic form of those spins and a pulse
is the tensor power of exp(-i theta sigma_a / 2), so nothing here shares
code with the Dicke-basis path.  Each cycle the executor runs (toggled y
pairs, half unitaries past the crossover, stepped segments, per-column pulse
areas, separations and tilts) must give, at every cycle boundary, the
product-space state projected onto the symmetric sector, and the same xi^2.
"""

import math

import numpy as np
import pytest

from lmgsqueeze import propagate
from lmgsqueeze.algebra import build_space
from lmgsqueeze.canonical import from_chi_gamma, model_eigenbasis
from lmgsqueeze.metrics import _squeezing, batch_squeezing
from lmgsqueeze.propagate import (
    FreeSegment,
    PulseSegment,
    half_unitary_crossover,
    realized_cycle,
)
from lmgsqueeze.pulses import design, schedule
from lmgsqueeze.states import BlochAngles, SpinState, coherent_state

from oracles import ProductSpace, apply_step, boundary_states, project_symmetric

SIZES = [4, 6, 8]
CYCLES = 5


def product_steps(product, segments, coefficients) -> list:
    """Each nominal segment as its product-space propagator: pulses (x and
    y pairs included) as tensor powers, free segments under the model."""
    return [
        product.free(coefficients, seg.duration)
        if isinstance(seg, FreeSegment)
        else product.pulse(seg.axis, seg.angle)
        for seg in segments
    ]


def product_run(product, steps, states, cycles) -> np.ndarray:
    """The (2^N, R) block at each of the cycles + 1 boundaries, stacked last."""
    out = [states]
    for _ in range(cycles):
        for step in steps:
            states = apply_step(step, states)
        out.append(states)
    return np.stack(out, axis=-1)


def assert_matches_product_space(space, states, full) -> None:
    """Dicke states (dim, R, K) equal the product-space ones (2^N, R, K)
    projected onto the symmetric sector, each column up to one global phase,
    to 1e-10; xi^2 from the product-space moments equals batch_squeezing's."""
    product = ProductSpace(space.n_spins)
    for r in range(states.shape[1]):
        dicke = states[:, r]
        projected = project_symmetric(space.n_spins, full[:, r])
        overlap = np.vdot(dicke[:, 0], projected[:, 0])
        assert abs(abs(overlap) - 1.0) <= 1e-10
        assert np.max(np.abs(projected - overlap * dicke)) <= 1e-10
        want = _squeezing(space, *product.moments(full[:, r]))[0]
        got = batch_squeezing(space, dicke)[0]
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-10


def nominal(n, axis):
    model = from_chi_gamma(1.0, 0.1, n)
    design_ = design(model, axis, "A")
    sch = schedule(design_, model, total_time=0.4, cycles=CYCLES)
    return model, design_, sch


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("axis", ["z", "y"])
@pytest.mark.parametrize("path", ["half_unitaries", "stepped"])
def test_design_cycles_match_the_product_space(n, axis, path):
    space = build_space(n)
    model, design_, sch = nominal(n, axis)
    basis = model_eigenbasis(model, space)
    cycle = realized_cycle(space, sch.segments, model.coefficients, basis)
    if axis == "y":  # the pulse pair runs as one free segment in the toggling frame
        assert not any(isinstance(seg, PulseSegment) for seg in cycle)
    assert propagate._keeps_parity(cycle)
    count = max(CYCLES, half_unitary_crossover(space.dim // 2))
    cycles = (cycle,) * count if path == "half_unitaries" else (cycle for _ in range(count))
    psi = coherent_state(space, design_.optimal_initial)
    states = boundary_states(psi, cycles)[:, None, :]
    product = ProductSpace(n)
    steps = product_steps(product, sch.segments, model.coefficients)
    full = product_run(product, steps, product.coherent_block(design_.optimal_initial, 1), count)
    assert_matches_product_space(space, states, full)


def perturbed(segments, kind):
    """The z design's cycle with every pulse, or every free segment, drawn
    anew per column as a noise block draws it: pulse areas scaled, tilted
    pulses as five rotations, free durations scaled."""
    factors = np.array([0.93, 1.0, 1.08])
    delta, beta = np.array([0.05, -0.12, 0.2]), np.array([0.3, 2.1, 5.0])
    out = []
    for seg in segments:
        if kind == "separation" and isinstance(seg, FreeSegment):
            out.append(FreeSegment(seg.duration * factors, seg.hamiltonian))
        elif kind == "area" and isinstance(seg, PulseSegment):
            out.append(PulseSegment(seg.axis, seg.angle * factors))
        elif kind == "tilt" and isinstance(seg, PulseSegment):
            tilt_axis = {"z": "y", "y": "x", "x": "z"}[seg.axis]
            out += [
                PulseSegment(seg.axis, -beta),
                PulseSegment(tilt_axis, -delta),
                seg,
                PulseSegment(tilt_axis, delta),
                PulseSegment(seg.axis, beta),
            ]
        else:
            out.append(seg)
    return tuple(out)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["area", "tilt", "separation"])
def test_noise_blocks_match_the_product_space(n, kind):
    space = build_space(n)
    model, _, sch = nominal(n, "z")
    cycle = realized_cycle(space, sch.segments, model.coefficients, model_eigenbasis(model, space))
    drawn = perturbed(cycle, kind)
    assert not propagate._keeps_parity(drawn)
    initial = BlochAngles(math.pi / 2.0, 0.0)
    psi = coherent_state(space, initial).amplitudes
    block = SpinState(np.repeat(psi[:, None], 3, axis=1), space)
    states = boundary_states(block, (drawn,) * CYCLES)
    product = ProductSpace(n)
    steps = product_steps(product, perturbed(sch.segments, kind), model.coefficients)
    full = product_run(product, steps, product.coherent_block(initial, 3), CYCLES)
    assert_matches_product_space(space, states, full)
