"""Exact time evolution under piecewise-constant Hamiltonians.

Evolution uses the Hermitian eigendecomposition of each Hamiltonian, held
in an ``algebra.Eigenbasis`` that the caller builds once and passes in, so
schedules that reuse the same two Hamiltonians thousands of times pay for
two factorizations.  A free segment whose Hamiltonian is applied only once
(a noisy run's per-segment form) carries an ``algebra.BandedForm``
instead, stepped through its bands with no factorization.  The model
Hamiltonian, a real quadratic form that conserves Sz-parity, is factored
as two real blocks of half the size
(``canonical.model_eigenbasis``) and applied as real products; any other
Hamiltonian is factored densely (``Eigenbasis.of``).  Pulses are
instantaneous unitaries (Rabi limit).  A nominal pulse pair about x or y
around free evolution under the model is run in the toggling frame
(``toggled_cycle``): it is free evolution under the conjugated quadratic
form, factored by parity once per realized cycle.  ``realized_cycle`` alone
makes a cycle as it is run, pairs toggled and free Hamiltonians filled in
with a basis: ``run_schedule`` and the noise Monte Carlo step it; z
pulses and drawn pulse errors are applied as rotations.  ``run_cycles`` is
the one executor: segments in, states out, yielded in blocks of at most
SCAN_CHUNK state columns as they are stepped, so a caller scores each
block and drops it and no run holds every cycle-boundary state.  Pulse
schedules (one trajectory) and blocks of noisy trajectories (perturbed
copies of a schedule's segments, held as the columns of one array) run
through it, one product per segment for the whole block; the schedule owns
the cycle-boundary times (``PulseSchedule.times``).  A cycle that keeps
Sz-parity (free segments under parity bases, pulses about z, one value per
column), repeated from ``half_unitary_crossover`` on, is applied as its
unitary on each parity half, a complex (dim/2)^2 block built by
``_apply_cycle`` on that half's identity columns.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import (
    PARITY_ROWS,
    BandedForm,
    DickeSpace,
    Eigenbasis,
    conjugated_coefficients,
    quadratic_form,
)
from .algebra import hamiltonian_eig  # noqa: F401  (re-exported: part of this module's API)
from .canonical import LMGModel, model_eigenbasis
from .errors import DimensionMismatch
from .states import SpinState, rotate_state

# State columns scored at once: the chunks of a minimum search's time scan
# (metrics._scan) and the blocks of cycle boundaries that run_cycles yields.
# The initial-state sweep (N = 100, 300 samples) finds its first minima near
# sample 118; 128 ran it faster than 64 or 192 (2-vCPU x86-64, OpenBLAS 0.3.31).
SCAN_CHUNK = 128


def half_unitary_crossover(half: int) -> int:
    """Cycles from which a repeated parity-keeping cycle is applied as its
    two half unitaries, of size about ``half``, rather than stepped.

    Building the halves costs about one cycle of segments on half-wide
    blocks, O(half^3); each cycle then saves the stepping's products less
    two (half, half) complex products, O(half^2).  Measured on one vector
    (2 vCPU, numpy 2.4.6, OpenBLAS 0.3.31, medians), as build time over the
    time saved per cycle, z and y designs: 2-3 cycles at half 5 to 25,
    3-10 at half 50, 10-12 at half 100, 18-26 at half 150, 27-42 at half
    200, 50-160 at half 350 and 72-100 at half 500 (a shared host: the
    high ends come from its noisiest runs).  Blocks cross over
    earlier: 7-15 cycles at half 200 and 16-77 at half 500 for 8 to 31
    columns.  Half/4, never below 2, sits near the upper end of the
    single-vector crossovers.
    """
    return max(2, half // 4)


def evolve(state: SpinState, basis: Eigenbasis, t: float) -> SpinState:
    """Propagate |psi> to exp(-i H t) |psi>, H given by its Eigenbasis.

    Negative times are permitted (time reversal); the norm is preserved to
    machine precision.
    """
    return SpinState(amplitudes=basis.propagate(state.amplitudes, t), space=state.space)


def evolve_batch(
    state: SpinState, basis: Eigenbasis, times: np.ndarray, phases: np.ndarray | None = None
) -> np.ndarray:
    """States at many times as columns of a (dim, len(times)) array.

    ``phases`` is the basis's ``Eigenbasis.phases(times)`` when the caller
    holds it (one table serves every state sampled on one time grid).
    """
    if phases is None:
        phases = basis.phases(times)
    elif phases.shape != (basis.w.size, np.size(times)):
        raise ValueError(f"phase table of shape {phases.shape} does not match the basis and times")
    return basis.sample(state.amplitudes, phases)


@dataclass(frozen=True)
class FreeSegment:
    """Free evolution for ``duration`` under an Eigenbasis, or under a
    BandedForm applied once; None means the model's Eigenbasis.

    Applied to a block of states (``run_cycles``), ``duration`` may be an
    (R,) array of one duration per column, and a BandedForm's coefficients
    one per column too.
    """

    duration: float | np.ndarray
    hamiltonian: Eigenbasis | BandedForm | None = None

    def __post_init__(self):
        if not np.all((np.asarray(self.duration) >= 0.0) & np.isfinite(self.duration)):
            raise ValueError(f"segment duration must be finite and >= 0, got {self.duration}")
        kinds = (Eigenbasis, BandedForm, type(None))
        if not isinstance(self.hamiltonian, kinds):
            kind = type(self.hamiltonian).__name__
            raise TypeError(
                f"segment Hamiltonian must be an Eigenbasis, a BandedForm or None, got {kind}"
            )


@dataclass(frozen=True)
class PulseSegment:
    """Instantaneous rotation exp(-i angle S_axis); on a block of states,
    ``angle`` may be an (R,) array of one angle per column."""

    axis: str
    angle: float | np.ndarray


@dataclass(frozen=True)
class PulseSchedule:
    """One cycle of segments, applied ``cycle_count`` times.

    Segments are listed in application order; the free segments hold the
    durations, and ``times`` is every run's one time axis.
    """

    segments: tuple
    cycle_count: int

    @property
    def times(self) -> np.ndarray:
        """Elapsed time at each of the cycle_count + 1 cycle boundaries: the
        free durations added one by one in run order, not k * t_c."""
        durations = [seg.duration for seg in self.segments if isinstance(seg, FreeSegment)]
        sums = np.add.accumulate([0.0] + durations * self.cycle_count)
        return sums[:: len(durations)] if durations else np.zeros(self.cycle_count + 1)


def _is_nominal_pair(segments) -> bool:
    """Whether ``segments`` is pulse(a, theta), free evolution under the
    model, pulse(a, -theta), with a = x or y and theta = +-pi/2."""
    if len(segments) != 3:
        return False
    first, free, last = segments
    return (
        isinstance(first, PulseSegment)
        and isinstance(free, FreeSegment)
        and isinstance(last, PulseSegment)
        and first.axis in ("x", "y")
        and last.axis == first.axis
        and free.hamiltonian is None
        and abs(first.angle) == math.pi / 2.0
        and last.angle == -first.angle
    )


def toggled_cycle(space: DickeSpace, segments, coefficients: tuple) -> tuple:
    """``segments`` with each nominal x or y pulse pair run in the toggling frame.

    A pair pulse(a, theta), free(t) under the model, pulse(a, -theta) with
    theta = +-pi/2 applies exp(-i t R^H H R), R = exp(-i theta S_a).  For the
    model's form H with ``coefficients``, R^H H R is the same form with the two
    coefficients other than a's swapped (``conjugated_coefficients``), so the
    pair becomes one free segment under it, factored by parity once per axis.
    Pairs about z stay pulses (a z pulse is a diagonal phase, cheaper than a
    factorization), and so does every other segment.
    """
    out, bases, i = [], {}, 0
    while i < len(segments):
        if _is_nominal_pair(segments[i : i + 3]):
            axis = segments[i].axis
            if axis not in bases:
                form = quadratic_form(space, *conjugated_coefficients(axis, coefficients))
                bases[axis] = Eigenbasis.of_quadratic_form(form)
            out.append(FreeSegment(segments[i + 1].duration, bases[axis]))
            i += 3
        else:
            out.append(segments[i])
            i += 1
    return tuple(out)


def realized_cycle(space: DickeSpace, segments, coefficients: tuple | None, basis) -> tuple:
    """``segments`` as they are run: each nominal x or y pulse pair in the
    toggling frame of the form with ``coefficients`` (``toggled_cycle``;
    None keeps every pulse a rotation), and ``basis`` in place of each free
    segment's Hamiltonian left as None."""
    if coefficients is not None:
        segments = toggled_cycle(space, segments, coefficients)
    return tuple(
        FreeSegment(seg.duration, seg.hamiltonian or basis) if isinstance(seg, FreeSegment) else seg
        for seg in segments
    )


def _apply_cycle(space: DickeSpace, cycle, amps: np.ndarray) -> np.ndarray:
    """One cycle of segments applied to an amplitude vector or a (dim, R)
    block; on ``np.eye(dim)`` it gives the cycle's dense unitary."""
    for seg in cycle:
        if isinstance(seg, FreeSegment):
            amps = seg.hamiltonian.propagate(amps, seg.duration)
        else:
            amps = rotate_state(SpinState(amps, space), seg.axis, seg.angle).amplitudes
    return amps


def _keeps_parity(cycle) -> bool:
    """Whether ``cycle`` maps each Sz-parity half to itself with one value
    for every column: free segments under a two-block parity Eigenbasis and
    pulses about z, each with a scalar duration or angle.  Untoggled x or y
    pulses, tilted pulses and per-column values mix parity or columns."""
    for seg in cycle:
        if isinstance(seg, FreeSegment):
            blocks = getattr(seg.hamiltonian, "blocks", ())
            keeps, value = [block.rows for block in blocks] == list(PARITY_ROWS), seg.duration
        else:
            keeps, value = seg.axis == "z", seg.angle
        if not keeps or np.ndim(value):
            return False
    return True


def _half_unitaries(space: DickeSpace, cycle) -> list:
    """The cycle's unitary on each parity half, a complex (half, half)
    block: one cycle of segments applied to that half's identity columns
    (the other half's rows zero, so each parity basis applies one block)."""
    halves = []
    for rows in PARITY_ROWS:
        size = len(range(space.dim)[rows])
        columns = np.zeros((space.dim, size), dtype=complex)
        columns[rows] = np.eye(size)
        halves.append(_apply_cycle(space, cycle, columns)[rows])
    return halves


def _boundaries(space: DickeSpace, amps: np.ndarray, cycles):
    """Each cycle boundary, the initial state first, as the (rows,
    amplitudes) pairs that fill it: one pair stepped segment by segment, or
    one per parity half when a repeated parity-keeping cycle runs as its
    half unitaries (see ``run_cycles``)."""
    if (
        isinstance(cycles, Sequence)
        and len(cycles) >= half_unitary_crossover(space.dim // 2)
        and all(cycle is cycles[0] for cycle in cycles)
        and _keeps_parity(cycles[0])
    ):
        halves = _half_unitaries(space, cycles[0])
        parts = [amps[rows] for rows in PARITY_ROWS]
        yield zip(PARITY_ROWS, parts)
        for _ in cycles:
            parts = [unitary @ part for unitary, part in zip(halves, parts)]
            yield zip(PARITY_ROWS, parts)
        return
    yield ((slice(None), amps),)
    for segments in cycles:
        amps = _apply_cycle(space, segments, amps)
        yield ((slice(None), amps),)


def run_cycles(state: SpinState, cycles):
    """Apply each cycle (a tuple of segments whose free Hamiltonians are
    Eigenbases) to ``state`` in turn, yielding the states as they are stepped.

    ``state`` holds one amplitude vector or a block of R trajectories as the
    columns of a (dim, R) array, and each segment applies to the whole block
    as one product; its duration or angle may be an (R,) array of one value
    per column.  When ``cycles`` is a sequence holding one cycle object at
    least ``half_unitary_crossover`` times, and that cycle keeps Sz-parity
    with one value for every column (``_keeps_parity``), its unitary is
    built once on each parity half and applied as one product per half per
    cycle; every other sequence is stepped segment by segment.

    Yields the amplitudes at every cycle boundary, starting with the initial
    state, in consecutive blocks along a last axis: (dim, k) or (dim, R, k)
    arrays of k boundaries, k the most that keeps R k within SCAN_CHUNK
    state columns (the last block may hold fewer, and no block fewer than
    one boundary).  Each block is a fresh array, so a caller that reduces it
    and drops it holds one block at a time; the boundary times are the
    schedule's (``PulseSchedule.times``).
    """
    space, amps = state.space, state.amplitudes
    width = max(1, SCAN_CHUNK // (amps.size // space.dim))
    filled = 0
    for boundary in _boundaries(space, amps, cycles):
        if filled == 0:
            block = np.empty(amps.shape + (width,), dtype=complex)
        for rows, values in boundary:
            block[rows, ..., filled] = values
        filled += 1
        if filled == width:
            yield block
            filled = 0
    if filled:
        yield block[..., :filled]


def run_schedule(
    state: SpinState,
    schedule: PulseSchedule,
    model: LMGModel,
    model_basis: Eigenbasis | None = None,
):
    """Apply the schedule, sampling the squeezing trace at its cycle boundaries (``times``).

    ``model_basis``: the Eigenbasis of the model's Hamiltonian, when the
    caller holds it; else ``model_eigenbasis`` factors it.
    """
    space = state.space
    if space.n_spins != model.n_spins:
        raise DimensionMismatch(f"state has N={space.n_spins}, model has N={model.n_spins}")
    basis = model_basis or model_eigenbasis(model, space)
    cycle = realized_cycle(space, schedule.segments, model.coefficients, basis)
    blocks = run_cycles(state, (cycle,) * schedule.cycle_count)

    from .metrics import trace_from_blocks

    return trace_from_blocks(space, schedule.times, blocks)
