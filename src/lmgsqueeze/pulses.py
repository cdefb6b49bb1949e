"""Synthesis of pi/2-pulse schedules that turn anisotropic one-axis-type
twisting into effective two-axis twisting.

One cycle alternates free evolution with a +-pi/2 rotation pair about the
chosen axis, so the state toggles between the bare Hamiltonian
Ha = chi (Sx^2 + gamma Sy^2) and its rotated image Hb for durations t1 and
t2.  Hb is Ha with the two coefficients other than the pulse axis's swapped
(``algebra.conjugated_coefficients``), the rule the executor also uses to
run x and y pulse pairs as free evolution under Hb.  To leading order in
the cycle time the stroboscopic generator is the weighted sum
(t1 Ha + t2 Hb)/(t1 + t2); choosing t2/t1 so that the two quadratic
coefficients sit in ratio 2 (or 1/2) makes that sum a two-axis twisting
Hamiltonian up to a multiple of S^2.

Axis y note: the pulse-toggled sum for the y axis reduces (after removing
S^2) to a multiple of Sx^2 - Sy^2 for the primary branch, i.e. two-axis
twisting about z with strength chi (1 - 2 gamma)/3, with the pole state
|j, j> as its optimal input.  The x axis admits no positive timing ratio at
all, for any gamma in [0, 1/2).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import TRACE_BLOCKS, DickeSpace, quadratic_form, require_memory
from .algebra import conjugated_coefficients
from .canonical import LMGModel
from .errors import XAxisImpossible
from .propagate import FreeSegment, PulseSegment, PulseSchedule
from .states import BlochAngles

# Quadratic coefficients (on Sx^2, Sy^2, Sz^2) of each effective form, and
# the coherent state whose mean spin is left invariant by the twisting.
FORM_COEFFICIENTS = {
    "Sx2+2Sy2": (1.0, 2.0, 0.0),  # == Sy^2 - Sz^2 + S^2, mean spin along x
    "2Sx2+Sy2": (2.0, 1.0, 0.0),  # == Sx^2 - Sz^2 + S^2, mean spin along y
    "Sx2-Sy2": (1.0, -1.0, 0.0),  # two-axis twisting about z, mean spin along z
}
FORM_OPTIMAL_INITIAL = {
    "Sx2+2Sy2": (math.pi / 2.0, 0.0),
    "2Sx2+Sy2": (math.pi / 2.0, math.pi / 2.0),
    "Sx2-Sy2": (0.0, 0.0),
}

@dataclass(frozen=True)
class PulseDesign:
    """Timing ratio and effective twisting strength for one pulse axis.

    ``chi_eff`` is signed: the effective Hamiltonian is
    chi_eff * FORM_COEFFICIENTS[effective_form] plus a multiple of S^2.
    ``no_pulse`` marks a model that is already two-axis twisting
    (gamma = 1/2), where the schedule degenerates to free evolution.
    """

    axis: str
    branch: str
    ratio_t2_t1: float | None
    chi_eff: float
    effective_form: str
    no_pulse: bool = False

    @property
    def form_coefficients(self) -> tuple:
        return FORM_COEFFICIENTS[self.effective_form]

    @property
    def optimal_initial(self) -> BlochAngles:
        theta, phi = FORM_OPTIMAL_INITIAL[self.effective_form]
        return BlochAngles(theta=theta, phi=phi)


def design(model: LMGModel, axis: str, branch: str = "A") -> PulseDesign:
    """Pulse timing and effective strength for the requested axis and branch.

    Branch A of the z axis gives t2/t1 = (gamma - 2)/(2 gamma - 1) and
    chi_eff = chi (1 + gamma)/3 with form Sx^2 + 2 Sy^2; branch B is the
    reciprocal timing with the mirrored form.  The y axis gives
    t2/t1 = (1 + gamma)/(2 - gamma) (branch A) or its reciprocal, with
    |chi_eff| = chi |1 - 2 gamma|/3.  The x axis is impossible: the required
    timing ratio is non-positive for every gamma in [0, 1/2).
    """
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if branch not in ("A", "B"):
        raise ValueError(f"branch must be A or B, got {branch!r}")
    gamma = model.gamma
    chi = model.chi
    if gamma == 0.5:
        # Already two-axis twisting: chi (Sx^2 + Sy^2/2) = (chi/2)(2Sx^2 + Sy^2).
        return PulseDesign(
            axis=axis,
            branch=branch,
            ratio_t2_t1=None,
            chi_eff=chi * (1.0 + gamma) / 3.0,
            effective_form="2Sx2+Sy2",
            no_pulse=True,
        )
    if axis == "x":
        raise XAxisImpossible(
            "x-axis pulse sequences require a non-positive timing ratio "
            f"for gamma = {gamma}; no valid design exists"
        )
    if axis == "z":
        chi_eff = chi * (1.0 + gamma) / 3.0
        if branch == "A":
            return PulseDesign("z", "A", (gamma - 2.0) / (2.0 * gamma - 1.0), chi_eff, "Sx2+2Sy2")
        return PulseDesign("z", "B", (2.0 * gamma - 1.0) / (gamma - 2.0), chi_eff, "2Sx2+Sy2")
    if branch == "A":
        chi_eff = chi * (1.0 - 2.0 * gamma) / 3.0
        return PulseDesign("y", "A", (1.0 + gamma) / (2.0 - gamma), chi_eff, "Sx2-Sy2")
    chi_eff = chi * (2.0 * gamma - 1.0) / 3.0
    return PulseDesign("y", "B", (2.0 - gamma) / (1.0 + gamma), chi_eff, "Sx2+2Sy2")


def schedule(
    design_: PulseDesign,
    model: LMGModel,
    total_time: float,
    max_step: float = 0.05,
    cycles: int | None = None,
) -> PulseSchedule:
    """Concrete schedule covering ``total_time`` with cycles short enough
    that N chi t_c <= max_step.

    One cycle applies, in order: pulse(axis, +pi/2), free(t2),
    pulse(axis, -pi/2), free(t1), which reproduces the single-period
    propagator exp(-i Ha chi' t1) exp(-i Hb chi' t2) exactly; for the y
    axis ``propagate.run_schedule`` applies the pulse pair and free(t2) as
    that exp(-i Hb chi' t2) (the toggling frame).  A run keeps
    the state at every cycle boundary, so a cycle count whose trace would
    not fit in physical memory raises TooLarge.
    """
    if not 0.0 < total_time < math.inf:
        raise ValueError(f"total_time must be finite and > 0, got {total_time}")
    if not 0.0 < max_step < math.inf:
        raise ValueError(f"max_step must be finite and > 0, got {max_step}")
    if cycles is None:
        cycles = max(1, math.ceil(total_time * model.n_spins * model.chi / max_step))
    elif not isinstance(cycles, numbers.Integral) or cycles < 1:
        raise ValueError(f"cycles must be an integer >= 1, got {cycles!r}")
    cycles = int(cycles)
    require_memory(
        TRACE_BLOCKS * 16 * (cycles + 1) * (model.n_spins + 1),
        f"traces of {cycles} cycles at n_spins={model.n_spins}",
    )
    cycle_time = total_time / cycles
    if design_.no_pulse:
        return PulseSchedule(
            segments=(FreeSegment(duration=cycle_time),),
            cycle_count=cycles,
            t1=cycle_time,
            t2=0.0,
        )
    ratio = design_.ratio_t2_t1
    t1 = cycle_time / (1.0 + ratio)
    t2 = cycle_time - t1
    segments = (
        PulseSegment(axis=design_.axis, angle=+math.pi / 2.0),
        FreeSegment(duration=t2),
        PulseSegment(axis=design_.axis, angle=-math.pi / 2.0),
        FreeSegment(duration=t1),
    )
    return PulseSchedule(segments=segments, cycle_count=cycles, t1=t1, t2=t2)


def effective_hamiltonian(
    design_: PulseDesign, model: LMGModel, space: DickeSpace
) -> np.ndarray:
    """Exact first-order stroboscopic generator (t1 Ha + t2 Hb)/(t1 + t2).

    Equals chi_eff times the effective form plus the exact S^2 remainder, so
    the one-cycle propagator converges to exp(-i H_eff t_c) as O(t_c^2).
    """
    gamma = model.gamma
    chi = model.chi
    if design_.no_pulse:
        coeffs = (chi, chi * gamma, 0.0)
    else:
        ratio = design_.ratio_t2_t1
        f1 = 1.0 / (1.0 + ratio)
        f2 = 1.0 - f1
        # the Hamiltonian between the pulses, R^H (Sx^2 + gamma Sy^2) R, in units of chi
        conj = conjugated_coefficients(design_.axis, (1.0, gamma, 0.0))
        coeffs = (
            chi * (f1 * 1.0 + f2 * conj[0]),
            chi * (f1 * gamma + f2 * conj[1]),
            chi * f2 * conj[2],
        )
    return quadratic_form(space, *coeffs)


@dataclass(frozen=True)
class AxisComparison:
    chi_eff_z: float
    chi_eff_y: float
    ratio_z_over_y: float
    faster_axis: str


def compare_axes(model: LMGModel) -> AxisComparison:
    """Effective strengths of the z and y schemes; larger means faster."""
    strength_z = abs(design(model, "z", "A").chi_eff)
    strength_y = abs(design(model, "y", "A").chi_eff)
    return AxisComparison(
        chi_eff_z=strength_z,
        chi_eff_y=strength_y,
        ratio_z_over_y=strength_z / strength_y if strength_y > 0.0 else math.inf,
        faster_axis="z" if strength_z >= strength_y else "y",
    )
