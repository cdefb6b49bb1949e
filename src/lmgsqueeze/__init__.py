"""Exact simulator for spin squeezing under quadratic collective-spin
interactions, with pi/2-pulse schedules that engineer effective two-axis
twisting."""

__version__ = "0.1.0"

from .algebra import DickeSpace, build_space, collective_operator, quadratic_form
from .canonical import (
    CouplingMatrix,
    LMGModel,
    canonicalize,
    from_chi_gamma,
    frame_unitary,
    realize_hamiltonian,
)
from .errors import (
    AsymmetricInput,
    ConfigError,
    DimensionMismatch,
    InvalidSize,
    IsotropicCoupling,
    LmgError,
    MeanSpinVanished,
    NoMinimumFound,
    NotHermitian,
    TooLarge,
    XAxisImpossible,
)
from .metrics import (
    SqueezingSample,
    SqueezingTrace,
    minimize_over_time,
    squeezing_parameter,
)
from .propagate import (
    FreeSegment,
    PulseSchedule,
    PulseSegment,
    evolve,
    run_schedule,
)
from .pulses import PulseDesign, design, effective_hamiltonian, schedule
from .states import BlochAngles, SpinState, coherent_state, rotation

__all__ = [
    "AsymmetricInput",
    "BlochAngles",
    "ConfigError",
    "CouplingMatrix",
    "DickeSpace",
    "DimensionMismatch",
    "FreeSegment",
    "InvalidSize",
    "IsotropicCoupling",
    "LMGModel",
    "LmgError",
    "MeanSpinVanished",
    "NoMinimumFound",
    "NotHermitian",
    "PulseDesign",
    "PulseSchedule",
    "PulseSegment",
    "SpinState",
    "SqueezingSample",
    "SqueezingTrace",
    "TooLarge",
    "XAxisImpossible",
    "build_space",
    "canonicalize",
    "coherent_state",
    "collective_operator",
    "design",
    "effective_hamiltonian",
    "evolve",
    "frame_unitary",
    "from_chi_gamma",
    "minimize_over_time",
    "quadratic_form",
    "realize_hamiltonian",
    "rotation",
    "run_schedule",
    "schedule",
    "squeezing_parameter",
]
