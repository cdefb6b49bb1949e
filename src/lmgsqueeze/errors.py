"""Exception types shared across the package."""


class LmgError(Exception):
    """Base class for all errors raised by this package."""


class AsymmetricInput(LmgError):
    """Coupling matrix is not symmetric within tolerance."""


class IsotropicCoupling(LmgError):
    """Coupling is proportional to S^2; there is no squeezing anisotropy."""


class DimensionMismatch(LmgError):
    """Operator, state, or model dimensions do not agree."""


class NotHermitian(LmgError):
    """A Hamiltonian argument is not Hermitian."""


class TooLarge(LmgError):
    """Problem size exceeds the supported limit."""


class MeanSpinVanished(LmgError):
    """Mean spin length is too small to define a squeezing direction."""


class NoMinimumFound(LmgError):
    """The squeezing trace has no bracketed local minimum on the grid."""


class XAxisImpossible(LmgError):
    """No positive pulse-timing ratio exists for x-axis pulse sequences."""


class ConfigError(LmgError, ValueError):
    """A value refused by the function that reads it; the message starts with
    its config key.  A ValueError too, for callers that catch ValueError."""


class InvalidSize(ConfigError):
    """Requested spin count cannot form a Dicke space (the CLI exits 2)."""
