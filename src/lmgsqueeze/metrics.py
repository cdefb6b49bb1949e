"""Squeezing parameter xi^2 = 4 (Delta S_perp)^2_min / N and its time minimum.

The minimal variance over directions perpendicular to the mean spin is the
smallest eigenvalue of the 2x2 symmetrized covariance in that plane, so no
angular search is needed; the brute-force angular scan survives only in the
tests as an independent oracle.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from .algebra import DickeSpace, Eigenbasis, build_space, collective_operator
from .canonical import LMGModel, realize_hamiltonian
from .errors import MeanSpinVanished, NoMinimumFound
from .propagate import evolve, evolve_batch
from .states import BlochAngles, SpinState, coherent_state

CONTRAST_EPS = 1e-6
REFINE_XTOL = 1e-6


@dataclass(frozen=True)
class SqueezingSample:
    """Squeezing diagnostics of one state at one time."""

    t: float
    xi2: float
    mean_spin: np.ndarray
    contrast: float
    min_variance_axis: np.ndarray


@dataclass(frozen=True)
class TraceMinimum:
    t: float
    xi2: float
    bracketed: bool = True


@dataclass(frozen=True)
class SqueezingTrace:
    """Per-sample arrays (``mean_spin`` and ``min_variance_axis`` of shape
    (3, K), the rest of shape (K,)) plus the located first local minimum."""

    t: np.ndarray
    xi2: np.ndarray
    contrast: np.ndarray
    mean_spin: np.ndarray
    min_variance_axis: np.ndarray
    minimum: TraceMinimum

    @property
    def samples(self) -> tuple:
        """The samples as SqueezingSample objects, built on each access."""
        rows = zip(self.t, self.xi2, self.mean_spin.T, self.contrast, self.min_variance_axis.T)
        return tuple(SqueezingSample(float(t), float(x), m, float(c), a) for t, x, m, c, a in rows)


def _batch_moments(space: DickeSpace, states: np.ndarray):
    """First moments (3, K) and symmetrized second moments (3, 3, K)."""
    applied = [collective_operator(space, lbl) @ states for lbl in ("Sx", "Sy")]
    applied.append(space.m_values()[:, None] * states)  # Sz is diagonal
    conj = states.conj()
    mean = np.empty((3, states.shape[1]))
    for a in range(3):
        mean[a] = np.sum(conj * applied[a], axis=0).real
    second = np.empty((3, 3, states.shape[1]))
    for a in range(3):
        for b in range(a, 3):
            # <Sa Sb> = (Sa psi)^dag (Sb psi); the real part symmetrizes
            second[a, b] = np.sum(applied[a].conj() * applied[b], axis=0).real
            second[b, a] = second[a, b]
    return mean, second


def _perpendicular_frame(directions: np.ndarray):
    """Orthonormal pair (n1, n2) perpendicular to each unit column vector."""
    k = directions.shape[1]
    ref = np.zeros((3, k))
    ref[np.argmin(np.abs(directions), axis=0), np.arange(k)] = 1.0
    n1 = np.cross(ref.T, directions.T).T
    n1 /= np.linalg.norm(n1, axis=0)
    n2 = np.cross(directions.T, n1.T).T
    return n1, n2


def batch_squeezing(space: DickeSpace, states: np.ndarray):
    """Vectorized xi^2, contrast, mean spin, and minimal-variance axis.

    Columns whose contrast falls below CONTRAST_EPS get xi2 = nan (the mean
    spin direction, hence the perpendicular plane, is undefined there).
    """
    n = space.n_spins
    mean, second = _batch_moments(space, states)
    length = np.linalg.norm(mean, axis=0)
    contrast = length / (n / 2.0)
    valid = contrast >= CONTRAST_EPS

    k = states.shape[1]
    xi2 = np.full(k, np.nan)
    axes = np.full((3, k), np.nan)
    if np.any(valid):
        dirs = mean[:, valid] / length[valid]
        n1, n2 = _perpendicular_frame(dirs)
        sec = second[:, :, valid]
        mn = mean[:, valid]

        def cov(u, v):
            quad = np.einsum("ik,ijk,jk->k", u, sec, v)
            return quad - np.sum(u * mn, axis=0) * np.sum(v * mn, axis=0)

        c11 = cov(n1, n1)
        c22 = cov(n2, n2)
        c12 = cov(n1, n2)
        half_tr = 0.5 * (c11 + c22)
        radius = np.sqrt((0.5 * (c11 - c22)) ** 2 + c12**2)
        lam = half_tr - radius
        xi2[valid] = 4.0 * lam / n

        # eigenvector of [[c11, c12], [c12, c22]] for the smaller eigenvalue;
        # fall back to n1 when the plane is degenerate (isotropic variance)
        vx = np.where(radius > 1e-12 * np.maximum(half_tr, 1.0), c12, 0.0)
        vy = np.where(radius > 1e-12 * np.maximum(half_tr, 1.0), lam - c11, 0.0)
        vnorm = np.hypot(vx, vy)
        degenerate = vnorm < 1e-30
        vx = np.where(degenerate, 1.0, vx)
        vy = np.where(degenerate, 0.0, vy)
        vnorm = np.where(degenerate, 1.0, vnorm)
        axes[:, valid] = n1 * (vx / vnorm) + n2 * (vy / vnorm)
    return xi2, contrast, mean, axes


def squeezing_parameter(state: SpinState, t: float = 0.0) -> SqueezingSample:
    """Squeezing diagnostics of a single state.

    Raises MeanSpinVanished when the contrast is below CONTRAST_EPS (the
    over-squeezed regime, where no perpendicular plane is defined).
    """
    (sample,) = trace_from_states(state.space, [t], state.amplitudes[:, None]).samples
    if not np.isfinite(sample.xi2):
        raise MeanSpinVanished(
            f"mean spin contrast {sample.contrast:.3e} below {CONTRAST_EPS:.0e}"
        )
    return sample


def first_local_minimum(values: np.ndarray):
    """Index of the first interior local minimum, or None.

    A plateau counts as a minimum at its left edge (<= on the left, strict <
    on the right); points with a non-finite value or neighbour are skipped.
    """
    v = np.asarray(values)
    finite = np.isfinite(v)
    mid = v[1:-1]
    is_min = (
        finite[:-2] & finite[1:-1] & finite[2:] & (mid <= v[:-2]) & (mid < v[2:])
    )
    hits = np.flatnonzero(is_min)
    return int(hits[0]) + 1 if hits.size else None


def trace_from_states(
    space: DickeSpace, times: np.ndarray, states: np.ndarray
) -> SqueezingTrace:
    """Build a SqueezingTrace from precomputed state columns."""
    times = np.asarray(times, dtype=float)
    xi2, contrast, mean, axes = batch_squeezing(space, states)
    k = first_local_minimum(xi2)
    if k is None:
        finite = np.where(np.isfinite(xi2))[0]
        best = finite[np.argmin(xi2[finite])] if len(finite) else 0
        minimum = TraceMinimum(t=float(times[best]), xi2=float(xi2[best]), bracketed=False)
    else:
        minimum = TraceMinimum(t=float(times[k]), xi2=float(xi2[k]), bracketed=True)
    return SqueezingTrace(times, xi2, contrast, mean, axes, minimum)


def default_horizon(n_spins: int) -> float:
    """Dimensionless scan horizon that brackets the first minimum for any
    gamma in [0, 1/2]; the slowest case (gamma = 0) grows like (N/2)^(1/3)."""
    return max(8.0, 1.0 + 2.2 * (n_spins / 2.0) ** (1.0 / 3.0))


def minimize_hamiltonian(
    space: DickeSpace,
    hamiltonian,
    initial: SpinState,
    times,
    refine: bool = True,
    allow_unbracketed: bool = False,
) -> SqueezingTrace:
    """Sample xi^2 at the strictly increasing ``times`` and locate its first
    local minimum.

    ``hamiltonian`` is an Eigenbasis or a Hermitian matrix, factored once.
    With ``refine``, a golden-section search (relative time tolerance
    REFINE_XTOL) between the neighbouring samples refines the bracketed
    minimum; each step re-evaluates the exact evolution, nothing is
    interpolated.  An unbracketed minimum raises NoMinimumFound, or with
    ``allow_unbracketed`` is returned as the smallest sample.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError(f"times must be a 1-d array of >= 2 samples, got shape {times.shape}")
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("times must be strictly increasing")
    basis = Eigenbasis.of(hamiltonian)
    trace = trace_from_states(space, times, evolve_batch(initial, basis, times))
    if not trace.minimum.bracketed:
        if allow_unbracketed:
            return trace
        raise NoMinimumFound(
            "xi^2 has no bracketed local minimum on the grid; "
            "increase the horizon if the trace is still decreasing"
        )
    if not refine:
        return trace
    k = int(np.searchsorted(times, trace.minimum.t))

    def objective(t: float) -> float:
        xi2, _, _, _ = batch_squeezing(space, evolve(initial, basis, t).amplitudes[:, None])
        return float(xi2[0]) if np.isfinite(xi2[0]) else np.inf

    try:
        result = optimize.minimize_scalar(
            objective,
            bracket=(times[k - 1], times[k], times[k + 1]),
            method="golden",
            options={"xtol": REFINE_XTOL},
        )
    except ValueError:
        return trace  # flat bracket; keep the grid point
    return replace(trace, minimum=TraceMinimum(t=float(result.x), xi2=float(result.fun)))


def minimize_over_time(
    model: LMGModel,
    initial: BlochAngles,
    horizon: float | None = None,
    grid_points: int = 2000,
    refine: bool = True,
) -> SqueezingTrace:
    """Locate the first squeezing minimum of the model from a coherent state.

    ``horizon`` is dimensionless: the scan covers t in [0, horizon/(chi N)]
    on ``grid_points`` uniform samples; None means default_horizon(N).
    Raises NoMinimumFound if xi^2 never turns upward within the horizon.
    """
    if grid_points < 100:
        raise ValueError(f"grid_points must be >= 100, got {grid_points}")
    horizon = default_horizon(model.n_spins) if horizon is None else horizon
    space = build_space(model.n_spins)
    times = np.linspace(0.0, horizon / (model.chi * model.n_spins), grid_points)
    psi0 = coherent_state(space, initial)
    return minimize_hamiltonian(space, realize_hamiltonian(model, space), psi0, times, refine)


def fit_loglog_slope(n_values, xi2_values) -> float:
    """Least-squares slope of log(xi2_min) against log(N)."""
    return float(
        np.polyfit(np.log(np.asarray(n_values, float)), np.log(np.asarray(xi2_values)), 1)[0]
    )
