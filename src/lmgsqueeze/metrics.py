"""Squeezing parameter xi^2 = 4 (Delta S_perp)^2_min / N and its time minimum.

The minimal variance over directions perpendicular to the mean spin is the
smallest eigenvalue of the 2x2 symmetrized covariance in that plane, so no
angular search is needed; the brute-force angular scan survives only in the
tests as an independent oracle.

The moments behind that covariance come from three bands of each state,
|psi_k|^2, conj(psi_k) psi_{k+1} and conj(psi_k) psi_{k+2}, each summed
along the state's own row with a fixed weight vector: no operator is
applied, and a column's bits do not depend on the batch it came in.  The
one exception is the golden-section objective of minimize_hamiltonian,
which keeps dense Sx and Sy products (_operator_moments), because the
recorded seed-0 benchmark reference pins the refined time that sizes
every schedule to those bits.

The perpendicular frame and the projections on it are written in explicit
components (_cross, _dot): a1 b2 - a2 b1 for each cross product, x, y, z
summed in turn for each dot product and norm.  That is the arithmetic of
np.cross, np.sum and np.linalg.norm on (3, K) columns, so the bits are
theirs, which that refined time needs, without their per-call overhead.
"""

from dataclasses import dataclass, replace

import numpy as np

from .algebra import DickeSpace, Eigenbasis, build_space, collective_operator, require_count
from .algebra import require_memory
from .canonical import LMGModel, model_eigenbasis
from .errors import ConfigError, MeanSpinVanished, NoMinimumFound
from .propagate import SCAN_CHUNK, evolve, evolve_batch
from .states import BlochAngles, SpinState, coherent_state

CONTRAST_EPS = 1e-6
_AXES = np.eye(3)  # columns e_x, e_y, e_z
REFINE_XTOL = 1e-6
# Bytes a scan keeps per time sampled, besides its chunk of states: its
# per-sample results, their concatenation, the time grid and the (K,)
# temporaries of xi^2.  Measured where they weigh most beside the states,
# a whole-grid scan at N = 1 (tracemalloc peak less its blocks and
# TRACE_FIXED_BYTES): 199-211 B per time at K = 200-2000.
SCAN_SAMPLE_BYTES = 216
# Dense complex (N+1) x K blocks alive at once while xi^2 is taken at K
# times (batch_squeezing): the states, their contiguous rows, the half
# block |psi|^2, one band and either its conjugated factor or its weighted
# copy (4.5).  tracemalloc peak at N = 1000, K = 128 and 300: 4.53-4.57
# blocks, numpy's iterator buffers included.  With SCAN_SAMPLE_BYTES per
# time and TRACE_FIXED_BYTES, 5 blocks bound the peak of every scan
# measured from N = 1 to 1000 and K = 100 to 2000, chunked or whole.
TRACE_BLOCKS = 5
# Bytes a scan holds whatever its size: the K = 0 intercept of whole-grid
# scans at N = 1 and 2 is about 5.6 KB (tracemalloc), which the blocks and
# per-time bytes of a tiny scan do not cover (N = 2, K = 100: 44,316 B
# against 41,600 B).
TRACE_FIXED_BYTES = 8192
# golden ratio conjugate 2 / (1 + sqrt(5)), rounded as scipy.optimize rounds it
_GR = 0.61803399
_GC = 1.0 - _GR


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
    """A first minimum; ``refined`` when a golden-section search located it
    between the samples, else it is a sample."""

    t: float
    xi2: float
    bracketed: bool = True
    refined: bool = False


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


def _moment_weights(space: DickeSpace) -> tuple:
    """Weights that reduce the three bands of a state to its moments, kept
    by the space: j(j+1) - m^2, m and m^2 on |psi_k|^2; u_k and
    u_k (m_k + m_{k+1})/2 on conj(psi_k) psi_{k+1}; u_k u_{k+1} on
    conj(psi_k) psi_{k+2}, with u_k = <k|S+|k+1>."""

    def build():
        j, m, up = space.j, space.m_values(), space.ladder()
        return j * (j + 1) - m**2, m, m**2, up, up * (m[:-1] + m[1:]) / 2.0, up[:-1] * up[1:]

    return space.built("moment_weights", build)


def _batch_moments(space: DickeSpace, states: np.ndarray):
    """First moments (3, K) and symmetrized second moments (3, 3, K).

    <S+> = <Sx> + i<Sy>, <S+^2> = <Sx^2 - Sy^2> + 2i<SxSy>_sym and
    <S+Sz + SzS+>/2 = <SxSz>_sym + i<SySz>_sym are sums over the bands
    above the diagonal; <Sx^2 + Sy^2> = <S^2 - Sz^2>, <Sz> and <Sz^2> are
    sums over |psi_k|^2.  Each state is one contiguous row, summed on its
    own (np.sum, not a matrix-vector product, whose rounding follows K).
    """
    rest, m, m_sq, up, up_mid, up_up = _moment_weights(space)
    rows = np.ascontiguousarray(states.T)
    prob = rows.real**2 + rows.imag**2
    # one band at a time, so at most TRACE_BLOCKS blocks are held; no
    # product in place, which numpy rounds differently on a strided column
    two = rows[:, :-2].conj() * rows[:, 2:]
    plus_sq = np.sum(up_up * two, axis=1)
    del two
    one = rows[:, :-1].conj() * rows[:, 1:]
    del rows
    plus = np.sum(up * one, axis=1)
    plus_z = np.sum(up_mid * one, axis=1)
    perp = np.sum(rest * prob, axis=1)
    mean = np.stack((plus.real, plus.imag, np.sum(m * prob, axis=1)))
    second = np.empty((3, 3, prob.shape[0]))
    second[0, 0] = 0.5 * (perp + plus_sq.real)
    second[1, 1] = 0.5 * (perp - plus_sq.real)
    second[2, 2] = np.sum(m_sq * prob, axis=1)
    second[0, 1] = second[1, 0] = 0.5 * plus_sq.imag
    second[0, 2] = second[2, 0] = plus_z.real
    second[1, 2] = second[2, 1] = plus_z.imag
    return mean, second


def _operator_moments(space: DickeSpace, states: np.ndarray, sx_sy: tuple):
    """The moments of _batch_moments from dense products with ``sx_sy``, the
    dense (Sx, Sy) of the space, whose bits BLAS rounds with the column
    count.

    Only minimize_hamiltonian's golden-section objective takes them: the
    recorded seed-0 benchmark reference pins the refined time that sizes
    schedules (experiments.predicted_optimal_time) to these bits.  Delete
    this kernel when that reference is re-recorded (ROADMAP item 1).
    """
    applied = [op @ states for op in sx_sy]
    applied.append(space.m_values()[:, None] * states)  # Sz is diagonal
    conj = states.conj()
    mean = np.empty((3, states.shape[1]))
    for a in range(3):
        mean[a] = np.sum(conj * applied[a], axis=0).real
    second = np.empty((3, 3, states.shape[1]))
    for a in range(3):
        # each applied block is conjugated once, into the buffer of the
        # states' conjugate, which the means no longer need
        bra = np.conjugate(applied[a], out=conj)
        for b in range(a, 3):
            # <Sa Sb> = (Sa psi)^dag (Sb psi); the real part symmetrizes
            second[a, b] = np.sum(bra * applied[b], axis=0).real
            second[b, a] = second[a, b]
    return mean, second


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise dot product of (3, K) arrays, summed x, y, z in turn as
    np.sum(a * b, axis=0) and np.linalg.norm(a, axis=0) sum it."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise a x b of (3, K) arrays, each component a1 b2 - a2 b1 as
    np.cross computes it."""
    return np.array(
        (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    )


def _perpendicular_frame(directions: np.ndarray):
    """Orthonormal pair (n1, n2) perpendicular to each unit column vector d:
    n1 along e x d for the axis e of d's smallest |component| (the first on
    a tie), n2 = d x n1."""
    ref = _AXES[:, np.argmin(np.abs(directions), axis=0)]
    n1 = _cross(ref, directions)
    n1 /= np.sqrt(_dot(n1, n1))
    return n1, _cross(directions, n1)


def batch_squeezing(space: DickeSpace, states: np.ndarray):
    """Vectorized xi^2, contrast, mean spin, and minimal-variance axis of
    each column of ``states`` (see _squeezing)."""
    return _squeezing(space, *_batch_moments(space, states))


def _squeezing(space: DickeSpace, mean: np.ndarray, second: np.ndarray):
    """xi^2, contrast, mean spin, and minimal-variance axis from the first
    moments (3, K) and symmetrized second moments (3, 3, K).

    Columns whose contrast falls below CONTRAST_EPS get xi2 = nan (the mean
    spin direction, hence the perpendicular plane, is undefined there); the
    others are copied out only when there are such columns.
    """
    n = space.n_spins
    length = np.sqrt(_dot(mean, mean))
    contrast = length / (n / 2.0)
    valid = contrast >= CONTRAST_EPS
    if valid.all():
        xi2, axes = _plane_minimum(n, mean, second, length)
        return xi2, contrast, mean, axes
    xi2 = np.full(mean.shape[1], np.nan)
    axes = np.full(mean.shape, np.nan)
    if valid.any():
        xi2[valid], axes[:, valid] = _plane_minimum(
            n, mean[:, valid], second[:, :, valid], length[valid]
        )
    return xi2, contrast, mean, axes


def _plane_minimum(n: int, mean: np.ndarray, second: np.ndarray, length: np.ndarray):
    """(xi^2, minimal-variance axis) of columns whose mean spin has
    ``length`` >= CONTRAST_EPS N/2: the smaller eigenvalue and its
    eigenvector of the 2x2 covariance in the plane perpendicular to it."""
    n1, n2 = _perpendicular_frame(mean / length)
    along1, along2 = _dot(n1, mean), _dot(n2, mean)  # zero up to rounding
    c11 = np.einsum("ik,ijk,jk->k", n1, second, n1) - along1 * along1
    c22 = np.einsum("ik,ijk,jk->k", n2, second, n2) - along2 * along2
    c12 = np.einsum("ik,ijk,jk->k", n1, second, n2) - along1 * along2
    half_tr = 0.5 * (c11 + c22)
    radius = np.sqrt((0.5 * (c11 - c22)) ** 2 + c12**2)
    lam = half_tr - radius

    # eigenvector of [[c11, c12], [c12, c22]] for the smaller eigenvalue;
    # fall back to n1 when the plane is degenerate (isotropic variance)
    split = radius > 1e-12 * np.maximum(half_tr, 1.0)
    vx = np.where(split, c12, 0.0)
    vy = np.where(split, lam - c11, 0.0)
    vnorm = np.hypot(vx, vy)
    degenerate = vnorm < 1e-30
    vx = np.where(degenerate, 1.0, vx)
    vy = np.where(degenerate, 0.0, vy)
    vnorm = np.where(degenerate, 1.0, vnorm)
    return 4.0 * lam / n, n1 * (vx / vnorm) + n2 * (vy / vnorm)


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


def _located(times: np.ndarray, xi2: np.ndarray, k: int | None) -> TraceMinimum:
    """The bracketed minimum at sample ``k``, or with ``k`` None the smallest
    finite sample, unbracketed."""
    if k is None:
        finite = np.where(np.isfinite(xi2))[0]
        best = finite[np.argmin(xi2[finite])] if len(finite) else 0
        return TraceMinimum(t=float(times[best]), xi2=float(xi2[best]), bracketed=False)
    return TraceMinimum(t=float(times[k]), xi2=float(xi2[k]), bracketed=True)


def trace_from_states(
    space: DickeSpace, times: np.ndarray, states: np.ndarray
) -> SqueezingTrace:
    """Build a SqueezingTrace from precomputed state columns."""
    times = np.asarray(times, dtype=float)
    xi2, contrast, mean, axes = batch_squeezing(space, states)
    return SqueezingTrace(
        times, xi2, contrast, mean, axes, _located(times, xi2, first_local_minimum(xi2))
    )


def _joined(parts: list, end: int | None = None) -> tuple:
    """The per-sample arrays of consecutive traces, concatenated and cut
    after ``end`` samples."""
    return tuple(
        np.concatenate([getattr(p, f) for p in parts], axis=-1)[..., :end]
        for f in ("t", "xi2", "contrast", "mean_spin", "min_variance_axis")
    )


def trace_from_blocks(space: DickeSpace, times: np.ndarray, blocks) -> SqueezingTrace:
    """The trace of consecutive blocks of state columns (the blocks of one
    trajectory that propagate.run_cycles yields) at ``times``, each block
    scored as it comes and dropped, and the first local minimum of the whole."""
    times = np.asarray(times, dtype=float)
    parts, start = [], 0
    for block in blocks:
        stop = start + block.shape[-1]
        parts.append(trace_from_states(space, times[start:stop], block))
        start = stop
    t, xi2, contrast, mean, axes = _joined(parts)
    return SqueezingTrace(t, xi2, contrast, mean, axes, _located(t, xi2, first_local_minimum(xi2)))


def require_trace_memory(
    n_spins: int, samples, every_sample: bool, sample_bytes: int = 0, columns: int = 1
):
    """TooLarge when xi^2 at ``samples`` times (inf allowed) of ``columns``
    trajectories at ``n_spins`` would not fit in physical memory:
    TRACE_BLOCKS blocks of every state with ``every_sample``, else of one
    chunk (SCAN_CHUNK state columns, but at least one time of every
    trajectory, as propagate.run_cycles yields them), plus SCAN_SAMPLE_BYTES
    per time and TRACE_FIXED_BYTES either way; the caller keeps
    ``sample_bytes`` per time."""
    block = TRACE_BLOCKS * 16 * (n_spins + 1) * columns
    held = block * (samples if every_sample else min(samples, max(1, SCAN_CHUNK // columns)))
    per_sample = SCAN_SAMPLE_BYTES + sample_bytes
    needed = TRACE_FIXED_BYTES + held + per_sample * samples
    require_memory(needed, f"traces of {samples} times at n_spins={n_spins}")


def default_horizon(n_spins: int) -> float:
    """Dimensionless scan horizon that brackets the first minimum for any
    gamma in [0, 1/2]; the slowest case (gamma = 0) grows like (N/2)^(1/3)."""
    return max(8.0, 1.0 + 2.2 * (n_spins / 2.0) ** (1.0 / 3.0))


def scan_times(rate: float, n_spins: int, horizon: float | None, grid_points: int) -> tuple:
    """(horizon, times): every scan grid, ``grid_points`` uniform t in
    [0, horizon/(rate N)] for the dimensionless ``horizon`` (None means
    default_horizon(N)).  It checks the SCAN_SAMPLE_BYTES per time any scan
    holds; callers check their states (require_trace_memory) before."""
    horizon = default_horizon(n_spins) if horizon is None else horizon
    if not 0.0 < horizon < np.inf:
        raise ConfigError(f"horizon: must be finite and > 0, got {horizon!r}")
    grid_points = require_count(grid_points, "grid_points", least=100)
    require_memory(SCAN_SAMPLE_BYTES * grid_points, f"a scan grid of {grid_points} times")
    return horizon, np.linspace(0.0, horizon / (rate * n_spins), grid_points)


def _golden(func, xa: float, xb: float, xc: float, tol: float):
    """Golden-section search for a minimum of ``func`` inside xa < xb < xc.

    A step-for-step copy of scipy 1.17's ``minimize_scalar(method="golden")``
    on a three-point bracket: the same first interior point, stopping test
    |x3 - x0| <= tol (|x1| + |x2|), 5000-step cap and tie rule, so it returns
    the same bits.  Returns (x, func(x)), or None when f(xb) is not below
    both ends.
    """
    fa, fb, fc = func(xa), func(xb), func(xc)
    if not (fb < fa and fb < fc):
        return None
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GC * (xc - xb)
    else:
        x1, x2 = xb - _GC * (xb - xa), xb
    f1, f2 = func(x1), func(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= tol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, _GR * x2 + _GC * x3
            f1, f2 = f2, func(x2)
        else:
            x3, x2, x1 = x2, x1, _GR * x1 + _GC * x0
            f2, f1 = f1, func(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def _scan(
    space: DickeSpace,
    basis: Eigenbasis,
    initial: SpinState,
    times: np.ndarray,
    phases: np.ndarray | None,
    every_sample: bool,
) -> SqueezingTrace:
    """xi^2 at ``times``, sampled SCAN_CHUNK columns at a time, and the
    first local minimum of the whole grid.

    A sample is a minimum by its two neighbours alone, so once a chunk
    brackets one, later samples cannot move it: the scan stops there and
    the trace ends one sample past the minimum.  Without a bracketed
    minimum every time is sampled.  ``every_sample`` samples the whole grid
    as one chunk: BLAS may round the last columns of a product differently
    with its width, so rows that are written keep the one-product bits.
    """
    width = times.size if every_sample else SCAN_CHUNK
    parts, before = [], np.empty(0)  # before: the last two samples before the chunk
    for start in range(0, times.size, width):
        cols = slice(start, start + width)
        chunk_phases = None if phases is None else phases[:, cols]
        states = evolve_batch(initial, basis, times[cols], chunk_phases)
        part = trace_from_states(space, times[cols], states)
        parts.append(part)
        # no earlier sample that has both neighbours is a minimum, so the
        # candidates lie in the chunk and the two samples before it
        window = np.concatenate([before, part.xi2])
        hit = first_local_minimum(window)
        k = None if hit is None else start - before.size + hit
        if k is not None:
            break
        before = window[-2:]
    end = times.size if every_sample or k is None else k + 2
    t, xi2, contrast, mean, axes = _joined(parts, end)
    return SqueezingTrace(t, xi2, contrast, mean, axes, _located(t, xi2, k))


def minimize_hamiltonian(
    space: DickeSpace,
    basis: Eigenbasis,
    initial: SpinState,
    times,
    refine: bool = True,
    allow_unbracketed: bool = False,
    phases: np.ndarray | None = None,
    every_sample: bool = False,
) -> SqueezingTrace:
    """Sample xi^2 at the strictly increasing ``times`` and locate its first
    local minimum.

    ``basis`` is the Hamiltonian's Eigenbasis; ``phases`` is its
    ``Eigenbasis.phases(times)`` when the caller holds it.
    The times are sampled in chunks of SCAN_CHUNK, and sampling stops at
    the chunk that brackets the first minimum: the returned trace ends one
    sample past it, unless ``every_sample`` asks for every time (in one
    chunk).
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
    if phases is not None and phases.shape != (basis.w.size, times.size):
        raise ValueError(f"phase table of shape {phases.shape} does not match the basis and times")
    trace = _scan(space, basis, initial, times, phases, every_sample)
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
    # one dense (Sx, Sy) per refinement, not per objective call, dropped
    # with it: the space keeps no dense complex operator
    sx_sy = collective_operator(space, "Sx"), collective_operator(space, "Sy")

    def objective(t: float) -> float:
        state = evolve(initial, basis, t).amplitudes[:, None]
        xi2, _, _, _ = _squeezing(space, *_operator_moments(space, state, sx_sy))
        return float(xi2[0]) if np.isfinite(xi2[0]) else np.inf

    found = _golden(objective, times[k - 1], times[k], times[k + 1], REFINE_XTOL)
    if found is None:
        return trace  # flat bracket; keep the grid point
    minimum = TraceMinimum(t=float(found[0]), xi2=float(found[1]), refined=True)
    return replace(trace, minimum=minimum)


def minimize_over_time(
    model: LMGModel,
    initial: BlochAngles,
    horizon: float | None = None,
    grid_points: int = 2000,
    refine: bool = True,
) -> SqueezingTrace:
    """Locate the first squeezing minimum of the model from a coherent state.

    ``horizon`` is dimensionless: the scan covers t in [0, horizon/(chi N)]
    on ``grid_points`` uniform samples (scan_times).
    Raises NoMinimumFound if xi^2 never turns upward within the horizon.
    """
    require_trace_memory(model.n_spins, grid_points, every_sample=False)
    _, times = scan_times(model.chi, model.n_spins, horizon, grid_points)
    space = build_space(model.n_spins)
    psi0 = coherent_state(space, initial)
    return minimize_hamiltonian(space, model_eigenbasis(model, space), psi0, times, refine)


def fit_loglog_slope(n_values, xi2_values) -> float:
    """Least-squares slope of log(xi2_min) against log(N)."""
    return float(
        np.polyfit(np.log(np.asarray(n_values, float)), np.log(np.asarray(xi2_values)), 1)[0]
    )
