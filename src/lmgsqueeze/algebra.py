"""Collective spin operators on the symmetric (Dicke) subspace, the
Eigenbasis that applies exp(-i t G) for a Hermitian generator G, and the
BandedForm that applies a quadratic form used only once.

For N spin-1/2 particles the symmetric sector carries total spin j = N/2 and
has dimension N + 1.  The basis is ordered by decreasing magnetic quantum
number, so index 0 is |j, j> and index N is |j, -j>.  An operator is a
plain dense, double-precision complex ``np.ndarray``, frozen (read-only)
once built; the squares Sx^2 and Sy^2 are real with entries only on the
diagonals 0 and +-2, and Sz^2 is diagonal (m^2), so a quadratic form is
assembled from those bands and none is kept dense.  A DickeSpace keeps
only real objects: the bands of the squares, the moment weights of
``metrics`` and the real eigenbasis of Sx through which
``states.rotate_state`` turns about x and y, each built on first use (safe
under threads: all callers get the one stored copy) and released with the
space.  ``collective_operator`` builds a fresh matrix on every call, which
its caller drops once used, so no dense operator outlives its use.

Every exp(-i t G) whose G is applied more than once goes through an
Eigenbasis of G (``propagate`` or ``sample``): free evolution, rotations
about x (and about y, between two diagonal quarter turns about z) and
coherent states; a dense propagator is the kernel applied to the
identity.  A quadratic form that a noisy run draws for one segment is
applied once, so it is not factored: a BandedForm steps it through its
bands as a truncated Taylor series, with no eigensolve and no exponential.
Only the diagonal z rotation exponentiates on its own, and
``hamiltonian_eig`` is the one checked dense eigensolver.
The model's chi (Sx^2 + gamma Sy^2), real and Sz-parity conserving, is
factored as two real blocks (``Eigenbasis.of_quadratic_form``), and so is
its image under a quarter turn about x or y, under which nominal pulse
pairs run (``conjugated_coefficients``), and Sx is one real block.  Such a
basis skips a block whose input rows are all zero, so one parity half of
a cycle's unitary is built at one block's cost.  The only dense complex
bases left are the azimuth-0 coherent-state generator and the effective
Hamiltonian that sizes schedules (``experiments.predicted_optimal_time``).
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidSize, NotHermitian, TooLarge

LABELS = ("Sx", "Sy", "Sz")
HERMITICITY_TOL = 1e-10
HERMITICITY_ROWS = 64  # rows per block of the Hermiticity check: no dense temporary
PARITY_ROWS = (slice(0, None, 2), slice(1, None, 2))  # the even and the odd Sz-parity rows
SQUARE_BANDS = (0, 2, -2)  # the diagonals on which Sx^2 and Sy^2 have entries
# Bytes per dim^2 alive for one space at the peak of a run on it.  In
# compare_pulsed that is the eigh of an effective Hamiltonian (one at a
# time: the y design's basis is dropped before the z design's is
# factored): the matrix being factored and the complex v that eigh returns;
# and what numpy's complex eigh holds beside them: its own copy of the
# matrix and zheevd's work and rwork.  The space keeps no dense matrix at
# that point (Sx^2 and Sy^2 are bands, and its x/y pulses run in the
# toggling frame, so no Sx basis is built).  That counts 80; one more
# complex dim^2 covers the freed temporaries that malloc keeps resident.
# Measured peak RSS over the RSS after imports, on 2 vCPU with glibc
# malloc, at N = 1000 (growth between N = 600 and 1000): compare_pulsed
# 91.9 (87.8); the noise Monte Carlo on the nominal N, which keeps the
# model's basis and cycle beside what its effective-Hamiltonian eigh left
# resident, 87.2 (82.1); the initial-state sweep 85.8 (81.3).  A noise run
# that draws its atom number holds two spaces, which
# experiments._noise_outcomes sizes.
DENSE_BYTES_PER_DIM2 = 2 * 16 + 3 * 16 + 16


@dataclass(frozen=True)
class DickeSpace:
    """Symmetric subspace of ``n_spins`` spin-1/2 particles and the objects
    built for it; equality and hashing use (n_spins, dim, j) only."""

    n_spins: int
    dim: int
    j: float
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order: j, j-1, ..., -j."""
        return self.j - np.arange(self.dim)

    def ladder(self) -> np.ndarray:
        """u_k = <k|S+|k+1> = sqrt(j(j+1) - m(m+1)) at m = m_{k+1}: S+ raises
        m, one index up in the descending-m ordering."""
        j, m = self.j, self.m_values()
        return np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))

    def built(self, key, build):
        """The object kept under ``key``, made by ``build()`` on first use."""
        value = self._built.get(key)
        if value is None:
            # setdefault is atomic: concurrent builders all get the stored copy
            value = self._built.setdefault(key, build())
        return value

    def __reduce__(self):
        # a copy sent to another process carries its size, not its operators
        return (DickeSpace, (self.n_spins, self.dim, self.j))


def require_count(value, name: str, least: int = 1, error: type = ConfigError) -> int:
    """``value`` as an int, not truncated; ``error`` naming ``name`` unless it is
    an integer >= ``least`` (x % 1 is nan for inf and nan: int() cannot overflow)."""
    if not value % 1 == 0:
        raise error(f"{name}: must be an integer, got {value!r}")
    if not value >= least:
        raise error(f"{name}: must be >= {least}, got {value!r}")
    return int(value)


def build_space(n_spins: int) -> DickeSpace:
    """The Dicke space of ``n_spins``; TooLarge when the dense operators
    kept for it would not fit in physical memory."""
    n = require_count(n_spins, "n_spins", error=InvalidSize)
    require_memory(DENSE_BYTES_PER_DIM2 * (n + 1) ** 2, f"dense operators at n_spins={n}")
    return DickeSpace(n_spins=n, dim=n + 1, j=n / 2.0)


def require_memory(needed: int, what: str) -> None:
    """Raise TooLarge when ``needed`` bytes, held at once for ``what``,
    exceed physical memory; callers check before they allocate."""
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise TooLarge(
            f"{what} need {needed / 2**30:.3g} GiB, "
            f"more than the {available / 2**30:.3g} GiB of physical memory"
        )


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def collective_operator(space: DickeSpace, label: str) -> np.ndarray:
    """Collective spin operator with standard angular-momentum matrix elements.

    <j, m+-1 | S+- | j, m> = sqrt(j(j+1) - m(m+-1)); Sx = (S+ + S-)/2,
    Sy = (S+ - S-)/(2i), Sz diagonal with entries m.
    Built afresh on every call; the space keeps no copy, so a dense
    complex dim^2 lives only while its caller uses it.
    """
    if label not in LABELS:
        raise ValueError(f"unknown operator label {label!r}, expected one of {LABELS}")
    return _frozen(_operator_matrix(space, label))


def _operator_matrix(space: DickeSpace, label: str) -> np.ndarray:
    if label == "Sz":
        return np.diag(space.m_values()).astype(complex)
    splus = np.diag(space.ladder(), k=1).astype(complex)
    if label == "Sx":
        return 0.5 * (splus + splus.T)
    return -0.5j * (splus - splus.T)  # Sy


def quadratic_form(space: DickeSpace, a: float, b: float, c: float) -> np.ndarray:
    """Return the Hermitian quadratic form a*Sx^2 + b*Sy^2 + c*Sz^2.

    Byte for byte the sum of the dense complex squares, signs of zeros
    included, assembled from the bands the space keeps
    (``second_moment_operators``): a*x + b*y on the diagonal and the +-2
    bands, and off them a*(+0) + b*(+0), the value every other entry of the
    dense sum takes.  Sz^2 is diagonal with entries m^2 exactly, so c*m^2 is
    added on the diagonal alone: off it the dense square adds c*(+-0), which
    changes only a -0 entry, and a*Sx^2 + b*Sy^2 has none when ``a`` has no
    sign bit.  Every form the package builds from a model (chi > 0) has such
    an ``a``.  For a < 0 or a = -0.0 the signs of the zeros follow those of
    the dense product, so that corner forms it.
    """
    for name, coeff in (("a", a), ("b", b), ("c", c)):
        if not np.isfinite(coeff):
            raise ValueError(f"coefficient {name} must be finite, got {coeff!r}")
    squares = second_moment_operators(space)
    dim = space.dim
    # every imaginary part is +0, as in the complex sum, where a*(x + 0j) is
    # a*x + (a*0 + 0*x)j and 0*x = +0; a zeroed array leaves the pages off
    # the bands unwritten, out of the resident set until eigh copies the form
    out = np.zeros((dim, dim), dtype=complex)
    form = out.real
    off_bands = a * 0.0 + b * 0.0
    if np.signbit(off_bands):
        form[...] = off_bands
    for k, x, y in zip(SQUARE_BANDS, squares["xx"], squares["yy"]):
        band = a * x
        band += b * y
        i = np.arange(dim - abs(k))
        form[i + max(-k, 0), i + max(k, 0)] = band
    m = space.m_values()
    if np.signbit(a):
        sz = np.diag(m).astype(complex)
        form += c * (sz @ sz).real
    else:
        i = np.arange(dim)
        form[i, i] += c * m**2
    return _frozen(out)


def conjugated_coefficients(axis: str, coefficients: tuple) -> tuple:
    """Coefficients (on Sx^2, Sy^2, Sz^2) of R^H Q R, for Q the form with
    ``coefficients`` and R = exp(-i theta S_axis) with theta = +-pi/2.

    A quarter turn about one axis maps each of the other two axes to plus or
    minus the other, so their squares, and their coefficients, swap.
    """
    a, b, c = coefficients
    swapped = {"x": (a, c, b), "y": (c, b, a), "z": (b, a, c)}
    if axis not in swapped:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    return swapped[axis]


def second_moment_operators(space: DickeSpace) -> dict[str, tuple]:
    """The squares Sx^2 and Sy^2 as the space keeps them, keyed "xx" and
    "yy": their diagonals on SQUARE_BANDS (0, +2 and -2), taken from the real
    parts of the dense complex products, whose bits reach h_eff.  Every
    other entry of those products is +0 (checked as each is formed), so the
    dense squares are freed once their bands are copied out; Sz^2 is
    diagonal (m^2), so none is kept."""

    def square_bands(label):
        op = collective_operator(space, label)  # its own copy, dropped on return
        square = op @ op
        kept = tuple(_frozen(np.diagonal(square.real, k).copy()) for k in SQUARE_BANDS)
        # +0 is the one float whose bits are all zero: every imaginary part
        # and every real part off the bands is +0
        bits = sum(np.count_nonzero(band.view(np.uint64)) for band in kept)
        assert np.count_nonzero(square.view(np.uint64)) == bits
        return kept

    def build():
        return {"xx": square_bands("Sx"), "yy": square_bands("Sy")}

    return space.built("moments", build)


def hamiltonian_eig(hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix (else NotHermitian):
    the one entry point of every dense eigensolve."""
    mat = np.asarray(hamiltonian)
    sizes, asymmetries = [], []
    for start in range(0, len(mat), HERMITICITY_ROWS):
        rows = slice(start, start + HERMITICITY_ROWS)
        sizes.append(np.max(np.abs(mat[rows])))
        asymmetries.append(np.max(np.abs(mat[rows] - mat[:, rows].conj().T)))
    scale = max(1.0, float(np.max(sizes)))
    if np.max(asymmetries) > HERMITICITY_TOL * scale:
        raise NotHermitian("hamiltonian is not Hermitian")
    return np.linalg.eigh(mat)


def _matmul(matrix: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """``matrix @ amplitudes``; a real matrix multiplies complex amplitudes as
    one real product over their (dim, 2R) float view, where ``@`` would cast
    it to complex and do twice the work."""
    if np.iscomplexobj(matrix) or not np.iscomplexobj(amplitudes):
        return matrix @ amplitudes
    z = np.ascontiguousarray(amplitudes, dtype=complex)
    pairs = z.reshape(z.shape[0], -1).view(np.float64)
    return (matrix @ pairs).view(complex).reshape(z.shape)


@dataclass(frozen=True)
class Block:
    """One diagonal block of a generator: the basis ``rows`` it acts on, the
    slice ``cols`` of ``Eigenbasis.w`` that holds its eigenvalues and its
    eigenvector columns ``v``."""

    rows: slice
    cols: slice
    v: np.ndarray


@dataclass(frozen=True)
class Eigenbasis:
    """Eigenvalues ``w`` and eigenvector ``blocks`` of one Hermitian
    generator G, factored once and reused for every t; the arrays are frozen.

    A dense basis (``of``) is one complex block over every row.  A parity
    basis (``of_quadratic_form``) is two real blocks, the even and the odd
    rows, applied as real products of half the size; no dense eigenvector
    matrix is built for it.
    """

    w: np.ndarray
    blocks: tuple

    def __post_init__(self):
        _frozen(self.w)
        for block in self.blocks:
            _frozen(block.v)

    @classmethod
    def of(cls, hamiltonian) -> "Eigenbasis":
        """Factor the Hermitian matrix ``hamiltonian`` densely."""
        w, v = hamiltonian_eig(hamiltonian)
        return cls(w, (Block(slice(None), slice(None), v),))

    @classmethod
    def of_quadratic_form(cls, matrix) -> "Eigenbasis":
        """Factor a real symmetric a Sx^2 + b Sy^2 + c Sz^2 by Sz-parity.

        Such a matrix couples m only to m +- 2, so its even- and odd-index
        blocks are independent real problems of about half the size.  Any
        matrix with an imaginary part, an asymmetry or a nonzero off the
        diagonals 0 and +-2 raises ValueError.
        """
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        bands = [np.diagonal(mat, k) for k in (0, 2, -2)]
        if np.count_nonzero(mat) != sum(np.count_nonzero(band) for band in bands):
            raise ValueError("quadratic form has entries off the diagonals 0 and +-2")
        if any(np.any(np.imag(band)) for band in bands):
            raise ValueError("quadratic form is not real")
        if np.any(bands[1] != bands[2]):
            raise ValueError("quadratic form is not symmetric")
        real = mat.real
        even, odd = PARITY_ROWS
        w_even, v_even = np.linalg.eigh(real[even, even])
        w_odd, v_odd = np.linalg.eigh(real[odd, odd])
        half = w_even.size
        blocks = (
            Block(even, slice(0, half), v_even),
            Block(odd, slice(half, None), v_odd),
        )
        return cls(np.concatenate([w_even, w_odd]), blocks)

    def phases(self, times) -> np.ndarray:
        """The table exp(-i w t), one row per eigenvalue and one column per
        time, that ``sample`` applies; callers sampling many states on one
        time grid build it once."""
        return np.exp(-1j * np.outer(self.w, np.asarray(times, dtype=float)))

    def propagate(self, amplitudes: np.ndarray, t) -> np.ndarray:
        """exp(-i G t) applied to an amplitude vector, or to each column of a
        (dim, R) block with ``t`` one time or an (R,) array of one per column."""
        w = self.w if np.ndim(amplitudes) == 1 else self.w[:, None]
        return self.sample(amplitudes, np.exp(-1j * w * t))

    def sample(self, amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """v (phases * (v^H @ amplitudes)), block by block.  On one amplitude
        vector, the table ``phases = self.phases(times)`` gives exp(-i G t)
        applied at every time, as the columns of a (dim, len(times)) array.
        A parity block whose input rows are all zero gives zero rows, with
        no product (one parity half of a cycle's unitary is built so)."""
        if len(self.blocks) == 1:  # one block spans every row
            return self._apply_block(self.blocks[0], amplitudes, phases)
        lift = (1,) * (phases.ndim - amplitudes.ndim)  # a vector's coefficients as a column
        tail = np.broadcast_shapes(amplitudes.shape[1:] + lift, phases.shape[1:])
        out = np.empty((amplitudes.shape[0],) + tail, dtype=complex)
        for block in self.blocks:
            rows = amplitudes[block.rows]
            out[block.rows] = self._apply_block(block, rows, phases) if np.any(rows) else 0.0
        return out

    @staticmethod
    def _apply_block(block: Block, amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
        # v^H a as conj(v.T conj(a)): v.T is a view, no copy of v is formed
        coeffs = np.conj(_matmul(block.v.T, np.conj(amplitudes)))
        if coeffs.ndim < phases.ndim:
            coeffs = coeffs[:, None]
        return _matmul(block.v, phases[block.cols] * coeffs)


# Largest ||H t||_1 of one Taylor substep of BandedForm.propagate.  A larger
# step takes fewer products in all, but its terms grow (to about 11 at 4)
# before they cancel, and rounding grows with them: against the eigenbasis
# at ||H t|| = 50 and N = 40 the error was 3e-15 at 4 and 1.2e-14 at 6.
TAYLOR_STEP_NORM = 4.0


def _taylor_degree(eta: float) -> int:
    """The least degree m at which the Taylor remainder of exp(A) v,
    ||A|| <= ``eta``, is below 2^-53 ||v||: the bound is
    eta^(m+1)/(m+1)! / (1 - eta/(m+2)), the first omitted term times a
    geometric tail."""
    m, term = 0, float(eta)  # term = eta^(m+1) / (m+1)!
    while m + 2 <= eta or term / (1.0 - eta / (m + 2)) > 2.0**-53:
        m += 1
        term *= eta / (m + 1)
    return m


class BandedForm:
    """a Sx^2 + b Sy^2 + c Sz^2 held as its diagonal and its +-2 band, for a
    Hamiltonian applied once: ``propagate`` steps a truncated Taylor series
    through the bands, with no eigensolve and no exponential.

    Each coefficient is one value or an (R,) array of one value per column
    of the (dim, R) blocks it is applied to.  In the basis of ``DickeSpace``
    the diagonal is (a + b)/2 (j(j+1) - m_k^2) + c m_k^2 and the band
    <k|H|k+2> = (a - b)/4 u_k u_{k+1}, with u_k = <k|S+|k+1>; the arrays are
    frozen.
    """

    def __init__(self, space: DickeSpace, a, b, c):
        for name, coeff in (("a", a), ("b", b), ("c", c)):
            if not np.all(np.isfinite(coeff)):
                raise ValueError(f"coefficient {name} must be finite, got {coeff!r}")
        j, m, up = space.j, space.m_values(), space.ladder()
        a, b, c = (np.asarray(coeff, dtype=float) for coeff in (a, b, c))
        diagonal = np.multiply.outer(j * (j + 1) - m**2, (a + b) / 2.0)
        diagonal += np.multiply.outer(m**2, c)
        self.diagonal = _frozen(diagonal)
        self.band = _frozen(np.multiply.outer(up[:-1] * up[1:], (a - b) / 4.0))

    def propagate(self, amplitudes: np.ndarray, t) -> np.ndarray:
        """exp(-i H t) applied to an amplitude vector, or to each column of a
        (dim, R) block with ``t`` one time or an (R,) array of one per column.

        The time is cut into s equal substeps, s the least with
        ||H t||_1 / s <= TAYLOR_STEP_NORM (the largest over the columns),
        and each substep applies the Taylor polynomial of the degree that
        ``_taylor_degree`` gives for ||H t||_1 / s: O(||H t|| dim) work.
        """
        diagonal, band = self.diagonal, self.band
        if np.ndim(amplitudes) == 2 and diagonal.ndim == 1:
            diagonal, band = diagonal[:, None], band[:, None]
        t = np.asarray(t, dtype=float)
        # ||H||_1, the largest absolute column sum, of each column's form
        sums = np.abs(diagonal)
        sums[:-2] += np.abs(band)
        sums[2:] += np.abs(band)
        size = float(np.max(np.max(sums, axis=0) * np.abs(t)))
        steps = max(1, math.ceil(size / TAYLOR_STEP_NORM))
        degree = _taylor_degree(size / steps)
        scale = -1j * t / steps
        out = np.array(amplitudes, dtype=complex)
        for _ in range(steps):
            term = out
            for k in range(1, degree + 1):
                product = diagonal * term  # H @ term, through the bands
                product[:-2] += band * term[2:]
                product[2:] += band * term[:-2]
                term = product * (scale / k)
                out = out + term
        return out
