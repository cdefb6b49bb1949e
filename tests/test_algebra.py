import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmgsqueeze import algebra
from lmgsqueeze.algebra import (
    build_space,
    collective_operator,
    quadratic_form,
    second_moment_operators,
)
from lmgsqueeze.errors import InvalidSize, NotHermitian, TooLarge
from lmgsqueeze.states import _x_eig

SIZES = [1, 2, 6, 20, 100]


def ops(n):
    """The collective operators, with S+- = Sx +- i Sy and S^2 the sum of
    the three squares formed from them."""
    space = build_space(n)
    s = {lbl: collective_operator(space, lbl) for lbl in ("Sx", "Sy", "Sz")}
    s["S+"] = s["Sx"] + 1j * s["Sy"]
    s["S-"] = s["Sx"] - 1j * s["Sy"]
    s["S2"] = s["Sx"] @ s["Sx"] + s["Sy"] @ s["Sy"] + s["Sz"] @ s["Sz"]
    return space, s


@pytest.mark.parametrize("n_spins,dim,j", [(100, 101, 50.0), (1, 2, 0.5), (6, 7, 3.0)])
def test_build_space(n_spins, dim, j):
    space = build_space(n_spins)
    assert space.dim == dim
    assert space.j == j


def test_build_space_rejects_zero():
    with pytest.raises(InvalidSize):
        build_space(0)


def test_build_space_refuses_sizes_beyond_memory():
    # dense operators at N = 10^6 would need about 128 TB
    with pytest.raises(TooLarge):
        build_space(10**6)
    assert build_space(1000).dim == 1001


def test_build_space_counts_every_matrix_a_run_keeps(monkeypatch):
    # a run on one space peaks at up to 91.9 bytes per (N+1)^2 at N = 1000
    # (compare_pulsed; the noise Monte Carlo 87.2): the effective
    # Hamiltonian being factored and the v of its basis, the copy, work and
    # rwork of the complex eigh and the freed temporaries malloc keeps (the
    # space keeps its squares as bands): memory for 92 admits N/2 but must
    # refuse N
    n = 100
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 92 * (n + 1) ** 2}
    monkeypatch.setattr(algebra.os, "sysconf", memory.__getitem__)
    with pytest.raises(TooLarge):
        build_space(n)
    assert build_space(n // 2).dim == n // 2 + 1


@pytest.mark.parametrize("n", SIZES)
def test_commutators(n):
    _, s = ops(n)
    pairs = [("Sx", "Sy", "Sz"), ("Sy", "Sz", "Sx"), ("Sz", "Sx", "Sy")]
    for a, b, c in pairs:
        comm = s[a] @ s[b] - s[b] @ s[a]
        assert np.max(np.abs(comm - 1j * s[c])) < 1e-10


@pytest.mark.parametrize("n", SIZES)
def test_casimir(n):
    space, s = ops(n)
    expected = space.j * (space.j + 1) * np.eye(space.dim)
    assert np.max(np.abs(s["S2"] - expected)) < 1e-10


@pytest.mark.parametrize("n", SIZES)
def test_hermiticity(n):
    _, s = ops(n)
    for lbl in ("Sx", "Sy", "Sz", "S2"):
        assert np.max(np.abs(s[lbl] - s[lbl].conj().T)) < 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_ladder_annihilates_extremes(n):
    space, s = ops(n)
    top = np.zeros(space.dim)
    top[0] = 1.0
    bottom = np.zeros(space.dim)
    bottom[-1] = 1.0
    assert np.max(np.abs(s["S+"] @ top)) == 0.0
    assert np.max(np.abs(s["S-"] @ bottom)) == 0.0


def test_single_spin_sz_is_half_pauli():
    _, s = ops(1)
    assert np.allclose(s["Sz"], np.diag([0.5, -0.5]), atol=1e-15)


def test_two_spin_casimir_value():
    _, s = ops(2)
    assert np.allclose(s["S2"], 2.0 * np.eye(3), atol=1e-15)


def test_quadratic_form_matches_products():
    space, s = ops(4)
    gamma = 0.25
    form = quadratic_form(space, 1.0, gamma, 0.0)
    direct = s["Sx"] @ s["Sx"] + gamma * (s["Sy"] @ s["Sy"])
    assert np.max(np.abs(form - direct)) < 1e-12
    assert np.max(np.abs(form - form.conj().T)) < 1e-12


def dense_form(space, a, b, c):
    """a Sx^2 + b Sy^2 + c Sz^2 summed from the dense complex squares."""
    sx, sy = collective_operator(space, "Sx"), collective_operator(space, "Sy")
    sz = np.diag(space.m_values()).astype(complex)
    dense = a * (sx @ sx)
    dense += b * (sy @ sy)
    dense += c * (sz @ sz)
    return dense


COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-1e3, 1e3))


@pytest.mark.parametrize("n", [1, 2, 3, 20, 101])
@settings(max_examples=40, deadline=None)
@given(a=COEFFICIENT, b=COEFFICIENT, c=COEFFICIENT)
def test_quadratic_form_keeps_the_dense_complex_bytes(n, a, b, c):
    # the bands of the real squares summed in real arithmetic give, byte for
    # byte, the form summed from the complex squares, signs of zeros
    # included; the space keeps the squares as real bands and no dense Sz
    dense = dense_form(build_space(n), a, b, c)
    space = build_space(n)
    assert quadratic_form(space, a, b, c).tobytes() == dense.tobytes()
    for bands in second_moment_operators(space).values():
        assert [(band.dtype, band.ndim) for band in bands] == [(np.float64, 1)] * 3
    assert "Sz" not in space._built


@pytest.mark.parametrize("n", [12, 13])
def test_package_forms_add_sz2_on_the_diagonal_with_the_dense_bytes(monkeypatch, n):
    # every form the package builds (the model, its toggled images, h_eff,
    # a noise run's drawn form) has a with no sign bit, so Sz^2 is added on
    # the diagonal alone, byte for byte the dense sum
    from lmgsqueeze import canonical, experiments, propagate, pulses

    made = []

    def recording(space, a, b, c):
        made.append((space, a, b, c))
        return quadratic_form(space, a, b, c)

    for module in (canonical, experiments, propagate, pulses):
        monkeypatch.setattr(module, "quadratic_form", recording)
    for gamma in (0.0, 0.1, 0.3, 0.8):
        model = canonical.from_chi_gamma(0.7, gamma, n)
        experiments.compare_pulsed(model)
    noise = experiments.NoiseSpec("gamma", 0.2, "per_run")
    model = canonical.from_chi_gamma(1.0, 0.1, n)
    experiments.noise_monte_carlo(model, pulses.design(model, "y", "A"), noise, 3, 5, cycles=4)
    assert len(made) > 20
    for space, a, b, c in made:
        assert not np.signbit(a)
        form = quadratic_form(space, a, b, c)
        assert form.tobytes() == dense_form(build_space(space.n_spins), a, b, c).tobytes()


def test_quadratic_form_casimir_identity():
    space, _ = ops(4)
    form = quadratic_form(space, 1.0, 1.0, 1.0)
    assert np.allclose(form, space.j * (space.j + 1) * np.eye(space.dim), atol=1e-12)


def test_quadratic_form_s2_rearrangement():
    # Sx^2 + 0.5 Sy^2 - 0.5 S^2 == 0.5 (Sx^2 - Sz^2)
    space, _ = ops(6)
    lhs = (
        quadratic_form(space, 1.0, 0.5, 0.0)
        - 0.5 * quadratic_form(space, 1.0, 1.0, 1.0)
    )
    rhs = 0.5 * quadratic_form(space, 1.0, 0.0, -1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_unknown_label_rejected():
    # the ladder operators and S^2 are formed by their callers from Sx, Sy, Sz
    space = build_space(2)
    for label in ("Sq", "S+", "S-", "S2"):
        with pytest.raises(ValueError):
            collective_operator(space, label)


def test_quadratic_form_rejects_nonfinite():
    space = build_space(2)
    with pytest.raises(ValueError):
        quadratic_form(space, np.inf, 0.0, 0.0)


def test_operators_are_freed_with_their_space():
    space = build_space(30)
    sx = collective_operator(space, "Sx")
    again = collective_operator(space, "Sx")
    assert np.array_equal(again, sx) and again is not sx  # built afresh, kept by no one
    held = [second_moment_operators(space)["yy"][0], _x_eig(space).blocks[0].v]
    refs = [weakref.ref(mat) for mat in held]
    assert second_moment_operators(space)["yy"][0] is held[0]  # kept while the space lives
    del space, held
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_space_keeps_no_square_matrix_but_the_sx_basis(monkeypatch):
    # after compare_pulsed has built every form, basis and state it needs,
    # the space keeps Sx^2 and Sy^2 as bands: the eigenvectors of Sx, through
    # which pulses about x and y turn, are its one 2-D array
    from lmgsqueeze import canonical, experiments

    spaces = []

    def recording(n_spins):
        spaces.append(build_space(n_spins))
        return spaces[-1]

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for item in value.values():
                yield from arrays(item)
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)
        elif hasattr(value, "__dict__"):
            yield from arrays(vars(value))

    monkeypatch.setattr(experiments, "build_space", recording)
    experiments.compare_pulsed(canonical.from_chi_gamma(1.0, 0.1, 16))
    (space,) = spaces
    assert "moments" in space._built
    kept = [array for array in arrays(space._built) if array.ndim > 1]
    sx_basis = [block.v for block in _x_eig(space).blocks]
    assert all(any(array is v for v in sx_basis) for array in kept)


def test_spaces_of_one_size_compare_equal_but_hold_their_own_operators():
    first, second = build_space(8), build_space(8)
    assert first == second and hash(first) == hash(second)
    assert collective_operator(first, "Sz") is not collective_operator(second, "Sz")


def test_hermiticity_check_sees_every_row_block():
    # an asymmetry inside the last, partial block of rows decides as the dense
    # max |H - H^H| > tol * max(1, max |H|) did, and a passing matrix goes to
    # eigh as it is
    rng = np.random.default_rng(3)
    dim = 2 * algebra.HERMITICITY_ROWS + 7
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = mat + mat.conj().T
    bound = algebra.HERMITICITY_TOL * np.max(np.abs(mat))
    for excess, rejected in ((0.5, False), (2.0, True)):
        skewed = mat.copy()
        skewed[dim - 1, dim - 3] += excess * bound
        if rejected:
            with pytest.raises(NotHermitian):
                algebra.hamiltonian_eig(skewed)
        else:
            w, v = algebra.hamiltonian_eig(skewed)
            want_w, want_v = np.linalg.eigh(skewed)
            assert np.array_equal(w, want_w) and np.array_equal(v, want_v)


def test_hermiticity_check_allocates_less_than_one_dense_matrix():
    # at N = 400 the dense check held the conjugate transpose, the difference
    # and its absolute value, about 2.5 complex matrices; S+ is rejected after
    # the check has seen every row, before eigh allocates anything
    space = build_space(400)
    splus = collective_operator(space, "Sx") + 1j * collective_operator(space, "Sy")
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        with pytest.raises(NotHermitian):
            algebra.hamiltonian_eig(splus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < splus.nbytes
