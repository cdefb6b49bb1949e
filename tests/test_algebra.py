import gc
import weakref

import numpy as np
import pytest

from lmgsqueeze import algebra
from lmgsqueeze.algebra import (
    build_space,
    collective_operator,
    quadratic_form,
    second_moment_operators,
)
from lmgsqueeze.errors import InvalidSize, TooLarge
from lmgsqueeze.states import _axis_eig

SIZES = [1, 2, 6, 20, 100]


def ops(n):
    space = build_space(n)
    return space, {lbl: collective_operator(space, lbl).matrix for lbl in ("Sx", "Sy", "Sz", "S+", "S-", "S2")}


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
    # compare_pulsed keeps 14 dense (N+1)^2 matrices, 8 in the space and 6 in
    # three eigenbases: memory for 10 of them admits 8 but must refuse N
    n = 100
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 10 * 16 * (n + 1) ** 2}
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
    total = s["Sx"] @ s["Sx"] + s["Sy"] @ s["Sy"] + s["Sz"] @ s["Sz"]
    expected = space.j * (space.j + 1) * np.eye(space.dim)
    assert np.max(np.abs(total - expected)) < 1e-10
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
    form = quadratic_form(space, 1.0, gamma, 0.0).matrix
    direct = s["Sx"] @ s["Sx"] + gamma * (s["Sy"] @ s["Sy"])
    assert np.max(np.abs(form - direct)) < 1e-12
    assert np.max(np.abs(form - form.conj().T)) < 1e-12


def test_quadratic_form_casimir_identity():
    space, _ = ops(4)
    form = quadratic_form(space, 1.0, 1.0, 1.0).matrix
    assert np.allclose(form, space.j * (space.j + 1) * np.eye(space.dim), atol=1e-12)


def test_quadratic_form_s2_rearrangement():
    # Sx^2 + 0.5 Sy^2 - 0.5 S^2 == 0.5 (Sx^2 - Sz^2)
    space, _ = ops(6)
    lhs = (
        quadratic_form(space, 1.0, 0.5, 0.0).matrix
        - 0.5 * quadratic_form(space, 1.0, 1.0, 1.0).matrix
    )
    rhs = 0.5 * quadratic_form(space, 1.0, 0.0, -1.0).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_unknown_label_rejected():
    space = build_space(2)
    with pytest.raises(ValueError):
        collective_operator(space, "Sq")


def test_quadratic_form_rejects_nonfinite():
    space = build_space(2)
    with pytest.raises(ValueError):
        quadratic_form(space, np.inf, 0.0, 0.0)


def test_operators_are_freed_with_their_space():
    space = build_space(30)
    held = [
        collective_operator(space, "Sx").matrix,
        second_moment_operators(space)["yy"],
        _axis_eig(space, "x")[1],
    ]
    refs = [weakref.ref(mat) for mat in held]
    assert collective_operator(space, "Sx").matrix is held[0]  # kept while the space lives
    del space, held
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_spaces_of_one_size_compare_equal_but_hold_their_own_operators():
    first, second = build_space(8), build_space(8)
    assert first == second and hash(first) == hash(second)
    assert collective_operator(first, "Sz") is not collective_operator(second, "Sz")
