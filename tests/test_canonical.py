import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from lmgsqueeze.algebra import build_space, collective_operator, quadratic_form
from lmgsqueeze.canonical import (
    _SWAP_XZ,
    CouplingMatrix,
    LMGModel,
    canonicalize,
    frame_unitary,
    from_chi_gamma,
    realize_hamiltonian,
)
from lmgsqueeze.errors import AsymmetricInput, DimensionMismatch, InvalidSize, IsotropicCoupling

from oracles import pairwise_collective_hamiltonian


@pytest.mark.parametrize("n_spins", [2.5, 0, -3, np.nan, np.inf])
def test_models_refuse_a_spin_count_that_is_not_a_positive_integer(n_spins):
    # the rule of build_space, not a truncation: 2.5 would build N = 2
    with pytest.raises(InvalidSize, match=r"^n_spins: must be (an integer|>= 1),"):
        from_chi_gamma(1.0, 0.1, n_spins)
    with pytest.raises(InvalidSize, match=r"^n_spins: must be (an integer|>= 1),"):
        canonicalize(CouplingMatrix(chi=np.diag([1.0, 0.25, 0.0])), n_spins)


def test_models_take_an_integral_spin_count_as_an_int():
    for n_spins in (10, 10.0, np.int64(10)):
        model = from_chi_gamma(1.0, 0.1, n_spins)
        assert type(model.n_spins) is int and model.n_spins == 10
        assert canonicalize(CouplingMatrix(chi=np.diag([1.0, 0.25, 0.0])), n_spins).n_spins == 10


def test_diagonal_example():
    model = canonicalize(CouplingMatrix(chi=np.diag([1.0, 0.25, 0.0])), 10)
    assert model.chi == pytest.approx(2.0, abs=1e-12)
    assert model.gamma == pytest.approx(0.25, abs=1e-12)
    assert not model.sign_flipped


def test_isotropic_rejected():
    with pytest.raises(IsotropicCoupling):
        canonicalize(CouplingMatrix(chi=np.eye(3)), 10)
    with pytest.raises(IsotropicCoupling):
        canonicalize(CouplingMatrix(chi=np.zeros((3, 3))), 10)


def test_axis_swap_reduction():
    model = canonicalize(CouplingMatrix(chi=np.diag([1.0, 0.9, 0.0])), 10)
    assert model.gamma == pytest.approx(0.1, abs=1e-12)
    assert model.sign_flipped
    assert model.chi == pytest.approx(2.0, abs=1e-12)


def test_asymmetric_rejected():
    mat = np.diag([1.0, 0.5, 0.0])
    mat[0, 1] = 1e-6
    with pytest.raises(AsymmetricInput):
        canonicalize(CouplingMatrix(chi=mat), 4)


@pytest.mark.parametrize("seed", range(6))
def test_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    base = np.diag(rng.uniform(-1.0, 1.0, size=3))
    reference = canonicalize(CouplingMatrix(chi=base), 8)
    rot = Rotation.random(random_state=rng).as_matrix()
    rotated = canonicalize(CouplingMatrix(chi=rot @ base @ rot.T), 8)
    assert rotated.chi == pytest.approx(reference.chi, abs=1e-9)
    assert rotated.gamma == pytest.approx(reference.gamma, abs=1e-9)


def test_rotated_quarter_case_matches_diagonal():
    rot = Rotation.random(random_state=np.random.default_rng(77)).as_matrix()
    base = np.diag([1.0, 0.25, 0.0])
    model = canonicalize(CouplingMatrix(chi=rot @ base @ rot.T), 10)
    assert model.chi == pytest.approx(2.0, abs=1e-9)
    assert model.gamma == pytest.approx(0.25, abs=1e-9)


def test_degenerate_top_pair_folds_to_oat():
    # Sx^2 + Sy^2 = S^2 - Sz^2: one-axis twisting about z after the fold
    model = canonicalize(CouplingMatrix(chi=np.diag([1.0, 1.0, 0.0])), 8)
    assert model.chi == pytest.approx(2.0, abs=1e-12)
    assert model.gamma == pytest.approx(0.0, abs=1e-12)
    assert model.sign_flipped


def test_all_negative_coupling():
    model = canonicalize(CouplingMatrix(chi=np.diag([-1.0, -0.25, 0.0])), 8)
    assert model.chi == pytest.approx(2.0, abs=1e-12)
    assert model.gamma == pytest.approx(0.25, abs=1e-12)
    assert model.sign_flipped


def test_frame_reproducible_for_equal_inputs():
    mat = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.6]])
    first = canonicalize(CouplingMatrix(chi=mat), 8)
    second = canonicalize(CouplingMatrix(chi=mat.copy()), 8)
    assert np.array_equal(first.frame, second.frame)
    assert first.chi == second.chi and first.gamma == second.gamma


@pytest.mark.parametrize("seed", range(8))
def test_gamma_always_in_range(seed):
    rng = np.random.default_rng(100 + seed)
    mat = rng.normal(size=(3, 3))
    model = canonicalize(CouplingMatrix(chi=0.5 * (mat + mat.T)), 6)
    assert 0.0 <= model.gamma <= 0.5
    assert model.chi > 0.0


@pytest.mark.parametrize("seed", range(8))
def test_frame_is_proper_rotation(seed):
    rng = np.random.default_rng(200 + seed)
    mat = rng.normal(size=(3, 3))
    model = canonicalize(CouplingMatrix(chi=0.5 * (mat + mat.T)), 6)
    assert np.max(np.abs(model.frame @ model.frame.T - np.eye(3))) < 1e-10
    assert np.linalg.det(model.frame) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_spectrum_preservation(seed):
    # eigenvalues of the canonical Hamiltonian (restoring sign and the S^2
    # part of the dropped constant) match the directly built collective form
    rng = np.random.default_rng(300 + seed)
    mat = rng.normal(size=(3, 3))
    coupling = CouplingMatrix(chi=0.5 * (mat + mat.T))
    n = 6
    model = canonicalize(coupling, n)
    space = build_space(n)
    direct = pairwise_collective_hamiltonian(coupling, space)
    pair_constant = -0.5 * n * np.trace(coupling.chi)
    canon = model.sign * realize_hamiltonian(model, space) + (
        model.dropped_constant - pair_constant
    ) * np.eye(space.dim)
    got = np.sort(np.linalg.eigvalsh(canon))
    expected = np.sort(np.linalg.eigvalsh(direct))
    assert np.max(np.abs(got - expected)) < 1e-8


@st.composite
def couplings(draw):
    """Symmetric couplings with entries in [-2, 2]: generic, diagonal, or a
    rotated diagonal with a degenerate pair or with raw gamma > 1/2 (a sign
    flip)."""
    value = st.floats(-2.0, 2.0)
    kind = draw(st.sampled_from(("generic", "diagonal", "degenerate", "flip")))
    if kind == "generic":
        mat = np.zeros((3, 3))
        mat[np.triu_indices(3)] = [draw(value) for _ in range(6)]
        return mat + np.triu(mat, 1).T
    low, high = sorted(draw(value) for _ in range(2))
    diag = [draw(value) for _ in range(3)]
    if kind == "degenerate":
        diag = draw(st.permutations([low, low, high] if draw(st.booleans()) else [low, high, high]))
    elif kind == "flip":
        diag = draw(st.permutations([low, draw(st.floats(0.5 * (low + high), high)), high]))
    if kind == "diagonal":
        return np.diag(diag)
    turn = Rotation.from_rotvec([draw(st.floats(-np.pi, np.pi)) for _ in range(3)]).as_matrix()
    return turn @ np.diag(diag) @ turn.T


@settings(max_examples=300)
@given(chi=couplings(), n=st.integers(1, 10))
@example(chi=np.diag([2.0, 0.0, -2.0]), n=1)
def test_canonical_form_reproduces_the_pairwise_operator(chi, n):
    # not only the spectrum: the frame rotation carries the canonical
    # Hamiltonian onto the lab-frame collective form, up to the constants
    eigenvalues = np.linalg.eigvalsh(chi)
    assume(eigenvalues[-1] - eigenvalues[0] > 1e-6)
    coupling = CouplingMatrix(chi=chi)
    model = canonicalize(coupling, n)
    space = build_space(n)
    u = frame_unitary(model, space)
    canonical = model.sign * realize_hamiltonian(model, space)
    constant = model.dropped_constant + 0.5 * n * np.trace(chi)
    lab = u.conj().T @ canonical @ u + constant * np.eye(space.dim)
    direct = pairwise_collective_hamiltonian(coupling, space)
    # the lab form is 0 for a traceless coupling at N = 1, the canonical never
    scale = max(np.max(np.abs(direct)), np.max(np.abs(canonical)))
    assert np.max(np.abs(lab - direct)) <= 1e-10 * scale


# frames whose z-y-z Euler angles are degenerate or that turn by pi: the
# identity (beta = 0), the x <-> z swap (a pi turn about (1, 0, 1)/sqrt(2))
# and exact pi turns 2 n n^T - 1 (beta = pi about x and y, beta = 0 about z)
SPECIAL_FRAMES = [np.eye(3), _SWAP_XZ] + [
    2.0 * np.outer(axis, axis) - np.eye(3)
    for axis in (*np.eye(3), np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
]
FRAMES = st.integers(0, 2**32 - 1).map(lambda seed: Rotation.random(random_state=seed).as_matrix())


def with_special_frames(**fixed):
    """Run the property on every special frame, besides the drawn ones."""

    def decorate(test):
        for frame in SPECIAL_FRAMES:
            test = example(frame=frame, **fixed)(test)
        return test

    return decorate


@settings(max_examples=50)
@given(frame=FRAMES, n=st.integers(1, 30))
@with_special_frames(n=30)
def test_frame_unitary_rotates_the_collective_spin(frame, n):
    # U^dag S_a U = sum_b frame[a, b] S_b, with no scipy on the path
    space = build_space(n)
    model = LMGModel(1.0, 0.1, frame, sign_flipped=False, n_spins=n, dropped_constant=0.0)
    u = frame_unitary(model, space)
    spin = [collective_operator(space, label) for label in ("Sx", "Sy", "Sz")]
    for a in range(3):
        rotated = sum(frame[a, b] * spin[b] for b in range(3))
        assert np.max(np.abs(u.conj().T @ spin[a] @ u - rotated)) <= 1e-12


def test_realize_oat_and_tat_forms():
    space = build_space(4)
    sx = collective_operator(space, "Sx")
    oat = realize_hamiltonian(from_chi_gamma(1.0, 0.0, 4), space)
    assert np.max(np.abs(oat - sx @ sx)) < 1e-12
    tat = realize_hamiltonian(from_chi_gamma(1.0, 0.5, 4), space)
    assert np.max(np.abs(tat - 0.5 * quadratic_form(space, 2.0, 1.0, 0.0))) < 1e-12


def model_fields(**changed):
    fields = dict(
        chi=1.0, gamma=0.1, frame=np.eye(3), sign_flipped=False, n_spins=4, dropped_constant=0.0
    )
    return dict(fields, **changed)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CouplingMatrix(chi=np.eye(2)), ValueError, "3x3"),
        (lambda: CouplingMatrix(chi=np.full((3, 3), np.inf)), ValueError, "finite"),
        (lambda: LMGModel(**model_fields(chi=0.0)), ValueError, "chi"),
        (lambda: LMGModel(**model_fields(gamma=0.6)), ValueError, "gamma"),
        (lambda: LMGModel(**model_fields(gamma=-0.1)), ValueError, "gamma"),
        (lambda: from_chi_gamma(1.0, 1.5, 4), ValueError, "gamma"),
        (lambda: from_chi_gamma(1.0, -0.1, 4), ValueError, "gamma"),
    ],
)
def test_malformed_model_input_raises_its_typed_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_zero_chi_rejected():
    with pytest.raises(ValueError):
        from_chi_gamma(0.0, 0.25, 4)


def test_direct_gamma_above_half_is_remapped():
    model = from_chi_gamma(1.0, 0.7, 10)
    assert model.gamma == pytest.approx(0.3, abs=1e-12)
    assert model.sign_flipped
    assert model.dropped_constant == pytest.approx(5.0 * 6.0, abs=1e-12)


def test_realize_dimension_mismatch():
    model = from_chi_gamma(1.0, 0.1, 10)
    with pytest.raises(DimensionMismatch):
        realize_hamiltonian(model, build_space(4))


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.4, 0.5])
def test_counter_twist_sum_identity(gamma):
    # chi (Sx^2 + gamma Sy^2) = chi (1 - gamma) Sx^2 - chi gamma Sz^2 + chi gamma S^2:
    # counter-twisting about x and z, equal at gamma = 1/2, one-axis at 0
    space = build_space(6)
    model = from_chi_gamma(1.3, gamma, 6)
    x_twist = quadratic_form(space, model.chi * (1.0 - model.gamma), 0.0, 0.0)
    z_twist = quadratic_form(space, 0.0, 0.0, -model.chi * model.gamma)
    s2 = quadratic_form(space, 1.0, 1.0, 1.0)
    total = x_twist + z_twist + model.chi * model.gamma * s2
    assert np.max(np.abs(total - realize_hamiltonian(model, space))) < 1e-10
