"""Acceptance suite: one test per criterion, each printing a summary line.

Headline parameters mirror the reference setting (N = 100, gamma = 0.1,
pulse bound N chi t_c = 0.05); tolerances are fixed here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from lmgsqueeze.algebra import build_space, collective_operator
from lmgsqueeze.canonical import (
    CouplingMatrix,
    canonicalize,
    frame_unitary,
    from_chi_gamma,
    realize_hamiltonian,
)
from lmgsqueeze.cli import main
from lmgsqueeze.errors import XAxisImpossible
from lmgsqueeze.experiments import (
    NoiseSpec,
    compare_pulsed,
    noise_monte_carlo,
    scaling_study,
    sweep_gamma,
    sweep_initial_state,
)
from lmgsqueeze.metrics import minimize_hamiltonian, squeezing_parameter
from lmgsqueeze.propagate import evolve, evolve_full_product_space, schedule_unitary
from lmgsqueeze.pulses import design, effective_hamiltonian, schedule
from lmgsqueeze.states import BlochAngles, SpinState, coherent_state

from test_metrics import brute_force_xi2


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_01_operator_algebra():
    started = time.monotonic()
    worst_comm = 0.0
    worst_casimir = 0.0
    for n in (1, 2, 6, 20, 100):
        space = build_space(n)
        s = {lbl: collective_operator(space, lbl) for lbl in ("Sx", "Sy", "Sz")}
        for a, b, c in (("Sx", "Sy", "Sz"), ("Sy", "Sz", "Sx"), ("Sz", "Sx", "Sy")):
            comm = s[a] @ s[b] - s[b] @ s[a] - 1j * s[c]
            worst_comm = max(worst_comm, float(np.max(np.abs(comm))))
        casimir = sum(s[l] @ s[l] for l in s) - space.j * (space.j + 1) * np.eye(space.dim)
        worst_casimir = max(worst_casimir, float(np.max(np.abs(casimir))))
    elapsed = time.monotonic() - started
    assert worst_comm < 1e-10
    assert worst_casimir < 1e-10
    assert elapsed < 1.0
    report(1, f"commutator {worst_comm:.2e}, casimir {worst_casimir:.2e}, {elapsed:.2f}s")


def test_criterion_02_product_space_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(20240)
    worst = 1.0
    for n in (4, 6, 8):
        for _ in range(3):
            raw = rng.normal(size=(3, 3))
            coupling = CouplingMatrix(chi=0.5 * (raw + raw.T))
            model = canonicalize(coupling, n)
            t = float(rng.uniform(0.0, 2.0 / (model.chi * n)))
            angles = BlochAngles(
                float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2 * math.pi - 1e-9))
            )
            full = evolve_full_product_space(n, coupling, angles, t)
            assert abs(np.linalg.norm(full.amplitudes) - 1.0) < 1e-9
            space = build_space(n)
            u_frame = frame_unitary(model, space)
            psi = coherent_state(space, angles)
            canonical = SpinState(u_frame @ psi.amplitudes, space)
            evolved = evolve(canonical, model.sign * realize_hamiltonian(model, space), t)
            lab = (u_frame.conj().T @ evolved.amplitudes) * np.exp(
                -1j * model.dropped_constant * t
            )
            worst = min(worst, abs(np.vdot(lab, full.amplitudes)))
    elapsed = time.monotonic() - started
    assert worst >= 1.0 - 1e-8
    assert elapsed < 30.0
    report(2, f"min overlap {worst:.12f}, {elapsed:.1f}s")


def test_criterion_03_sql_reference():
    worst = 0.0
    for n in (1, 40, 100, 200):
        space = build_space(n)
        for theta in np.linspace(0.0, math.pi, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
                xi2 = squeezing_parameter(
                    coherent_state(space, BlochAngles(float(theta), float(phi)))
                ).xi2
                worst = max(worst, abs(xi2 - 1.0))
    assert worst < 1e-9
    report(3, f"max |xi2 - 1| = {worst:.2e} over 4 sizes x 5x5 grid")


def test_criterion_04_directional_brute_force():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 31))
        gamma = float(rng.uniform(0.0, 0.5))
        model = from_chi_gamma(1.0, gamma, n)
        space = build_space(n)
        state = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
        t = float(rng.uniform(0.0, 0.7 / n))
        evolved = evolve(state, realize_hamiltonian(model, space), t)
        xi2 = squeezing_parameter(evolved).xi2
        oracle = brute_force_xi2(evolved, n_angles=3600)
        worst = max(worst, abs(oracle - xi2))
    assert worst < 1e-6
    report(4, f"max |brute force - eigen| = {worst:.2e} over 20 states")


def test_criterion_05_optimal_initial_state():
    started = time.monotonic()
    argmins = []
    for gamma in (0.1, 0.25, 0.4):
        model = from_chi_gamma(1.0, gamma, 100)
        result = sweep_initial_state(model, theta_points=33, phi_points=33, grid_points=300)
        theta0, phi0, xi2_min = result.tables["argmin"].rows[0]
        d_theta = abs(theta0 - math.pi / 2)
        # the model is invariant under a pi rotation about z, so (pi/2, pi/2)
        # and (pi/2, 3pi/2) are exactly degenerate optima
        d_phi = min(abs(phi0 - math.pi / 2), abs(phi0 - 3 * math.pi / 2))
        assert d_theta <= math.pi / 32 + 1e-12
        assert d_phi <= 2 * math.pi / 33 + 1e-12
        argmins.append((gamma, theta0, phi0))
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(5, f"argmins {argmins}, {elapsed:.0f}s")


def test_criterion_06_gamma_monotonicity():
    gammas = [round(0.05 * i, 10) for i in range(11)]
    result = sweep_gamma(100, gammas, chi=1.0, grid_points=2000)
    rows = result.tables["gamma_sweep"].rows
    xi2 = np.array([r[1] for r in rows])
    t_min = np.array([r[2] for r in rows])
    assert np.all(np.diff(xi2) <= 1e-12)
    assert np.all(np.diff(t_min) <= 1e-9)
    # endpoints reproduce the direct simulations bit for bit
    horizon = result.descriptor["parameters"]["horizon"]
    space = build_space(100)
    psi = coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
    for gamma, row in ((0.0, rows[0]), (0.5, rows[-1])):
        model = from_chi_gamma(1.0, gamma, 100)
        direct = minimize_hamiltonian(
            space, realize_hamiltonian(model, space), psi, np.linspace(0.0, horizon / 100.0, 2000)
        )
        assert row[1] == direct.minimum.xi2
        assert row[2] == direct.minimum.t
    report(6, f"xi2 {xi2[0]:.4f}->{xi2[-1]:.4f}, t {t_min[0]*100:.3f}->{t_min[-1]*100:.3f} (chiNt)")


def test_criterion_07_pulse_design_closed_forms():
    model = from_chi_gamma(1.0, 0.1, 100)
    z_a = design(model, "z", "A")
    assert abs(z_a.ratio_t2_t1 - 2.375) < 1e-12
    assert abs(z_a.chi_eff - 1.1 / 3.0) < 1e-12
    y_a = design(model, "y", "A")
    assert abs(y_a.ratio_t2_t1 - 1.1 / 1.9) < 1e-12
    assert abs(y_a.chi_eff - 0.8 / 3.0) < 1e-12
    for gamma in np.linspace(0.0, 0.4999, 21):
        with pytest.raises(XAxisImpossible):
            design(from_chi_gamma(1.0, float(gamma), 100), "x", "A")
    report(7, "ratios 2.375 and 1.1/1.9, strengths 1.1/3 and 0.8/3; x axis refused")


def test_criterion_08_pulsed_comparison():
    started = time.monotonic()
    model = from_chi_gamma(1.0, 0.1, 100)
    result = compare_pulsed(model, branch="A", max_step=0.05)
    minima = {row[0]: row for row in result.tables["minima"].rows}
    z_min, tat_min = minima["pulsed_z"][3], minima["tat"][3]
    rel = abs(z_min - tat_min) / tat_min
    assert rel < 0.05
    assert minima["pulsed_z"][1] < minima["pulsed_y"][1]
    assert minima["lmg"][3] > z_min
    assert minima["lmg"][3] > minima["pulsed_y"][3]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        8,
        f"z vs reference dev {rel*100:.2f}%, t_z={minima['pulsed_z'][1]:.4f} < "
        f"t_y={minima['pulsed_y'][1]:.4f}, lmg {minima['lmg'][3]:.4f} worse, {elapsed:.0f}s",
    )


def test_criterion_09_bch_convergence_order():
    space = build_space(100)
    model = from_chi_gamma(1.0, 0.1, 100)
    design_ = design(model, "z", "A")
    h_eff = effective_hamiltonian(design_, model, space)
    w, v = np.linalg.eigh(h_eff)
    errors = []
    t_c = 0.1 / (model.chi * model.n_spins)
    for _ in range(4):
        sched = schedule(design_, model, total_time=t_c, cycles=1)
        u_cycle = schedule_unitary(sched, model, space)
        u_eff = (v * np.exp(-1j * w * t_c)) @ v.conj().T
        errors.append(float(np.linalg.norm(u_cycle - u_eff, 2)))
        t_c /= 2.0
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    for ratio in ratios:
        assert abs(ratio - 4.0) <= 0.8
    report(9, f"error ratios per halving: {[f'{r:.2f}' for r in ratios]}")


def test_criterion_10_heisenberg_scaling():
    started = time.monotonic()
    result = scaling_study(
        0.1, [50, 100, 200, 400], axis="z", branch="A", pulsed_step_product=5.0
    )
    slopes = dict(result.tables["slopes"].rows)
    assert abs(slopes["TAT"] - (-1.0)) <= 0.1
    assert abs(slopes["OAT"] - (-2.0 / 3.0)) <= 0.05
    assert abs(slopes["pulsed"] - slopes["TAT"]) <= 0.05
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(
        10,
        f"slopes OAT {slopes['OAT']:.3f}, TAT {slopes['TAT']:.3f}, "
        f"pulsed {slopes['pulsed']:.3f}, LMG {slopes['LMG']:.3f}, {elapsed:.0f}s",
    )


PAPER_NOISE_LEVELS = (
    ("pulse_separation", 0.10),
    ("pulse_area", 2e-4),
    ("gamma", 1e-4),
    ("chi", 0.01),
    ("atom_number", 1e-4),
    ("pulse_phase", 1e-3),
)


def test_criterion_11_noise_robustness():
    started = time.monotonic()
    model = from_chi_gamma(1.0, 0.1, 100)
    design_ = design(model, "z", "A")
    deviations = {}
    for channel, sigma in PAPER_NOISE_LEVELS:
        result = noise_monte_carlo(
            model, design_, NoiseSpec(channel, sigma), n_runs=100, seed=2024
        )
        dev = result.tables["summary"].rows[0][4]
        deviations[channel] = dev
        assert dev < 0.10, f"{channel}: dB deviation {dev:.3f}"
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    detail = ", ".join(f"{ch} {dev*100:.2f}%" for ch, dev in deviations.items())
    report(11, f"dB deviations: {detail}; {elapsed:.0f}s")


def test_criterion_12_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = {
        "chi": 1.0,
        "gamma": 0.1,
        "n_spins": 100,
        "experiment": "noise",
        "channel": "pulse_separation",
        "relative_sigma": 0.10,
        "n_runs": 100,
        "seed": 2024,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    outputs = {}
    for label, workers in (("one", 1), ("two", 2), ("repeat", 1)):
        rc = main(
            [
                "noise",
                "--config",
                str(tmp_path / "cfg.json"),
                "--workers",
                str(workers),
                "--out",
                label,
            ]
        )
        assert rc == 0
        outputs[label] = {
            name: (tmp_path / label / f"{name}.csv").read_bytes()
            for name in ("runs", "trace_stats", "summary")
        }
    assert outputs["one"] == outputs["two"]
    assert outputs["one"] == outputs["repeat"]
    report(12, "byte-identical CSVs across reruns and worker counts")
